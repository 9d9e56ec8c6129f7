//! The global recorder: spans, counters, histograms — on per-thread
//! timelines.
//!
//! Every recording thread owns a *timeline*: a stable numeric thread id
//! (assigned on first use, process-wide) plus its own stack of open
//! spans. Spans nest within their thread only, so concurrent workers
//! (`stackbound::par_map`, the `sbound serve` worker pool) never
//! interleave into each other's trees, and the Chrome-trace exporter can
//! lay every worker out on its own track.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Whether a recorder is installed. Checked first by every recording
/// function; `Relaxed` is enough because the state behind it is guarded
/// by the mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);

static STATE: OnceLock<Mutex<State>> = OnceLock::new();

/// Process-wide timeline-id allocator; ids are never reused, so a span
/// recorded by a short-lived worker keeps pointing at a unique track.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's timeline id, assigned on first recording use.
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The calling thread's stable timeline id. Ids are assigned on first
/// use, are unique for the process lifetime, and order by first
/// recording activity (the installing thread is 0 in a fresh process).
pub fn thread_id() -> u64 {
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

fn state() -> MutexGuard<'static, State> {
    STATE
        .get_or_init(|| Mutex::new(State::new(0)))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct SpanData {
    name: String,
    /// The timeline (thread) the span was opened on.
    tid: u64,
    parent: Option<usize>,
    children: Vec<usize>,
    start: Instant,
    /// `None` while the span is still open.
    duration_ns: Option<u64>,
    counters: BTreeMap<String, u64>,
}

struct State {
    epoch: Instant,
    /// Bumped by every [`install`]; span guards from an earlier session
    /// compare against it and become no-ops instead of closing an
    /// unrelated span of the new session.
    generation: u64,
    spans: Vec<SpanData>,
    /// Per-thread stacks of currently open spans, innermost last.
    open: BTreeMap<u64, Vec<usize>>,
    /// Labels registered via [`register_thread`].
    thread_names: BTreeMap<u64, String>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl State {
    fn new(generation: u64) -> State {
        State {
            epoch: Instant::now(),
            generation,
            spans: Vec::new(),
            open: BTreeMap::new(),
            thread_names: BTreeMap::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

/// A handle returned by [`install`]; dropping it uninstalls the recorder
/// (so a test cannot leak a recorder into its neighbors).
#[must_use = "dropping the session uninstalls the recorder"]
pub struct Session(());

impl Drop for Session {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Installs a fresh global recorder and returns the session handle.
/// Recording functions are no-ops until this is called. Re-installing
/// resets all recorded data (spans still held open by guards from the
/// previous session are orphaned, not resurrected). The installing
/// thread's timeline is labeled `main` until [`register_thread`] renames
/// it.
pub fn install() -> Session {
    let mut st = state();
    let generation = st.generation + 1;
    *st = State::new(generation);
    let tid = thread_id();
    st.thread_names.insert(tid, "main".to_owned());
    ENABLED.store(true, Ordering::Relaxed);
    Session(())
}

/// Uninstalls the recorder; subsequent recording calls are no-ops again.
/// Recorded data is retained until the next [`install`], so a final
/// [`report`] is still possible.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True when a recorder is installed. Use to guard instrumentation whose
/// *argument construction* is itself costly; plain calls already check.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Labels the calling thread's timeline in reports and trace exports
/// (worker pools call this once per spawned thread; unlabeled timelines
/// render as `thread-<id>`). No-op unless installed.
pub fn register_thread(name: &str) {
    if !is_enabled() {
        return;
    }
    let tid = thread_id();
    state().thread_names.insert(tid, name.to_owned());
}

/// An RAII guard for one span; the span closes when the guard drops.
/// The guard remembers the session generation it was opened under, so a
/// guard that outlives its session is a no-op.
#[must_use = "a span measures until it is dropped"]
pub struct Span(Option<(u64, usize)>);

/// Opens a nested, wall-clock-timed span on the calling thread's
/// timeline. No-op unless installed.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span(None);
    }
    open_span(name.to_owned())
}

/// [`span`] with a lazily built name, for dynamic labels like
/// `analyzer/fn/<name>`; the closure only runs when a recorder is
/// installed.
#[inline]
pub fn span_dyn(make_name: impl FnOnce() -> String) -> Span {
    if !is_enabled() {
        return Span(None);
    }
    open_span(make_name())
}

fn open_span(name: String) -> Span {
    let tid = thread_id();
    let mut st = state();
    let generation = st.generation;
    let parent = st.open.get(&tid).and_then(|stack| stack.last().copied());
    let id = st.spans.len();
    st.spans.push(SpanData {
        name,
        tid,
        parent,
        children: Vec::new(),
        start: Instant::now(),
        duration_ns: None,
        counters: BTreeMap::new(),
    });
    if let Some(p) = parent {
        st.spans[p].children.push(id);
    }
    st.open.entry(tid).or_default().push(id);
    Span(Some((generation, id)))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((generation, id)) = self.0 else {
            return;
        };
        let mut st = state();
        if st.generation != generation {
            return; // recorder was re-installed while the span was open
        }
        let now = Instant::now();
        // Close on the timeline the span was *opened* on — robust even if
        // the guard is dropped by another thread.
        let tid = st.spans[id].tid;
        if let Some(stack) = st.open.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.truncate(pos);
            }
        }
        if let Some(s) = st.spans.get_mut(id) {
            s.duration_ns = Some(now.duration_since(s.start).as_nanos() as u64);
        }
    }
}

/// Adds `delta` to the named counter. The count is recorded both globally
/// and on the calling thread's innermost open span, so the summary tree
/// can attribute work to pipeline stages (and the hotspot table to
/// functions). No-op unless installed.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    add_counter(name, delta);
}

/// [`counter`] with an owned name, for dynamic labels.
#[inline]
pub fn counter_dyn(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    add_counter(name, delta);
}

fn add_counter(name: &str, delta: u64) {
    let tid = thread_id();
    let mut st = state();
    *st.counters.entry(name.to_owned()).or_insert(0) += delta;
    if let Some(&open) = st.open.get(&tid).and_then(|stack| stack.last()) {
        *st.spans[open].counters.entry(name.to_owned()).or_insert(0) += delta;
    }
}

/// Records one observation into the named histogram (log2 buckets plus
/// count/sum/min/max). No-op unless installed.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut st = state();
    st.histograms
        .entry(name.to_owned())
        .or_default()
        .record(value);
}

/// A histogram with power-of-two buckets: bucket `i` counts values whose
/// bit length is `i` (bucket 0 counts zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// `buckets[i]` counts observations with `bit_length(value) == i`.
    pub buckets: Vec<u64>,
}

/// The empty histogram: `min` starts at `u64::MAX` so the first
/// [`Histogram::record`] takes it (exporters print 0 while `count == 0`).
impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }
}

impl Histogram {
    /// Rebuilds a histogram from its exported parts (the fields of a
    /// JSON-lines `hist` record), so external tools — `obs-diff`,
    /// `obs_regress` — can compute percentiles on ingested reports.
    pub fn from_parts(count: u64, sum: u64, min: u64, max: u64, buckets: Vec<u64>) -> Histogram {
        Histogram {
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
            buckets,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (64 - value.leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Mean observed value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100), approximated from the log2
    /// buckets: the value returned is the upper edge of the bucket the
    /// percentile rank falls into, clamped to the observed `[min, max]`
    /// range (so `percentile(100.0) == max` exactly). Returns 0 with no
    /// observations.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64)
            .ceil()
            .clamp(1.0, self.count as f64) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let hi = match i {
                    0 => 0,
                    i if i >= 64 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One span in a [`Report`]: name, timeline, timing, attributed
/// counters, children.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name, e.g. `compiler/rtlgen`.
    pub name: String,
    /// The timeline (thread) the span was recorded on; resolve a label
    /// with [`Report::thread_label`].
    pub tid: u64,
    /// Start offset from recorder installation, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (0 if the span never closed).
    pub duration_ns: u64,
    /// Counters incremented while this span was innermost on its thread.
    pub counters: BTreeMap<String, u64>,
    /// Child spans in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// End offset from recorder installation, nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.duration_ns
    }
}

/// An immutable snapshot of everything recorded since [`install`].
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Top-level spans (each thread's stack roots), in open order across
    /// all threads.
    pub roots: Vec<SpanNode>,
    /// Labels of every timeline that recorded a span or registered a
    /// name. Unlabeled timelines are absent; [`Report::thread_label`]
    /// falls back to `thread-<id>`.
    pub threads: BTreeMap<u64, String>,
    /// Global counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Report {
    /// The display label of a timeline: its registered name, or
    /// `thread-<id>`.
    pub fn thread_label(&self, tid: u64) -> String {
        self.threads
            .get(&tid)
            .cloned()
            .unwrap_or_else(|| format!("thread-{tid}"))
    }

    /// The distinct timeline ids that recorded at least one span, in
    /// ascending order.
    pub fn thread_ids(&self) -> Vec<u64> {
        fn collect(node: &SpanNode, out: &mut Vec<u64>) {
            out.push(node.tid);
            for c in &node.children {
                collect(c, out);
            }
        }
        let mut ids = Vec::new();
        for root in &self.roots {
            collect(root, &mut ids);
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Takes a *live* snapshot of the running recorder without stopping,
/// draining, or otherwise perturbing it: recording continues, every
/// already-closed span keeps its timing, and nothing is reset. This is
/// the API behind `sbound serve`'s `metrics` protocol verb — a daemon
/// can be asked for its metrics arbitrarily often.
///
/// Successive snapshots are *monotone*: every counter value, histogram
/// count, and the number of recorded spans can only grow between two
/// snapshots (pinned by a regression test). Spans still open at snapshot
/// time appear with a duration of 0.
///
/// Returns `None` while nothing has been recorded (or no recorder was
/// ever installed). [`report`] is the same snapshot taken at
/// end-of-session; both are non-destructive.
pub fn snapshot() -> Option<Report> {
    report()
}

/// Snapshots the recorded data, or `None` if nothing was ever recorded.
/// Open spans appear with a duration of 0. Non-destructive — see
/// [`snapshot`] for the live-recorder contract.
pub fn report() -> Option<Report> {
    let st = state();
    if st.spans.is_empty() && st.counters.is_empty() && st.histograms.is_empty() {
        return None;
    }
    fn build(st: &State, id: usize) -> SpanNode {
        let s = &st.spans[id];
        SpanNode {
            name: s.name.clone(),
            tid: s.tid,
            start_ns: s.start.duration_since(st.epoch).as_nanos() as u64,
            duration_ns: s.duration_ns.unwrap_or(0),
            counters: s.counters.clone(),
            children: s.children.iter().map(|&c| build(st, c)).collect(),
        }
    }
    let roots = (0..st.spans.len())
        .filter(|&i| st.spans[i].parent.is_none())
        .map(|i| build(&st, i))
        .collect();
    Some(Report {
        roots,
        threads: st.thread_names.clone(),
        counters: st.counters.clone(),
        histograms: st.histograms.clone(),
    })
}
