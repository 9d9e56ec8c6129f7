//! Content-addressed, function-granular verification cache.
//!
//! Without a cache, `stackbound`'s pipeline would re-derive everything on
//! every run, even when only one function of a program (or nothing at
//! all) changed since the last run. This crate makes the pipeline
//! *incremental*: every per-function artifact the `stackbound` stages
//! produce — the analyzer's bound and derivation, the `qhl` check
//! verdict, the compiled per-function vertical, the evaluated concrete
//! bound — is stored under a content-addressed [`Key`] covering exactly
//! the inputs it depends on (see [`key`]). A later run with an equal key
//! reuses the artifact; a run after an edit recomputes only the edited
//! function and its transitive callers.
//!
//! Soundness does not rest on the cache: a hit returns an artifact that
//! was *computed by the same deterministic code* on an input with the
//! same content key, so the cached run's output is byte-identical to a
//! cold run (pinned by `tests/vcache_equiv.rs`). The cache can make the
//! pipeline slower, never wronger; and verifying through a fresh cache
//! re-validates every derivation end to end. With refinement checkpoints
//! on, a cached compile is also re-checked pass by pass, cached
//! functions included.
//!
//! The cached stage drivers ([`analyze`], [`check`], [`compile`],
//! [`concrete_bound`]) are the `stackbound::Verifier`'s only path: it
//! runs through a caller's cache or a fresh one. Each walks the program
//! on the calling thread, so a lookup that hits costs a hash-map probe
//! and no thread start; [`compile`] hands its hits to the pass manager
//! ([`compiler::Pipeline::run_reusing`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! let cache = Arc::new(vcache::VCache::new());
//! let program = clight::frontend("
//!     u32 leaf(u32 x) { return x + 1; }
//!     int main() { u32 r; r = leaf(41); return r; }
//! ", &[]).unwrap();
//! let options = compiler::Options::default();
//! let keys = vcache::keys(&program, &options);
//!
//! let cold = vcache::analyze(&cache, &program, &keys).unwrap();
//! let warm = vcache::analyze(&cache, &program, &keys).unwrap(); // all hits
//! assert_eq!(cold.bound("main"), warm.bound("main"));
//! assert_eq!(cache.stats(vcache::CacheStage::Analyze), (2, 2)); // (hits, misses)
//! ```

#![warn(missing_docs)]

pub mod key;

pub use key::{combine, config_digest, digest_str, keys, Key};

use analyzer::{Analysis, AnalyzerError};
use clight::Program;
use compiler::FnArtifacts;
use qhl::{BExpr, Checker, Context, Derivation, FunSpec, QhlError};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The cacheable stages: the artifact-producing steps of the
/// `stackbound::Verifier`. (The front end has no per-function artifact
/// and the measurement composes with `asm::MeasureCache` instead.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheStage {
    /// The analyzer's symbolic bound and qhl derivation.
    Analyze,
    /// The `qhl::Checker` verdict on a derivation.
    Check,
    /// The compiled per-function vertical ([`compiler::FnArtifacts`]).
    Compile,
    /// The concrete bound under the compiled metric.
    Bound,
}

impl CacheStage {
    /// Every cacheable stage, in pipeline order.
    pub const ALL: [CacheStage; 4] = [
        CacheStage::Analyze,
        CacheStage::Check,
        CacheStage::Compile,
        CacheStage::Bound,
    ];

    /// The stage's name as used in obs counters and the disk format.
    pub fn name(self) -> &'static str {
        match self {
            CacheStage::Analyze => "analyze",
            CacheStage::Check => "check",
            CacheStage::Compile => "compile",
            CacheStage::Bound => "bound",
        }
    }

    fn hit_counter(self) -> &'static str {
        match self {
            CacheStage::Analyze => "vcache/analyze_hit",
            CacheStage::Check => "vcache/check_hit",
            CacheStage::Compile => "vcache/compile_hit",
            CacheStage::Bound => "vcache/bound_hit",
        }
    }

    fn miss_counter(self) -> &'static str {
        match self {
            CacheStage::Analyze => "vcache/analyze_miss",
            CacheStage::Check => "vcache/check_miss",
            CacheStage::Compile => "vcache/compile_miss",
            CacheStage::Bound => "vcache/bound_miss",
        }
    }
}

#[derive(Default)]
struct StageStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The analyzer artifact cached per function: the symbolic bound `B_f`
/// and the machine-checkable derivation that proves it.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeEntry {
    /// The symbolic stack bound of the function's body.
    pub bound: BExpr,
    /// The derivation of `{B_f} body {B_f}` in the quantitative logic.
    pub derivation: Derivation,
}

/// A thread-safe, content-addressed store of per-function verification
/// artifacts, shared across runs via `Arc` (and optionally across
/// processes via [`VCache::load_dir`]/[`VCache::save_dir`]).
///
/// Entries are only ever *added*; two runs racing on the same key insert
/// equal values (the key covers every input of the deterministic
/// computation), so last-write-wins is safe.
#[derive(Default)]
pub struct VCache {
    analyze: Mutex<HashMap<Key, Arc<AnalyzeEntry>>>,
    check: Mutex<HashSet<Key>>,
    compile: Mutex<HashMap<Key, Arc<FnArtifacts>>>,
    bound: Mutex<HashMap<Key, Option<f64>>>,
    stats: [StageStats; 4],
    /// Monotone logical clock driving the disk-eviction recency order.
    clock: AtomicU64,
    /// Last-touch stamp per persistable key: bumped when a key is loaded
    /// from disk, hits, or is inserted. [`VCache::save_dir`] evicts the
    /// least-recently-touched keys past the [`VCache::set_disk_cap`] cap.
    recency: Mutex<HashMap<Key, u64>>,
    /// Maximum number of entries [`VCache::save_dir`] writes
    /// (0 = unlimited).
    disk_cap: AtomicU64,
}

impl VCache {
    /// An empty cache.
    pub fn new() -> VCache {
        VCache::default()
    }

    /// Total number of cached entries across all stages.
    pub fn len(&self) -> usize {
        self.analyze.lock().unwrap().len()
            + self.check.lock().unwrap().len()
            + self.compile.lock().unwrap().len()
            + self.bound.lock().unwrap().len()
    }

    /// True when no stage has any cached entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` recorded for one stage since construction (or
    /// [`VCache::load_dir`]).
    pub fn stats(&self, stage: CacheStage) -> (u64, u64) {
        let s = &self.stats[stage as usize];
        (
            s.hits.load(Ordering::Relaxed),
            s.misses.load(Ordering::Relaxed),
        )
    }

    /// The fraction of lookups that hit for one stage, or `None` before
    /// any lookup happened.
    pub fn hit_rate(&self, stage: CacheStage) -> Option<f64> {
        let (hits, misses) = self.stats(stage);
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Caps the number of entries [`VCache::save_dir`] persists; `None`
    /// removes the cap. When the persistable entries (check verdicts +
    /// concrete bounds) exceed the cap, the least-recently-used keys —
    /// by load, hit, or insertion order — are evicted *from the file*;
    /// the in-memory cache is untouched.
    pub fn set_disk_cap(&self, cap: Option<usize>) {
        self.disk_cap
            .store(cap.map_or(0, |c| c.max(1) as u64), Ordering::Relaxed);
    }

    /// The disk entry cap, if one is set.
    pub fn disk_cap(&self) -> Option<usize> {
        match self.disk_cap.load(Ordering::Relaxed) {
            0 => None,
            c => Some(c as usize),
        }
    }

    /// Bumps the recency stamp of one persistable key.
    fn touch(&self, key: Key) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.recency.lock().unwrap().insert(key, stamp);
    }

    fn hit(&self, stage: CacheStage) {
        self.stats[stage as usize]
            .hits
            .fetch_add(1, Ordering::Relaxed);
        obs::counter(stage.hit_counter(), 1);
    }

    fn miss(&self, stage: CacheStage) {
        self.stats[stage as usize]
            .misses
            .fetch_add(1, Ordering::Relaxed);
        obs::counter(stage.miss_counter(), 1);
    }

    fn get_analyze(&self, key: Key) -> Option<Arc<AnalyzeEntry>> {
        let got = self.analyze.lock().unwrap().get(&key).cloned();
        match got {
            Some(e) => {
                self.hit(CacheStage::Analyze);
                Some(e)
            }
            None => {
                self.miss(CacheStage::Analyze);
                None
            }
        }
    }

    fn put_analyze(&self, key: Key, entry: Arc<AnalyzeEntry>) {
        self.analyze.lock().unwrap().insert(key, entry);
    }

    fn has_check(&self, key: Key) -> bool {
        let got = self.check.lock().unwrap().contains(&key);
        if got {
            self.hit(CacheStage::Check);
            self.touch(key);
        } else {
            self.miss(CacheStage::Check);
        }
        got
    }

    fn put_check(&self, key: Key) {
        self.check.lock().unwrap().insert(key);
        self.touch(key);
    }

    fn get_compile(&self, key: Key) -> Option<Arc<FnArtifacts>> {
        let got = self.compile.lock().unwrap().get(&key).cloned();
        match got {
            Some(a) => {
                self.hit(CacheStage::Compile);
                Some(a)
            }
            None => {
                self.miss(CacheStage::Compile);
                None
            }
        }
    }

    fn put_compile(&self, key: Key, artifacts: Arc<FnArtifacts>) {
        self.compile.lock().unwrap().insert(key, artifacts);
    }

    fn get_bound(&self, key: Key) -> Option<Option<f64>> {
        let got = self.bound.lock().unwrap().get(&key).copied();
        match got {
            Some(b) => {
                self.hit(CacheStage::Bound);
                self.touch(key);
                Some(b)
            }
            None => {
                self.miss(CacheStage::Bound);
                None
            }
        }
    }

    fn put_bound(&self, key: Key, bound: Option<f64>) {
        self.bound.lock().unwrap().insert(key, bound);
        self.touch(key);
    }

    /// Loads persisted entries from `dir/vcache.jsonl`, if present.
    ///
    /// Only the *value-like* artifacts are persisted — check verdicts and
    /// concrete bounds; the heavyweight in-memory artifacts (derivations,
    /// compiled IR) are deliberately not serialized, so a process warmed
    /// from disk still recomputes those on first touch while skipping
    /// every re-check and bound evaluation. Unknown or malformed lines
    /// are skipped (forward compatibility).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file being absent.
    pub fn load_dir(&self, dir: &Path) -> std::io::Result<usize> {
        let path = dir.join("vcache.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut loaded = 0;
        for line in text.lines() {
            let Ok(v) = obs::json::parse(line) else {
                continue;
            };
            let (Some(kind), Some(key)) = (
                v.get("k").and_then(|k| k.as_str()),
                v.get("key")
                    .and_then(|k| k.as_str())
                    .and_then(|s| s.parse::<Key>().ok()),
            ) else {
                continue;
            };
            match kind {
                "check" => {
                    self.put_check(key);
                    loaded += 1;
                }
                "bound" => {
                    if let Some(b) = v.get("bound").and_then(|b| b.as_f64()) {
                        self.put_bound(key, Some(b));
                        loaded += 1;
                    }
                }
                _ => {}
            }
        }
        obs::counter("vcache/disk_loaded", loaded as u64);
        Ok(loaded)
    }

    /// Writes the persistable entries to `dir/vcache.jsonl` (creating
    /// `dir` if needed). The file is always *rewritten whole* —
    /// deduplicated (the in-memory stores are keyed) and sorted, so
    /// saving is deterministic and the output is diff- and merge-friendly
    /// rather than an append-only log.
    ///
    /// Under a [`VCache::set_disk_cap`] entry cap, the least-recently
    /// used keys (by load, hit, or insertion order) are evicted from the
    /// file until the cap holds, so a long-lived cache directory stops
    /// growing without bound while the hottest verdicts stay persisted.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_dir(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        // (key, line) pairs so eviction can consult the recency stamps.
        let mut entries: Vec<(Key, String)> = Vec::new();
        for &key in self.check.lock().unwrap().iter() {
            entries.push((key, format!("{{\"k\":\"check\",\"key\":\"{key}\"}}")));
        }
        for (&key, bound) in self.bound.lock().unwrap().iter() {
            // `None` bounds (unbounded functions) are cheap to recompute
            // and have no canonical JSON number; skip them.
            if let Some(b) = bound {
                entries.push((
                    key,
                    format!("{{\"k\":\"bound\",\"key\":\"{key}\",\"bound\":{b}}}"),
                ));
            }
        }
        let cap = self.disk_cap();
        if cap.is_some_and(|cap| entries.len() > cap) {
            let cap = cap.unwrap();
            let recency = self.recency.lock().unwrap();
            // Most recently touched first; the line text tie-breaks keys
            // sharing a stamp (a check verdict and a bound under the same
            // function key), keeping eviction deterministic.
            entries.sort_unstable_by(|(ka, la), (kb, lb)| {
                let (sa, sb) = (recency.get(ka).copied(), recency.get(kb).copied());
                sb.cmp(&sa).then_with(|| la.cmp(lb))
            });
            let evicted = entries.len() - cap;
            entries.truncate(cap);
            obs::counter("vcache/disk_evicted", evicted as u64);
        }
        let mut lines: Vec<String> = entries.into_iter().map(|(_, line)| line).collect();
        lines.sort_unstable();
        let mut file = std::fs::File::create(dir.join("vcache.jsonl"))?;
        for line in &lines {
            writeln!(file, "{line}")?;
        }
        obs::counter("vcache/disk_saved", lines.len() as u64);
        Ok(lines.len())
    }
}

impl std::fmt::Debug for VCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("VCache");
        for stage in CacheStage::ALL {
            let (hits, misses) = self.stats(stage);
            d.field(stage.name(), &format_args!("{hits} hits / {misses} misses"));
        }
        d.finish()
    }
}

/// The cached replacement for [`analyzer::analyze`]: derives (or reuses)
/// a bound and derivation per function, walking the topological order
/// (callees first) on the calling thread. Output is byte-identical to
/// the analyzer's.
///
/// `keys` must come from [`keys`] on the same program (missing entries
/// are treated as misses of an impossible key, so a wrong map can cost
/// time but never soundness — reuse only happens under a matching key).
///
/// # Errors
///
/// Exactly the [`AnalyzerError`]s [`analyzer::analyze`] reports
/// (recursion is rejected before any function is analyzed).
pub fn analyze(
    cache: &VCache,
    program: &Program,
    keys: &BTreeMap<String, Key>,
) -> Result<Analysis, AnalyzerError> {
    let _span = obs::span("vcache/analyze");
    let order = analyzer::topological_order(program)?;
    let mut ctx = Context::new();
    let mut derivations = HashMap::new();
    for name in &order {
        let _s = obs::span_dyn(|| format!("vcache/analyze/fn/{name}"));
        let key = keys.get(name).copied();
        let entry = match key.and_then(|k| cache.get_analyze(k)) {
            Some(entry) => entry,
            None => {
                let (bound, derivation) = analyzer::analyze_function(program, &ctx, name)?;
                let entry = Arc::new(AnalyzeEntry { bound, derivation });
                if let Some(key) = key {
                    cache.put_analyze(key, entry.clone());
                }
                entry
            }
        };
        ctx.insert(name.clone(), FunSpec::restoring(entry.bound.clone()));
        derivations.insert(name.clone(), entry.derivation.clone());
    }
    Ok(Analysis::from_parts(ctx, derivations, order))
}

/// The cached replacement for `Analysis::check`: re-validates every
/// derivation whose key has not been checked before, in topological
/// order, and records fresh verdicts.
///
/// A verdict is only a cache hit under a key covering the function's AST,
/// its transitive callees (hence the context specs and the derivation the
/// deterministic analyzer emits), so a hit implies the checker would
/// accept again.
///
/// # Errors
///
/// The first [`QhlError`] among the actually re-checked functions.
pub fn check(
    cache: &VCache,
    program: &Program,
    analysis: &Analysis,
    keys: &BTreeMap<String, Key>,
) -> Result<(), QhlError> {
    let _span = obs::span("vcache/check");
    let checker = Checker::new(program, analysis.context());
    for name in analysis.order() {
        let _s = obs::span_dyn(|| format!("vcache/check/fn/{name}"));
        let deriv = analysis.derivation(name).expect("analysis is complete");
        let check = || checker.check_function(name, deriv, None);
        match keys.get(name) {
            Some(&key) => check_cached(cache, key, check)?,
            None => check()?,
        }
    }
    Ok(())
}

/// Runs `check` unless `key` is already a recorded verdict, recording
/// success. The general-purpose entry for caching derivation checks
/// whose inputs go beyond the program AST — interactive Table 2 proofs,
/// where the caller folds a [`digest_str`] of the rendered proof into
/// the key with [`combine`] so that editing either the program or the
/// proof invalidates the verdict.
///
/// # Errors
///
/// Whatever `check` returns (failures are never cached).
pub fn check_cached(
    cache: &VCache,
    key: Key,
    check: impl FnOnce() -> Result<(), QhlError>,
) -> Result<(), QhlError> {
    if cache.has_check(key) {
        return Ok(());
    }
    check()?;
    cache.put_check(key);
    Ok(())
}

/// The cached compile stage: looks up every function's vertical by key,
/// runs the pipeline once with the hits spliced in
/// ([`compiler::Pipeline::run_reusing`]), and stores each miss's vertical
/// from the [`compiler::Compiled`] it returns.
///
/// Refinement checkpoints ([`compiler::PipelineConfig::check_refinement`])
/// run on the spliced programs, cached functions included.
///
/// # Errors
///
/// Exactly the [`compiler::CompileError`]s a pipeline run would produce
/// on the functions that are actually compiled. A failed refinement
/// checkpoint is a [`compiler::CompileError::Internal`] naming the pass
/// and the discrepancy.
pub fn compile(
    cache: &VCache,
    program: &Program,
    config: &compiler::PipelineConfig,
    keys: &BTreeMap<String, Key>,
) -> Result<compiler::Compiled, compiler::CompileError> {
    let _span = obs::span("vcache/compile");
    let reuse: HashMap<String, Arc<FnArtifacts>> = program
        .functions
        .iter()
        .filter_map(|f| Some((f.name.clone(), cache.get_compile(*keys.get(&f.name)?)?)))
        .collect();
    let compiled = compiler::Pipeline::new(config.clone()).run_reusing(program, &reuse)?;
    for (i, f) in program.functions.iter().enumerate() {
        if let (None, Some(&key)) = (reuse.get(&f.name), keys.get(&f.name)) {
            let vertical = compiled.vertical(i).expect("one vertical per function");
            cache.put_compile(key, Arc::new(vertical));
        }
    }
    Ok(compiled)
}

/// The cached replacement for `Analysis::concrete_bound`: evaluates the
/// function's symbolic bound under the compiled metric, reusing the
/// evaluated number when the key matches.
///
/// The metric values `M(g)` the bound mentions belong to the function
/// itself and its transitive callees — all covered by the closure key —
/// so a hit returns the number a fresh evaluation would.
pub fn concrete_bound(
    cache: &VCache,
    analysis: &Analysis,
    metric: &trace::Metric,
    fname: &str,
    keys: &BTreeMap<String, Key>,
) -> Option<f64> {
    let Some(&key) = keys.get(fname) else {
        return analysis.concrete_bound(fname, metric);
    };
    if let Some(bound) = cache.get_bound(key) {
        return bound;
    }
    let bound = analysis.concrete_bound(fname, metric);
    cache.put_bound(key, bound);
    bound
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        u32 leaf(u32 x) { return x + 1; }
        u32 mid(u32 x) { u32 r; r = leaf(x); return r; }
        int main() { u32 r; r = mid(41); return r; }
    ";

    fn program() -> Program {
        clight::frontend(SRC, &[]).unwrap()
    }

    #[test]
    fn analyze_hits_on_second_run_and_matches_cold() {
        let cache = VCache::new();
        let program = program();
        let keys = keys(&program, &compiler::Options::default());

        let cold = analyze(&cache, &program, &keys).unwrap();
        assert_eq!(cache.stats(CacheStage::Analyze), (0, 3));

        let warm = analyze(&cache, &program, &keys).unwrap();
        assert_eq!(cache.stats(CacheStage::Analyze), (3, 3));
        assert_eq!(cache.hit_rate(CacheStage::Analyze), Some(0.5));

        let reference = analyzer::analyze(&program).unwrap();
        for name in ["leaf", "mid", "main"] {
            assert_eq!(cold.bound(name), reference.bound(name));
            assert_eq!(warm.bound(name), reference.bound(name));
            assert_eq!(cold.derivation(name), reference.derivation(name));
            assert_eq!(warm.derivation(name), reference.derivation(name));
        }
        assert_eq!(cold.order(), reference.order());
    }

    #[test]
    fn check_and_bound_hit_on_second_run() {
        let cache = VCache::new();
        let program = program();
        let options = compiler::Options::default();
        let keys = keys(&program, &options);
        let analysis = analyze(&cache, &program, &keys).unwrap();

        check(&cache, &program, &analysis, &keys).unwrap();
        check(&cache, &program, &analysis, &keys).unwrap();
        assert_eq!(cache.stats(CacheStage::Check), (3, 3));

        let config = compiler::PipelineConfig::with_options(options);
        let compiled = compile(&cache, &program, &config, &keys).unwrap();
        for name in ["leaf", "mid", "main"] {
            let fresh = analysis.concrete_bound(name, &compiled.metric);
            let cold = concrete_bound(&cache, &analysis, &compiled.metric, name, &keys);
            let warm = concrete_bound(&cache, &analysis, &compiled.metric, name, &keys);
            assert_eq!(cold, fresh);
            assert_eq!(warm, fresh);
        }
        assert_eq!(cache.stats(CacheStage::Bound), (3, 3));
    }

    #[test]
    fn targets_never_share_cache_entries() {
        // One shared cache, same program, two targets: the rv run must
        // miss everywhere (an sz32 verdict answering an rv query would
        // certify the wrong machine) and produce a different bound.
        let cache = VCache::new();
        let program = program();
        let sz32 = compiler::Options::default();
        let rv = compiler::Options::for_target(asm::Target::Rv);
        let keys_sz32 = keys(&program, &sz32);
        let keys_rv = keys(&program, &rv);
        for name in ["leaf", "mid", "main"] {
            assert_ne!(keys_sz32[name], keys_rv[name], "{name}");
        }

        let analysis = analyze(&cache, &program, &keys_sz32).unwrap();
        let compiled_sz32 = compile(
            &cache,
            &program,
            &compiler::PipelineConfig::with_options(sz32),
            &keys_sz32,
        )
        .unwrap();
        assert_eq!(cache.stats(CacheStage::Compile), (0, 3));

        // The rv compile reuses nothing from the sz32 run.
        let compiled_rv = compile(
            &cache,
            &program,
            &compiler::PipelineConfig::with_options(rv),
            &keys_rv,
        )
        .unwrap();
        assert_eq!(cache.stats(CacheStage::Compile), (0, 6));

        let b_sz32 = concrete_bound(&cache, &analysis, &compiled_sz32.metric, "main", &keys_sz32);
        let b_rv = concrete_bound(&cache, &analysis, &compiled_rv.metric, "main", &keys_rv);
        assert_ne!(b_sz32, b_rv);
        assert_eq!(cache.stats(CacheStage::Bound), (0, 2));
    }

    #[test]
    fn compile_reuses_verticals_and_stays_byte_identical() {
        let cache = VCache::new();
        let program = program();
        let options = compiler::Options::default();
        let keys = keys(&program, &options);
        let config = compiler::PipelineConfig::with_options(options);

        let reference = compiler::compile_with(&program, options).unwrap();
        let cold = compile(&cache, &program, &config, &keys).unwrap();
        assert_eq!(cache.stats(CacheStage::Compile), (0, 3));
        let warm = compile(&cache, &program, &config, &keys).unwrap();
        assert_eq!(cache.stats(CacheStage::Compile), (3, 3));

        // The `Debug` rendering pins every intermediate program and the
        // metric at once.
        for c in [&cold, &warm] {
            assert_eq!(format!("{c:?}"), format!("{reference:?}"));
        }
    }

    #[test]
    fn checkpoints_reject_a_poisoned_compile_entry() {
        let cache = VCache::new();
        let program = program();
        let options = compiler::Options::default();
        let keys = keys(&program, &options);
        // `leaf`'s slot holds the vertical of a different `leaf`.
        let other = clight::frontend(&SRC.replace("x + 1", "x + 2"), &[]).unwrap();
        let wrong = compiler::compile_with(&other, options)
            .unwrap()
            .vertical(0)
            .unwrap();
        cache.put_compile(keys["leaf"], Arc::new(wrong));

        let config = compiler::PipelineConfig::with_options(options);
        assert!(compile(&cache, &program, &config, &keys).is_ok());
        let checked = compiler::PipelineConfig {
            check_refinement: true,
            ..config
        };
        // The pass and the discrepancy (`main` returns 43, not 42) reach
        // the caller.
        let err = compile(&cache, &program, &checked, &keys).unwrap_err();
        assert!(
            err.to_string().contains(
                "pass `cminorgen` failed its refinement checkpoint: behavior outcomes differ"
            ),
            "{err}"
        );
    }

    #[test]
    fn single_function_edit_invalidates_dependents_only() {
        let cache = VCache::new();
        let options = compiler::Options::default();
        let before = program();
        let keys_before = keys(&before, &options);
        analyze(&cache, &before, &keys_before).unwrap();

        let after = clight::frontend(&SRC.replace("x + 1", "x + 2"), &[]).unwrap();
        let keys_after = keys(&after, &options);
        analyze(&cache, &after, &keys_after).unwrap();

        // Everything reaches the edited leaf, so the second run misses on
        // all three functions; the cache now holds both generations.
        assert_eq!(cache.stats(CacheStage::Analyze), (0, 6));

        // Editing only `main` leaves `leaf`/`mid` keys intact: two hits.
        let top = clight::frontend(&SRC.replace("mid(41)", "mid(42)"), &[]).unwrap();
        let keys_top = keys(&top, &options);
        analyze(&cache, &top, &keys_top).unwrap();
        assert_eq!(cache.stats(CacheStage::Analyze), (2, 7));
    }

    #[test]
    fn disk_roundtrip_preserves_check_and_bound_entries() {
        let dir = std::env::temp_dir().join(format!("vcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cache = VCache::new();
        let program = program();
        let options = compiler::Options::default();
        let keys = keys(&program, &options);
        let analysis = analyze(&cache, &program, &keys).unwrap();
        check(&cache, &program, &analysis, &keys).unwrap();
        let config = compiler::PipelineConfig::with_options(options);
        let compiled = compile(&cache, &program, &config, &keys).unwrap();
        for name in ["leaf", "mid", "main"] {
            concrete_bound(&cache, &analysis, &compiled.metric, name, &keys);
        }
        let saved = cache.save_dir(&dir).unwrap();
        assert_eq!(saved, 6); // 3 check verdicts + 3 bounds

        let warmed = VCache::new();
        assert_eq!(warmed.load_dir(&dir).unwrap(), 6);
        check(&warmed, &program, &analysis, &keys).unwrap();
        assert_eq!(warmed.stats(CacheStage::Check), (3, 0));
        for name in ["leaf", "mid", "main"] {
            let cached = concrete_bound(&warmed, &analysis, &compiled.metric, name, &keys);
            assert_eq!(cached, analysis.concrete_bound(name, &compiled.metric));
        }
        assert_eq!(warmed.stats(CacheStage::Bound), (3, 0));

        // Saving the warmed cache reproduces the same file byte for byte.
        let dir2 = dir.join("again");
        warmed.save_dir(&dir2).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("vcache.jsonl")).unwrap(),
            std::fs::read_to_string(dir2.join("vcache.jsonl")).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cap_evicts_least_recently_used_keys() {
        let dir = std::env::temp_dir().join(format!("vcache-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cache = VCache::new();
        let program = program();
        let options = compiler::Options::default();
        let keys = keys(&program, &options);
        let analysis = analyze(&cache, &program, &keys).unwrap();
        // Insert check verdicts in topological order (leaf, mid, main),
        // then re-touch `leaf` so `mid` becomes the coldest key.
        check(&cache, &program, &analysis, &keys).unwrap();
        assert!(cache.has_check(keys["leaf"]));

        assert_eq!(cache.disk_cap(), None);
        cache.set_disk_cap(Some(2));
        assert_eq!(cache.disk_cap(), Some(2));
        assert_eq!(cache.save_dir(&dir).unwrap(), 2);

        let warmed = VCache::new();
        assert_eq!(warmed.load_dir(&dir).unwrap(), 2);
        assert!(warmed.has_check(keys["leaf"]), "recently touched key kept");
        assert!(warmed.has_check(keys["main"]), "recently inserted key kept");
        assert!(!warmed.has_check(keys["mid"]), "coldest key evicted");

        // Without the cap the same cache persists all three verdicts.
        cache.set_disk_cap(None);
        assert_eq!(cache.save_dir(&dir).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_save_roundtrips_and_stays_deterministic() {
        let dir = std::env::temp_dir().join(format!("vcache-cap-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cache = VCache::new();
        let program = program();
        let options = compiler::Options::default();
        let keys = keys(&program, &options);
        let analysis = analyze(&cache, &program, &keys).unwrap();
        check(&cache, &program, &analysis, &keys).unwrap();
        let config = compiler::PipelineConfig::with_options(options);
        let compiled = compile(&cache, &program, &config, &keys).unwrap();
        for name in ["leaf", "mid", "main"] {
            concrete_bound(&cache, &analysis, &compiled.metric, name, &keys);
        }
        // 6 persistable entries (3 checks + 3 bounds); cap at 4.
        cache.set_disk_cap(Some(4));
        assert_eq!(cache.save_dir(&dir).unwrap(), 4);

        // load -> save round-trip: a freshly warmed cache (load order =
        // recency order) rewrites the identical file under the same cap.
        let warmed = VCache::new();
        warmed.set_disk_cap(Some(4));
        assert_eq!(warmed.load_dir(&dir).unwrap(), 4);
        let dir2 = dir.join("again");
        assert_eq!(warmed.save_dir(&dir2).unwrap(), 4);
        let first = std::fs::read_to_string(dir.join("vcache.jsonl")).unwrap();
        let second = std::fs::read_to_string(dir2.join("vcache.jsonl")).unwrap();
        assert_eq!(first, second);
        // The surviving file is sorted and deduplicated.
        let lines: Vec<&str> = first.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(lines, sorted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_tolerates_missing_file_and_junk_lines() {
        let dir = std::env::temp_dir().join(format!("vcache-junk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = VCache::new();
        assert_eq!(cache.load_dir(&dir).unwrap(), 0);

        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("vcache.jsonl"),
            "not json\n{\"k\":\"future-stage\",\"key\":\"00000000000000000000000000000000\"}\n{\"k\":\"check\"}\n{\"k\":\"check\",\"key\":\"short\"}\n",
        )
        .unwrap();
        assert_eq!(cache.load_dir(&dir).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
