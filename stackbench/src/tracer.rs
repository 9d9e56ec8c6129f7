//! Layer timing for the traced run, recorded from the benchmark's own
//! code around calls into each layer's public functions — nothing is
//! traced inside the program.
//!
//! A layer's self time is its span's duration minus the part of it its
//! child spans cover, so the self times of one pass add up to the time
//! spent inside any layer and can be compared with the pass's wall time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stackbound::compiler::pipeline::{
    AsmGen, CminorGen, ConstProp, Dce, Inline, Ir, MachGen, Pass, PassContext, RtlGen, Tunnel,
};
use stackbound::compiler::{CompileError, Pipeline, PipelineConfig};

struct Frame {
    start: Instant,
    children: Duration,
}

#[derive(Default)]
struct Inner {
    stack: Vec<Frame>,
    self_time: BTreeMap<&'static str, Duration>,
    sub: BTreeMap<String, Duration>,
    counts: BTreeMap<String, u64>,
}

/// Single-threaded span recorder: layer self times, named sub-timers
/// and counters.
#[derive(Default)]
pub struct Tracer {
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A recorder with nothing recorded.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Runs `f` inside a span of `layer`.
    pub fn layer<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.layer_by(f, |_| layer)
    }

    /// Runs `f` inside a span whose layer `pick` names once `f` has
    /// returned: for a cached call that does one layer's work on a miss
    /// and only a lookup on a hit.
    pub fn layer_by<R>(&self, f: impl FnOnce() -> R, pick: impl FnOnce(&R) -> &'static str) -> R {
        self.inner.borrow_mut().stack.push(Frame {
            start: Instant::now(),
            children: Duration::ZERO,
        });
        let out = f();
        let layer = pick(&out);
        let mut inner = self.inner.borrow_mut();
        let frame = inner.stack.pop().expect("span stack is balanced");
        let dur = frame.start.elapsed();
        *inner.self_time.entry(layer).or_default() += dur.saturating_sub(frame.children);
        if let Some(parent) = inner.stack.last_mut() {
            parent.children += dur;
        }
        out
    }

    /// Runs `f` inside a span of `layer` and also adds its whole duration
    /// to the sub-timer `sub` (e.g. `analyzer.bound_ms`).
    pub fn sub<R>(&self, layer: &'static str, sub: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = self.layer(layer, f);
        self.add_sub(sub, start.elapsed());
        out
    }

    /// Adds `d` to the sub-timer `sub`.
    pub fn add_sub(&self, sub: &str, d: Duration) {
        *self
            .inner
            .borrow_mut()
            .sub
            .entry(sub.to_owned())
            .or_default() += d;
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &str, n: u64) {
        *self
            .inner
            .borrow_mut()
            .counts
            .entry(name.to_owned())
            .or_default() += n;
    }

    /// A layer's accumulated self time, in milliseconds.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.inner
            .borrow()
            .self_time
            .get(layer)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// A sub-timer's accumulated time, in milliseconds.
    pub fn sub_ms(&self, sub: &str) -> f64 {
        self.inner
            .borrow()
            .sub
            .get(sub)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// The sum of every layer's self time, in milliseconds.
    pub fn covered_ms(&self) -> f64 {
        self.inner
            .borrow()
            .self_time
            .values()
            .map(|d| d.as_secs_f64() * 1e3)
            .sum()
    }
}

/// Per-pass wall time, shared between the timing wrappers of one
/// pipeline and the code reading them out.
pub type PassTimes = Arc<Mutex<BTreeMap<&'static str, Duration>>>;

/// A timing wrapper around one compiler pass: delegates everything to
/// the wrapped pass and adds the time of each [`Pass::run`] to `times`.
struct TimedPass {
    inner: Box<dyn Pass>,
    times: PassTimes,
}

impl Pass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, input: &Ir, ctx: &PassContext) -> Result<Ir, CompileError> {
        let start = Instant::now();
        let out = self.inner.run(input, ctx);
        let d = start.elapsed();
        *self
            .times
            .lock()
            .expect("pass timer lock is never poisoned")
            .entry(self.inner.name())
            .or_default() += d;
        out
    }

    fn size(&self, ir: &Ir) -> Option<u64> {
        self.inner.size(ir)
    }

    fn reports_input_size(&self) -> bool {
        self.inner.reports_input_size()
    }

    fn target_specific(&self) -> bool {
        self.inner.target_specific()
    }

    fn check(
        &self,
        source: &Ir,
        target: &Ir,
        fuel: u64,
    ) -> Result<(), stackbound::trace::refinement::RefinementError> {
        self.inner.check(source, target, fuel)
    }
}

fn pass_named(name: &str) -> Option<Box<dyn Pass>> {
    Some(match name {
        "cminorgen" => Box::new(CminorGen),
        "rtlgen" => Box::new(RtlGen),
        "inline" => Box::new(Inline),
        "constprop" => Box::new(ConstProp),
        "dce" => Box::new(Dce),
        "tunnel" => Box::new(Tunnel),
        "machgen" => Box::new(MachGen),
        "asmgen" => Box::new(AsmGen),
        _ => return None,
    })
}

/// The standard pipeline for `config` with every pass wrapped in a
/// timer, built from [`Pipeline::pass_names`] so it runs exactly the
/// passes [`Pipeline::new`] would.
///
/// # Panics
///
/// On a pass name this benchmark does not know (a new pass needs a line
/// in `pass_named`).
pub fn timed_pipeline(config: &PipelineConfig, times: &PassTimes) -> Pipeline {
    let passes = Pipeline::new(config.clone())
        .pass_names()
        .into_iter()
        .map(|name| {
            Box::new(TimedPass {
                inner: pass_named(name).unwrap_or_else(|| panic!("unknown compiler pass `{name}`")),
                times: times.clone(),
            }) as Box<dyn Pass>
        })
        .collect();
    Pipeline::with_passes(config.clone(), passes)
}

/// The pass names of the default pipeline, in order.
pub fn default_pass_names() -> Vec<&'static str> {
    Pipeline::new(PipelineConfig::default()).pass_names()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_covers_the_wall() {
        let t = Tracer::new();
        let start = Instant::now();
        t.layer("outer", || {
            std::thread::sleep(Duration::from_millis(20));
            t.layer("inner", || std::thread::sleep(Duration::from_millis(30)));
        });
        let wall = start.elapsed().as_secs_f64() * 1e3;
        assert!(t.layer_ms("inner") >= 30.0);
        assert!(t.layer_ms("outer") >= 20.0 && t.layer_ms("outer") < 30.0);
        let covered = t.covered_ms();
        assert!(
            covered <= wall + 1e-6 && covered >= 0.95 * wall,
            "{covered} vs {wall}"
        );
    }

    #[test]
    fn timed_pipeline_matches_the_standard_one() {
        let program = stackbound::clight::frontend(
            "u32 sq(u32 x) { return x * x; } int main() { u32 r; r = sq(6); return r; }",
            &[],
        )
        .unwrap();
        let config = PipelineConfig::default();
        let times = PassTimes::default();
        let timed = timed_pipeline(&config, &times).run(&program).unwrap();
        let plain = Pipeline::new(config).run(&program).unwrap();
        assert_eq!(format!("{:?}", timed.asm), format!("{:?}", plain.asm));
        let names: Vec<&str> = times.lock().unwrap().keys().copied().collect();
        let mut want = default_pass_names();
        want.sort_unstable();
        assert_eq!(names, want);
    }
}
