//! # stackbound
//!
//! A from-scratch Rust reproduction of *End-to-End Verification of
//! Stack-Space Bounds for C Programs* (Carbonneaux, Hoffmann,
//! Ramananandro, Shao — PLDI 2014): a stack-aware, trace-preserving C
//! compiler ("Quantitative CompCert"), a quantitative Hoare logic with
//! machine-checked derivations, an automatic stack analyzer, and a
//! finite-stack x86-style machine with a ptrace-style measurement harness.
//!
//! The pieces and the paper sections they reproduce:
//!
//! | crate | contents | paper |
//! |---|---|---|
//! | [`mem`] | block-based memory model | §4.2 |
//! | [`trace`] | events, weights, quantitative refinement | §3.1 |
//! | [`clight`] | C front end + small-step semantics with events | §4.1–4.2 |
//! | [`qhl`] | quantitative Hoare logic, derivation checker | §4.3 |
//! | [`analyzer`] | automatic stack analyzer emitting derivations | §5 |
//! | [`compiler`] | Clight → Cminor → RTL → Mach → ASMsz pipeline | §3.2 |
//! | [`asm`] | the `ASMsz` finite-stack machine + monitor | §3.2, §6 |
//! | [`benchsuite`] | the evaluation programs of Tables 1 and 2 | §6 |
//!
//! # The end-to-end story in one function
//!
//! [`verify_program`] runs the complete loop of the paper's Figure 2:
//! analyze at the source level, compile, instantiate the parametric bound
//! with the target's cost metric (`M(f) = SF(f) + 4` on the default
//! [`asm::Target::Sz32`]; `M(f) = SF(f)` on the link-register
//! [`asm::Target::Rv`], selected with [`Verifier::target`]), and
//! (optionally) confirm on the machine that the bound holds — with 4
//! bytes to spare on `sz32`, exactly on `rv`.
//!
//! ```
//! let report = stackbound::verify_program("
//!     u32 square(u32 x) { return x * x; }
//!     u32 poly(u32 x) { u32 a; u32 b; a = square(x); b = square(x + 1); return a + b; }
//!     int main() { u32 r; r = poly(6); return r % 256; }
//! ").unwrap();
//!
//! let main_bound = report.bound("main").unwrap();
//! assert_eq!(report.measured("main"), Some(main_bound - 4)); // exactly 4 bytes slack
//! ```

#![warn(missing_docs)]

pub use analyzer;
pub use asm;
pub use benchsuite;
pub use clight;
pub use compiler;
pub use mem;
pub use qhl;
pub use stacklint;
pub use trace;
pub use vcache;

pub mod serve;
pub mod table2;

use std::collections::BTreeMap;
use std::fmt;

/// Default interpreter/machine fuel used by [`verify_program`].
pub const DEFAULT_FUEL: u64 = 200_000_000;

/// The outcome of the end-to-end verification pipeline for one program.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-function verified stack bounds in bytes (`B_f + M(f)` under the
    /// compiler's metric).
    bounds: BTreeMap<String, u32>,
    /// Measured peak stack usage of `main` (and of any function measured
    /// later), when the program was executed.
    measured: BTreeMap<String, u32>,
    /// The compiled program.
    pub compiled: compiler::Compiled,
    /// The analysis (context + derivations).
    pub analysis: analyzer::Analysis,
    /// The monitored run of `main` (waterline profile included), when the
    /// program has a `main` that was executed.
    pub measurement: Option<asm::Measurement>,
}

impl Report {
    /// The verified stack bound of a function, in bytes.
    pub fn bound(&self, fname: &str) -> Option<u32> {
        self.bounds.get(fname).copied()
    }

    /// The measured peak stack usage of a function, in bytes.
    pub fn measured(&self, fname: &str) -> Option<u32> {
        self.measured.get(fname).copied()
    }

    /// All `(function, verified bound)` pairs in name order.
    pub fn bounds(&self) -> impl Iterator<Item = (&str, u32)> {
        self.bounds.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All `(function, measured peak usage)` pairs in name order. Contains
    /// `main` after a default measured run, and every converging
    /// zero-parameter bounded function under
    /// [`Verifier::measure_all_functions`].
    pub fn measured_usages(&self) -> impl Iterator<Item = (&str, u32)> {
        self.measured.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The backend target the bounds were certified for.
    pub fn target(&self) -> asm::Target {
        self.compiled.asm.target
    }

    /// The slack of a function — certified bound minus measured peak
    /// usage, in bytes — when both are known. Theorem 1 guarantees it is
    /// never negative; on the default [`asm::Target::Sz32`] a straight
    /// call chain leaves 4 bytes (`main`'s own pushed return address), on
    /// [`asm::Target::Rv`] the bound is exact and the slack is zero.
    pub fn slack(&self, fname: &str) -> Option<u32> {
        Some(self.bound(fname)? - self.measured(fname)?)
    }
}

/// Deterministic, order-preserving parallel map over a work list on the
/// machine's available parallelism: `items` is cut into one contiguous
/// chunk per worker thread (named `worker-<i>` in timelines) and the
/// results land in index order, so the output equals a serial map's. With
/// one item or one core it is a serial map on the calling thread. A
/// verification never calls it; batch callers that hold several
/// independent jobs (the `table2` harness's case preparation) do.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(w, part)| {
                let f = &f;
                scope.spawn(move || {
                    obs::register_thread(&format!("worker-{w}"));
                    part.iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The bound column names the target it was certified for
        // (`bound[sz32]`/`bound[rv]`), so two reports of the same program
        // on different machines are never confused for each other.
        let bound_col = format!("bound[{}]", self.target().name());
        let slack_col = format!("slack[{}]", self.target().name());
        writeln!(
            f,
            "{:<24} {bound_col:>12} {:>12} {slack_col:>12}",
            "function", "measured"
        )?;
        for (name, bound) in &self.bounds {
            let (measured, slack) = match self.measured.get(name) {
                Some(m) => (format!("{m} bytes"), format!("{} bytes", bound - m)),
                None => ("-".to_owned(), "-".to_owned()),
            };
            writeln!(
                f,
                "{name:<24} {:>12} {measured:>12} {slack:>12}",
                format!("{bound} bytes")
            )?;
        }
        Ok(())
    }
}

/// An error from the end-to-end pipeline.
#[derive(Debug, Clone)]
pub enum Error {
    /// Parsing or type checking failed.
    Frontend(String),
    /// The automatic analyzer gave up (recursion — use the interactive
    /// logic instead, as in Table 2).
    Analyzer(analyzer::AnalyzerError),
    /// A generated derivation failed to re-check (an analyzer bug).
    Derivation(qhl::QhlError),
    /// Compilation failed.
    Compiler(compiler::CompileError),
    /// A [`compiler::Pipeline`] run failed its refinement checkpoint.
    /// Built only by callers that run the pipeline themselves (such as a
    /// benchmark's tracer); the [`Verifier`] compiles through
    /// [`vcache::compile`], which reports a failed checkpoint as an
    /// [`Error::Compiler`] naming the pass and the discrepancy.
    Pipeline(compiler::PipelineError),
    /// The machine run failed (overflow would mean an unsound bound).
    Machine(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Frontend(m) => write!(f, "front end: {m}"),
            Error::Analyzer(e) => write!(f, "analyzer: {e}"),
            Error::Derivation(e) => write!(f, "derivation check: {e}"),
            Error::Compiler(e) => write!(f, "compiler: {e}"),
            Error::Pipeline(e) => write!(f, "compiler pipeline: {e}"),
            Error::Machine(m) => write!(f, "machine: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// A configurable builder for the end-to-end verification pipeline.
/// It runs the paper's Figure 2 loop: front end, analysis, derivation
/// check, compilation, bound instantiation and measurement, in that
/// order.
///
/// [`verify_program`] is the all-defaults instance of this builder; use
/// a `Verifier` directly to switch the optional steps off or configure
/// them — a no-measure batch mode, a custom interpreter fuel, a
/// refinement-checked compile:
///
/// ```
/// use stackbound::Verifier;
///
/// let report = Verifier::new()
///     .measure(false)                   // bound-only batch mode
///     .check_refinement(true)           // per-pass refinement checkpoints
///     .verify("u32 id(u32 x) { return x; }
///              int main() { u32 r; r = id(7); return r; }")
///     .unwrap();
/// assert!(report.bound("main").is_some());
/// assert_eq!(report.measured("main"), None); // measurement was off
/// ```
///
/// Every run goes through a [`vcache::VCache`] and an
/// [`asm::MeasureCache`]: the caller's ([`Verifier::vcache`],
/// [`Verifier::measure_cache`]) or fresh ones for that call. A fresh
/// cache misses everywhere, so an uncached run does exactly the work of
/// a cold one.
#[derive(Debug, Clone)]
pub struct Verifier {
    fuel: u64,
    params: Vec<(String, u32)>,
    check_derivations: bool,
    measure: bool,
    pipeline: compiler::PipelineConfig,
    measure_all: bool,
    measure_cache: Option<std::sync::Arc<asm::MeasureCache>>,
    vcache: Option<std::sync::Arc<vcache::VCache>>,
}

impl Default for Verifier {
    fn default() -> Verifier {
        Verifier::new()
    }
}

impl Verifier {
    /// A verifier with the defaults of [`verify_program`]: every step,
    /// [`DEFAULT_FUEL`], the default compiler pipeline.
    pub fn new() -> Verifier {
        Verifier {
            fuel: DEFAULT_FUEL,
            params: Vec::new(),
            check_derivations: true,
            measure: true,
            pipeline: compiler::PipelineConfig::default(),
            measure_all: false,
            measure_cache: None,
            vcache: None,
        }
    }

    /// Sets the interpreter/machine fuel for the measurement stage.
    #[must_use]
    pub fn fuel(mut self, fuel: u64) -> Verifier {
        self.fuel = fuel;
        self
    }

    /// Adds one compile-time parameter (the paper's section hypotheses,
    /// e.g. `ALEN`).
    #[must_use]
    pub fn param(mut self, name: &str, value: u32) -> Verifier {
        self.params.push((name.to_owned(), value));
        self
    }

    /// Adds compile-time parameters.
    #[must_use]
    pub fn params(mut self, params: &[(&str, u32)]) -> Verifier {
        self.params
            .extend(params.iter().map(|(n, v)| ((*n).to_owned(), *v)));
        self
    }

    /// Runs (the default) or skips the measurement: executing `main` on
    /// the `ASMsz` machine with a stack of exactly the verified bound.
    #[must_use]
    pub fn measure(mut self, on: bool) -> Verifier {
        self.measure = on;
        self
    }

    /// Runs (the default) or skips re-checking the generated derivations
    /// with the [`qhl`] validator.
    #[must_use]
    pub fn check_derivations(mut self, on: bool) -> Verifier {
        self.check_derivations = on;
        self
    }

    /// Runs the compile stage with per-pass refinement checkpoints
    /// ([`compiler::PipelineConfig::check_refinement`]).
    #[must_use]
    pub fn check_refinement(mut self, on: bool) -> Verifier {
        self.pipeline.check_refinement = on;
        self
    }

    /// Selects the backend target the program is compiled, bounded, and
    /// measured for. The target decides the frame layout, the
    /// return-address convention, and the cost metric the symbolic bounds
    /// are instantiated with, so the certified bounds of the same program
    /// genuinely differ between targets. Defaults to [`asm::Target::Sz32`].
    #[must_use]
    pub fn target(mut self, target: asm::Target) -> Verifier {
        self.pipeline.options.target = target;
        self
    }

    /// In the measurement stage, additionally runs every other bounded
    /// zero-parameter function on its own verified bound (each on a fresh
    /// machine). `main` keeps its historical strict semantics — a machine
    /// failure is a verification [`Error::Machine`] — while the extra
    /// functions record a measurement only when they converge cleanly
    /// (e.g. a helper that divides by an uninitialized global is silently
    /// skipped rather than failing the run). Off by default.
    #[must_use]
    pub fn measure_all_functions(mut self, on: bool) -> Verifier {
        self.measure_all = on;
        self
    }

    /// Routes the measurement stage through a shared content-addressed
    /// [`asm::MeasureCache`], so repeated verifications of identical
    /// compiled programs (sweeps, reps, gates) skip the machine runs.
    #[must_use]
    pub fn measure_cache(mut self, cache: std::sync::Arc<asm::MeasureCache>) -> Verifier {
        self.measure_cache = Some(cache);
        self
    }

    /// Routes the analyze, derivation-check, compile, and bound stages
    /// through a shared content-addressed [`vcache::VCache`], so repeated
    /// verifications reuse every per-function artifact whose inputs are
    /// unchanged (and incremental edits recompute only the edited
    /// function plus its transitive callers). Stage output is
    /// byte-identical to a run through a fresh cache, and refinement
    /// checkpoints run on the spliced compiles too.
    #[must_use]
    pub fn vcache(mut self, cache: std::sync::Arc<vcache::VCache>) -> Verifier {
        self.vcache = Some(cache);
        self
    }

    /// Runs the pipeline on `src` and assembles the [`Report`].
    ///
    /// # Errors
    ///
    /// Any stage can fail; see [`Error`]. Recursive programs are rejected
    /// by the analyzer — verify them interactively with [`qhl`] (the
    /// `interactive_proof` example shows how).
    pub fn verify(&self, src: &str) -> Result<Report, Error> {
        let _span = obs::span("verify/program");
        let cache = self.vcache.clone().unwrap_or_default();
        let params: Vec<(&str, u32)> = self.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let program = clight::frontend(src, &params).map_err(Error::Frontend)?;
        let keys = vcache::keys(&program, &self.pipeline.options);
        let analysis = vcache::analyze(&cache, &program, &keys).map_err(Error::Analyzer)?;
        if self.check_derivations {
            vcache::check(&cache, &program, &analysis, &keys).map_err(Error::Derivation)?;
        }
        let compiled =
            vcache::compile(&cache, &program, &self.pipeline, &keys).map_err(Error::Compiler)?;
        let bounds: BTreeMap<String, u32> = {
            let _s = obs::span("verify/bounds");
            program
                .function_names()
                .filter_map(|name| {
                    let b =
                        vcache::concrete_bound(&cache, &analysis, &compiled.metric, name, &keys)?;
                    Some((name.to_owned(), b as u32))
                })
                .collect()
        };
        obs::counter("verify/bounded_functions", bounds.len() as u64);
        let mut report = Report {
            bounds,
            measured: BTreeMap::new(),
            compiled,
            analysis,
            measurement: None,
        };
        let (true, Some(main_bound)) = (self.measure, report.bounds.get("main").copied()) else {
            return Ok(report);
        };
        let _s = obs::span("verify/measure");
        let measures = self.measure_cache.clone().unwrap_or_default();
        let measure_one = |name: &str, bound: u32| {
            let _s = obs::span_dyn(|| format!("measure/fn/{name}"));
            measures.measure_function(&report.compiled.asm, name, &[], bound, self.fuel)
        };
        // `main` first, then (under `measure_all`) every other bounded
        // zero-parameter function in name order (`bounds` is a BTreeMap).
        let m = measure_one("main", main_bound).map_err(|e| Error::Machine(e.to_string()))?;
        if let Some(err) = m.error {
            return Err(Error::Machine(err.to_string()));
        }
        if m.behavior.converges() {
            report.measured.insert("main".to_owned(), m.stack_usage);
        }
        if self.measure_all {
            for (name, &bound) in &report.bounds {
                let zero_params = program.function(name).is_some_and(|f| f.params.is_empty());
                if name == "main" || !zero_params {
                    continue;
                }
                // Helpers may legitimately fail cold (e.g. reading globals
                // main initializes); record converging runs only instead
                // of failing the verification.
                if let Ok(h) = measure_one(name, bound) {
                    if h.error.is_none() && h.behavior.converges() {
                        report.measured.insert(name.clone(), h.stack_usage);
                    }
                }
            }
        }
        report.measurement = Some(m);
        Ok(report)
    }
}

/// Runs the complete verified tool of §5: parse, type-check, analyze
/// (generating and re-checking derivations), compile, and derive a
/// concrete verified stack bound for every function. If the program has a
/// `main`, it is additionally executed on the `ASMsz` machine with a stack
/// of exactly the verified bound, and the measured usage is recorded.
///
/// This is the all-defaults instance of [`Verifier`]; use the builder to
/// switch steps off or configure them.
///
/// # Errors
///
/// Any stage can fail; see [`Error`]. Recursive programs are rejected by
/// the analyzer — verify them interactively with [`qhl`] (the
/// `interactive_proof` example shows how).
pub fn verify_program(src: &str) -> Result<Report, Error> {
    Verifier::new().verify(src)
}

/// [`verify_program`] with compile-time parameters (the paper's `ALEN`
/// section hypotheses).
///
/// # Errors
///
/// See [`verify_program`].
pub fn verify_with_params(src: &str, params: &[(&str, u32)]) -> Result<Report, Error> {
    Verifier::new().params(params).verify(src)
}

#[cfg(test)]
mod par_map_tests {
    use super::par_map;

    #[test]
    fn empty_slice_yields_empty_output() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline_and_preserves_value() {
        // One item caps the pool at one worker, so the closure runs on
        // the calling thread.
        let caller = std::thread::current().id();
        let out = par_map(&[41u32], |&x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_land_in_index_order() {
        let items: Vec<u32> = (0..101).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod report_display_tests {
    #[test]
    fn report_table_columns_align() {
        let report = crate::verify_program(
            "u32 leaf(u32 x) { return x + 1; }
             int main() { u32 r; r = leaf(1); return r; }",
        )
        .unwrap();
        let text = report.to_string();

        // Golden shape: three right-aligned 12-wide columns after the name,
        // with `-` sitting in the same column as the measured cells, and a
        // slack column (bound − measured) on the right.
        let leaf = report.bound("leaf").unwrap();
        let main = report.bound("main").unwrap();
        let meas = report.measured("main").unwrap();
        let slack = report.slack("main").unwrap();
        let expected = format!(
            "{:<24} {:>12} {:>12} {:>12}\n{:<24} {:>12} {:>12} {:>12}\n{:<24} {:>12} {:>12} {:>12}\n",
            "function",
            "bound[sz32]",
            "measured",
            "slack[sz32]",
            "leaf",
            format!("{leaf} bytes"),
            "-",
            "-",
            "main",
            format!("{main} bytes"),
            format!("{meas} bytes"),
            format!("{slack} bytes"),
        );
        assert_eq!(text, expected);
        // The call chain leaves exactly main's own pushed return address.
        assert_eq!(slack, 4);

        // Every line (header included) has the same width.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3);
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "misaligned report:\n{text}"
        );
    }

    #[test]
    fn report_header_names_the_target() {
        let src = "u32 leaf(u32 x) { return x + 1; }
                   int main() { u32 r; r = leaf(1); return r; }";
        let rv = crate::Verifier::new()
            .target(asm::Target::Rv)
            .verify(src)
            .unwrap();
        assert_eq!(rv.target(), asm::Target::Rv);
        let text = rv.to_string();
        assert!(text.contains("bound[rv]"), "missing rv header:\n{text}");
        assert!(text.contains("slack[rv]"), "missing slack header:\n{text}");
        // Alignment holds for the rv header width too.
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "misaligned report:\n{text}"
        );
        // On the link-register machine the bound is exact: zero slack.
        assert_eq!(rv.measured("main"), rv.bound("main"));
        assert_eq!(rv.slack("main"), Some(0));
    }
}
