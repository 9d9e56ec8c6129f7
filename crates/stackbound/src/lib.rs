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

/// Deterministic, order-preserving parallel map over a work list: results
/// land in index order, so serial and parallel callers produce
/// byte-identical output. Mirrors the compiler backend's chunked
/// [`std::thread::scope`] fan (`compiler::pipeline`); worker count is the
/// machine's available parallelism capped at the item count, and the
/// closure runs inline when that leaves a single worker.
///
/// Shared by the [`Verifier`]'s `--parallel-measure` mode and the bench
/// harnesses.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<U>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, (out, inp)) in slots.chunks_mut(chunk).zip(items.chunks(chunk)).enumerate() {
            let f = &f;
            scope.spawn(move || {
                obs::register_thread(&format!("worker-{w}"));
                for (slot, item) in out.iter_mut().zip(inp) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot is filled by exactly one worker"))
        .collect()
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
    /// The compiler pipeline rejected the run: a pass failed its
    /// refinement checkpoint (only possible with
    /// [`Verifier::check_refinement`] or a custom [`Verifier::pipeline`]
    /// configuration).
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

/// One stage of the end-to-end verification pipeline (the paper's
/// Figure 2 loop): the [`Verifier`] runs these in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Parse and type-check the C source.
    Frontend,
    /// Run the automatic stack analyzer, producing derivations.
    Analyze,
    /// Re-check the generated derivations with the [`qhl`] validator.
    CheckDerivations,
    /// Compile through the quantitative pipeline.
    Compile,
    /// Instantiate the symbolic bounds with the compiler's cost metric.
    Bound,
    /// Execute `main` on the `ASMsz` machine with a stack of exactly the
    /// verified bound and record the measured usage.
    Measure,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 6] = [
        Stage::Frontend,
        Stage::Analyze,
        Stage::CheckDerivations,
        Stage::Compile,
        Stage::Bound,
        Stage::Measure,
    ];

    /// The stage's name as it appears in obs spans and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Frontend => "frontend",
            Stage::Analyze => "analyze",
            Stage::CheckDerivations => "check-derivations",
            Stage::Compile => "compile",
            Stage::Bound => "bound",
            Stage::Measure => "measure",
        }
    }

    /// Whether the stage may be skipped. The mandatory stages produce the
    /// data every [`Report`] carries; only the re-validation and the
    /// machine run are optional.
    pub fn optional(self) -> bool {
        matches!(self, Stage::CheckDerivations | Stage::Measure)
    }
}

/// A configurable builder for the end-to-end verification pipeline.
///
/// [`verify_program`] is the all-defaults instance of this builder; use
/// the builder directly to skip or configure stages — a no-measure batch
/// mode, a custom interpreter fuel, a refinement-checked or parallel
/// compile:
///
/// ```
/// use stackbound::{Stage, Verifier};
///
/// let report = Verifier::new()
///     .skip(Stage::Measure)             // bound-only batch mode
///     .check_refinement(true)           // per-pass refinement checkpoints
///     .verify("u32 id(u32 x) { return x; }
///              int main() { u32 r; r = id(7); return r; }")
///     .unwrap();
/// assert!(report.bound("main").is_some());
/// assert_eq!(report.measured("main"), None); // measurement was skipped
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    fuel: u64,
    params: Vec<(String, u32)>,
    skipped: std::collections::BTreeSet<Stage>,
    pipeline: compiler::PipelineConfig,
    measure_all: bool,
    parallel_measure: bool,
    measure_cache: Option<std::sync::Arc<asm::MeasureCache>>,
    vcache: Option<std::sync::Arc<vcache::VCache>>,
}

impl Default for Verifier {
    fn default() -> Verifier {
        Verifier::new()
    }
}

impl Verifier {
    /// A verifier with the defaults of [`verify_program`]: every stage,
    /// [`DEFAULT_FUEL`], the default compiler pipeline.
    pub fn new() -> Verifier {
        Verifier {
            fuel: DEFAULT_FUEL,
            params: Vec::new(),
            skipped: std::collections::BTreeSet::new(),
            pipeline: compiler::PipelineConfig::default(),
            measure_all: false,
            parallel_measure: false,
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

    /// Skips an [optional](Stage::optional) stage. Skipping a mandatory
    /// stage is ignored: every later stage depends on its output.
    #[must_use]
    pub fn skip(mut self, stage: Stage) -> Verifier {
        if stage.optional() {
            self.skipped.insert(stage);
        }
        self
    }

    /// Convenience for skipping/unskipping [`Stage::Measure`].
    #[must_use]
    pub fn measure(mut self, on: bool) -> Verifier {
        if on {
            self.skipped.remove(&Stage::Measure);
        } else {
            self.skipped.insert(Stage::Measure);
        }
        self
    }

    /// Convenience for skipping/unskipping [`Stage::CheckDerivations`].
    #[must_use]
    pub fn check_derivations(mut self, on: bool) -> Verifier {
        if on {
            self.skipped.remove(&Stage::CheckDerivations);
        } else {
            self.skipped.insert(Stage::CheckDerivations);
        }
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

    /// Replaces the whole compiler pipeline configuration (refinement
    /// checkpoints, parallelism, optimization selection, …).
    #[must_use]
    pub fn pipeline(mut self, config: compiler::PipelineConfig) -> Verifier {
        self.pipeline = config;
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

    /// Fans the measurement stage's machine runs across threads with
    /// [`par_map`]. Results are byte-identical to a serial run and land in
    /// the same deterministic name order; only wall clock changes. Pair
    /// with [`Verifier::measure_all_functions`] — with `main` alone there
    /// is nothing to fan.
    #[must_use]
    pub fn parallel_measure(mut self, on: bool) -> Verifier {
        self.parallel_measure = on;
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
    /// byte-identical to an uncached run.
    ///
    /// The cached compile driver does not support per-pass refinement
    /// checkpoints (a whole-program concept); when they are configured,
    /// the compile stage transparently falls back to the regular pass
    /// manager while the other stages keep caching.
    #[must_use]
    pub fn vcache(mut self, cache: std::sync::Arc<vcache::VCache>) -> Verifier {
        self.vcache = Some(cache);
        self
    }

    /// The stages this verifier will run, in order.
    pub fn stages(&self) -> Vec<Stage> {
        Stage::ALL
            .into_iter()
            .filter(|s| !self.skipped.contains(s))
            .collect()
    }

    /// Runs the configured stages on `src` and assembles the [`Report`].
    ///
    /// # Errors
    ///
    /// Any stage can fail; see [`Error`]. Recursive programs are rejected
    /// by the analyzer — verify them interactively with [`qhl`] (the
    /// `interactive_proof` example shows how).
    pub fn verify(&self, src: &str) -> Result<Report, Error> {
        let _span = obs::span("verify/program");
        let mut program = None;
        // Content keys per function, computed once after the front end
        // when a `vcache` is attached.
        let mut keys: Option<BTreeMap<String, vcache::Key>> = None;
        let mut analysis = None;
        let mut compiled: Option<compiler::Compiled> = None;
        let mut bounds = BTreeMap::new();
        let mut measured = BTreeMap::new();
        let mut measurement = None;
        for stage in self.stages() {
            match stage {
                Stage::Frontend => {
                    let params: Vec<(&str, u32)> =
                        self.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    let p = clight::frontend(src, &params).map_err(Error::Frontend)?;
                    if self.vcache.is_some() {
                        keys = Some(vcache::keys(&p, &self.pipeline.options));
                    }
                    program = Some(p);
                }
                Stage::Analyze => {
                    let program = program.as_ref().expect("frontend is mandatory");
                    analysis = Some(match (&self.vcache, &keys) {
                        (Some(cache), Some(keys)) => {
                            vcache::analyze(cache, program, keys).map_err(Error::Analyzer)?
                        }
                        _ => analyzer::analyze(program).map_err(Error::Analyzer)?,
                    });
                }
                Stage::CheckDerivations => {
                    let program = program.as_ref().expect("frontend is mandatory");
                    let analysis = analysis.as_ref().expect("analyze is mandatory");
                    match (&self.vcache, &keys) {
                        (Some(cache), Some(keys)) => {
                            vcache::check(cache, program, analysis, keys)
                                .map_err(Error::Derivation)?;
                        }
                        _ => analysis.check(program).map_err(Error::Derivation)?,
                    }
                }
                Stage::Compile => {
                    let program = program.as_ref().expect("frontend is mandatory");
                    // Refinement checkpoints are a per-pass, whole-program
                    // feature of the pass manager; the incremental driver
                    // has no equivalent, so fall back.
                    let incremental = !self.pipeline.check_refinement;
                    compiled = Some(match (&self.vcache, &keys) {
                        (Some(cache), Some(keys)) if incremental => {
                            vcache::compile(cache, program, &self.pipeline, keys)
                                .map_err(Error::Compiler)?
                        }
                        _ => compiler::Pipeline::new(self.pipeline.clone())
                            .run(program)
                            .map_err(|e| match e {
                                compiler::PipelineError::Compile(e) => Error::Compiler(e),
                                other => Error::Pipeline(other),
                            })?,
                    });
                }
                Stage::Bound => {
                    let _s = obs::span("verify/bounds");
                    let program = program.as_ref().expect("frontend is mandatory");
                    let analysis = analysis.as_ref().expect("analyze is mandatory");
                    let compiled = compiled.as_ref().expect("compile is mandatory");
                    for name in program.function_names() {
                        let bound = match (&self.vcache, &keys) {
                            (Some(cache), Some(keys)) => vcache::concrete_bound(
                                cache,
                                analysis,
                                &compiled.metric,
                                name,
                                keys,
                            ),
                            _ => analysis.concrete_bound(name, &compiled.metric),
                        };
                        if let Some(b) = bound {
                            bounds.insert(name.to_owned(), b as u32);
                        }
                    }
                    obs::counter("verify/bounded_functions", bounds.len() as u64);
                }
                Stage::Measure => {
                    let Some(main_bound) = bounds.get("main").copied() else {
                        continue;
                    };
                    let _s = obs::span("verify/measure");
                    let compiled = compiled.as_ref().expect("compile is mandatory");
                    // `main` first, then (under `measure_all`) every other
                    // bounded zero-parameter function in name order —
                    // `bounds` is a BTreeMap, so the order is deterministic
                    // no matter how the measurements are scheduled.
                    let mut targets: Vec<(&str, u32)> = vec![("main", main_bound)];
                    if self.measure_all {
                        let program = program.as_ref().expect("frontend is mandatory");
                        for (name, b) in &bounds {
                            if name != "main"
                                && program.function(name).is_some_and(|f| f.params.is_empty())
                            {
                                targets.push((name.as_str(), *b));
                            }
                        }
                    }
                    let measure_one = |&(name, bound): &(&str, u32)| {
                        let _s = obs::span_dyn(|| format!("measure/fn/{name}"));
                        match &self.measure_cache {
                            Some(c) => {
                                c.measure_function(&compiled.asm, name, &[], bound, self.fuel)
                            }
                            None => {
                                asm::measure_function(&compiled.asm, name, &[], bound, self.fuel)
                            }
                        }
                    };
                    let results = if self.parallel_measure && targets.len() > 1 {
                        par_map(&targets, measure_one)
                    } else {
                        targets.iter().map(measure_one).collect()
                    };
                    let mut pairs = targets.iter().zip(results);
                    let (_, main_result) = pairs.next().expect("main is always first");
                    let m = main_result.map_err(|e| Error::Machine(e.to_string()))?;
                    if let Some(err) = m.error {
                        return Err(Error::Machine(err.to_string()));
                    }
                    if m.behavior.converges() {
                        measured.insert("main".to_owned(), m.stack_usage);
                    }
                    measurement = Some(m);
                    for (&(name, _), r) in pairs {
                        // Helpers may legitimately fail cold (e.g. reading
                        // globals main initializes); record converging runs
                        // only instead of failing the verification.
                        if let Ok(m) = r {
                            if m.error.is_none() && m.behavior.converges() {
                                measured.insert(name.to_owned(), m.stack_usage);
                            }
                        }
                    }
                }
            }
        }
        Ok(Report {
            bounds,
            measured,
            compiled: compiled.expect("compile is mandatory"),
            analysis: analysis.expect("analyze is mandatory"),
            measurement,
        })
    }
}

/// Runs the complete verified tool of §5: parse, type-check, analyze
/// (generating and re-checking derivations), compile, and derive a
/// concrete verified stack bound for every function. If the program has a
/// `main`, it is additionally executed on the `ASMsz` machine with a stack
/// of exactly the verified bound, and the measured usage is recorded.
///
/// This is the all-defaults instance of [`Verifier`]; use the builder to
/// skip or configure stages.
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
