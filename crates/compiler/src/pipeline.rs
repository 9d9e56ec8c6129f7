//! The pass manager: first-class compiler passes and the [`Pipeline`]
//! driver that runs them.
//!
//! The paper's compiler is a *chain* of passes, each carrying its own
//! quantitative-refinement obligation `C(s) ≼Q s` (§3.2, proved once in
//! Coq). This module reifies that structure: every pass is a value
//! implementing [`Pass`], and the [`Pipeline`] driver owns the pass list
//! and the cross-cutting machinery that used to be hand-rolled inline —
//! observability spans and size counters, and an optional per-pass
//! *refinement checkpoint* ([`Pass::check`]) that executes the source
//! and target IR of the pass and asserts [`trace::refinement`] on the
//! concrete run, the testable counterpart of the paper's per-pass
//! theorems.
//!
//! Every pass maps functions one at a time against read-only program
//! context, as in Leroy's CompCert back-end, so [`Pipeline`] also compiles
//! incrementally: given cached per-function verticals ([`FnArtifacts`]),
//! [`Pipeline::run_reusing`] has each pass emit a reused function's image
//! at its output stage instead of translating it, and runs the refinement
//! checkpoints on these spliced programs as on cold ones.
//!
//! The per-function passes additionally support a parallel mode
//! ([`PipelineConfig::parallel`]) that fans independent function
//! translations out across `std::thread` workers. Functions are
//! re-assembled in program order, so parallel output is byte-identical to
//! serial output.
//!
//! # Examples
//!
//! ```
//! use compiler::pipeline::{Pipeline, PipelineConfig};
//!
//! let program = clight::frontend(
//!     "u32 sq(u32 x) { return x * x; }
//!      int main() { u32 r; r = sq(6); return r + 6; }", &[]).unwrap();
//!
//! // A refinement-checked, parallel build.
//! let config = PipelineConfig {
//!     check_refinement: true,
//!     parallel: true,
//!     ..PipelineConfig::default()
//! };
//! let compiled = Pipeline::new(config).run(&program).unwrap();
//! assert_eq!(compiled.asm.functions.len(), 2);
//! ```

use crate::{asmgen, cminor, cminorgen, inline, mach, machgen, opt, rtl, rtlgen};
use crate::{CompileError, Compiled, FnArtifacts, Options};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use trace::refinement::{self, RefinementError};
use trace::Behavior;

/// Stack size used when executing `ASMsz` code inside a refinement
/// checkpoint (generous so the check observes the true behavior).
const CHECK_STACK: u32 = 1 << 22;

/// A program at some stage of the compilation pipeline.
///
/// Passes consume and produce values of this type; the variant order
/// mirrors the pipeline of the paper's Figure 4.
#[derive(Debug, Clone)]
pub enum Ir {
    /// The Clight source program.
    Clight(clight::Program),
    /// The Cminor intermediate program.
    Cminor(cminor::CmProgram),
    /// The RTL intermediate program.
    Rtl(rtl::RtlProgram),
    /// The Mach program with laid-out frames.
    Mach(mach::MachProgram),
    /// The final `ASMsz` program.
    Asm(asm::AsmProgram),
}

impl Ir {
    /// The stage name of this representation.
    pub fn stage(&self) -> &'static str {
        match self {
            Ir::Clight(_) => "clight",
            Ir::Cminor(_) => "cminor",
            Ir::Rtl(_) => "rtl",
            Ir::Mach(_) => "mach",
            Ir::Asm(_) => "asm",
        }
    }

    /// The default size measure of this representation: total instruction
    /// count for the flat IRs, function count for Cminor (whose statements
    /// are trees), and none for Clight.
    pub fn size(&self) -> Option<u64> {
        match self {
            Ir::Clight(_) => None,
            Ir::Cminor(p) => Some(p.functions.len() as u64),
            Ir::Rtl(p) => Some(p.functions.iter().map(|f| f.code.len() as u64).sum()),
            Ir::Mach(p) => Some(p.functions.iter().map(|f| f.code.len() as u64).sum()),
            Ir::Asm(p) => Some(p.functions.iter().map(|f| f.code.len() as u64).sum()),
        }
    }

    /// Executes the program's `main` with this stage's interpreter and
    /// returns its behavior, or `None` when the program has no `main` (or,
    /// for `ASMsz`, cannot be set up). `ASMsz` runs on a generous
    /// fixed-size stack.
    pub fn run_main(&self, fuel: u64) -> Option<Behavior> {
        match self {
            Ir::Clight(p) => p
                .function("main")
                .map(|_| clight::Executor::run_main(p, fuel)),
            Ir::Cminor(p) => p.function("main").map(|_| cminor::run_main(p, fuel)),
            Ir::Rtl(p) => p.function("main").map(|_| rtl::run_main(p, fuel)),
            Ir::Mach(p) => p
                .functions
                .iter()
                .any(|f| f.name == "main")
                .then(|| mach::run_main(p, fuel)),
            Ir::Asm(p) => p
                .functions
                .iter()
                .any(|f| f.name == "main")
                .then(|| asm::measure_main(p, CHECK_STACK, fuel))?
                .ok()
                .map(|m| m.behavior),
        }
    }
}

/// Per-run context handed to every pass by the driver.
#[derive(Debug, Clone, Copy)]
pub struct PassContext<'a> {
    /// Number of worker threads a per-function pass may fan out to
    /// (`1` means serial).
    pub workers: usize,
    /// The machine the backend passes emit code for (from
    /// [`Options::target`]).
    pub target: asm::Target,
    /// Cached verticals by function name (see [`Pipeline::run_reusing`]):
    /// a pass emits a listed function's image at its own output stage
    /// instead of translating it.
    pub reuse: &'a HashMap<String, Arc<FnArtifacts>>,
}

impl PassContext<'_> {
    /// Maps `translate` over a program's functions in order, fanned out
    /// across [`PassContext::workers`] threads, except that a reused
    /// function yields `cached` of its vertical.
    fn map_functions<T: Sync, U: Send>(
        &self,
        functions: &[T],
        name: impl Fn(&T) -> &str + Sync,
        cached: impl Fn(&FnArtifacts) -> U + Sync,
        translate: impl Fn(&T) -> Result<U, CompileError> + Sync,
    ) -> Result<Vec<U>, CompileError> {
        par_map(functions, self.workers, "compile", |f| {
            match self.reuse.get(name(f)) {
                Some(a) => Ok(cached(a)),
                None => translate(f),
            }
        })
        .into_iter()
        .collect()
    }
}

/// One compiler pass: a named transformation between [`Ir`] stages with a
/// size measure and an optional refinement checkpoint.
///
/// The paper proves `C(s) ≼Q s` once per pass; here [`Pass::check`] is the
/// per-execution counterpart, invoked by the driver when
/// [`PipelineConfig::check_refinement`] is set.
pub trait Pass: Send + Sync {
    /// Short pass name, e.g. `machgen`. The driver opens an obs span
    /// `compiler/<name>` around the pass.
    fn name(&self) -> &'static str;

    /// Transforms the input IR into the output IR, emitting the functions
    /// [`PassContext::reuse`] lists as their cached image at this pass's
    /// output stage.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] on malformed input (including an input
    /// [`Ir`] stage the pass does not accept) or internal invariant
    /// violations.
    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError>;

    /// The size measure reported as the `instrs_in`/`instrs_out` obs
    /// counters; defaults to [`Ir::size`].
    fn size(&self, ir: &Ir) -> Option<u64> {
        ir.size()
    }

    /// Whether the driver reports the input size as an `instrs_in`
    /// counter (the transformation passes over already-flat IR do).
    fn reports_input_size(&self) -> bool {
        false
    }

    /// Whether this pass's output depends on the backend target. The
    /// driver suffixes the obs span of such passes with a `target=` label
    /// so sz32 and rv runs never collide in `obs-diff` or the hotspots
    /// table.
    fn target_specific(&self) -> bool {
        false
    }

    /// The refinement checkpoint: executes source and target and checks
    /// the pass's quantitative-refinement obligation on the concrete run.
    /// The default checks [`refinement::check_quantitative`] — pruned
    /// traces and outcomes agree and target weights are bounded by source
    /// weights under *every* stack metric. Programs without a `main` are
    /// vacuously fine.
    ///
    /// # Errors
    ///
    /// Returns the first [`RefinementError`] discrepancy.
    fn check(&self, source: &Ir, target: &Ir, fuel: u64) -> Result<(), RefinementError> {
        let (Some(b_src), Some(b_tgt)) = (source.run_main(fuel), target.run_main(fuel)) else {
            return Ok(());
        };
        refinement::check_quantitative(&b_src, &b_tgt, &[])
    }
}

/// Maps `f` over `items` preserving order, fanning out across at most
/// `workers` threads named `<track>-<i>` in timelines. With `workers <= 1`
/// (or one item) this is a serial map on the calling thread, and parallel
/// chunks are re-assembled by index, so the result is identical either way.
pub fn par_map<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    track: &str,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let workers = workers.min(items.len());
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
                obs::register_thread(&format!("{track}-{w}"));
                for (slot, item) in out.iter_mut().zip(inp) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("par_map: every slot is filled by its chunk's worker"))
        .collect()
}

/// The error of a pass handed an IR stage it does not accept.
fn wrong_stage(pass: &str, expected: &str, got: &Ir) -> CompileError {
    let got = got.stage();
    CompileError::Internal(format!("{pass}: expected {expected} input, got {got}"))
}

/// Expects an RTL input.
fn expect_rtl<'a>(pass: &str, input: &'a Ir) -> Result<&'a rtl::RtlProgram, CompileError> {
    match input {
        Ir::Rtl(p) => Ok(p),
        other => Err(wrong_stage(pass, "rtl", other)),
    }
}

/// An RTL → RTL pass: `transform` rewrites a copy of every function,
/// except that a reused function becomes its cached optimized image
/// (`rtl_opt`). A reused function thus leaves the optimization chain
/// after its first pass, which in [`Pipeline::new`]'s order is `inline`,
/// whose candidate table needs the unoptimized bodies `rtlgen` emitted.
fn map_rtl(
    pass: &str,
    input: &Ir,
    ctx: &PassContext<'_>,
    transform: impl Fn(&mut rtl::RtlFunction) + Sync,
) -> Result<Ir, CompileError> {
    let p = expect_rtl(pass, input)?;
    Ok(Ir::Rtl(rtl::RtlProgram {
        globals: p.globals.clone(),
        externals: p.externals.clone(),
        functions: ctx.map_functions(
            &p.functions,
            |f| &f.name,
            |a| a.rtl_opt.clone(),
            |f| {
                let mut f = f.clone();
                transform(&mut f);
                Ok(f)
            },
        )?,
    }))
}

/// Clight → Cminor (local-variable merging into an explicit stack block).
#[derive(Debug, Clone, Copy, Default)]
pub struct CminorGen;

impl Pass for CminorGen {
    fn name(&self) -> &'static str {
        "cminorgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Clight(p) = input else {
            return Err(wrong_stage("cminorgen", "clight", input));
        };
        Ok(Ir::Cminor(cminor::CmProgram {
            functions: ctx.map_functions(
                &p.functions,
                |f| &f.name,
                |a| a.cminor.clone(),
                |f| cminorgen::translate_function(f, p),
            )?,
            ..cminorgen::header(p)
        }))
    }
}

/// Cminor → RTL (CFG construction); per-function, parallelizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct RtlGen;

impl Pass for RtlGen {
    fn name(&self) -> &'static str {
        "rtlgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Cminor(p) = input else {
            return Err(wrong_stage("rtlgen", "cminor", input));
        };
        Ok(Ir::Rtl(rtl::RtlProgram {
            globals: p.globals.clone(),
            externals: p.externals.clone(),
            functions: ctx.map_functions(
                &p.functions,
                |f| &f.name,
                |a| a.rtl.clone(),
                rtlgen::translate_function,
            )?,
        }))
    }
}

/// RTL → RTL leaf inlining (off by default, see [`crate::inline`]);
/// per-function, parallelizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl Pass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let candidates = inline::candidates(expect_rtl("inline", input)?);
        map_rtl("inline", input, ctx, |f| {
            inline::inline_function(f, &candidates)
        })
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → RTL constant propagation; per-function, parallelizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstProp;

impl Pass for ConstProp {
    fn name(&self) -> &'static str {
        "constprop"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        map_rtl("constprop", input, ctx, opt::constprop_function)
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → RTL dead-code elimination; per-function, parallelizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        map_rtl("dce", input, ctx, opt::dce_function)
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → RTL `Nop`-chain shortening; per-function, parallelizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tunnel;

impl Pass for Tunnel {
    fn name(&self) -> &'static str {
        "tunnel"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        map_rtl("tunnel", input, ctx, opt::tunnel_function)
    }

    fn reports_input_size(&self) -> bool {
        true
    }
}

/// RTL → Mach (allocation, linearization, stacking); per-function,
/// parallelizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachGen;

impl Pass for MachGen {
    fn name(&self) -> &'static str {
        "machgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let p = expect_rtl("machgen", input)?;
        let env = machgen::Env::new(p, ctx.target);
        Ok(Ir::Mach(mach::MachProgram {
            target: ctx.target,
            globals: p.globals.clone(),
            externals: p.externals.clone(),
            functions: ctx.map_functions(
                &p.functions,
                |f| &f.name,
                |a| a.mach.clone(),
                |f| machgen::translate_function(f, &env),
            )?,
        }))
    }

    fn reports_input_size(&self) -> bool {
        true
    }

    fn target_specific(&self) -> bool {
        true
    }
}

/// Mach → `ASMsz` (stack merging); per-function, parallelizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsmGen;

impl Pass for AsmGen {
    fn name(&self) -> &'static str {
        "asmgen"
    }

    fn run(&self, input: &Ir, ctx: &PassContext<'_>) -> Result<Ir, CompileError> {
        let Ir::Mach(p) = input else {
            return Err(wrong_stage("asmgen", "mach", input));
        };
        Ok(Ir::Asm(asm::AsmProgram {
            target: p.target,
            globals: p.globals.clone(),
            externals: p
                .externals
                .iter()
                .map(|(n, a, _)| asm::AsmExternal {
                    name: n.clone(),
                    arity: *a,
                })
                .collect(),
            functions: ctx.map_functions(
                &p.functions,
                |f| &f.name,
                |a| a.asm.clone(),
                |f| asmgen::translate_function(f, p.target),
            )?,
        }))
    }

    fn target_specific(&self) -> bool {
        true
    }

    /// The machine has a *finite* stack, so the quantitative half of the
    /// refinement is Theorem 1's business (checked end-to-end elsewhere);
    /// the checkpoint here is CompCert's classic refinement on a stack
    /// large enough not to overflow.
    fn check(&self, source: &Ir, target: &Ir, fuel: u64) -> Result<(), RefinementError> {
        let (Some(b_src), Some(b_tgt)) = (source.run_main(fuel), target.run_main(fuel)) else {
            return Ok(());
        };
        refinement::check_classic(&b_src, &b_tgt)
    }
}

/// Configuration for a [`Pipeline`] run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which optimization passes the pipeline contains.
    pub options: Options,
    /// Run every pass's refinement checkpoint ([`Pass::check`]) on the
    /// concrete execution of its source and target. Expensive — the
    /// program is interpreted at every stage — but turns each of the
    /// paper's per-pass theorems into a runtime assertion.
    pub check_refinement: bool,
    /// Interpreter fuel for refinement checkpoints.
    pub check_fuel: u64,
    /// Fan per-function passes out across worker threads. Output is
    /// byte-identical to serial mode.
    pub parallel: bool,
    /// Worker-thread count for [`PipelineConfig::parallel`]; `0` (the
    /// default) uses [`std::thread::available_parallelism`].
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            options: Options::default(),
            check_refinement: false,
            check_fuel: 20_000_000,
            parallel: false,
            workers: 0,
        }
    }
}

impl PipelineConfig {
    /// The default configuration with explicit [`Options`].
    pub fn with_options(options: Options) -> PipelineConfig {
        PipelineConfig {
            options,
            ..PipelineConfig::default()
        }
    }

    /// The worker-thread count a run will actually use.
    pub fn effective_workers(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// A [`Pipeline`] failure: the compilation itself failed, or a refinement
/// checkpoint found a discrepancy.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// A pass failed to compile the program.
    Compile(CompileError),
    /// A refinement checkpoint failed — the pass changed observable
    /// behavior or increased a stack weight (always a compiler bug).
    RefinementFailed {
        /// The pass whose checkpoint failed.
        pass: String,
        /// The discrepancy (boxed: it carries both behaviors).
        error: Box<RefinementError>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "{e}"),
            PipelineError::RefinementFailed { pass, error } => {
                write!(f, "pass `{pass}` failed its refinement checkpoint: {error}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> PipelineError {
        PipelineError::Compile(e)
    }
}

impl From<PipelineError> for CompileError {
    /// A failed refinement checkpoint becomes [`CompileError::Internal`]
    /// naming the pass and the discrepancy: a pass that changes behavior
    /// is a compiler bug.
    fn from(e: PipelineError) -> CompileError {
        match e {
            PipelineError::Compile(e) => e,
            refinement => CompileError::Internal(refinement.to_string()),
        }
    }
}

/// Intermediate programs the driver retains to assemble [`Compiled`].
#[derive(Default)]
struct Snapshots {
    cminor: Option<cminor::CmProgram>,
    rtl0: Option<rtl::RtlProgram>,
    rtl_latest: Option<rtl::RtlProgram>,
    mach: Option<mach::MachProgram>,
    asm: Option<asm::AsmProgram>,
}

impl Snapshots {
    /// Takes ownership of an IR the driver is done with.
    fn absorb(&mut self, ir: Ir) {
        match ir {
            Ir::Clight(_) => {}
            Ir::Cminor(p) => self.cminor = Some(p),
            Ir::Rtl(p) => {
                self.rtl0.get_or_insert_with(|| p.clone());
                self.rtl_latest = Some(p);
            }
            Ir::Mach(p) => self.mach = Some(p),
            Ir::Asm(p) => self.asm = Some(p),
        }
    }

    fn finish(self) -> Result<Compiled, CompileError> {
        let missing =
            |stage: &str| CompileError::Internal(format!("pipeline produced no {stage} program"));
        let mach = self.mach.ok_or_else(|| missing("mach"))?;
        let metric = mach.metric();
        Ok(Compiled {
            cminor: self.cminor.ok_or_else(|| missing("cminor"))?,
            rtl: self.rtl0.ok_or_else(|| missing("rtl"))?,
            rtl_opt: self.rtl_latest.ok_or_else(|| missing("optimized rtl"))?,
            mach,
            asm: self.asm.ok_or_else(|| missing("asm"))?,
            metric,
        })
    }
}

/// The pass-list driver: owns the passes selected by a [`PipelineConfig`]
/// and runs them in order, emitting per-pass obs spans and size counters
/// and (optionally) running refinement checkpoints.
pub struct Pipeline {
    config: PipelineConfig,
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// Builds the standard pass list for `config` (Figure 4's chain, with
    /// the optimization passes `config.options` enables).
    pub fn new(config: PipelineConfig) -> Pipeline {
        let mut passes: Vec<Box<dyn Pass>> = vec![Box::new(CminorGen), Box::new(RtlGen)];
        if config.options.inline {
            passes.push(Box::new(Inline));
        }
        if config.options.constprop {
            passes.push(Box::new(ConstProp));
        }
        if config.options.dce {
            passes.push(Box::new(Dce));
        }
        passes.push(Box::new(Tunnel));
        passes.push(Box::new(MachGen));
        passes.push(Box::new(AsmGen));
        Pipeline { config, passes }
    }

    /// A pipeline with an explicit pass list (for experiments with custom
    /// or reordered passes).
    pub fn with_passes(config: PipelineConfig, passes: Vec<Box<dyn Pass>>) -> Pipeline {
        Pipeline { config, passes }
    }

    /// The pass names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order on `program` and assembles the
    /// [`Compiled`] artifact (all intermediate programs plus the
    /// per-target cost metric — `M(f) = SF(f) + 4` on
    /// [`asm::Target::Sz32`], `M(f) = SF(f)` on [`asm::Target::Rv`]).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run(&self, program: &clight::Program) -> Result<Compiled, PipelineError> {
        self.run_reusing(program, &HashMap::new())
    }

    /// [`Pipeline::run`], splicing in the cached verticals of `reuse` (by
    /// function name): every pass emits a listed function's image at its
    /// output stage instead of translating it. Checkpoints run on the
    /// spliced programs, so a wrong entry fails like a miscompilation.
    ///
    /// Entries are used verbatim: each must come from an identical
    /// function under identical program signatures (`machgen` compiles
    /// names to table positions), callee bodies and [`Options`], which is
    /// what crate `vcache`'s keys cover.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_reusing(
        &self,
        program: &clight::Program,
        reuse: &HashMap<String, Arc<FnArtifacts>>,
    ) -> Result<Compiled, PipelineError> {
        let _span = obs::span("compiler/compile");
        let ctx = PassContext {
            workers: self.config.effective_workers(),
            target: self.config.options.target,
            reuse,
        };
        let mut snapshots = Snapshots::default();
        let mut current = Ir::Clight(program.clone());
        for pass in &self.passes {
            let _s = obs::span_dyn(|| {
                if pass.target_specific() {
                    format!("compiler/{}{{target={}}}", pass.name(), ctx.target.name())
                } else {
                    format!("compiler/{}", pass.name())
                }
            });
            if pass.reports_input_size() {
                if let Some(n) = pass.size(&current) {
                    obs::counter("instrs_in", n);
                }
            }
            let output = pass.run(&current, &ctx)?;
            if let Some(n) = pass.size(&output) {
                obs::counter("instrs_out", n);
            }
            if self.config.check_refinement {
                pass.check(&current, &output, self.config.check_fuel)
                    .map_err(|error| PipelineError::RefinementFailed {
                        pass: pass.name().to_owned(),
                        error: Box::new(error),
                    })?;
            }
            snapshots.absorb(std::mem::replace(&mut current, output));
        }
        snapshots.absorb(current);
        snapshots.finish().map_err(PipelineError::Compile)
    }
}
