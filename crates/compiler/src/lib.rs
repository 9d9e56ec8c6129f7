//! Quantitative CompCert for `stackbound`: a stack-aware, trace-preserving
//! compiler from Clight to `ASMsz` (§3 of *End-to-End Verification of
//! Stack-Space Bounds for C Programs*, PLDI 2014).
//!
//! The pipeline is
//!
//! ```text
//! Clight --cminorgen--> Cminor --rtlgen--> RTL --constprop,dce--> RTL
//!        --machgen (alloc + linearize + stacking)--> Mach
//!        --asmgen (stack merging)--> ASMsz
//! ```
//!
//! The [`pipeline`] pass manager runs it, and also compiles incrementally
//! by splicing in the cached per-function verticals ([`FnArtifacts`]) of
//! functions whose inputs are unchanged.
//!
//! Every language has an interpreter that emits `call`/`ret` events, so
//! quantitative refinement (`trace::refinement`) is checkable across every
//! pass on concrete executions — the testable counterpart of the paper's
//! Coq proofs. The compiler also produces the per-target cost metric from
//! the Mach frame sizes (`M(f) = SF(f) + 4` on the default
//! [`asm::Target::Sz32`], `M(f) = SF(f)` on the link-register
//! [`asm::Target::Rv`]); instantiating a source-level bound with this
//! metric bounds the stack usage of the produced `ASMsz` code
//! (Theorem 1).
//!
//! # Examples
//!
//! ```
//! let program = clight::frontend("
//!     u32 sq(u32 x) { return x * x; }
//!     int main() { u32 r; r = sq(6); return r + 6; }
//! ", &[]).unwrap();
//! let compiled = compiler::compile(&program)?;
//!
//! // Run the machine code on a 1 KiB stack.
//! let m = asm::measure_main(&compiled.asm, 1024, 100_000).unwrap();
//! assert_eq!(m.result(), Some(42));
//!
//! // The source-level trace weight under the compiler's metric bounds the
//! // measured usage (with the paper's 4-byte slack, exactly).
//! let source = clight::Executor::run_main(&program, 100_000);
//! let bound = source.trace().weight(&compiled.metric);
//! assert_eq!(bound, i64::from(m.stack_usage) + 4);
//! # Ok::<(), compiler::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod cminor;
mod cminorgen;
pub mod inline;
pub mod mach;
mod machgen;
pub mod opt;
pub mod pipeline;
pub mod rtl;
mod rtlgen;

mod asmgen;

pub use pipeline::{Pipeline, PipelineConfig, PipelineError};

use std::fmt;

/// A compiler failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The input program is not well-formed (should have been caught by
    /// `clight::typecheck`).
    BadInput(String),
    /// An internal invariant was violated; always a bug in the compiler.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::BadInput(m) => write!(f, "invalid input program: {m}"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compilation options; the defaults enable every optimization and
/// target the classic [`asm::Target::Sz32`] machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Run constant propagation on RTL.
    pub constprop: bool,
    /// Run dead-code elimination on RTL.
    pub dce: bool,
    /// Run experimental leaf inlining. **Off by default**, like in
    /// Quantitative CompCert (§3.3): inlining keeps bounds sound but
    /// destroys the exact `measured + 4` identity — see [`inline`].
    pub inline: bool,
    /// The machine the backend emits code for. The target decides the
    /// word size, the frame layout, the call convention
    /// (pushed-on-stack vs. link-register return addresses), and the
    /// per-function cost metric `M(f)` — so certified bounds are
    /// target-specific.
    pub target: asm::Target,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            constprop: true,
            dce: true,
            inline: false,
            target: asm::Target::Sz32,
        }
    }
}

impl Options {
    /// Options with every optimization disabled (for the ablation benches).
    pub fn no_opt() -> Options {
        Options {
            constprop: false,
            dce: false,
            inline: false,
            target: asm::Target::Sz32,
        }
    }

    /// The default options retargeted to `target`.
    pub fn for_target(target: asm::Target) -> Options {
        Options {
            target,
            ..Options::default()
        }
    }
}

/// The result of compiling a Clight program: the final `ASMsz` code, the
/// cost metric of Theorem 1, and every intermediate program (retained for
/// differential refinement testing and the ablation experiments).
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The Cminor intermediate program.
    pub cminor: cminor::CmProgram,
    /// RTL before optimization.
    pub rtl: rtl::RtlProgram,
    /// RTL after the enabled optimizations.
    pub rtl_opt: rtl::RtlProgram,
    /// The Mach program with laid-out frames.
    pub mach: mach::MachProgram,
    /// The final assembly program.
    pub asm: asm::AsmProgram,
    /// The cost metric from the Mach frame sizes: `M(f) = SF(f) + 4` on
    /// [`asm::Target::Sz32`], `M(f) = SF(f)` on [`asm::Target::Rv`].
    pub metric: trace::Metric,
}

impl Compiled {
    /// The frame size `SF(f)` of a compiled function, if it exists.
    pub fn frame_size(&self, fname: &str) -> Option<u32> {
        self.mach
            .functions
            .iter()
            .find(|f| f.name == fname)
            .map(|f| f.frame_size)
    }

    /// The vertical of the function at `index` in program order (every
    /// pass keeps the source order of the functions), or `None` past the
    /// last function.
    pub fn vertical(&self, index: usize) -> Option<FnArtifacts> {
        Some(FnArtifacts {
            cminor: self.cminor.functions.get(index)?.clone(),
            rtl: self.rtl.functions.get(index)?.clone(),
            rtl_opt: self.rtl_opt.functions.get(index)?.clone(),
            mach: self.mach.functions.get(index)?.clone(),
            asm: self.asm.functions.get(index)?.clone(),
        })
    }
}

/// One function's vertical: its image in every intermediate program
/// [`Compiled`] retains, in pipeline order. Crate `vcache` caches these
/// per function and [`Pipeline::run_reusing`] splices them back in.
#[derive(Debug, Clone, PartialEq)]
pub struct FnArtifacts {
    /// Cminor translation (post-`cminorgen`).
    pub cminor: cminor::CmFunction,
    /// RTL before optimization (post-`rtlgen`).
    pub rtl: rtl::RtlFunction,
    /// RTL after the enabled optimizations (post-`tunnel`).
    pub rtl_opt: rtl::RtlFunction,
    /// Mach translation with the laid-out frame (post-`machgen`).
    pub mach: mach::MachFunction,
    /// Final `ASMsz` code (post-`asmgen`).
    pub asm: asm::AsmFunction,
}

/// Compiles a type-checked Clight program with default options.
///
/// # Errors
///
/// Returns a [`CompileError`]; passing the program through
/// [`clight::typecheck`] first rules these out for well-formed inputs.
pub fn compile(program: &clight::Program) -> Result<Compiled, CompileError> {
    compile_with(program, Options::default())
}

/// Compiles with explicit [`Options`].
///
/// This is a thin wrapper over the [`pipeline`] pass manager with the
/// default [`PipelineConfig`] (no refinement checkpoints); build a
/// [`Pipeline`] directly to turn them on.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with(program: &clight::Program, options: Options) -> Result<Compiled, CompileError> {
    Ok(Pipeline::new(PipelineConfig::with_options(options)).run(program)?)
}

/// Convenience: parse, type-check, and compile C source in one call.
///
/// # Errors
///
/// Returns the front-end or compiler error message.
///
/// # Examples
///
/// ```
/// let compiled = compiler::compile_c("int main() { return 0; }", &[]).unwrap();
/// assert_eq!(compiled.asm.functions.len(), 1);
/// ```
pub fn compile_c(src: &str, params: &[(&str, u32)]) -> Result<Compiled, String> {
    let program = clight::frontend(src, params)?;
    compile(&program).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests;
