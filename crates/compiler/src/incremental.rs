//! Function-granular incremental compilation.
//!
//! Every pass after `cminorgen` is a per-function map (the property the
//! parallel backend of [`crate::pipeline`] already relies on), and
//! `cminorgen` itself translates one function at a time against read-only
//! program context. A function's compiled artifacts therefore depend only
//! on
//!
//! 1. its own Clight AST,
//! 2. the *signatures* (names, order, arities) of the program's globals,
//!    externals and functions — `machgen` compiles name references down
//!    to table indices, so positions matter,
//! 3. with inlining enabled, the RTL bodies of its callees, and
//! 4. the optimization selection ([`crate::Options`]).
//!
//! [`compile_incremental`] exploits this: the caller hands it a map of
//! per-function [`FnArtifacts`] it already trusts (keyed by function
//! name; the *caller* — crate `vcache` — is responsible for only reusing
//! artifacts whose content key covers 1–4), and only the remaining
//! functions are compiled, fanned out across worker threads. The
//! assembled [`Compiled`] is byte-identical to a [`crate::Pipeline`] run — the
//! incremental-equivalence test suite pins this on the whole benchmark
//! corpus.
//!
//! Refinement checkpoints are a whole-program, per-pass concept and are
//! not supported here; callers that need them use the [`crate::Pipeline`]
//! driver.

use crate::pipeline::par_map;
use crate::{asmgen, cminor, cminorgen, inline, mach, machgen, opt, rtl, rtlgen};
use crate::{CompileError, Compiled, PipelineConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// The complete per-function vertical produced by one compilation: the
/// function's image in every intermediate representation the final
/// [`Compiled`] artifact retains, in pipeline order.
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

/// The freshly compiled verticals of one incremental run, for the caller
/// to store under its own content keys.
pub type FreshArtifacts = Vec<(String, Arc<FnArtifacts>)>;

/// Compiles `program` reusing the per-function artifacts in `reuse` and
/// compiling everything else, returning the assembled [`Compiled`] plus
/// the freshly compiled verticals (for the caller to store).
///
/// `reuse` keys are function names; an entry is used verbatim, so the
/// caller must have established (via content-addressed keys) that the
/// entry was produced from an identical function under an identical
/// program signature environment and optimization selection. Functions
/// absent from `reuse` are compiled with `config.effective_workers()`
/// worker threads in program order, exactly like the parallel backend.
///
/// # Errors
///
/// Exactly the [`CompileError`]s a [`crate::Pipeline`] run would produce
/// on the functions that are actually compiled.
pub fn compile_incremental(
    program: &clight::Program,
    config: &PipelineConfig,
    reuse: &HashMap<String, Arc<FnArtifacts>>,
) -> Result<(Compiled, FreshArtifacts), CompileError> {
    let _span = obs::span("compiler/incremental");
    let workers = config.effective_workers();
    let options = config.options;

    // Header tables, translated exactly as `cminorgen::translate` and the
    // later passes do (each pass clones them forward unchanged).
    let globals: Vec<(String, u32, Vec<u32>)> = program
        .globals
        .iter()
        .map(|g| (g.name.clone(), g.ty.size(), g.init.clone()))
        .collect();
    let externals: Vec<(String, usize, bool)> = program
        .externals
        .iter()
        .map(|e| (e.name.clone(), e.arity, e.ret.is_some()))
        .collect();

    let misses: Vec<&clight::Function> = program
        .functions
        .iter()
        .filter(|f| !reuse.contains_key(&f.name))
        .collect();
    obs::counter(
        "compiler/incremental_fn_reused",
        (program.functions.len() - misses.len()) as u64,
    );
    obs::counter("compiler/incremental_fn_compiled", misses.len() as u64);

    // Phase A: front half of the vertical (Clight → Cminor → RTL),
    // per-function, fanned out.
    let front: Vec<(cminor::CmFunction, rtl::RtlFunction)> = par_map(&misses, workers, |f| {
        let _s = obs::span_dyn(|| format!("compiler/front/fn/{}", f.name));
        let cm = cminorgen::translate_function(f, program)?;
        let r = rtlgen::translate_function(&cm)?;
        Ok((cm, r))
    })?;

    // Inlining consults the whole pre-optimization RTL program, so the
    // candidate table must see cached and fresh functions alike.
    let rtl_program = rtl::RtlProgram {
        globals: globals.clone(),
        externals: externals.clone(),
        functions: assemble(
            program,
            reuse,
            &misses,
            &front,
            |a| a.rtl.clone(),
            |(_, r)| r.clone(),
        ),
    };
    let candidates = options.inline.then(|| inline::candidates(&rtl_program));

    // Phase B: the RTL optimization chain, per-function, fanned out.
    let opted: Vec<rtl::RtlFunction> = par_map(&front, workers, |(_, r)| {
        let _s = obs::span_dyn(|| format!("compiler/opt/fn/{}", r.name));
        let mut f = r.clone();
        if let Some(candidates) = &candidates {
            inline::inline_function(&mut f, candidates);
        }
        if options.constprop {
            opt::constprop_function(&mut f);
        }
        if options.dce {
            opt::dce_function(&mut f);
        }
        opt::tunnel_function(&mut f);
        Ok(f)
    })?;

    // `machgen` resolves global/function/external names to table indices
    // through an environment over the whole optimized RTL program.
    let rtl_opt_program = rtl::RtlProgram {
        globals: globals.clone(),
        externals: externals.clone(),
        functions: assemble(
            program,
            reuse,
            &misses,
            &opted,
            |a| a.rtl_opt.clone(),
            Clone::clone,
        ),
    };
    let env = machgen::Env::new(&rtl_opt_program, options.target);

    // Phase C: back half of the vertical (RTL → Mach → ASMsz).
    let back: Vec<(mach::MachFunction, asm::AsmFunction)> = par_map(&opted, workers, |f| {
        let m = machgen::translate_function(f, &env)?;
        let a = asmgen::translate_function(&m, options.target)?;
        Ok((m, a))
    })?;

    // Assemble every program of the retained pipeline in definition order.
    let cminor_program = cminor::CmProgram {
        globals: globals.clone(),
        externals: externals.clone(),
        functions: assemble(
            program,
            reuse,
            &misses,
            &front,
            |a| a.cminor.clone(),
            |(c, _)| c.clone(),
        ),
    };
    let mach_program = mach::MachProgram {
        target: options.target,
        globals: globals.clone(),
        externals: externals.clone(),
        functions: assemble(
            program,
            reuse,
            &misses,
            &back,
            |a| a.mach.clone(),
            |(m, _)| m.clone(),
        ),
    };
    let asm_program = asm::AsmProgram {
        target: options.target,
        globals,
        externals: externals
            .iter()
            .map(|(n, a, _)| asm::AsmExternal {
                name: n.clone(),
                arity: *a,
            })
            .collect(),
        functions: assemble(
            program,
            reuse,
            &misses,
            &back,
            |a| a.asm.clone(),
            |(_, a)| a.clone(),
        ),
    };

    let fresh: FreshArtifacts = misses
        .iter()
        .enumerate()
        .map(|(i, f)| {
            (
                f.name.clone(),
                Arc::new(FnArtifacts {
                    cminor: front[i].0.clone(),
                    rtl: front[i].1.clone(),
                    rtl_opt: opted[i].clone(),
                    mach: back[i].0.clone(),
                    asm: back[i].1.clone(),
                }),
            )
        })
        .collect();

    let metric = mach_program.metric();
    Ok((
        Compiled {
            cminor: cminor_program,
            rtl: rtl_program,
            rtl_opt: rtl_opt_program,
            mach: mach_program,
            asm: asm_program,
            metric,
        },
        fresh,
    ))
}

/// Zips cached and freshly compiled functions back into program
/// definition order: for each Clight function, pull the artifact from
/// `reuse` or the next element of `fresh` (which holds the misses in
/// definition order).
fn assemble<T, F>(
    program: &clight::Program,
    reuse: &HashMap<String, Arc<FnArtifacts>>,
    misses: &[&clight::Function],
    fresh: &[F],
    cached: impl Fn(&FnArtifacts) -> T,
    new: impl Fn(&F) -> T,
) -> Vec<T> {
    debug_assert_eq!(misses.len(), fresh.len());
    let mut next = 0;
    program
        .functions
        .iter()
        .map(|f| match reuse.get(&f.name) {
            Some(a) => cached(a),
            None => {
                let t = new(&fresh[next]);
                next += 1;
                t
            }
        })
        .collect()
}
