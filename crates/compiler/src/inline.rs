//! Experimental RTL inlining — one of the two optimizations Quantitative
//! CompCert deliberately *disables* (§3.3).
//!
//! Inlining a call **deletes** its `call`/`ret` events, which quantitative
//! refinement permits (weights only decrease), so the pass is still
//! correct: every behavior of the inlined program refines the source and
//! the verified bounds remain *sound*. What breaks is *tightness*: a
//! bound derived at the source level still pays `M(g)` for a call that no
//! longer exists in the machine code (the callee's body now runs inside
//! the caller's enlarged frame), so the paper's "over-approximate by
//! exactly 4 bytes" identity degrades to an inequality. The
//! `ablation_inline` bench demonstrates exactly this — which is why the
//! paper keeps the pass off by default, and so do we
//! ([`crate::Options::default`]).
//!
//! The pass inlines calls to *leaf* functions (no calls of their own)
//! whose body is small; the callee's stack data is appended to the
//! caller's.

use crate::rtl::{Node, RtlFunction, RtlInstr, RtlOp, RtlProgram, VReg};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum callee size (in RTL instructions) eligible for inlining.
const MAX_INLINE_SIZE: usize = 48;

/// Snapshots the candidate bodies first (the per-function transform would
/// otherwise mutate functions it still needs to read).
pub(crate) fn candidates(program: &RtlProgram) -> HashMap<String, RtlFunction> {
    program
        .functions
        .iter()
        .filter(|f| is_leaf(f) && f.code.len() <= MAX_INLINE_SIZE)
        .map(|f| (f.name.clone(), f.clone()))
        .collect()
}

/// True when the function performs no internal or external calls.
fn is_leaf(f: &RtlFunction) -> bool {
    !f.code.iter().any(|i| matches!(i, RtlInstr::Call(..)))
}

pub(crate) fn inline_function(f: &mut RtlFunction, candidates: &HashMap<String, RtlFunction>) {
    // Collect call sites to candidates (skip self-inlining).
    let sites: Vec<Node> = f
        .code
        .iter()
        .enumerate()
        .filter_map(|(n, i)| match i {
            RtlInstr::Call(g, _, _, _) if *g != f.name && candidates.contains_key(g) => {
                Some(n as Node)
            }
            _ => None,
        })
        .collect();
    for site in sites {
        let RtlInstr::Call(g, args, dest, next) = f.code[site as usize].clone() else {
            continue;
        };
        let callee = &candidates[&g];
        let reg_base = f.nregs;
        let node_base = f.code.len() as Node;
        let stack_base = f.stacksize;

        // Splice the callee body, remapping registers, nodes, and stack
        // offsets.
        let code = Arc::make_mut(&mut f.code);
        for instr in callee.code.iter() {
            code.push(remap(instr, reg_base, node_base, stack_base, dest, next));
        }
        f.nregs += callee.nregs;
        f.stacksize += callee.stacksize;

        // Replace the call with parameter moves followed by a jump to the
        // callee's entry. The moves chain through freshly appended nodes.
        let entry = node_base + callee.entry;
        let mut target = entry;
        for (param, arg) in callee.params.iter().zip(&args).rev() {
            let move_node = code.len() as Node;
            code.push(RtlInstr::Op(
                RtlOp::Move,
                vec![*arg],
                param + reg_base,
                target,
            ));
            target = move_node;
        }
        code[site as usize] = RtlInstr::Nop(target);
    }
}

/// Remaps one callee instruction into the caller's namespace. `Return`
/// becomes a move of the result into the call destination followed by a
/// jump to the call's continuation.
fn remap(
    instr: &RtlInstr,
    reg_base: VReg,
    node_base: Node,
    stack_base: u32,
    dest: Option<VReg>,
    next: Node,
) -> RtlInstr {
    let r = |v: &VReg| v + reg_base;
    let n = |m: &Node| m + node_base;
    match instr {
        RtlInstr::Op(op, args, d, m) => {
            let op = match op {
                RtlOp::StackAddr(off) => RtlOp::StackAddr(off + stack_base),
                other => other.clone(),
            };
            RtlInstr::Op(op, args.iter().map(r).collect(), r(d), n(m))
        }
        RtlInstr::Load(a, d, m) => RtlInstr::Load(r(a), r(d), n(m)),
        RtlInstr::Store(a, s, m) => RtlInstr::Store(r(a), r(s), n(m)),
        RtlInstr::Call(g, args, d, m) => {
            // Leaves have no calls; kept for robustness.
            RtlInstr::Call(
                g.clone(),
                args.iter().map(r).collect(),
                d.map(|d| d + reg_base),
                n(m),
            )
        }
        RtlInstr::Cond(op, a, b, t, e) => RtlInstr::Cond(*op, r(a), r(b), n(t), n(e)),
        RtlInstr::Nop(m) => RtlInstr::Nop(n(m)),
        RtlInstr::Return(v) => match (v, dest) {
            (Some(v), Some(d)) => RtlInstr::Op(RtlOp::Move, vec![r(v)], d, next),
            _ => RtlInstr::Nop(next),
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile_with, mach, Options};
    use trace::refinement::check_quantitative;
    use trace::{Event, Metric};

    const FUEL: u64 = 10_000_000;

    fn inlined_options() -> Options {
        Options {
            inline: true,
            ..Options::default()
        }
    }

    #[test]
    fn inlining_removes_call_events_and_preserves_results() {
        let src = "
            u32 sq(u32 x) { return x * x; }
            int main() { u32 a; u32 b; a = sq(3); b = sq(4); return a + b; }
        ";
        let p = clight::frontend(src, &[]).unwrap();
        let base = compile_with(&p, Options::default()).unwrap();
        let inl = compile_with(&p, inlined_options()).unwrap();
        let b0 = mach::run_main(&base.mach, FUEL);
        let b1 = mach::run_main(&inl.mach, FUEL);
        assert_eq!(b0.return_code(), Some(25));
        assert_eq!(b1.return_code(), Some(25));
        // The sq calls disappeared from the trace...
        assert_eq!(b0.trace().weight(&Metric::indicator("sq")), 1);
        assert_eq!(b1.trace().weight(&Metric::indicator("sq")), 0);
        // ...which is a legal quantitative refinement.
        check_quantitative(&b0, &b1, &[]).unwrap();
    }

    #[test]
    fn inlining_merges_stack_data() {
        let src = "
            u32 fill(u32 x) { u32 b[4]; b[0] = x; b[1] = x + 1; return b[0] + b[1]; }
            int main() { u32 r; r = fill(10); return r; }
        ";
        let p = clight::frontend(src, &[]).unwrap();
        let inl = compile_with(&p, inlined_options()).unwrap();
        assert_eq!(mach::run_main(&inl.mach, FUEL).return_code(), Some(21));
        // The callee's 16-byte array now lives in main's frame.
        assert!(inl.frame_size("main").unwrap() >= 16);
    }

    #[test]
    fn inlining_breaks_the_exact_4_byte_identity_but_not_soundness() {
        let src = "
            u32 leaf(u32 x) { return x + 1; }
            int main() { u32 r; r = leaf(41); return r; }
        ";
        let p = clight::frontend(src, &[]).unwrap();
        let analysis = analyzer::analyze(&p).unwrap();

        let base = compile_with(&p, Options::default()).unwrap();
        let bound0 = analysis.concrete_bound("main", &base.metric).unwrap() as u32;
        let m0 = asm::measure_main(&base.asm, bound0, FUEL).unwrap();
        assert_eq!(bound0, m0.stack_usage + 4); // exact without inlining

        let inl = compile_with(&p, inlined_options()).unwrap();
        let bound1 = analysis.concrete_bound("main", &inl.metric).unwrap() as u32;
        let m1 = asm::measure_main(&inl.asm, bound1, FUEL).unwrap();
        assert_eq!(m1.result(), Some(42));
        // Sound but no longer tight: the source-level bound still pays
        // M(leaf) for a call the machine never makes.
        assert!(
            bound1 > m1.stack_usage + 4,
            "{bound1} vs {}",
            m1.stack_usage
        );
    }

    #[test]
    fn recursive_and_non_leaf_functions_are_not_inlined() {
        let src = "
            u32 rec(u32 n) { u32 r; if (n == 0) return 0; r = rec(n - 1); return r; }
            u32 wrap(u32 n) { u32 r; r = rec(n); return r; }
            int main() { u32 r; r = wrap(3); return r; }
        ";
        let p = clight::frontend(src, &[]).unwrap();
        let inl = compile_with(&p, inlined_options()).unwrap();
        let b = mach::run_main(&inl.mach, FUEL);
        assert_eq!(b.return_code(), Some(0));
        // rec is recursive and wrap is not a leaf: their calls remain.
        let recs = b
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Call(f) if f.as_ref() == "rec"))
            .count();
        assert_eq!(recs, 4);
    }

    #[test]
    fn inlining_respects_refinement_on_benchmarks() {
        for bench in benchsuite::table1_benchmarks() {
            let p = bench.program().unwrap();
            let base = compile_with(&p, Options::default()).unwrap();
            let inl = compile_with(&p, inlined_options()).unwrap();
            let b0 = mach::run_main(&base.mach, 200_000_000);
            let b1 = mach::run_main(&inl.mach, 200_000_000);
            assert_eq!(b0.return_code(), b1.return_code(), "{}", bench.file);
            check_quantitative(&b0, &b1, &[("mach", &base.metric)])
                .unwrap_or_else(|e| panic!("{}: {e}", bench.file));
        }
    }
}
