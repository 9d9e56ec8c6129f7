//! Trace-preserving RTL optimizations: constant propagation with folding,
//! and dead-code elimination.
//!
//! Quantitative CompCert supports CompCert 1.13's optimization passes
//! (except tail-call recognition and inlining, §3.3) because they preserve
//! call/return events exactly. These two passes play that role here: they
//! never add, remove, or reorder `call`/`ret` events, so quantitative
//! refinement holds with *equal* weights — which the compiler's
//! differential tests check on every build.

use crate::rtl::{RtlFunction, RtlInstr, RtlOp, VReg};
use mem::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of definitions of each vreg in a function.
fn def_counts(f: &RtlFunction) -> HashMap<VReg, u32> {
    let mut counts = HashMap::new();
    for i in f.code.iter() {
        if let Some(d) = i.def() {
            *counts.entry(d).or_insert(0) += 1;
        }
    }
    counts
}

/// Constant propagation: registers with a *single* definition that is a
/// constant are known everywhere they are used (RTL generation guarantees
/// single-definition registers are defined before use on every path).
/// Operations whose operands are all known are folded; conditions with
/// known operands become unconditional `Nop` jumps.
///
/// Folding is careful never to fold an operation that would *fail* at run
/// time (e.g. division by zero): removing a failure would not refine the
/// source program.
pub(crate) fn constprop_function(f: &mut RtlFunction) {
    // Iterate to propagate chains (const -> move -> use).
    for _ in 0..4 {
        let defs = def_counts(f);
        let mut known: HashMap<VReg, u32> = HashMap::new();
        for i in f.code.iter() {
            if let RtlInstr::Op(RtlOp::Const(k), _, d, _) = i {
                if defs.get(d) == Some(&1) {
                    known.insert(*d, *k);
                }
            }
        }
        if known.is_empty() {
            return;
        }
        let mut changed = false;
        for i in Arc::make_mut(&mut f.code).iter_mut() {
            match i {
                RtlInstr::Op(RtlOp::Move, args, d, n) => {
                    if let Some(k) = known.get(&args[0]) {
                        *i = RtlInstr::Op(RtlOp::Const(*k), vec![], *d, *n);
                        changed = true;
                    }
                }
                RtlInstr::Op(RtlOp::Unop(op), args, d, n) => {
                    if let Some(k) = known.get(&args[0]) {
                        if let Ok(Value::Int(v)) = mem::eval_unop(*op, Value::Int(*k)) {
                            *i = RtlInstr::Op(RtlOp::Const(v), vec![], *d, *n);
                            changed = true;
                        }
                    }
                }
                RtlInstr::Op(RtlOp::Binop(op), args, d, n) => {
                    if let (Some(a), Some(b)) = (known.get(&args[0]), known.get(&args[1])) {
                        if let Ok(Value::Int(v)) =
                            mem::eval_binop(*op, Value::Int(*a), Value::Int(*b))
                        {
                            *i = RtlInstr::Op(RtlOp::Const(v), vec![], *d, *n);
                            changed = true;
                        }
                    }
                }
                RtlInstr::Cond(op, a, b, t, e) => {
                    if let (Some(ka), Some(kb)) = (known.get(a), known.get(b)) {
                        if let Ok(Value::Int(v)) =
                            mem::eval_binop(*op, Value::Int(*ka), Value::Int(*kb))
                        {
                            let target = if v != 0 { *t } else { *e };
                            *i = RtlInstr::Nop(target);
                            changed = true;
                        }
                    }
                }
                _ => {}
            }
        }
        if !changed {
            return;
        }
    }
}

/// Dead-code elimination: pure operations (and loads) whose result is
/// never used become `Nop`s. Stores and calls are always kept — calls have
/// observable `call`/`ret` events, so removing one would change the trace.
///
/// Removing a dead *load* may remove a potential failure (an
/// out-of-bounds read whose result is unused); that is still a correct
/// refinement because a failing source is refined by anything.
pub(crate) fn dce_function(f: &mut RtlFunction) {
    loop {
        let mut used: HashMap<VReg, u32> = HashMap::new();
        for i in f.code.iter() {
            for u in i.uses() {
                *used.entry(u).or_insert(0) += 1;
            }
        }
        let mut changed = false;
        for i in Arc::make_mut(&mut f.code).iter_mut() {
            let dead = match i {
                RtlInstr::Op(_, _, d, n) | RtlInstr::Load(_, d, n) => {
                    if used.get(d).copied().unwrap_or(0) == 0 {
                        Some(*n)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(n) = dead {
                *i = RtlInstr::Nop(n);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Shortens `Nop` chains so later passes see compact successor edges, and
/// leaves unreachable instructions in place (they are simply never
/// executed or emitted).
pub(crate) fn tunnel_function(f: &mut RtlFunction) {
    let resolve = |mut n: u32, code: &[RtlInstr]| {
        let mut hops = 0;
        while let RtlInstr::Nop(next) = &code[n as usize] {
            n = *next;
            hops += 1;
            if hops > code.len() {
                break; // Nop cycle: an empty infinite loop; keep it.
            }
        }
        n
    };
    let code_snapshot = f.code.clone();
    f.entry = resolve(f.entry, &code_snapshot);
    for i in Arc::make_mut(&mut f.code).iter_mut() {
        match i {
            RtlInstr::Op(_, _, _, n)
            | RtlInstr::Load(_, _, n)
            | RtlInstr::Store(_, _, n)
            | RtlInstr::Call(_, _, _, n)
            | RtlInstr::Nop(n) => *n = resolve(*n, &code_snapshot),
            RtlInstr::Cond(_, _, _, t, e) => {
                *t = resolve(*t, &code_snapshot);
                *e = resolve(*e, &code_snapshot);
            }
            RtlInstr::Return(_) => {}
        }
    }
}
