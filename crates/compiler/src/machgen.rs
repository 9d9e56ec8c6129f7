//! RTL → Mach: linearization, liveness analysis, linear-scan register
//! allocation with spilling, and frame layout (CompCert's `Allocation`,
//! `Linearize` and `Stacking` passes consolidated).
//!
//! The calling convention makes every register caller-save, so any value
//! live across a call is assigned a spill slot outright. Remaining virtual
//! registers are allocated to `{ebx, ecx, edx, esi}` by linear scan;
//! `edi`/`ebp` are reserved as scratch registers for slot traffic and
//! `eax` carries call results and return values.
//!
//! Frame layout (offsets from the frame base, which is `ESP` after the
//! prologue): outgoing-argument slots, then spill slots, then the
//! stack-data area with the function's merged addressable locals. Slots
//! are one target word wide. On the link-register [`asm::Target::Rv`] a
//! non-leaf frame additionally reserves a word-aligned return-address
//! save slot at the top, and the total is rounded up to the word size.
//! The total is the `SF(f)` of the cost metric.

use crate::mach::{FrameLayout, MInstr, MachFunction};
use crate::rtl::{Node, RtlFunction, RtlInstr, RtlOp, RtlProgram, VReg};
use crate::CompileError;
use asm::{Reg, Target};
use std::collections::{HashMap, HashSet};

/// Program-level context shared (immutably, so also across worker threads)
/// by every per-function translation.
pub(crate) struct Env<'a> {
    program: &'a RtlProgram,
    pub(crate) target: Target,
    global_index: HashMap<&'a str, u32>,
    fn_index: HashMap<&'a str, u32>,
    ext_index: HashMap<&'a str, u32>,
}

impl<'a> Env<'a> {
    pub(crate) fn new(program: &'a RtlProgram, target: Target) -> Env<'a> {
        Env {
            program,
            target,
            global_index: program
                .globals
                .iter()
                .enumerate()
                .map(|(i, (n, _, _))| (n.as_str(), i as u32))
                .collect(),
            fn_index: program
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.as_str(), i as u32))
                .collect(),
            ext_index: program
                .externals
                .iter()
                .enumerate()
                .map(|(i, (n, _, _))| (n.as_str(), i as u32))
                .collect(),
        }
    }

    fn arity(&self, name: &str) -> Option<usize> {
        self.fn_index
            .get(name)
            .map(|i| self.program.functions[*i as usize].params.len())
            .or_else(|| {
                self.ext_index
                    .get(name)
                    .map(|i| self.program.externals[*i as usize].1)
            })
    }
}

/// Location assigned to a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// A machine register.
    R(Reg),
    /// A spill slot (frame offset in bytes).
    S(u32),
    /// Dead: the register is never used.
    None,
}

const ALLOCATABLE: [Reg; 4] = [Reg::Ebx, Reg::Ecx, Reg::Edx, Reg::Esi];
const SCRATCH_A: Reg = Reg::Edi;
const SCRATCH_B: Reg = Reg::Ebp;

pub(crate) fn translate_function(
    f: &RtlFunction,
    env: &Env<'_>,
) -> Result<MachFunction, CompileError> {
    let _s = obs::span_dyn(|| {
        format!(
            "compiler/machgen{{target={}}}/fn/{}",
            env.target.name(),
            f.name
        )
    });
    let ice = |msg: String| CompileError::Internal(format!("machgen `{}`: {msg}", f.name));
    let word = env.target.word_size();

    // ---- reachability and linearization -----------------------------------
    let order = linearize(f);
    let pos: HashMap<Node, usize> = order.iter().enumerate().map(|(i, n)| (*n, i)).collect();

    // ---- liveness ----------------------------------------------------------
    let (live_in, live_out) = liveness(f, &order);

    // ---- live intervals ----------------------------------------------------
    #[derive(Clone, Copy)]
    struct Interval {
        start: usize,
        end: usize,
    }
    let mut intervals: HashMap<VReg, Interval> = HashMap::new();
    let touch = |v: VReg, p: usize, intervals: &mut HashMap<VReg, Interval>| {
        let iv = intervals.entry(v).or_insert(Interval { start: p, end: p });
        iv.start = iv.start.min(p);
        iv.end = iv.end.max(p);
    };
    let mut call_positions: Vec<usize> = Vec::new();
    for (p, n) in order.iter().enumerate() {
        let instr = &f.code[*n as usize];
        for v in instr.uses() {
            touch(v, p, &mut intervals);
        }
        if let Some(d) = instr.def() {
            touch(d, p, &mut intervals);
        }
        for v in &live_in[p] {
            touch(*v, p, &mut intervals);
        }
        for v in &live_out[p] {
            touch(*v, p + 1, &mut intervals);
        }
        if matches!(instr, RtlInstr::Call(..)) {
            call_positions.push(p);
        }
    }
    // Parameters are defined at entry.
    for v in &f.params {
        if let Some(iv) = intervals.get_mut(v) {
            iv.start = 0;
        }
    }

    // ---- allocation ---------------------------------------------------------
    let mut loc: HashMap<VReg, Loc> = HashMap::new();
    let mut next_slot = 0u32;
    let slot = |loc: &mut HashMap<VReg, Loc>, next_slot: &mut u32, v: VReg| {
        let s = Loc::S(*next_slot);
        *next_slot += word;
        loc.insert(v, s);
    };

    // Values live across a call are caller-save casualties: spill them.
    // Iterate in register order, not HashMap order: slot assignment must be
    // deterministic so repeated compilations emit byte-identical code.
    let crosses_call = |iv: &Interval| call_positions.iter().any(|p| iv.start <= *p && iv.end > *p);
    let mut by_reg: Vec<(VReg, Interval)> = intervals.iter().map(|(v, iv)| (*v, *iv)).collect();
    by_reg.sort_by_key(|(v, _)| *v);
    let mut to_scan: Vec<(VReg, Interval)> = Vec::new();
    for (v, iv) in by_reg {
        if crosses_call(&iv) {
            slot(&mut loc, &mut next_slot, v);
        } else {
            to_scan.push((v, iv));
        }
    }
    // Linear scan over the rest.
    to_scan.sort_by_key(|(v, iv)| (iv.start, *v));
    let mut active: Vec<(usize, Reg, VReg)> = Vec::new(); // (end, reg, vreg)
    let mut free: Vec<Reg> = ALLOCATABLE.to_vec();
    for (v, iv) in to_scan {
        active.retain(|(end, r, _)| {
            if *end < iv.start {
                free.push(*r);
                false
            } else {
                true
            }
        });
        if let Some(r) = free.pop() {
            active.push((iv.end, r, v));
            loc.insert(v, Loc::R(r));
        } else {
            // Spill the interval that ends last (this one or an active one).
            let (furthest_idx, &(fend, freg, fvreg)) = active
                .iter()
                .enumerate()
                .max_by_key(|(_, (end, _, _))| *end)
                .expect("active is nonempty when no register is free");
            if fend > iv.end {
                slot(&mut loc, &mut next_slot, fvreg);
                active.remove(furthest_idx);
                active.push((iv.end, freg, v));
                loc.insert(v, Loc::R(freg));
            } else {
                slot(&mut loc, &mut next_slot, v);
            }
        }
    }
    // Registers with no interval are dead.
    let lookup = |v: VReg, loc: &HashMap<VReg, Loc>| loc.get(&v).copied().unwrap_or(Loc::None);

    // ---- frame layout -------------------------------------------------------
    let mut outgoing = 0u32;
    let mut has_internal_call = false;
    for n in &order {
        if let RtlInstr::Call(g, _, _, _) = &f.code[*n as usize] {
            let a = env
                .arity(g)
                .ok_or_else(|| ice(format!("unknown callee `{g}`")))? as u32;
            outgoing = outgoing.max(word * a);
            // Only internal calls clobber the link register; external
            // stubs are magic and leave `ra` alone.
            has_internal_call |= env.fn_index.contains_key(g.as_str());
        }
    }
    let spill_base = outgoing;
    let stackdata_base = spill_base + next_slot;
    let data_end = stackdata_base + f.stacksize;
    // On the link-register target, a non-leaf frame saves `ra` in a
    // word-aligned slot above the stack data, and every frame is rounded
    // up to the word size so calls keep `ESP` word-aligned.
    let (frame_size, ra_slot) = if env.target.uses_link_register() {
        let aligned = data_end.next_multiple_of(word);
        if has_internal_call {
            (aligned + word, Some(aligned))
        } else {
            (aligned, None)
        }
    } else {
        (data_end, None)
    };
    let layout = FrameLayout {
        outgoing,
        spills: next_slot,
        stack_data: f.stacksize,
        padding: frame_size - data_end - if ra_slot.is_some() { word } else { 0 },
    };
    // Relocate spill slots above the outgoing area.
    let real = |l: Loc| match l {
        Loc::S(o) => Loc::S(o + spill_base),
        other => other,
    };

    // ---- emission -----------------------------------------------------------
    // Labels are needed at jump targets.
    let mut needs_label: HashSet<Node> = HashSet::new();
    for (p, n) in order.iter().enumerate() {
        let instr = &f.code[*n as usize];
        match instr {
            RtlInstr::Cond(_, _, _, t, e) => {
                needs_label.insert(*t);
                if pos.get(e) != Some(&(p + 1)) {
                    needs_label.insert(*e);
                }
            }
            _ => {
                for s in instr.successors() {
                    if pos.get(&s) != Some(&(p + 1)) {
                        needs_label.insert(s);
                    }
                }
            }
        }
    }

    let mut code: Vec<MInstr> = Vec::new();
    // Parameter moves.
    for (i, pv) in f.params.iter().enumerate() {
        match real(lookup(*pv, &loc)) {
            Loc::None => {}
            Loc::R(r) => code.push(MInstr::GetParam(i as u32, r)),
            Loc::S(o) => {
                code.push(MInstr::GetParam(i as u32, SCRATCH_A));
                code.push(MInstr::StoreStack(o, SCRATCH_A));
            }
        }
    }

    /// Emits code to materialize `v` in a register (using `scratch` when it
    /// lives in a slot), returning the register holding it.
    fn fetch(code: &mut Vec<MInstr>, l: Loc, scratch: Reg) -> Reg {
        match l {
            Loc::R(r) => r,
            Loc::S(o) => {
                code.push(MInstr::LoadStack(o, scratch));
                scratch
            }
            Loc::None => {
                // An uninitialized use: materialize an arbitrary value (the
                // interpreter would have read Undef; real hardware reads
                // garbage — both are wrong programs).
                code.push(MInstr::Const(0, scratch));
                scratch
            }
        }
    }

    /// Emits code to write register `from` to location `l`.
    fn write(code: &mut Vec<MInstr>, l: Loc, from: Reg) {
        match l {
            Loc::R(r) => {
                if r != from {
                    code.push(MInstr::Move(r, from));
                }
            }
            Loc::S(o) => code.push(MInstr::StoreStack(o, from)),
            Loc::None => {}
        }
    }

    for (p, n) in order.iter().enumerate() {
        if needs_label.contains(n) {
            code.push(MInstr::Label(*n));
        }
        let instr = &f.code[*n as usize];
        let fallthrough_to = |target: Node| pos.get(&target) == Some(&(p + 1));
        match instr {
            RtlInstr::Nop(next) => {
                if !fallthrough_to(*next) {
                    code.push(MInstr::Jmp(*next));
                }
            }
            RtlInstr::Op(op, args, dst, next) => {
                let d = real(lookup(*dst, &loc));
                match op {
                    RtlOp::Const(k) => match d {
                        Loc::R(r) => code.push(MInstr::Const(*k, r)),
                        Loc::S(o) => {
                            code.push(MInstr::Const(*k, SCRATCH_A));
                            code.push(MInstr::StoreStack(o, SCRATCH_A));
                        }
                        Loc::None => {}
                    },
                    RtlOp::Move => {
                        let rs = fetch(&mut code, real(lookup(args[0], &loc)), SCRATCH_A);
                        write(&mut code, d, rs);
                    }
                    RtlOp::Unop(u) => {
                        let rs = fetch(&mut code, real(lookup(args[0], &loc)), SCRATCH_A);
                        if rs != SCRATCH_A {
                            code.push(MInstr::Move(SCRATCH_A, rs));
                        }
                        code.push(MInstr::Unop(*u, SCRATCH_A));
                        write(&mut code, d, SCRATCH_A);
                    }
                    RtlOp::Binop(b) => {
                        let ra = fetch(&mut code, real(lookup(args[0], &loc)), SCRATCH_A);
                        let rb = fetch(&mut code, real(lookup(args[1], &loc)), SCRATCH_B);
                        if ra != SCRATCH_A {
                            code.push(MInstr::Move(SCRATCH_A, ra));
                        }
                        code.push(MInstr::Binop(*b, SCRATCH_A, rb));
                        write(&mut code, d, SCRATCH_A);
                    }
                    RtlOp::StackAddr(off) => {
                        code.push(MInstr::StackAddr(stackdata_base + off, SCRATCH_A));
                        write(&mut code, d, SCRATCH_A);
                    }
                    RtlOp::GlobalAddr(g, off) => {
                        let gi = *env
                            .global_index
                            .get(g.as_str())
                            .ok_or_else(|| ice(format!("unknown global `{g}`")))?;
                        code.push(MInstr::GlobalAddr(gi, *off, SCRATCH_A));
                        write(&mut code, d, SCRATCH_A);
                    }
                }
                if !fallthrough_to(*next) {
                    code.push(MInstr::Jmp(*next));
                }
            }
            RtlInstr::Load(a, dst, next) => {
                let ra = fetch(&mut code, real(lookup(*a, &loc)), SCRATCH_A);
                let d = real(lookup(*dst, &loc));
                match d {
                    Loc::R(r) => code.push(MInstr::Load(ra, r)),
                    _ => {
                        code.push(MInstr::Load(ra, SCRATCH_A));
                        write(&mut code, d, SCRATCH_A);
                    }
                }
                if !fallthrough_to(*next) {
                    code.push(MInstr::Jmp(*next));
                }
            }
            RtlInstr::Store(a, s, next) => {
                let ra = fetch(&mut code, real(lookup(*a, &loc)), SCRATCH_A);
                let rs = fetch(&mut code, real(lookup(*s, &loc)), SCRATCH_B);
                code.push(MInstr::Store(ra, rs));
                if !fallthrough_to(*next) {
                    code.push(MInstr::Jmp(*next));
                }
            }
            RtlInstr::Call(g, args, dst, next) => {
                for (i, a) in args.iter().enumerate() {
                    let r = fetch(&mut code, real(lookup(*a, &loc)), SCRATCH_A);
                    code.push(MInstr::StoreStack(word * i as u32, r));
                }
                if let Some(fi) = env.fn_index.get(g.as_str()) {
                    code.push(MInstr::Call(*fi));
                } else if let Some(ei) = env.ext_index.get(g.as_str()) {
                    code.push(MInstr::CallExt(*ei));
                } else {
                    return Err(ice(format!("unknown callee `{g}`")));
                }
                if let Some(d) = dst {
                    write(&mut code, real(lookup(*d, &loc)), Reg::Eax);
                }
                if !fallthrough_to(*next) {
                    code.push(MInstr::Jmp(*next));
                }
            }
            RtlInstr::Cond(op, a, b, t, e) => {
                let ra = fetch(&mut code, real(lookup(*a, &loc)), SCRATCH_A);
                let rb = fetch(&mut code, real(lookup(*b, &loc)), SCRATCH_B);
                code.push(MInstr::Cond(*op, ra, rb, *t));
                if !fallthrough_to(*e) {
                    code.push(MInstr::Jmp(*e));
                }
            }
            RtlInstr::Return(v) => {
                if let Some(v) = v {
                    let r = fetch(&mut code, real(lookup(*v, &loc)), SCRATCH_A);
                    if r != Reg::Eax {
                        code.push(MInstr::Move(Reg::Eax, r));
                    }
                }
                code.push(MInstr::Return);
            }
        }
    }

    Ok(MachFunction {
        name: f.name.clone(),
        frame_size,
        layout,
        nparams: f.params.len(),
        ra_slot,
        code,
    })
}

/// Depth-first linearization preferring fall-through successors; for
/// conditions the *else* branch is preferred (the branch instruction jumps
/// to *then*).
fn linearize(f: &RtlFunction) -> Vec<Node> {
    let mut order = Vec::new();
    let mut visited = vec![false; f.code.len()];
    let mut stack = vec![f.entry];
    while let Some(n) = stack.pop() {
        if visited[n as usize] {
            continue;
        }
        visited[n as usize] = true;
        order.push(n);
        match &f.code[n as usize] {
            RtlInstr::Cond(_, _, _, t, e) => {
                // Push `then` first so `else` is visited next (fallthrough).
                stack.push(*t);
                stack.push(*e);
            }
            other => {
                for s in other.successors().into_iter().rev() {
                    stack.push(s);
                }
            }
        }
    }
    order
}

/// Worklist liveness analysis over the linearized nodes. Returns per
/// *position* live-in/live-out sets.
fn liveness(f: &RtlFunction, order: &[Node]) -> (Vec<HashSet<VReg>>, Vec<HashSet<VReg>>) {
    let pos: HashMap<Node, usize> = order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = order.len();
    let mut live_in: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for p in (0..n).rev() {
            let node = order[p];
            let instr = &f.code[node as usize];
            let mut out = HashSet::new();
            for s in instr.successors() {
                if let Some(sp) = pos.get(&s) {
                    out.extend(live_in[*sp].iter().copied());
                }
            }
            let mut inn: HashSet<VReg> = out.clone();
            if let Some(d) = instr.def() {
                inn.remove(&d);
            }
            inn.extend(instr.uses());
            if out != live_out[p] || inn != live_in[p] {
                live_out[p] = out;
                live_in[p] = inn;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}
