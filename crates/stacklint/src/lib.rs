//! # stacklint
//!
//! A binary-level worst-case stack analyzer for `ASMsz` programs, in the
//! style of the industrial abstract-interpretation tools (AbsInt's
//! StackAnalyzer) the paper's related work contrasts itself against.
//!
//! Where the verified pipeline derives bounds *from the source-level
//! quantitative logic* and validates them dynamically, `stacklint` works
//! on the compiled binary alone, with no knowledge of how it was
//! produced:
//!
//! 1. **CFG recovery** over every function ([`asm::cfg`]), for both
//!    [`asm::Target`] flavors;
//! 2. a **per-block abstract interpreter** over the ESP-offset lattice
//!    (constant offset ⊔ ⊤) that verifies *stack discipline*: every path
//!    through a block has a balanced, statically-known ESP delta, non-leaf
//!    `rv` frames save/restore `ra` before a call clobbers it, no
//!    load/store ever touches memory below the current ESP, and the
//!    declared frame size matches both what the code actually allocates
//!    and the target's layout rules;
//! 3. an **interprocedural worst-case bound** over the call-graph
//!    condensation ([`asm::cfg::sccs`], shared with `vcache`):
//!    an exact longest-path bound for non-recursive programs, and an
//!    explicit [`Verdict::RecursionDetected`] carrying a real call cycle
//!    for recursive ones.
//!
//! The result is a third, independent oracle for every corpus program:
//! for non-recursive code the measured peak, the binary-level bound, and
//! the certified source-level bound must sandwich as
//! `measured ≤ stacklint ≤ certified` — and the per-function slack
//! (certified − binary) quantifies exactly how loose the logic's
//! over-approximation is (the unused call allowance of the deepest
//! activation on `sz32`, zero on `rv`).

#![warn(missing_docs)]

use asm::cfg::{sccs, Cfg};
use asm::{AsmFunction, AsmProgram, Instr, Operand, Reg, Target};
use std::collections::BTreeMap;
use std::fmt;

/// How the ESP-offset abstract value left the "statically known constant"
/// half of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EspFault {
    /// ESP was written from a non-constant source (a register move, a
    /// load, unit/non-additive arithmetic): the offset is ⊤ from here on.
    Unknown,
    /// Two paths reach the same block with different ESP deltas.
    Join {
        /// The delta already recorded for the block.
        a: i64,
        /// The conflicting delta arriving on the new edge.
        b: i64,
    },
    /// ESP moved above its function-entry value (negative delta).
    Negative(i64),
    /// `ret` executes with the frame not fully deallocated (or
    /// over-deallocated): a nonzero delta at return.
    AtReturn(i64),
}

/// One stack-discipline violation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagKind {
    /// The ESP delta is not one statically-known, balanced constant on
    /// every path (see [`EspFault`] for how it broke).
    UnbalancedEsp(EspFault),
    /// A link-register function returns through `ra` after a call
    /// clobbered it without the entry return address having been saved
    /// (or restored).
    RaClobbered {
        /// The instruction that lost the unsaved return address, when the
        /// abstract interpreter saw it happen.
        lost_at: Option<usize>,
    },
    /// A load or store addressed memory below the current ESP — space the
    /// function does not own (reads *above* the frame are the legal
    /// incoming-parameter idiom; writes below are stack smashing waiting
    /// for the next call).
    MemBelowEsp {
        /// The offending `[esp + disp]` displacement.
        disp: i64,
    },
    /// The declared frame size disagrees with the target's layout rules:
    /// the code allocates a different number of bytes than `SF(f)`
    /// declares, or the size violates the target's alignment rule.
    FrameMismatch {
        /// The frame size the function declares.
        declared: u32,
        /// What the layout rules require (the bytes the paths actually
        /// allocate, or the aligned size the target demands).
        required: u32,
    },
}

/// One diagnostic: a discipline violation pinned to an instruction of a
/// function. The abstract interpreter stops a function at its first
/// violation, so each ill-disciplined function yields exactly one
/// diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The function the violation is in.
    pub function: String,
    /// The index of the offending instruction in the function's code.
    pub at: usize,
    /// The violation class.
    pub kind: DiagKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: ", self.function, self.at)?;
        match self.kind {
            DiagKind::UnbalancedEsp(EspFault::Unknown) => {
                write!(f, "esp written from a non-constant source")
            }
            DiagKind::UnbalancedEsp(EspFault::Join { a, b }) => {
                write!(f, "unbalanced esp: paths join with deltas {a} and {b}")
            }
            DiagKind::UnbalancedEsp(EspFault::Negative(d)) => {
                write!(f, "unbalanced esp: delta {d} above the function entry")
            }
            DiagKind::UnbalancedEsp(EspFault::AtReturn(d)) => {
                write!(
                    f,
                    "unbalanced esp: ret with {d} frame bytes still allocated"
                )
            }
            DiagKind::RaClobbered { lost_at: Some(i) } => {
                write!(f, "returns through ra clobbered by the call at [{i}]")
            }
            DiagKind::RaClobbered { lost_at: None } => {
                write!(
                    f,
                    "returns through ra that no longer holds the return address"
                )
            }
            DiagKind::MemBelowEsp { disp } => {
                write!(f, "memory access at [esp{disp:+}], below the stack pointer")
            }
            DiagKind::FrameMismatch { declared, required } if declared == required => {
                write!(
                    f,
                    "frame size {declared} violates the target's alignment rule"
                )
            }
            DiagKind::FrameMismatch { declared, required } => {
                write!(
                    f,
                    "declared frame size {declared} but paths allocate {required} bytes"
                )
            }
        }
    }
}

/// The interprocedural worst-case verdict for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The exact longest-path stack bound in bytes: every execution of
    /// the function (including everything it calls) stays within it.
    Bounded(u32),
    /// The function sits on — or reaches — a call-graph cycle, so no
    /// finite static bound exists. The cycle is a real one: consecutive
    /// entries (and last back to first) are genuine call edges.
    RecursionDetected {
        /// The call cycle, as function names.
        cycle: Vec<String>,
    },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Bounded(b) => write!(f, "{b} bytes"),
            Verdict::RecursionDetected { cycle } => {
                write!(f, "recursive ({} -> {})", cycle.join(" -> "), cycle[0])
            }
        }
    }
}

/// The complete result of analyzing one program: discipline diagnostics
/// plus a per-function worst-case verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// The target the program was analyzed for (taken from the program).
    pub target: Target,
    /// Discipline violations, in program function order (at most one per
    /// function). Empty on everything our compiler emits.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-function verdicts, in name order. A function whose own body
    /// (or a callee's) produced a diagnostic has no verdict: its usage
    /// cannot be trusted.
    pub verdicts: BTreeMap<String, Verdict>,
}

impl LintReport {
    /// Whether the program is discipline-clean (no diagnostics).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The binary-level worst-case bound of a function, when it has one.
    pub fn bound(&self, fname: &str) -> Option<u32> {
        match self.verdicts.get(fname) {
            Some(Verdict::Bounded(b)) => Some(*b),
            _ => None,
        }
    }

    /// The recursion cycle a function reaches, when it reaches one.
    pub fn cycle(&self, fname: &str) -> Option<&[String]> {
        match self.verdicts.get(fname) {
            Some(Verdict::RecursionDetected { cycle }) => Some(cycle),
            _ => None,
        }
    }
}

/// The abstract per-path state: the ESP delta (bytes currently allocated
/// below the function-entry ESP) and, on link-register targets, where the
/// entry return address lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    /// entry_esp − current_esp, always a known constant (⊤ aborts the
    /// function with a diagnostic instead of living in the state).
    delta: i64,
    /// Whether `ra` still holds this function's return address.
    ra_in_reg: bool,
    /// Entry-relative offset of a slot known to hold the entry return
    /// address (negative = inside this function's frame).
    ra_saved: Option<i64>,
    /// First instruction that lost an unsaved entry return address.
    ra_lost_at: Option<usize>,
}

impl State {
    fn entry() -> State {
        State {
            delta: 0,
            ra_in_reg: true,
            ra_saved: None,
            ra_lost_at: None,
        }
    }

    /// Drops knowledge that `ra` holds the entry return address,
    /// remembering the first site where that loses information.
    fn clobber_ra(&mut self, at: usize) {
        if self.ra_in_reg && self.ra_saved.is_none() {
            self.ra_lost_at.get_or_insert(at);
        }
        self.ra_in_reg = false;
    }
}

/// An internal call site of a function, with the ESP delta it executes at.
#[derive(Debug, Clone, Copy)]
struct CallSite {
    callee: usize,
    delta: i64,
}

/// Everything the intraprocedural pass learned about one function.
struct FnFacts {
    /// Maximum ESP delta on any path (the frame bytes the function itself
    /// allocates).
    max_delta: i64,
    /// Internal call sites with their deltas.
    calls: Vec<CallSite>,
    /// The first discipline violation, if any (analysis stops there).
    diag: Option<Diagnostic>,
}

/// Runs the full binary-level analysis on `program`.
pub fn analyze(program: &AsmProgram) -> LintReport {
    let _span = obs::span("stacklint/program");
    let target = program.target;
    let facts: Vec<FnFacts> = program
        .functions
        .iter()
        .map(|f| {
            let _s = obs::span_dyn(|| format!("stacklint/fn/{}", f.name));
            analyze_function(f, target)
        })
        .collect();
    let diagnostics: Vec<Diagnostic> = facts.iter().filter_map(|f| f.diag.clone()).collect();
    obs::counter("stacklint/functions", facts.len() as u64);
    obs::counter("stacklint/diagnostics", diagnostics.len() as u64);

    let verdicts = condense(program, &facts);
    obs::counter(
        "stacklint/recursive_functions",
        verdicts
            .values()
            .filter(|v| matches!(v, Verdict::RecursionDetected { .. }))
            .count() as u64,
    );
    LintReport {
        target,
        diagnostics,
        verdicts,
    }
}

/// The per-function abstract interpretation over the recovered CFG.
fn analyze_function(f: &AsmFunction, target: Target) -> FnFacts {
    let cfg = Cfg::of(f);
    let link = target.uses_link_register();
    let mut facts = FnFacts {
        max_delta: 0,
        calls: Vec::new(),
        diag: None,
    };
    let mut max_at = 0usize;
    let fail = |at: usize, kind: DiagKind| Diagnostic {
        function: f.name.clone(),
        at,
        kind,
    };

    let mut in_states: Vec<Option<State>> = vec![None; cfg.blocks.len()];
    let mut worklist: Vec<usize> = Vec::new();
    if !cfg.blocks.is_empty() {
        in_states[0] = Some(State::entry());
        worklist.push(0);
    }
    'blocks: while let Some(b) = worklist.pop() {
        let block = &cfg.blocks[b];
        let mut st = in_states[b].expect("worklist blocks have an in-state");
        for at in block.range() {
            match &f.code[at] {
                Instr::Label(_) | Instr::Cmp(_, _) | Instr::Jcc(_, _) | Instr::Jmp(_) => {}
                Instr::Mov(Reg::Esp, _) => {
                    facts.diag = Some(fail(at, DiagKind::UnbalancedEsp(EspFault::Unknown)));
                    break 'blocks;
                }
                Instr::Mov(r, _) => {
                    if link && *r == Reg::Ra {
                        st.clobber_ra(at);
                    }
                }
                Instr::LeaGlobal(Reg::Esp, _, _) => {
                    facts.diag = Some(fail(at, DiagKind::UnbalancedEsp(EspFault::Unknown)));
                    break 'blocks;
                }
                Instr::LeaGlobal(r, _, _) => {
                    if link && *r == Reg::Ra {
                        st.clobber_ra(at);
                    }
                }
                Instr::Alu(op, Reg::Esp, Operand::Imm(n)) => {
                    match op {
                        mem::Binop::Sub => st.delta += i64::from(*n),
                        mem::Binop::Add => st.delta -= i64::from(*n),
                        _ => {
                            facts.diag = Some(fail(at, DiagKind::UnbalancedEsp(EspFault::Unknown)));
                            break 'blocks;
                        }
                    }
                    if st.delta < 0 {
                        facts.diag = Some(fail(
                            at,
                            DiagKind::UnbalancedEsp(EspFault::Negative(st.delta)),
                        ));
                        break 'blocks;
                    }
                    if st.delta > facts.max_delta {
                        facts.max_delta = st.delta;
                        max_at = at;
                    }
                }
                Instr::Alu(_, Reg::Esp, Operand::Reg(_)) | Instr::Un(_, Reg::Esp) => {
                    facts.diag = Some(fail(at, DiagKind::UnbalancedEsp(EspFault::Unknown)));
                    break 'blocks;
                }
                Instr::Alu(_, r, _) | Instr::Un(_, r) => {
                    if link && *r == Reg::Ra {
                        st.clobber_ra(at);
                    }
                }
                Instr::Load(dst, base, disp) => {
                    if *base == Reg::Esp && i64::from(*disp) < 0 {
                        facts.diag = Some(fail(
                            at,
                            DiagKind::MemBelowEsp {
                                disp: i64::from(*disp),
                            },
                        ));
                        break 'blocks;
                    }
                    if *dst == Reg::Esp {
                        facts.diag = Some(fail(at, DiagKind::UnbalancedEsp(EspFault::Unknown)));
                        break 'blocks;
                    }
                    if link && *dst == Reg::Ra {
                        // A reload from the slot known to hold the entry
                        // return address restores it; anything else
                        // clobbers the register.
                        let restores =
                            *base == Reg::Esp && st.ra_saved == Some(i64::from(*disp) - st.delta);
                        if restores {
                            st.ra_in_reg = true;
                        } else {
                            st.clobber_ra(at);
                        }
                    }
                }
                Instr::Store(base, disp, src) => {
                    if *base == Reg::Esp {
                        if i64::from(*disp) < 0 {
                            facts.diag = Some(fail(
                                at,
                                DiagKind::MemBelowEsp {
                                    disp: i64::from(*disp),
                                },
                            ));
                            break 'blocks;
                        }
                        if link {
                            let slot = i64::from(*disp) - st.delta;
                            if *src == Reg::Ra && st.ra_in_reg {
                                st.ra_saved = Some(slot);
                            } else if st.ra_saved == Some(slot) {
                                // Overwrote the saved return address.
                                st.ra_saved = None;
                            }
                        }
                    }
                }
                Instr::Call(callee) => {
                    facts.calls.push(CallSite {
                        callee: *callee as usize,
                        delta: st.delta,
                    });
                    if link {
                        // An internal call writes its own return address
                        // into `ra`.
                        st.clobber_ra(at);
                    }
                }
                Instr::CallExt(_) => {
                    // External stubs read their arguments from the
                    // outgoing area and leave both ESP and `ra` alone.
                }
                Instr::Ret => {
                    if st.delta != 0 {
                        facts.diag = Some(fail(
                            at,
                            DiagKind::UnbalancedEsp(EspFault::AtReturn(st.delta)),
                        ));
                        break 'blocks;
                    }
                    if link && !st.ra_in_reg {
                        facts.diag = Some(fail(
                            at,
                            DiagKind::RaClobbered {
                                lost_at: st.ra_lost_at,
                            },
                        ));
                        break 'blocks;
                    }
                }
            }
        }
        for &s in &cfg.blocks[b].succs {
            match in_states[s] {
                None => {
                    in_states[s] = Some(st);
                    worklist.push(s);
                }
                Some(prev) => {
                    if prev.delta != st.delta {
                        facts.diag = Some(fail(
                            cfg.blocks[s].start,
                            DiagKind::UnbalancedEsp(EspFault::Join {
                                a: prev.delta,
                                b: st.delta,
                            }),
                        ));
                        break 'blocks;
                    }
                    // The delta lattice is exact; the `ra` facts join
                    // conservatively (meet of knowledge). Re-process the
                    // block only when the join actually lost something.
                    let joined = State {
                        delta: prev.delta,
                        ra_in_reg: prev.ra_in_reg && st.ra_in_reg,
                        ra_saved: (prev.ra_saved == st.ra_saved)
                            .then_some(prev.ra_saved)
                            .flatten(),
                        ra_lost_at: match (prev.ra_lost_at, st.ra_lost_at) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        },
                    };
                    if joined != prev {
                        in_states[s] = Some(joined);
                        worklist.push(s);
                    }
                }
            }
        }
    }

    // The frame-size rules: the paths must allocate exactly the declared
    // `SF(f)`, and on the link-register target every frame is rounded to
    // the word size so calls keep ESP word-aligned.
    if facts.diag.is_none() {
        let declared = i64::from(f.frame_size);
        if facts.max_delta != declared {
            facts.diag = Some(fail(
                max_at,
                DiagKind::FrameMismatch {
                    declared: f.frame_size,
                    required: facts.max_delta as u32,
                },
            ));
        } else if !f.frame_size.is_multiple_of(target.word_size()) {
            facts.diag = Some(fail(
                0,
                DiagKind::FrameMismatch {
                    declared: f.frame_size,
                    required: f.frame_size.next_multiple_of(target.word_size()),
                },
            ));
        }
    }
    facts
}

/// Interprocedural propagation over the call-graph condensation
/// ([`asm::cfg::sccs`]), in reverse topological order — callee components
/// first — so each function's bound folds over already-resolved callees
/// in one pass.
fn condense(program: &AsmProgram, facts: &[FnFacts]) -> BTreeMap<String, Verdict> {
    let n = facts.len();
    let succs: Vec<Vec<usize>> = facts
        .iter()
        .map(|f| {
            f.calls
                .iter()
                .map(|c| c.callee)
                .filter(|&c| c < n)
                .collect()
        })
        .collect();
    let allowance = i64::from(program.target.call_allowance());

    /// A function's resolved usage during propagation.
    #[derive(Clone)]
    enum Usage {
        /// Worst-case bytes, exact.
        Bound(i64),
        /// Reaches this cycle.
        Rec(std::rc::Rc<Vec<String>>),
        /// A diagnostic (here or below) voids the verdict.
        Tainted,
    }

    let mut usage: Vec<Option<Usage>> = vec![None; n];
    for scc in sccs(&succs) {
        let cyclic = scc.len() > 1 || succs[scc[0]].contains(&scc[0]);
        if cyclic {
            let cycle = std::rc::Rc::new(
                find_cycle(&scc, &succs)
                    .into_iter()
                    .map(|i| program.functions[i].name.clone())
                    .collect::<Vec<_>>(),
            );
            for &v in &scc {
                usage[v] = Some(Usage::Rec(cycle.clone()));
            }
            continue;
        }
        let v = scc[0];
        if facts[v].diag.is_some() {
            usage[v] = Some(Usage::Tainted);
            continue;
        }
        let mut worst = facts[v].max_delta;
        let mut resolved = Usage::Bound(0);
        for call in &facts[v].calls {
            match usage[call.callee].as_ref() {
                Some(Usage::Bound(c)) => worst = worst.max(call.delta + allowance + c),
                Some(Usage::Rec(cycle)) => {
                    resolved = Usage::Rec(cycle.clone());
                    break;
                }
                // Tainted callee, or a call target out of range (the
                // `c < n` filter above dropped its edge): no verdict.
                _ => {
                    resolved = Usage::Tainted;
                    break;
                }
            }
        }
        usage[v] = Some(match resolved {
            Usage::Bound(_) => Usage::Bound(worst),
            other => other,
        });
    }

    let mut verdicts = BTreeMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        let verdict = match usage[i].as_ref() {
            Some(Usage::Bound(b)) => Verdict::Bounded(u32::try_from(*b).unwrap_or(u32::MAX)),
            Some(Usage::Rec(cycle)) => Verdict::RecursionDetected {
                cycle: cycle.as_ref().clone(),
            },
            _ => continue,
        };
        verdicts.insert(f.name.clone(), verdict);
    }
    verdicts
}

/// A genuine call cycle inside a cyclic SCC: walk in-SCC successors until
/// a node repeats; the tail from its first occurrence is the cycle. Every
/// member of a strongly-connected component has an in-SCC successor, so
/// the walk cannot get stuck.
fn find_cycle(scc: &[usize], succs: &[Vec<usize>]) -> Vec<usize> {
    let in_scc = |w: usize| scc.contains(&w);
    let mut path: Vec<usize> = Vec::new();
    let mut v = scc[0];
    loop {
        if let Some(i) = path.iter().position(|&p| p == v) {
            return path[i..].to_vec();
        }
        path.push(v);
        v = *succs[v]
            .iter()
            .find(|&&w| in_scc(w))
            .expect("cyclic SCC member has an in-SCC successor");
    }
}

#[cfg(test)]
mod tests;
