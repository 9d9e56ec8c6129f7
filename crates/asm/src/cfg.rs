//! Basic-block and control-flow-graph accessors over [`AsmFunction`]
//! code.
//!
//! The decoded execution core (`crate::decode`) already segments a
//! function implicitly — label runs become pads, control transfers resolve
//! through the resume table — but keeps that structure private to the
//! dispatch loop. Static analyses need the same block boundaries as data:
//! this module recovers them once, directly over the [`Instr`] stream, so
//! a client can walk every path through a function without re-deriving
//! label resolution.
//!
//! Block leaders are the function entry, every [`Instr::Label`], and the
//! instruction following a jump or return. Calls do *not* end blocks:
//! `Call`/`CallExt` fall through to the next instruction, exactly like the
//! machine's semantics (the callee returns to `pc + 1`). Successor edges
//! come from the terminator: a [`Instr::Jmp`] has its target only, a
//! [`Instr::Jcc`] its target plus the fall-through, a [`Instr::Ret`]
//! nothing, and any other final instruction falls through to the next
//! block. A jump to a label the function never defines gets no edge — the
//! reference semantics only faults when such a jump is *taken*, so the
//! unresolved target simply truncates that path.
//!
//! [`sccs`] condenses any graph given as successor lists; the call-graph
//! clients (`stacklint`'s interprocedural bound, `vcache`'s closure keys)
//! share it.

use crate::{AsmFunction, Instr};
use std::collections::HashMap;

/// A maximal straight-line run of instructions: control enters only at
/// `start` and leaves only via the last instruction (or falls through).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the first instruction of the block in
    /// [`AsmFunction::code`].
    pub start: usize,
    /// One past the index of the last instruction (so `start..end` is the
    /// block's instruction range; never empty).
    pub end: usize,
    /// Successor *block* indices, in evaluation order (branch target
    /// first, fall-through last).
    pub succs: Vec<usize>,
}

impl BasicBlock {
    /// The block's instruction range in the original code.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// The control-flow graph of one function: its basic blocks in code
/// order, with label resolution already applied to the edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Basic blocks in code order; block 0 (when it exists) is the entry.
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// Recovers the control-flow graph of `f`.
    pub fn of(f: &AsmFunction) -> Cfg {
        let code = &f.code;
        let n = code.len();
        // Label name -> defining instruction index (last definition wins,
        // mirroring decode's label map).
        let mut labels: HashMap<u32, usize> = HashMap::new();
        for (i, ins) in code.iter().enumerate() {
            if let Instr::Label(l) = ins {
                labels.insert(*l, i);
            }
        }
        // Leaders: entry, label definitions, jump/return fall-throughs.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (i, ins) in code.iter().enumerate() {
            match ins {
                Instr::Label(_) => leader[i] = true,
                Instr::Jmp(_) | Instr::Jcc(_, _) | Instr::Ret if i + 1 < n => {
                    leader[i + 1] = true;
                }
                _ => {}
            }
        }
        let starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
        let block_of = {
            // Instruction index -> enclosing block index.
            let mut map = vec![0usize; n];
            for (b, &s) in starts.iter().enumerate() {
                let end = starts.get(b + 1).copied().unwrap_or(n);
                for slot in &mut map[s..end] {
                    *slot = b;
                }
            }
            map
        };
        let mut blocks = Vec::with_capacity(starts.len());
        for (b, &start) in starts.iter().enumerate() {
            let end = starts.get(b + 1).copied().unwrap_or(n);
            let mut succs = Vec::new();
            match &code[end - 1] {
                Instr::Jmp(l) => {
                    if let Some(&t) = labels.get(l) {
                        succs.push(block_of[t]);
                    }
                }
                Instr::Jcc(_, l) => {
                    if let Some(&t) = labels.get(l) {
                        succs.push(block_of[t]);
                    }
                    if end < n {
                        succs.push(block_of[end]);
                    }
                }
                Instr::Ret => {}
                // A block ending in any other instruction falls through
                // (or runs off the end of the function, which the machine
                // treats as going wrong — no edge either way).
                _ => {
                    if end < n {
                        succs.push(block_of[end]);
                    }
                }
            }
            blocks.push(BasicBlock { start, end, succs });
        }
        Cfg { blocks }
    }

    /// The block containing instruction `i`, if the function is non-empty
    /// and `i` is in range.
    pub fn block_at(&self, i: usize) -> Option<usize> {
        // Blocks are in code order, so a binary search on `start` finds
        // the enclosing block.
        match self.blocks.binary_search_by_key(&i, |b| b.start) {
            Ok(b) => Some(b),
            Err(0) => None,
            Err(b) => (i < self.blocks[b - 1].end).then(|| b - 1),
        }
    }
}

/// The strongly connected components of the graph whose node `v` has the
/// successors `succs[v]`, in reverse topological order of the
/// condensation: every component comes after the components it has edges
/// into. Tarjan's algorithm with explicit DFS frames, so a deep graph
/// cannot overflow the host stack. Roots are tried in index order and
/// successors in list order, so the output is a pure function of `succs`.
pub fn sccs(succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succs.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, next-successor position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if let Some(&w) = succs[v].get(*pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack underflow");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(component);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operand, Reg};
    use mem::Binop;

    fn f(code: Vec<Instr>) -> AsmFunction {
        AsmFunction::new("t", 0, code)
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = Cfg::of(&f(vec![Instr::Mov(Reg::Eax, Operand::Imm(1)), Instr::Ret]));
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].range(), 0..2);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn diamond_has_branch_and_join_edges() {
        // 0: cmp; 1: jcc L0; 2: mov; 3: jmp L1; 4: L0; 5: mov; 6: L1; 7: ret
        let cfg = Cfg::of(&f(vec![
            Instr::Cmp(Reg::Eax, Operand::Imm(0)),
            Instr::Jcc(Binop::Eq, 0),
            Instr::Mov(Reg::Ebx, Operand::Imm(1)),
            Instr::Jmp(1),
            Instr::Label(0),
            Instr::Mov(Reg::Ebx, Operand::Imm(2)),
            Instr::Label(1),
            Instr::Ret,
        ]));
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.blocks[0].succs, vec![2, 1]); // target first
        assert_eq!(cfg.blocks[1].succs, vec![3]);
        assert_eq!(cfg.blocks[2].succs, vec![3]);
        assert!(cfg.blocks[3].succs.is_empty());
        assert_eq!(cfg.block_at(5), Some(2));
        assert_eq!(cfg.block_at(7), Some(3));
        assert_eq!(cfg.block_at(8), None);
    }

    #[test]
    fn calls_do_not_split_blocks() {
        let cfg = Cfg::of(&f(vec![
            Instr::Call(0),
            Instr::CallExt(0),
            Instr::Mov(Reg::Eax, Operand::Imm(0)),
            Instr::Ret,
        ]));
        assert_eq!(cfg.blocks.len(), 1);
    }

    #[test]
    fn missing_jump_target_has_no_edge() {
        let cfg = Cfg::of(&f(vec![Instr::Jmp(99)]));
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn sccs_come_callee_components_first() {
        // 0 -> 1 <-> 2 -> 3, and 4 alone.
        let succs = vec![vec![1], vec![2], vec![1, 3], vec![], vec![]];
        assert_eq!(sccs(&succs), vec![vec![3], vec![2, 1], vec![0], vec![4]]);
        assert!(sccs(&[]).is_empty());
    }

    #[test]
    fn empty_function_has_no_blocks() {
        let cfg = Cfg::of(&f(vec![]));
        assert!(cfg.blocks.is_empty());
        assert_eq!(cfg.block_at(0), None);
    }
}
