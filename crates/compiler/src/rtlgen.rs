//! Cminor → RTL: flatten structured control flow into a CFG and expression
//! trees into three-address instructions over virtual registers.
//!
//! Translation proceeds bottom-up: each statement is translated against
//! the node that follows it, so instructions can point at their successors
//! directly. Loop back-edges target a reserved `Nop` node that is patched
//! to the loop body once it is generated.

use crate::cminor::{CmExpr, CmFunction, CmStmt};
use crate::rtl::{Node, RtlFunction, RtlInstr, RtlOp, VReg};
use crate::CompileError;
use std::collections::HashMap;
use std::sync::Arc;

struct Builder {
    code: Vec<RtlInstr>,
    temps: HashMap<String, VReg>,
    next_reg: VReg,
}

/// Loop context: where `break` and `continue` jump.
#[derive(Clone, Copy)]
struct LoopCtx {
    brk: Node,
    cont: Node,
}

pub(crate) fn translate_function(f: &CmFunction) -> Result<RtlFunction, CompileError> {
    let mut b = Builder {
        code: Vec::new(),
        temps: HashMap::new(),
        next_reg: 0,
    };
    let params: Vec<VReg> = f.params.iter().map(|p| b.temp(p)).collect();
    for t in &f.temps {
        b.temp(t);
    }
    // Fall-through at the end of the body returns no value.
    let fallthrough = b.add(RtlInstr::Return(None));
    let entry = b.stmt(&f.body, fallthrough, None)?;
    Ok(RtlFunction {
        name: f.name.clone(),
        params,
        stacksize: f.stacksize,
        entry,
        nregs: b.next_reg,
        code: Arc::new(b.code),
        returns_value: f.returns_value,
    })
}

impl Builder {
    fn temp(&mut self, name: &str) -> VReg {
        if let Some(r) = self.temps.get(name) {
            return *r;
        }
        let r = self.next_reg;
        self.next_reg += 1;
        self.temps.insert(name.to_owned(), r);
        r
    }

    fn fresh(&mut self) -> VReg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn add(&mut self, i: RtlInstr) -> Node {
        self.code.push(i);
        (self.code.len() - 1) as Node
    }

    /// Reserves a node to be patched later (loop headers).
    fn reserve(&mut self) -> Node {
        self.add(RtlInstr::Nop(0))
    }

    fn patch(&mut self, node: Node, target: Node) {
        self.code[node as usize] = RtlInstr::Nop(target);
    }

    /// Translates `s`; execution continues at `next`. Returns the entry node.
    fn stmt(&mut self, s: &CmStmt, next: Node, lp: Option<LoopCtx>) -> Result<Node, CompileError> {
        Ok(match s {
            CmStmt::Skip => next,
            CmStmt::Assign(x, e) => {
                let dst = self.temp(x);
                self.expr(e, dst, next)?
            }
            CmStmt::Store(addr, value) => {
                let ra = self.fresh();
                let rv = self.fresh();
                let store = self.add(RtlInstr::Store(ra, rv, next));
                let ev = self.expr(value, rv, store)?;
                self.expr(addr, ra, ev)?
            }
            CmStmt::Call(dest, g, args) => {
                let regs: Vec<VReg> = args.iter().map(|_| self.fresh()).collect();
                let dreg = dest.as_ref().map(|d| self.temp(d));
                let call = self.add(RtlInstr::Call(g.clone(), regs.clone(), dreg, next));
                // Evaluate arguments left to right: build the chain backwards.
                let mut entry = call;
                for (a, r) in args.iter().zip(&regs).rev() {
                    entry = self.expr(a, *r, entry)?;
                }
                entry
            }
            CmStmt::Seq(a, b) => {
                let nb = self.stmt(b, next, lp)?;
                self.stmt(a, nb, lp)?
            }
            CmStmt::If(c, t, e) => {
                let nt = self.stmt(t, next, lp)?;
                let ne = self.stmt(e, next, lp)?;
                self.branch(c, nt, ne)?
            }
            CmStmt::Loop(body, incr) => {
                let header = self.reserve();
                // The increment part may not contain break/continue.
                let nincr = self.stmt(incr, header, None)?;
                let nbody = self.stmt(
                    body,
                    nincr,
                    Some(LoopCtx {
                        brk: next,
                        cont: nincr,
                    }),
                )?;
                self.patch(header, nbody);
                header
            }
            CmStmt::Break => {
                let lp = lp.ok_or_else(|| {
                    CompileError::Internal("rtlgen: break outside of a loop".into())
                })?;
                lp.brk
            }
            CmStmt::Continue => {
                let lp = lp.ok_or_else(|| {
                    CompileError::Internal("rtlgen: continue outside of a loop".into())
                })?;
                lp.cont
            }
            CmStmt::Return(e) => match e {
                None => self.add(RtlInstr::Return(None)),
                Some(e) => {
                    let r = self.fresh();
                    let ret = self.add(RtlInstr::Return(Some(r)));
                    self.expr(e, r, ret)?
                }
            },
        })
    }

    /// Translates `e` into `dst`; continues at `next`. Returns entry node.
    fn expr(&mut self, e: &CmExpr, dst: VReg, next: Node) -> Result<Node, CompileError> {
        Ok(match e {
            CmExpr::Const(n) => self.add(RtlInstr::Op(RtlOp::Const(*n), vec![], dst, next)),
            CmExpr::Temp(x) => {
                let src = self.temp(x);
                self.add(RtlInstr::Op(RtlOp::Move, vec![src], dst, next))
            }
            CmExpr::StackAddr(off) => {
                self.add(RtlInstr::Op(RtlOp::StackAddr(*off), vec![], dst, next))
            }
            CmExpr::GlobalAddr(g, off) => self.add(RtlInstr::Op(
                RtlOp::GlobalAddr(g.clone(), *off),
                vec![],
                dst,
                next,
            )),
            CmExpr::Load(a) => {
                let ra = self.fresh();
                let load = self.add(RtlInstr::Load(ra, dst, next));
                self.expr(a, ra, load)?
            }
            CmExpr::Unop(op, a) => {
                let ra = self.fresh();
                let op_node = self.add(RtlInstr::Op(RtlOp::Unop(*op), vec![ra], dst, next));
                self.expr(a, ra, op_node)?
            }
            CmExpr::Binop(op, a, b) => {
                let ra = self.fresh();
                let rb = self.fresh();
                let op_node = self.add(RtlInstr::Op(RtlOp::Binop(*op), vec![ra, rb], dst, next));
                let eb = self.expr(b, rb, op_node)?;
                self.expr(a, ra, eb)?
            }
            CmExpr::Cond(c, t, f) => {
                let nt = self.expr(t, dst, next)?;
                let nf = self.expr(f, dst, next)?;
                self.branch(c, nt, nf)?
            }
        })
    }

    /// Translates a branch on `c`: goes to `then_n` when nonzero, `else_n`
    /// otherwise. Comparisons compile directly into `Cond` instructions.
    fn branch(&mut self, c: &CmExpr, then_n: Node, else_n: Node) -> Result<Node, CompileError> {
        if let CmExpr::Binop(op, a, b) = c {
            if op.is_comparison() {
                let ra = self.fresh();
                let rb = self.fresh();
                let cond = self.add(RtlInstr::Cond(*op, ra, rb, then_n, else_n));
                let eb = self.expr(b, rb, cond)?;
                return self.expr(a, ra, eb);
            }
        }
        // Lazy conditions nest branches.
        if let CmExpr::Cond(cc, ct, cf) = c {
            let nt = self.branch(ct, then_n, else_n)?;
            let nf = self.branch(cf, then_n, else_n)?;
            return self.branch(cc, nt, nf);
        }
        let r = self.fresh();
        let zero = self.fresh();
        let z = self.add(RtlInstr::Cond(mem::Binop::Ne, r, zero, then_n, else_n));
        let kz = self.add(RtlInstr::Op(RtlOp::Const(0), vec![], zero, z));
        self.expr(c, r, kz)
    }
}
