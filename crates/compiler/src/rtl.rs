//! RTL: a control-flow-graph IR over virtual registers, the substrate for
//! the optimization passes (constant propagation, dead-code elimination).
//!
//! Each function is a graph of single instructions indexed by node id;
//! every instruction carries its successor(s). The interpreter maintains
//! an explicit call stack and emits the same `call`/`ret` events as the
//! structured languages, so quantitative refinement is checkable across
//! RTL generation and each optimization.

use mem::{Binop, BlockId, Memory, Unop, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use trace::{Behavior, Event, Trace};

/// A virtual register.
pub type VReg = u32;
/// A CFG node (index into [`RtlFunction::code`]).
pub type Node = u32;

/// A register-producing operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlOp {
    /// Integer constant.
    Const(u32),
    /// Register copy.
    Move,
    /// Unary operation.
    Unop(Unop),
    /// Binary operation.
    Binop(Binop),
    /// Address of the function's stack block plus offset.
    StackAddr(u32),
    /// Address of a global plus offset.
    GlobalAddr(String, u32),
}

impl RtlOp {
    /// Number of register arguments the operation consumes.
    pub fn arity(&self) -> usize {
        match self {
            RtlOp::Const(_) | RtlOp::StackAddr(_) | RtlOp::GlobalAddr(..) => 0,
            RtlOp::Move | RtlOp::Unop(_) => 1,
            RtlOp::Binop(_) => 2,
        }
    }
}

/// An RTL instruction; successors are explicit node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlInstr {
    /// `dst <- op(args); goto next`.
    Op(RtlOp, Vec<VReg>, VReg, Node),
    /// `dst <- [addr]; goto next`.
    Load(VReg, VReg, Node),
    /// `[addr] <- src; goto next`.
    Store(VReg, VReg, Node),
    /// `dst? <- f(args); goto next`.
    Call(String, Vec<VReg>, Option<VReg>, Node),
    /// `if (a op b) goto then else goto els`.
    Cond(Binop, VReg, VReg, Node, Node),
    /// Return from the function.
    Return(Option<VReg>),
    /// No-op; placeholder and jump pad.
    Nop(Node),
}

impl RtlInstr {
    /// The successor nodes of the instruction.
    pub fn successors(&self) -> Vec<Node> {
        match self {
            RtlInstr::Op(_, _, _, n)
            | RtlInstr::Load(_, _, n)
            | RtlInstr::Store(_, _, n)
            | RtlInstr::Call(_, _, _, n)
            | RtlInstr::Nop(n) => vec![*n],
            RtlInstr::Cond(_, _, _, t, e) => vec![*t, *e],
            RtlInstr::Return(_) => vec![],
        }
    }

    /// Registers read by the instruction.
    pub fn uses(&self) -> Vec<VReg> {
        match self {
            RtlInstr::Op(_, args, _, _) => args.clone(),
            RtlInstr::Load(a, _, _) => vec![*a],
            RtlInstr::Store(a, s, _) => vec![*a, *s],
            RtlInstr::Call(_, args, _, _) => args.clone(),
            RtlInstr::Cond(_, a, b, _, _) => vec![*a, *b],
            RtlInstr::Return(Some(v)) => vec![*v],
            RtlInstr::Return(None) | RtlInstr::Nop(_) => vec![],
        }
    }

    /// The register written by the instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            RtlInstr::Op(_, _, d, _) | RtlInstr::Load(_, d, _) => Some(*d),
            RtlInstr::Call(_, _, d, _) => *d,
            _ => None,
        }
    }
}

impl fmt::Display for RtlInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlInstr::Op(op, args, d, n) => write!(f, "v{d} = {op:?}{args:?} -> {n}"),
            RtlInstr::Load(a, d, n) => write!(f, "v{d} = [v{a}] -> {n}"),
            RtlInstr::Store(a, s, n) => write!(f, "[v{a}] = v{s} -> {n}"),
            RtlInstr::Call(g, args, d, n) => write!(f, "{d:?} = {g}{args:?} -> {n}"),
            RtlInstr::Cond(op, a, b, t, e) => write!(f, "if v{a} {op} v{b} -> {t} | {e}"),
            RtlInstr::Return(v) => write!(f, "return {v:?}"),
            RtlInstr::Nop(n) => write!(f, "nop -> {n}"),
        }
    }
}

/// An RTL function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlFunction {
    /// Function name.
    pub name: String,
    /// Parameter registers, in order.
    pub params: Vec<VReg>,
    /// Stack-data block size in bytes (from Cminor).
    pub stacksize: u32,
    /// Entry node.
    pub entry: Node,
    /// Instructions, indexed by node id. Shared, so that the pipeline's
    /// per-pass programs, [`crate::Compiled`] and a cached
    /// [`crate::FnArtifacts`] hold one body; the passes that rewrite it
    /// copy on write ([`Arc::make_mut`]).
    pub code: Arc<Vec<RtlInstr>>,
    /// Number of virtual registers in use.
    pub nregs: u32,
    /// Whether the function returns a value.
    pub returns_value: bool,
}

/// An RTL program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RtlProgram {
    /// Globals: name, byte size, initial words.
    pub globals: Vec<(String, u32, Vec<u32>)>,
    /// Externals: name, arity, returns-value flag.
    pub externals: Vec<(String, usize, bool)>,
    /// Function definitions.
    pub functions: Vec<RtlFunction>,
}

impl RtlProgram {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&RtlFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Renders the program as a readable CFG dump.
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for f in &self.functions {
            let _ = writeln!(
                out,
                "{}(params {:?}) entry {} stacksize {}:",
                f.name, f.params, f.entry, f.stacksize
            );
            for (n, i) in f.code.iter().enumerate() {
                let _ = writeln!(out, "  {n:>4}: {i}");
            }
        }
        out
    }
}

// ---- semantics ---------------------------------------------------------------

struct RFrame {
    func: usize,
    pc: Node,
    regs: HashMap<VReg, Value>,
    block: BlockId,
    dest: Option<VReg>,
}

/// Runs `main()` of an RTL program for at most `fuel` instruction steps.
pub fn run_main(program: &RtlProgram, fuel: u64) -> Behavior {
    run_function(program, "main", Vec::new(), fuel)
}

/// Runs `fname(args)` of an RTL program.
pub fn run_function(program: &RtlProgram, fname: &str, args: Vec<Value>, fuel: u64) -> Behavior {
    let mut memory = Memory::new();
    let mut globals = HashMap::new();
    let mut trace = Trace::new();
    for (name, size, init) in &program.globals {
        let b = memory.alloc(*size);
        for i in 0..(*size / 4) {
            let v = init.get(i as usize).copied().unwrap_or(0);
            if memory.store(b, i * 4, Value::Int(v)).is_err() {
                return Behavior::Fails(trace, "bad global initializer".into());
            }
        }
        globals.insert(name.clone(), b);
    }
    let Some(fidx) = program.functions.iter().position(|f| f.name == fname) else {
        return Behavior::Fails(trace, format!("no function `{fname}`"));
    };
    let mut stack: Vec<RFrame> = Vec::new();
    match push_frame(program, &mut memory, &mut trace, fidx, args, None) {
        Ok(frame) => stack.push(frame),
        Err(e) => return Behavior::Fails(trace, e),
    }

    let mut steps = 0u64;
    while steps < fuel {
        steps += 1;
        let frame = stack.last_mut().expect("nonempty call stack");
        let func = &program.functions[frame.func];
        let Some(instr) = func.code.get(frame.pc as usize) else {
            return Behavior::Fails(trace, format!("bad node {} in `{}`", frame.pc, func.name));
        };
        macro_rules! fail {
            ($e:expr) => {
                return Behavior::Fails(trace, $e.to_string())
            };
        }
        macro_rules! reg {
            ($r:expr) => {
                match frame.regs.get(&$r) {
                    Some(v) => *v,
                    None => Value::Undef,
                }
            };
        }
        match instr {
            RtlInstr::Nop(n) => frame.pc = *n,
            RtlInstr::Op(op, args, dst, n) => {
                let v = match op {
                    RtlOp::Const(k) => Value::Int(*k),
                    RtlOp::Move => reg!(args[0]),
                    RtlOp::Unop(u) => match mem::eval_unop(*u, reg!(args[0])) {
                        Ok(v) => v,
                        Err(e) => fail!(e),
                    },
                    RtlOp::Binop(b) => match mem::eval_binop(*b, reg!(args[0]), reg!(args[1])) {
                        Ok(v) => v,
                        Err(e) => fail!(e),
                    },
                    RtlOp::StackAddr(off) => Value::Ptr(frame.block, *off),
                    RtlOp::GlobalAddr(g, off) => match globals.get(g) {
                        Some(b) => Value::Ptr(*b, *off),
                        None => fail!(format!("unknown global `{g}`")),
                    },
                };
                frame.regs.insert(*dst, v);
                frame.pc = *n;
            }
            RtlInstr::Load(a, d, n) => {
                let (b, off) = match reg!(*a).as_ptr() {
                    Ok(p) => p,
                    Err(e) => fail!(e),
                };
                match memory.load(b, off) {
                    Ok(v) => {
                        frame.regs.insert(*d, v);
                    }
                    Err(e) => fail!(e),
                }
                frame.pc = *n;
            }
            RtlInstr::Store(a, s, n) => {
                let (b, off) = match reg!(*a).as_ptr() {
                    Ok(p) => p,
                    Err(e) => fail!(e),
                };
                let v = reg!(*s);
                if let Err(e) = memory.store(b, off, v) {
                    fail!(e);
                }
                frame.pc = *n;
            }
            RtlInstr::Cond(op, a, b, t, e) => {
                let v = match mem::eval_binop(*op, reg!(*a), reg!(*b)) {
                    Ok(v) => v,
                    Err(err) => fail!(err),
                };
                frame.pc = if v != Value::Int(0) { *t } else { *e };
            }
            RtlInstr::Call(g, args, dst, n) => {
                let vals: Vec<Value> = args.iter().map(|r| reg!(*r)).collect();
                frame.dest = *dst;
                frame.pc = *n;
                if let Some(cidx) = program.functions.iter().position(|f| &f.name == g) {
                    match push_frame(program, &mut memory, &mut trace, cidx, vals, *dst) {
                        Ok(fr) => stack.push(fr),
                        Err(e) => fail!(e),
                    }
                } else if let Some((name, arity, has_ret)) =
                    program.externals.iter().find(|(n2, _, _)| n2 == g).cloned()
                {
                    if vals.len() != arity {
                        fail!(format!("arity mismatch calling external `{g}`"));
                    }
                    let ints: Result<Vec<u32>, _> = vals.iter().map(|v| v.as_int()).collect();
                    let ints = match ints {
                        Ok(i) => i,
                        Err(e) => fail!(e),
                    };
                    let result = clight::io_result(&name, &ints);
                    trace.push(Event::io(name.as_str(), ints, result));
                    if let Some(d) = dst {
                        if !has_ret {
                            fail!(format!("void external `{g}` used as a value"));
                        }
                        frame.regs.insert(*d, Value::Int(result));
                    }
                } else {
                    fail!(format!("call to undefined function `{g}`"));
                }
            }
            RtlInstr::Return(v) => {
                let value = match v {
                    Some(r) => reg!(*r),
                    None => Value::Undef,
                };
                let popped = stack.pop().expect("nonempty call stack");
                if memory.free(popped.block).is_err() {
                    fail!("stack block already freed");
                }
                trace.push(Event::ret(func.name.as_str()));
                match stack.last_mut() {
                    None => {
                        return match value {
                            Value::Int(code) => Behavior::Converges(trace, code),
                            Value::Undef if !func.returns_value => Behavior::Converges(trace, 0),
                            other => Behavior::Fails(
                                trace,
                                format!("program finished with non-integer value {other}"),
                            ),
                        };
                    }
                    Some(caller) => {
                        if let Some(d) = caller.dest.take() {
                            caller.regs.insert(d, value);
                        }
                    }
                }
            }
        }
    }
    Behavior::Diverges(trace)
}

fn push_frame(
    program: &RtlProgram,
    memory: &mut Memory,
    trace: &mut Trace,
    fidx: usize,
    args: Vec<Value>,
    dest: Option<VReg>,
) -> Result<RFrame, String> {
    let f = &program.functions[fidx];
    if args.len() != f.params.len() {
        return Err(format!("arity mismatch calling `{}`", f.name));
    }
    trace.push(Event::call(f.name.as_str()));
    let _ = dest;
    Ok(RFrame {
        func: fidx,
        pc: f.entry,
        regs: f.params.iter().copied().zip(args).collect(),
        block: memory.alloc(f.stacksize),
        dest: None,
    })
}
