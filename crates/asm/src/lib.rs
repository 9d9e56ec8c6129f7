//! `ASMsz`: realistic assembly languages with a finite, preallocated
//! stack (§3.2 of *End-to-End Verification of Stack-Space Bounds for C
//! Programs*, PLDI 2014), in two [`Target`] flavors.
//!
//! Unlike CompCert's original x86 semantics, there are no `Pallocframe` /
//! `Pfreeframe` pseudo-instructions and no per-frame memory blocks: one
//! finite block is allocated at program start, and every stack-pointer
//! change is explicit pointer arithmetic on `ESP`. Stack overflow is
//! therefore *possible*: moving `ESP` below the block makes the execution
//! go wrong.
//!
//! The two machines differ in exactly the properties a retargetable
//! backend must not bake in:
//!
//! * **`Target::Sz32`** — the paper's x86-style machine. `call` stores
//!   the return address at `[ESP-4]` and decrements `ESP` by 4; the
//!   startup block is `sz + 4` bytes (the extra word holds the return
//!   address of `main`'s caller, as in Theorem 1). A function that never
//!   calls never performs the 4-byte push — which is precisely why the
//!   verified bounds (`M(f) = SF(f) + 4` per activation) over-approximate
//!   the measured usage by exactly 4 bytes: the deepest activation's push
//!   allowance is unused.
//! * **`Target::Rv`** — an 8-byte-word link-register machine. `call`
//!   writes the return address into the [`Reg::Ra`] register and moves
//!   `ESP` not at all; non-leaf functions save `RA` into a slot of their
//!   own frame (so the slot is part of `SF(f)`), and leaf calls consume
//!   no return-address stack space. The metric is `M(f) = SF(f)` and a
//!   bound is exact: the measured peak equals it.
//!
//! # Examples
//!
//! Hand-assemble `main() { return leaf(); }` where `leaf` returns 7:
//!
//! ```
//! use asm::{AsmFunction, AsmProgram, Instr, Machine, Operand, Reg, Target};
//!
//! let leaf = AsmFunction::new("leaf", 8, vec![
//!     Instr::Alu(mem::Binop::Sub, Reg::Esp, Operand::Imm(8)), // prologue
//!     Instr::Mov(Reg::Eax, Operand::Imm(7)),
//!     Instr::Alu(mem::Binop::Add, Reg::Esp, Operand::Imm(8)), // epilogue
//!     Instr::Ret,
//! ]);
//! let main = AsmFunction::new("main", 8, vec![
//!     Instr::Alu(mem::Binop::Sub, Reg::Esp, Operand::Imm(8)),
//!     Instr::Call(0),
//!     Instr::Alu(mem::Binop::Add, Reg::Esp, Operand::Imm(8)),
//!     Instr::Ret,
//! ]);
//! let prog = AsmProgram {
//!     globals: vec![],
//!     externals: vec![],
//!     functions: vec![leaf, main],
//!     target: Target::Sz32,
//! };
//! let mut machine = Machine::new(&prog, 64).unwrap();
//! let behavior = machine.run_main(10_000);
//! assert_eq!(behavior.return_code(), Some(7));
//! // 8 (main) + 4 (push) + 8 (leaf) bytes were used:
//! assert_eq!(machine.stack_usage(), 20);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod cfg;
mod decode;
mod machine;
pub mod monitor;
pub mod profile;

pub use cache::{Fnv64, MeasureCache};
pub use machine::{Machine, MachineError};
pub use monitor::{
    measure_function, measure_function_reference, measure_main, measure_main_reference, Measurement,
};
pub use profile::StackProfile;

use mem::{Binop, Unop};
use std::fmt;
use std::str::FromStr;

/// The machine flavor an [`AsmProgram`] is compiled for. Everything
/// target-specific — word size, return-address convention, the startup
/// sequence, and the per-activation stack metric — derives from this
/// value; the instruction set itself is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Target {
    /// The paper's x86-style machine: 4-byte words, `call` pushes the
    /// return address (`[ESP-4]`, `ESP -= 4`), metric `M(f) = SF(f) + 4`.
    #[default]
    Sz32,
    /// `ASMsz-RV`: 8-byte stack words, `call` writes the return address
    /// into the [`Reg::Ra`] link register (no `ESP` movement). Non-leaf
    /// functions save `RA` inside their own frame, so the metric is
    /// `M(f) = SF(f)` — leaf calls consume no return-address slot.
    Rv,
}

impl Target {
    /// Both targets, in declaration order.
    pub const ALL: [Target; 2] = [Target::Sz32, Target::Rv];

    /// The target's name as used by `--target` and cache digests.
    pub fn name(self) -> &'static str {
        match self {
            Target::Sz32 => "sz32",
            Target::Rv => "rv",
        }
    }

    /// Stack-slot width in bytes: spill slots, outgoing-argument slots,
    /// and the return-address slot all use this stride.
    pub fn word_size(self) -> u32 {
        match self {
            Target::Sz32 => 4,
            Target::Rv => 8,
        }
    }

    /// Whether `call` writes the return address into the [`Reg::Ra`]
    /// link register instead of pushing it onto the stack.
    pub fn uses_link_register(self) -> bool {
        matches!(self, Target::Rv)
    }

    /// Stack bytes a `call` itself consumes (the push allowance added to
    /// `SF(f)` by the metric): the word size on a pushing target, zero on
    /// a link-register target.
    pub fn call_allowance(self) -> u32 {
        if self.uses_link_register() {
            0
        } else {
            self.word_size()
        }
    }

    /// The per-activation metric `M(f)` for a function with frame size
    /// `SF(f)` — Theorem 1's cost, `SF(f)` plus the call allowance.
    pub fn metric_of(self, frame_size: u32) -> u32 {
        frame_size + self.call_allowance()
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Target {
    type Err = String;

    fn from_str(s: &str) -> Result<Target, String> {
        match s {
            "sz32" => Ok(Target::Sz32),
            "rv" => Ok(Target::Rv),
            other => Err(format!("unknown target `{other}` (expected sz32 or rv)")),
        }
    }
}

/// The registers of `ASMsz`. `Esp` is the stack pointer; `Ra` is the
/// link register (written by `call` on [`Target::Rv`], never used by
/// `Sz32` code); the rest are general-purpose (our calling convention
/// makes all of them caller-save and returns results in `Eax`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    Eax,
    Ebx,
    Ecx,
    Edx,
    Esi,
    Edi,
    Ebp,
    Esp,
    Ra,
}

impl Reg {
    /// All general-purpose registers, in allocation preference order.
    /// `Ra` is excluded: it is the link register, reserved for the
    /// call/return sequence.
    pub const GENERAL: [Reg; 7] = [
        Reg::Eax,
        Reg::Ebx,
        Reg::Ecx,
        Reg::Edx,
        Reg::Esi,
        Reg::Edi,
        Reg::Ebp,
    ];

    /// Size of the machine's register file.
    pub const COUNT: usize = 9;

    /// Index of the register in the machine's register file.
    pub fn index(self) -> usize {
        match self {
            Reg::Eax => 0,
            Reg::Ebx => 1,
            Reg::Ecx => 2,
            Reg::Edx => 3,
            Reg::Esi => 4,
            Reg::Edi => 5,
            Reg::Ebp => 6,
            Reg::Esp => 7,
            Reg::Ra => 8,
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reg::Eax => "eax",
            Reg::Ebx => "ebx",
            Reg::Ecx => "ecx",
            Reg::Edx => "edx",
            Reg::Esi => "esi",
            Reg::Edi => "edi",
            Reg::Ebp => "ebp",
            Reg::Esp => "esp",
            Reg::Ra => "ra",
        };
        f.write_str(s)
    }
}

/// An instruction operand: immediate or register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A 32-bit immediate.
    Imm(u32),
    /// A register.
    Reg(Reg),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Imm(n) => write!(f, "${n}"),
            Operand::Reg(r) => write!(f, "{r}"),
        }
    }
}

/// An `ASMsz` instruction.
///
/// Labels are function-local and resolved to instruction indices when a
/// [`Machine`] is created. `Call` targets internal functions by index into
/// [`AsmProgram::functions`]; `CallExt` targets externals by index into
/// [`AsmProgram::externals`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// A jump target; executes as a no-op.
    Label(u32),
    /// `dst <- operand`.
    Mov(Reg, Operand),
    /// `dst <- &global + offset` (globals live in their own blocks, like
    /// CompCert's symbol addressing).
    LeaGlobal(Reg, u32, u32),
    /// `dst <- dst op operand`. Applying `Sub`/`Add` to `Esp` is the frame
    /// allocation idiom; the machine checks stack bounds on every `Esp`
    /// write.
    Alu(Binop, Reg, Operand),
    /// `dst <- op dst`.
    Un(Unop, Reg),
    /// `dst <- [base + disp]`.
    Load(Reg, Reg, i32),
    /// `[base + disp] <- src`.
    Store(Reg, i32, Reg),
    /// Compare `reg` with `operand` and remember the operands for a
    /// following `Jcc`.
    Cmp(Reg, Operand),
    /// Jump to label when the comparison `flags.0 op flags.1` holds.
    Jcc(Binop, u32),
    /// Unconditional jump to label.
    Jmp(u32),
    /// Call the internal function with the given index. On
    /// [`Target::Sz32`] this stores the return address at `[esp-4]` and
    /// decrements `esp` by 4; on [`Target::Rv`] it writes the return
    /// address into the `ra` link register with no stack movement.
    Call(u32),
    /// Call the external function with the given index: reads its arguments
    /// from the outgoing-argument slots `[esp], [esp+w], …` (one per
    /// target word), emits an I/O event, and puts the result in `eax`.
    /// No stack movement.
    CallExt(u32),
    /// Return. On [`Target::Sz32`] this loads the return address from
    /// `[esp]` and increments `esp` by 4; on [`Target::Rv`] it jumps
    /// through the `ra` register. The epilogue must have deallocated the
    /// frame (and, on `Rv`, restored a saved `ra`) already.
    Ret,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Label(l) => write!(f, ".L{l}:"),
            Instr::Mov(r, o) => write!(f, "\tmov {r}, {o}"),
            Instr::LeaGlobal(r, g, off) => write!(f, "\tlea {r}, [g{g}+{off}]"),
            Instr::Alu(op, r, o) => write!(f, "\t{} {r}, {o}", alu_name(*op)),
            Instr::Un(op, r) => write!(f, "\t{op}{r}"),
            Instr::Load(r, b, d) => write!(f, "\tmov {r}, [{b}{d:+}]"),
            Instr::Store(b, d, s) => write!(f, "\tmov [{b}{d:+}], {s}"),
            Instr::Cmp(r, o) => write!(f, "\tcmp {r}, {o}"),
            Instr::Jcc(op, l) => write!(f, "\tj{} .L{l}", cc_name(*op)),
            Instr::Jmp(l) => write!(f, "\tjmp .L{l}"),
            Instr::Call(i) => write!(f, "\tcall fn{i}"),
            Instr::CallExt(i) => write!(f, "\tcall ext{i}"),
            Instr::Ret => write!(f, "\tret"),
        }
    }
}

fn alu_name(op: Binop) -> &'static str {
    use Binop::*;
    match op {
        Add => "add",
        Sub => "sub",
        Mul => "imul",
        Divu => "div",
        Modu => "modu",
        Divs => "idiv",
        Mods => "mods",
        And => "and",
        Or => "or",
        Xor => "xor",
        Shl => "shl",
        Shru => "shr",
        Shrs => "sar",
        _ => "setcc",
    }
}

fn cc_name(op: Binop) -> &'static str {
    use Binop::*;
    match op {
        Eq => "e",
        Ne => "ne",
        Ltu => "b",
        Leu => "be",
        Gtu => "a",
        Geu => "ae",
        Lts => "l",
        Les => "le",
        Gts => "g",
        Ges => "ge",
        _ => "??",
    }
}

/// A compiled `ASMsz` function: its name, declared frame size `SF(f)` in
/// bytes (prologue/epilogue must match it), and code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsmFunction {
    /// Function name (for events and diagnostics).
    pub name: String,
    /// Frame size `SF(f)` in bytes (not counting the 4-byte call push).
    pub frame_size: u32,
    /// Instruction sequence.
    pub code: Vec<Instr>,
}

impl AsmFunction {
    /// Creates a function record.
    pub fn new(name: impl Into<String>, frame_size: u32, code: Vec<Instr>) -> AsmFunction {
        AsmFunction {
            name: name.into(),
            frame_size,
            code,
        }
    }
}

/// An external function stub: name and arity. Results are computed with
/// the same deterministic hash used by every other interpreter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsmExternal {
    /// Function name.
    pub name: String,
    /// Number of word-sized arguments read from the outgoing area.
    pub arity: usize,
}

/// A complete `ASMsz` program.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsmProgram {
    /// Global variables: name, size in bytes, initial words (rest zero).
    pub globals: Vec<(String, u32, Vec<u32>)>,
    /// External function stubs.
    pub externals: Vec<AsmExternal>,
    /// Function bodies; `Call(i)` indexes into this list.
    pub functions: Vec<AsmFunction>,
    /// The machine flavor the code was compiled for; the [`Machine`]'s
    /// call/return semantics and startup sequence derive from it. Part of
    /// the `Hash` derivation, so content-addressed caches keyed on the
    /// program never alias programs across targets.
    pub target: Target,
}

impl AsmProgram {
    /// Finds a function index by name.
    pub fn function_index(&self, name: &str) -> Option<u32> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// The metric `M(f)` of Theorem 1, mapping each function to the stack
    /// bytes one activation may consume: the frame plus the target's call
    /// allowance — `SF(f) + 4` on [`Target::Sz32`], `SF(f)` on
    /// [`Target::Rv`].
    pub fn metric(&self) -> trace::Metric {
        self.functions
            .iter()
            .map(|f| (f.name.clone(), self.target.metric_of(f.frame_size)))
            .collect()
    }

    /// Renders the program as assembly text.
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, size, _) in &self.globals {
            let _ = writeln!(out, "\t.comm {name}, {size}");
        }
        for f in &self.functions {
            let _ = writeln!(out, "{}: # frame {} bytes", f.name, f.frame_size);
            for i in &f.code {
                let _ = writeln!(out, "{i}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests;
