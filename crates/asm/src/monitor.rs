//! The stack-measurement harness: our analogue of the paper's ptrace tool
//! (§6), which "forks the monitored process as a child then executes it
//! step by step while keeping track of its stack consumption".
//!
//! Here the machine *is* the child: [`measure_function`] single-steps an
//! `ASMsz` execution of one function and reports the peak stack
//! consumption together with the result. The experiments of Figure 7 sweep
//! this over input sizes and compare against verified bounds.

use crate::profile::StackProfile;
use crate::{AsmProgram, Machine, MachineError};
use trace::Behavior;

/// Result of a monitored execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// Peak stack consumption in bytes (low-water mark of `ESP` relative to
    /// its value at entry of the measured function).
    pub stack_usage: u32,
    /// The behavior of the run.
    pub behavior: Behavior,
    /// Instructions executed.
    pub steps: u64,
    /// The structured machine error, when the run went wrong.
    pub error: Option<MachineError>,
    /// The stack waterline over the run. Never empty, and its
    /// [`peak`](StackProfile::peak) always equals `stack_usage`.
    pub profile: StackProfile,
}

impl Measurement {
    /// The return value, when the run converged.
    pub fn result(&self) -> Option<u32> {
        self.behavior.return_code()
    }

    /// True when the run failed specifically with a stack overflow.
    pub fn overflowed(&self) -> bool {
        matches!(self.error, Some(MachineError::StackOverflow { .. }))
    }
}

/// Runs `fname(args)` under the monitor with a stack of `sz + 4` bytes.
///
/// # Errors
///
/// Fails when the function does not exist or the arguments do not fit on
/// the stack; runtime failures (including stack overflow) are reported in
/// the returned [`Measurement`], not as an error.
///
/// # Examples
///
/// ```
/// use asm::{AsmFunction, AsmProgram, Instr, Operand, Reg};
/// use mem::Binop;
///
/// // leaf(x) = x + 1 with an 8-byte frame.
/// let leaf = AsmFunction::new("leaf", 8, vec![
///     Instr::Alu(Binop::Sub, Reg::Esp, Operand::Imm(8)),
///     Instr::Load(Reg::Eax, Reg::Esp, 12),   // argument 0 at [esp + SF + 4]
///     Instr::Alu(Binop::Add, Reg::Eax, Operand::Imm(1)),
///     Instr::Alu(Binop::Add, Reg::Esp, Operand::Imm(8)),
///     Instr::Ret,
/// ]);
/// let prog = AsmProgram {
///     target: asm::Target::Sz32, globals: vec![], externals: vec![], functions: vec![leaf],
/// };
/// let m = asm::measure_function(&prog, "leaf", &[41], 64, 1000).unwrap();
/// assert_eq!(m.result(), Some(42));
/// assert_eq!(m.stack_usage, 8); // SF(leaf); the verified bound is SF + 4 = 12
/// ```
pub fn measure_function(
    program: &AsmProgram,
    fname: &str,
    args: &[u32],
    sz: u32,
    fuel: u64,
) -> Result<Measurement, MachineError> {
    let mut machine = Machine::for_function(program, fname, args, sz)?;
    machine.enable_profiling();
    let behavior = machine.run(fuel);
    Ok(Measurement {
        stack_usage: machine.stack_usage(),
        steps: machine.steps(),
        error: machine.last_error().cloned(),
        profile: machine.take_profile().unwrap_or_default(),
        behavior,
    })
}

/// Runs `main()` under the monitor with a stack of `sz + 4` bytes.
///
/// # Errors
///
/// Fails when the program has no `main`.
pub fn measure_main(program: &AsmProgram, sz: u32, fuel: u64) -> Result<Measurement, MachineError> {
    measure_function(program, "main", &[], sz, fuel)
}

/// [`measure_function`] on the reference one-instruction-at-a-time core
/// ([`Machine::run_reference`]) instead of the pre-decoded fast core.
///
/// Exists for differential testing; the returned [`Measurement`] is
/// identical to [`measure_function`]'s by construction (and
/// `tests/interp_equiv.rs` holds us to it).
///
/// # Errors
///
/// Exactly those of [`measure_function`].
pub fn measure_function_reference(
    program: &AsmProgram,
    fname: &str,
    args: &[u32],
    sz: u32,
    fuel: u64,
) -> Result<Measurement, MachineError> {
    let mut machine = Machine::for_function(program, fname, args, sz)?;
    machine.enable_profiling();
    let behavior = machine.run_reference(fuel);
    Ok(Measurement {
        stack_usage: machine.stack_usage(),
        steps: machine.steps(),
        error: machine.last_error().cloned(),
        profile: machine.take_profile().unwrap_or_default(),
        behavior,
    })
}

/// [`measure_main`] on the reference core (see
/// [`measure_function_reference`]).
///
/// # Errors
///
/// Fails when the program has no `main`.
pub fn measure_main_reference(
    program: &AsmProgram,
    sz: u32,
    fuel: u64,
) -> Result<Measurement, MachineError> {
    measure_function_reference(program, "main", &[], sz, fuel)
}
