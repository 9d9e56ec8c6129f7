//! The fixed inputs: the Table 1 programs plus the extras, the Table 2
//! recursive cases, and the two backend targets.

use stackbound::asm::Target;
use stackbound::benchsuite::{self, RecursiveCase};

/// Both backend targets, in report order.
pub const TARGETS: [Target; 2] = [Target::Sz32, Target::Rv];

/// Machine fuel for every measured run (the repository's harnesses use
/// the same budget).
pub const FUEL: u64 = 400_000_000;

/// One automatically verified program of the corpus.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    /// File name as in the paper's Table 1 (or the extras).
    pub file: &'static str,
    /// The C source.
    pub source: &'static str,
}

/// The 9 Table 1 programs followed by the 5 extras.
pub fn programs() -> Vec<Program> {
    benchsuite::table1_benchmarks()
        .into_iter()
        .chain(benchsuite::extra_benchmarks())
        .map(|b| Program {
            file: b.file,
            source: b.source,
        })
        .collect()
}

/// The 8 Table 2 recursive cases, in the paper's order.
pub fn cases() -> Vec<RecursiveCase> {
    benchsuite::recursive_cases()
}
