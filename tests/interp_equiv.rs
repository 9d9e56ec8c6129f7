//! Differential tests pinning the pre-decoded `ASMsz` execution core to
//! the reference one-instruction-at-a-time core: identical
//! [`asm::Measurement`]s (behavior, steps, peak stack, waterline profile)
//! and identical per-class retired-instruction counts, on the paper's
//! suites, on randomized programs, and across arbitrary fuel schedules
//! (the hard case for instruction fusion: a run can stop *between* the
//! members of a fused pair/triple/quad and must resume on the standalone
//! suffix kept in the next slots).

use proptest::prelude::*;
use trace::Behavior;

const FUEL: u64 = 100_000_000;

/// Runs `main` to completion on both cores and asserts every observable
/// agrees: the full [`asm::Measurement`] and the op-class counters.
fn assert_cores_agree(program: &asm::AsmProgram, what: &str) {
    let dec = asm::measure_main(program, 1 << 20, FUEL).unwrap();
    let re = asm::measure_main_reference(program, 1 << 20, FUEL).unwrap();
    assert_eq!(dec, re, "{what}: cores disagree");

    let mut m_dec = asm::Machine::for_function(program, "main", &[], 1 << 20).unwrap();
    let mut m_ref = asm::Machine::for_function(program, "main", &[], 1 << 20).unwrap();
    m_dec.run(FUEL);
    m_ref.run_reference(FUEL);
    assert_eq!(
        m_dec.op_counts(),
        m_ref.op_counts(),
        "{what}: op-class counts disagree"
    );
}

/// Runs the decoded core under an incremental fuel schedule (`chunk`
/// steps granted at a time) against the reference core under the same
/// schedule, comparing pc and step count after every grant, then the
/// final measurement. Small chunks land resumptions in the middle of
/// fused sequences.
fn assert_fuel_schedule_agrees(program: &asm::AsmProgram, chunk: u64, what: &str) {
    let mut m_dec = asm::Machine::for_function(program, "main", &[], 1 << 20).unwrap();
    let mut m_ref = asm::Machine::for_function(program, "main", &[], 1 << 20).unwrap();
    let mut fuel = 0;
    let (b_dec, b_ref) = loop {
        fuel += chunk;
        let b_dec = m_dec.run(fuel);
        let b_ref = m_ref.run_reference(fuel);
        assert_eq!(
            m_dec.pc(),
            m_ref.pc(),
            "{what}: chunk {chunk}: pc diverged at fuel {fuel}"
        );
        assert_eq!(
            m_dec.steps(),
            m_ref.steps(),
            "{what}: chunk {chunk}: steps diverged at fuel {fuel}"
        );
        assert_eq!(
            m_dec.op_counts(),
            m_ref.op_counts(),
            "{what}: chunk {chunk}: op counts diverged at fuel {fuel}"
        );
        if !matches!(b_dec, Behavior::Diverges(_)) || fuel > FUEL {
            break (b_dec, b_ref);
        }
    };
    assert_eq!(b_dec, b_ref, "{what}: chunk {chunk}: behaviors diverged");
    assert_eq!(m_dec.stack_usage(), m_ref.stack_usage(), "{what}: {chunk}");
}

fn table2_driver_source(case: &benchsuite::RecursiveCase) -> String {
    let n = case.sweep.0.max(4);
    let args: Vec<String> = (case.args_for)(n).iter().map(|a| a.to_string()).collect();
    let (ret, use_r) = if case.name == "qsort" {
        ("", "0")
    } else {
        ("u32 r; r = ", "r & 0xff")
    };
    let main = format!(
        "int main() {{ {ret}{}({}); return {use_r}; }}",
        case.name,
        args.join(", ")
    );
    format!("{}\n{}", case.source, main)
}

#[test]
fn decoded_core_matches_reference_on_table1() {
    for b in benchsuite::table1_benchmarks() {
        let p = b.program().unwrap();
        let compiled = compiler::compile(&p).unwrap();
        assert_cores_agree(&compiled.asm, b.file);
    }
}

#[test]
fn decoded_core_matches_reference_on_table2_drivers() {
    for case in benchsuite::recursive_cases() {
        let src = table2_driver_source(&case);
        let p = clight::frontend(&src, &[]).unwrap_or_else(|e| panic!("{}: {e}", case.file));
        let compiled = compiler::compile(&p).unwrap();
        assert_cores_agree(&compiled.asm, case.file);
    }
}

#[test]
fn fuel_schedules_agree_on_table1() {
    // Chunks of 1 and 2 stop inside every fused pair/triple/quad; the
    // larger coprime chunks walk the stop point across whole sequences.
    for b in benchsuite::table1_benchmarks().iter().take(3) {
        let p = b.program().unwrap();
        let compiled = compiler::compile(&p).unwrap();
        for chunk in [1, 2, 3, 7, 1009] {
            assert_fuel_schedule_agrees(&compiled.asm, chunk, b.file);
        }
    }
}

#[test]
fn measure_cache_returns_identical_measurements() {
    let b = &benchsuite::table1_benchmarks()[0];
    let p = b.program().unwrap();
    let compiled = compiler::compile(&p).unwrap();
    let direct = asm::measure_main(&compiled.asm, 1 << 20, FUEL).unwrap();
    let cache = asm::MeasureCache::new();
    let first = cache.measure_main(&compiled.asm, 1 << 20, FUEL).unwrap();
    let second = cache.measure_main(&compiled.asm, 1 << 20, FUEL).unwrap();
    assert_eq!(first, direct);
    assert_eq!(second, direct);
    assert_eq!(cache.stats(), (1, 1), "(hits, misses)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized programs through the whole compiler, then both cores
    /// to completion and under small-chunk fuel schedules.
    #[test]
    fn prop_cores_agree_on_random_programs(
        stmts in proptest::collection::vec(
            prop_oneof![
                (0u32..3, 0u32..50).prop_map(|(v, k)| format!("x{v} = x{v} * 3 + {k};")),
                (0u32..3, 0u32..50).prop_map(|(v, k)| format!("x{v} = x{v} / {};", k + 1)),
                (0u32..3, 0u32..3).prop_map(|(a, b)| {
                    format!("if (x{a} % 5 < x{b} % 7) {{ x{a} = helper(x{b}); }}")
                }),
                (0u32..3, 1u32..5).prop_map(|(v, k)| {
                    format!("for (i = 0; i < {k}; i++) {{ x{v} = helper(x{v}); }}")
                }),
                (0u32..3).prop_map(|v| format!("g[x{v} % 8] = x{v};")),
                (0u32..3, 0u32..3).prop_map(|(a, b)| format!("x{a} = x{a} >> (x{b} % 9);")),
            ],
            1..7,
        ),
        chunk in 1u64..9,
    ) {
        let src = format!(
            "u32 g[8];
             u32 helper(u32 n) {{ u32 t[2]; t[0] = n; return t[0] % 997 + 5; }}
             int main() {{ u32 x0; u32 x1; u32 x2; u32 i;
               x0 = 3; x1 = 5; x2 = 7;
               {}
               return (x0 ^ x1 ^ x2) & 0xff; }}",
            stmts.join("\n")
        );
        let p = clight::frontend(&src, &[]).unwrap();
        let compiled = compiler::compile(&p).unwrap();
        assert_cores_agree(&compiled.asm, "random");
        assert_fuel_schedule_agrees(&compiled.asm, chunk, "random");
    }
}
