//! Pass-manager integration tests: the per-pass refinement checkpoints
//! hold on Table 1 and on randomized programs, and the [`Verifier`]
//! skips exactly what it is told to.

use compiler::{Pipeline, PipelineConfig};
use proptest::prelude::*;
use stackbound::Verifier;

#[test]
fn refinement_checkpoints_hold_on_table1() {
    let pipeline = Pipeline::new(PipelineConfig {
        check_refinement: true,
        ..PipelineConfig::default()
    });
    for b in benchsuite::table1_benchmarks() {
        let program = b.program().unwrap();
        pipeline
            .run(&program)
            .unwrap_or_else(|e| panic!("{}: {e}", b.file));
    }
}

#[test]
fn verifier_skip_measure_leaves_no_measurement() {
    let report = Verifier::new()
        .measure(false)
        .verify("int main() { u32 x[4]; x[0] = 1; return x[0]; }")
        .unwrap();
    assert!(report.measurement.is_none());
    assert_eq!(report.measured("main"), None);
    assert!(report.bound("main").is_some());
}

#[test]
fn verifier_matches_verify_program_defaults() {
    let src = "u32 f(u32 n) { u32 a[3]; a[0] = n; return a[0] + 1; }
               int main() { u32 r; r = f(4); return r & 0xff; }";
    let a = stackbound::verify_program(src).unwrap();
    let b = Verifier::new().verify(src).unwrap();
    assert_eq!(a.bound("main"), b.bound("main"));
    assert_eq!(a.measured("main"), b.measured("main"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized counterpart of `refinement_checkpoints_hold_on_table1`:
    /// every per-pass checkpoint (concrete quantitative refinement between
    /// consecutive IRs) holds on arbitrary straight-line/branching/looping
    /// programs.
    #[test]
    fn prop_refinement_checkpoints_on_random_programs(
        stmts in proptest::collection::vec(
            prop_oneof![
                (0u32..3, 0u32..50).prop_map(|(v, k)| format!("x{v} = x{v} * 7 + {k};")),
                (0u32..3, 0u32..3).prop_map(|(a, b)| {
                    format!("if (x{a} % 3 < x{b} % 5) {{ x{a} = helper(x{b}); }}")
                }),
                (0u32..3, 1u32..4).prop_map(|(v, k)| {
                    format!("for (i = 0; i < {k}; i++) {{ x{v} = helper(x{v}); }}")
                }),
                (0u32..3).prop_map(|v| format!("g[x{v} % 8] = x{v};")),
            ],
            1..6,
        ),
    ) {
        let src = format!(
            "u32 g[8];
             u32 helper(u32 n) {{ u32 t[2]; t[0] = n; return t[0] % 991 + 3; }}
             int main() {{ u32 x0; u32 x1; u32 x2; u32 i;
               x0 = 2; x1 = 9; x2 = 11;
               {}
               return (x0 ^ x1 ^ x2) & 0xff; }}",
            stmts.join("\n")
        );
        let program = clight::frontend(&src, &[]).unwrap();
        let pipeline = Pipeline::new(PipelineConfig {
            check_refinement: true,
            ..PipelineConfig::default()
        });
        pipeline.run(&program).unwrap();
    }
}
