//! Pass-manager integration tests: the parallel per-function backend is
//! byte-identical to the serial one on the whole benchmark suite, the
//! per-pass refinement checkpoints hold on Table 1 and on randomized
//! programs, and the [`Verifier`] skips exactly what it is told to.

use compiler::{Options, Pipeline, PipelineConfig};
use proptest::prelude::*;
use stackbound::Verifier;

/// Every program the repository ships: Table 1 plus the extras.
fn all_benchmarks() -> Vec<benchsuite::Benchmark> {
    let mut v = benchsuite::table1_benchmarks();
    v.extend(benchsuite::extra_benchmarks());
    v
}

#[test]
fn parallel_backend_is_byte_identical_on_every_benchmark() {
    let serial = Pipeline::new(PipelineConfig::default());
    let parallel = Pipeline::new(PipelineConfig {
        parallel: true,
        workers: 4,
        ..PipelineConfig::default()
    });
    for b in all_benchmarks() {
        let program = b.program().unwrap_or_else(|e| panic!("{}: {e}", b.file));
        let s = serial
            .run(&program)
            .unwrap_or_else(|e| panic!("{}: {e}", b.file));
        let p = parallel
            .run(&program)
            .unwrap_or_else(|e| panic!("{}: {e}", b.file));
        assert_eq!(
            s.asm.listing(),
            p.asm.listing(),
            "{}: parallel backend diverged from serial",
            b.file
        );
        assert_eq!(
            s.metric, p.metric,
            "{}: parallel backend changed the cost metric",
            b.file
        );
    }
}

#[test]
fn parallel_backend_is_byte_identical_with_inlining() {
    let options = Options {
        inline: true,
        ..Options::default()
    };
    let serial = Pipeline::new(PipelineConfig::with_options(options));
    let parallel = Pipeline::new(PipelineConfig {
        parallel: true,
        workers: 3,
        ..PipelineConfig::with_options(options)
    });
    for b in benchsuite::table1_benchmarks() {
        let program = b.program().unwrap();
        let s = serial.run(&program).unwrap();
        let p = parallel.run(&program).unwrap();
        assert_eq!(s.asm.listing(), p.asm.listing(), "{}", b.file);
    }
}

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
    /// programs, with the parallel backend enabled for good measure.
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
            parallel: true,
            workers: 2,
            ..PipelineConfig::default()
        });
        pipeline.run(&program).unwrap();
    }
}
