//! Differential multi-target verification: the full corpus (Table 1,
//! Table 2, extras) is certified and measured on *both* backend targets —
//! the paper's 32-bit pushed-return-address machine (`sz32`) and the
//! 8-byte-word link-register machine (`rv`). For each target the measured
//! peak must stay within that target's own certified bound; the two
//! bounds must genuinely differ (a leaked x86 assumption would make them
//! agree, or overflow the rv machine); and the parallel backend must stay
//! byte-identical to the serial one per target.

use stackbound::{asm, benchsuite, clight, compiler, qhl, Verifier};

const FUEL: u64 = 200_000_000;

/// Every Table 1 + extras benchmark, the whole measured corpus.
fn corpus() -> Vec<benchsuite::Benchmark> {
    let mut v = benchsuite::table1_benchmarks();
    v.extend(benchsuite::extra_benchmarks());
    v
}

#[test]
fn corpus_verifies_within_bound_on_both_targets() {
    for b in corpus() {
        let mut bounds = Vec::new();
        for target in asm::Target::ALL {
            // The measurement stage runs `main` on a stack of *exactly*
            // the certified bound, so an unsound bound overflows here.
            let report = Verifier::new()
                .fuel(FUEL)
                .target(target)
                .measure_all_functions(true)
                .verify(b.source)
                .unwrap_or_else(|e| panic!("{} [{target}]: {e}", b.file));
            assert_eq!(report.target(), target, "{}", b.file);
            for (name, usage) in report.measured_usages() {
                let bound = report.bound(name).unwrap();
                assert!(
                    usage <= bound,
                    "{} [{target}]: {name} peaked at {usage} above bound {bound}",
                    b.file
                );
            }
            bounds.push(report.bound("main").unwrap());
        }
        // The targets' frame layouts differ (word size, return-address
        // slot), so identical main bounds would mean the metric ignored
        // the target.
        assert_ne!(
            bounds[0], bounds[1],
            "{}: sz32 and rv certified identical bounds",
            b.file
        );
    }
}

#[test]
fn recursive_cases_verify_within_bound_on_both_targets() {
    let mut some_bound_differs = false;
    for case in benchsuite::recursive_cases() {
        let program = clight::frontend(case.source, &[])
            .unwrap_or_else(|e| panic!("{}: front end: {e}", case.file));
        // The hand-written derivations are metric-parametric — checking
        // them is target-independent, so check once.
        case.check(&program)
            .unwrap_or_else(|e| panic!("{}: derivation: {e}", case.file));

        let spec = case.spec();
        let f = program.function(case.name).expect("function exists");
        let x = case.sweep.0.max(6);
        let args = (case.args_for)(x);
        let margs: Vec<u32> = args.iter().map(|a| *a as u32).collect();

        let mut bounds = Vec::new();
        for target in asm::Target::ALL {
            let compiled = compiler::compile_with(&program, compiler::Options::for_target(target))
                .unwrap_or_else(|e| panic!("{} [{target}]: {e}", case.file));
            // Instantiate the symbolic bound with this target's metric
            // (the Figure 7 evaluation pattern).
            let env = qhl::Valuation::of_vars(
                f.params
                    .iter()
                    .map(|p| p.name.clone())
                    .zip(args.iter().copied()),
            );
            let bound = spec
                .pre
                .eval(&compiled.metric, &env)
                .expect("bound evaluates")
                .finite()
                .expect("finite bound")
                + f64::from(compiled.metric.call_cost(case.name));
            let m = asm::measure_function(&compiled.asm, case.name, &margs, 1 << 22, FUEL)
                .unwrap_or_else(|e| panic!("{} [{target}]: machine: {e}", case.file));
            assert!(
                m.behavior.converges(),
                "{} [{target}]: {}",
                case.file,
                m.behavior
            );
            assert!(
                f64::from(m.stack_usage) <= bound,
                "{} [{target}]: peaked at {} above bound {bound}",
                case.file,
                m.stack_usage
            );
            bounds.push(bound);
        }
        // Recursion multiplies the per-frame difference by the depth, so
        // at least the deep cases must certify different totals.
        if bounds[0] != bounds[1] {
            some_bound_differs = true;
        }
    }
    assert!(
        some_bound_differs,
        "no recursion-heavy program certified different bounds on sz32 vs rv"
    );
}

#[test]
fn parallel_backend_is_byte_identical_per_target() {
    for b in corpus() {
        let program = b.program().unwrap();
        for target in asm::Target::ALL {
            let options = compiler::Options::for_target(target);
            let serial = compiler::Pipeline::new(compiler::PipelineConfig::with_options(options))
                .run(&program)
                .unwrap_or_else(|e| panic!("{} [{target}]: {e}", b.file));
            let parallel = compiler::Pipeline::new(compiler::PipelineConfig {
                parallel: true,
                ..compiler::PipelineConfig::with_options(options)
            })
            .run(&program)
            .unwrap_or_else(|e| panic!("{} [{target}]: {e}", b.file));
            assert_eq!(
                serial.asm, parallel.asm,
                "{} [{target}]: serial and parallel asm differ",
                b.file
            );
            assert_eq!(
                serial.mach, parallel.mach,
                "{} [{target}]: serial and parallel mach differ",
                b.file
            );
        }
    }
}

#[test]
fn rv_cores_agree_on_the_corpus() {
    // The decoded core's rv opcodes (`CallRv`/`RetRv`) against the
    // reference interpreter, on every compiled benchmark.
    for b in corpus() {
        let program = b.program().unwrap();
        let compiled =
            compiler::compile_with(&program, compiler::Options::for_target(asm::Target::Rv))
                .unwrap_or_else(|e| panic!("{}: {e}", b.file));
        let dec = asm::measure_main(&compiled.asm, 1 << 20, FUEL).unwrap();
        let re = asm::measure_main_reference(&compiled.asm, 1 << 20, FUEL).unwrap();
        assert_eq!(dec, re, "{}: rv cores disagree", b.file);
    }
}

#[test]
fn slack_is_four_on_sz32_and_zero_on_rv() {
    // Theorem 1's shape, per target: the sz32 bound pays one unused
    // return-address allowance at the deepest activation; the rv machine
    // never pushes one, so its bound is exact.
    let src = "u32 square(u32 x) { return x * x; }
               u32 poly(u32 x) { u32 a; u32 b; a = square(x); b = square(x + 1); return a + b; }
               int main() { u32 r; r = poly(6); return r % 256; }";
    for (target, slack) in [(asm::Target::Sz32, 4), (asm::Target::Rv, 0)] {
        let report = Verifier::new()
            .fuel(FUEL)
            .target(target)
            .check_derivations(false)
            .verify(src)
            .unwrap();
        let bound = report.bound("main").unwrap();
        let measured = report.measured("main").unwrap();
        assert_eq!(bound - measured, slack, "[{target}]");
    }
}
