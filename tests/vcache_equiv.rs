//! Equivalence tests pinning the content-addressed verification cache
//! ([`stackbound::vcache`]) to the uncached pipeline: a cache hit must be
//! *invisible* — byte-identical reports on the paper's suites, identical
//! compiled artifacts for the Table 2 recursive cases — and the key
//! derivation must invalidate exactly the functions a source edit can
//! reach (the mutated function and its transitive callers, nothing
//! else), on randomized programs.

use proptest::prelude::*;
use stackbound::asm::Target;
use stackbound::{benchsuite, clight, compiler, vcache, Verifier};
use std::sync::Arc;

const FUEL: u64 = 400_000_000;

/// Every non-recursive benchmark: the Table 1 suite plus the extras.
fn table_benchmarks() -> Vec<benchsuite::Benchmark> {
    benchsuite::table1_benchmarks()
        .into_iter()
        .chain(benchsuite::extra_benchmarks())
        .collect()
}

/// Verifying through a shared cache — cold (all misses) and warm (all
/// hits) — renders exactly the report the uncached [`Verifier`] renders,
/// for every program of the suite on both targets. A warm pass over the
/// whole corpus, the Table 2 proof checks included, must not add a
/// single miss to any [`vcache::CacheStage`] or to the
/// [`stackbound::asm::MeasureCache`]: unchanged inputs always hit.
#[test]
fn cached_verifier_reports_match_uncached_byte_for_byte() {
    // The Table 2 proof checks dominate, and the targets share no cache,
    // so the two run side by side.
    std::thread::scope(|scope| {
        for target in [Target::Sz32, Target::Rv] {
            scope.spawn(move || cached_corpus_matches_uncached(target));
        }
    });
}

fn cached_corpus_matches_uncached(target: Target) {
    let cache = Arc::new(vcache::VCache::new());
    let measure_cache = Arc::new(stackbound::asm::MeasureCache::new());
    let cached = Verifier::new()
        .fuel(FUEL)
        .target(target)
        .vcache(cache.clone())
        .measure_cache(measure_cache.clone());
    let corpus = || -> Vec<String> {
        let programs = table_benchmarks().into_iter().map(|b| {
            cached
                .verify(b.source)
                .unwrap_or_else(|e| panic!("{} [{target}]: {e}", b.file))
                .to_string()
        });
        let proofs = benchsuite::recursive_cases().into_iter().map(|case| {
            stackbound::table2::verify_case_cached(&case, target, &cache)
                .unwrap_or_else(|e| panic!("{} [{target}]: {e}", case.file))
        });
        programs.chain(proofs).collect()
    };
    let misses = || {
        let mut by_stage: Vec<(&str, u64)> = vcache::CacheStage::ALL
            .iter()
            .map(|&s| (s.name(), cache.stats(s).1))
            .collect();
        by_stage.push(("measure", measure_cache.stats().1));
        by_stage
    };

    let cold = corpus();
    let cold_misses = misses();
    let warm = corpus();
    assert_eq!(cold, warm, "[{target}]: warm reports diverged from cold");
    assert_eq!(
        misses(),
        cold_misses,
        "[{target}]: the warm pass missed the cache on unchanged inputs"
    );
    let plain = Verifier::new().fuel(FUEL).target(target);
    for (b, got) in table_benchmarks().iter().zip(&cold) {
        let want = plain
            .verify(b.source)
            .unwrap_or_else(|e| panic!("{} [{target}]: uncached: {e}", b.file))
            .to_string();
        assert_eq!(
            &want, got,
            "{} [{target}]: cached report diverged from uncached",
            b.file
        );
    }
}

/// The Table 2 recursive cases compile to identical artifacts through the
/// cache (cold and warm) as through the plain pipeline.
#[test]
fn recursive_cases_compile_identically_through_the_cache() {
    let config = compiler::PipelineConfig::default();
    for case in benchsuite::recursive_cases() {
        let program = clight::frontend(case.source, &[])
            .unwrap_or_else(|e| panic!("{}: front end: {e}", case.file));
        let direct = compiler::Pipeline::new(config.clone())
            .run(&program)
            .unwrap_or_else(|e| panic!("{}: pipeline: {e}", case.file));
        let cache = vcache::VCache::new();
        let keys = vcache::keys(&program, &config.options);
        let cold = vcache::compile(&cache, &program, &config, &keys)
            .unwrap_or_else(|e| panic!("{}: cold compile: {e}", case.file));
        let warm = vcache::compile(&cache, &program, &config, &keys)
            .unwrap_or_else(|e| panic!("{}: warm compile: {e}", case.file));
        // `Compiled` holds every intermediate program; the `Debug`
        // rendering pins them all at once.
        assert_eq!(
            format!("{direct:?}"),
            format!("{cold:?}"),
            "{}: cold cached compile diverged",
            case.file
        );
        assert_eq!(
            format!("{direct:?}"),
            format!("{warm:?}"),
            "{}: warm cached compile diverged",
            case.file
        );
    }
}

/// Check verdicts and bounds persisted to disk are honored by a fresh
/// cache instance: the second verifier run hits the check and bound
/// stages without redoing the work, and still renders the same report.
#[test]
fn disk_persisted_verdicts_hit_across_cache_instances() {
    let dir = std::env::temp_dir().join(format!("vcache_equiv_{}", std::process::id()));
    let b = &table_benchmarks()[0];

    let first = Arc::new(vcache::VCache::new());
    let report = Verifier::new()
        .fuel(FUEL)
        .vcache(first.clone())
        .verify(b.source)
        .unwrap()
        .to_string();
    first.save_dir(&dir).expect("save");

    let second = Arc::new(vcache::VCache::new());
    second.load_dir(&dir).expect("load");
    let replay = Verifier::new()
        .fuel(FUEL)
        .vcache(second.clone())
        .verify(b.source)
        .unwrap()
        .to_string();
    assert_eq!(report, replay, "{}: replayed report diverged", b.file);
    let (check_hits, _) = second.stats(vcache::CacheStage::Check);
    let (bound_hits, _) = second.stats(vcache::CacheStage::Bound);
    assert!(check_hits > 0, "check verdicts did not survive the disk");
    assert!(bound_hits > 0, "bounds did not survive the disk");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A three-function program: `b` calls `a`; `c` is independent of both.
fn source(ka: u32, kb: u32, kc: u32) -> String {
    format!(
        "u32 a(u32 x) {{ u32 r; r = x + {ka}; return r; }}\n\
         u32 b(u32 x) {{ u32 r; r = a(x); return r + {kb}; }}\n\
         u32 c(u32 x) {{ u32 r; r = x + {kc}; return r; }}\n"
    )
}

fn keys_of(src: &str) -> std::collections::BTreeMap<String, vcache::Key> {
    let program = clight::frontend(src, &[]).expect("front end");
    vcache::keys(&program, &compiler::Options::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mutating a single statement's constant changes the mutated
    /// function's key and its caller's key, and leaves the independent
    /// sibling's key untouched — on randomized constants.
    #[test]
    fn leaf_mutation_invalidates_exactly_the_dependents(
        ka in 0u32..100_000,
        kb in 0u32..100_000,
        kc in 0u32..100_000,
        delta in 1u32..100_000,
    ) {
        let before = keys_of(&source(ka, kb, kc));
        let after = keys_of(&source(ka + delta, kb, kc));
        prop_assert!(before["a"] != after["a"], "mutated leaf kept its key");
        prop_assert!(before["b"] != after["b"], "caller of mutated leaf kept its key");
        prop_assert_eq!(before["c"], after["c"], "independent sibling key changed");
    }

    /// The dual: mutating the independent sibling leaves the `a`/`b`
    /// component untouched.
    #[test]
    fn sibling_mutation_leaves_the_other_component_alone(
        ka in 0u32..100_000,
        kb in 0u32..100_000,
        kc in 0u32..100_000,
        delta in 1u32..100_000,
    ) {
        let before = keys_of(&source(ka, kb, kc));
        let after = keys_of(&source(ka, kb, kc + delta));
        prop_assert_eq!(before["a"], after["a"]);
        prop_assert_eq!(before["b"], after["b"]);
        prop_assert!(before["c"] != after["c"], "mutated sibling kept its key");
    }
}

/// One shared cache under concurrent verifiers: several threads verify
/// overlapping mutated programs through the same `VCache`/`MeasureCache`
/// and every report is byte-identical to a serial uncached run — and the
/// four stage mutexes never deadlock against each other.
#[test]
fn concurrent_shared_cache_reports_match_serial() {
    const THREADS: usize = 4;
    let variants: Vec<String> = (0..6u32)
        .map(|k| source(k * 7 + 1, k + 2, k * 3 + 5))
        .collect();
    let expected: Vec<String> = variants
        .iter()
        .map(|s| {
            Verifier::new()
                .fuel(FUEL)
                .verify(s)
                .expect("serial verify")
                .to_string()
        })
        .collect();

    let cache = Arc::new(vcache::VCache::new());
    let measures = Arc::new(stackbound::asm::MeasureCache::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (variants, expected) = (&variants, &expected);
            let (cache, measures) = (cache.clone(), measures.clone());
            scope.spawn(move || {
                // Each thread walks the variants at a different phase, so
                // the same keys are raced from different stages at once.
                for i in 0..variants.len() * 2 {
                    let i = (i + t) % variants.len();
                    let got = Verifier::new()
                        .fuel(FUEL)
                        .vcache(cache.clone())
                        .measure_cache(measures.clone())
                        .verify(&variants[i])
                        .expect("cached verify")
                        .to_string();
                    assert_eq!(got, expected[i], "thread {t}: variant {i} diverged");
                }
            });
        }
    });
}

/// Editing one function reuses the untouched sibling's compiled artifact
/// from the cache: after compiling the original, compiling the mutated
/// program through the same cache hits exactly once (for `c`) and
/// recompiles `a` and `b`.
#[test]
fn editing_one_function_reuses_nondependent_artifacts() {
    let config = compiler::PipelineConfig::default();
    let cache = vcache::VCache::new();

    let p1 = clight::frontend(&source(1, 2, 3), &[]).unwrap();
    let k1 = vcache::keys(&p1, &config.options);
    vcache::compile(&cache, &p1, &config, &k1).unwrap();
    let (hits0, misses0) = cache.stats(vcache::CacheStage::Compile);
    assert_eq!(
        (hits0, misses0),
        (0, 3),
        "cold compile should miss all three"
    );

    let p2 = clight::frontend(&source(7, 2, 3), &[]).unwrap();
    let k2 = vcache::keys(&p2, &config.options);
    let cached = vcache::compile(&cache, &p2, &config, &k2).unwrap();
    let (hits, misses) = cache.stats(vcache::CacheStage::Compile);
    assert_eq!(hits - hits0, 1, "only `c` should be reused");
    assert_eq!(misses - misses0, 2, "`a` and `b` must recompile");

    let direct = compiler::Pipeline::new(config.clone()).run(&p2).unwrap();
    assert_eq!(format!("{direct:?}"), format!("{cached:?}"));
}
