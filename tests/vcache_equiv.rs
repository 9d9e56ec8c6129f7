//! Equivalence tests pinning the content-addressed verification cache
//! ([`stackbound::vcache`]) to the cache-free layer functions: a cache hit
//! must be *invisible* — the same bounds, measurements and code on the
//! paper's suites, identical compiled artifacts for every corpus program
//! and where a spliced function feeds decisions about a fresh one — and
//! the key derivation must invalidate exactly the functions a source edit
//! can reach (the mutated function and its transitive callers, nothing
//! else), on randomized programs.

use proptest::prelude::*;
use stackbound::asm::Target;
use stackbound::compiler::rtl::RtlInstr;
use stackbound::{analyzer, asm, benchsuite, clight, compiler, vcache, Report, Verifier};
use std::collections::BTreeMap;
use std::sync::Arc;

const FUEL: u64 = 400_000_000;

/// Every non-recursive benchmark: the Table 1 suite plus the extras.
fn table_benchmarks() -> Vec<benchsuite::Benchmark> {
    benchsuite::table1_benchmarks()
        .into_iter()
        .chain(benchsuite::extra_benchmarks())
        .collect()
}

/// What a verification finds: the bounds, `main`'s measured peak and the
/// code listing.
type Findings = (BTreeMap<String, u32>, Option<u32>, String);

fn findings(report: &Report) -> Findings {
    let bounds = report.bounds().map(|(f, b)| (f.to_owned(), b)).collect();
    (
        bounds,
        report.measured("main"),
        report.compiled.asm.listing(),
    )
}

/// The [`Findings`] of the layer functions alone, with no cache anywhere:
/// the [`Verifier`] caches even when its caller brings none, so it cannot
/// be its own oracle.
fn reference(src: &str, target: Target) -> Findings {
    let program = clight::frontend(src, &[]).expect("front end");
    let analysis = analyzer::analyze(&program).expect("analyzer");
    analysis.check(&program).expect("derivation check");
    let config = compiler::PipelineConfig::with_options(compiler::Options::for_target(target));
    let compiled = compiler::Pipeline::new(config).run(&program).unwrap();
    let bounds: BTreeMap<String, u32> = program
        .function_names()
        .filter_map(|f| {
            Some((
                f.to_owned(),
                analysis.concrete_bound(f, &compiled.metric)? as u32,
            ))
        })
        .collect();
    let measured = bounds.get("main").and_then(|&b| {
        let m = asm::measure_function(&compiled.asm, "main", &[], b, FUEL).expect("machine");
        (m.error.is_none() && m.behavior.converges()).then_some(m.stack_usage)
    });
    (bounds, measured, compiled.asm.listing())
}

/// Verifying through a shared cache — cold (all misses) and warm (all
/// hits) — finds what the cache-free [`reference`] finds, and renders the
/// same report cold and warm, for every program of the suite on both
/// targets. A warm pass over the whole corpus, the Table 2 proof checks
/// included, must not add a single miss to any [`vcache::CacheStage`] or
/// to the [`stackbound::asm::MeasureCache`]: unchanged inputs always hit.
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
    let references: Vec<Findings> = table_benchmarks()
        .iter()
        .map(|b| reference(b.source, target))
        .collect();
    let corpus = || -> Vec<String> {
        let programs = table_benchmarks()
            .into_iter()
            .zip(&references)
            .map(|(b, want)| {
                let report = cached
                    .verify(b.source)
                    .unwrap_or_else(|e| panic!("{} [{target}]: {e}", b.file));
                assert_eq!(want, &findings(&report), "{} [{target}]", b.file);
                report.to_string()
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
}

/// Every corpus program — Table 1, the extras and the Table 2 recursive
/// cases — compiles to identical artifacts through the cache, cold and
/// with every function spliced, as through the plain pipeline, on both
/// targets.
#[test]
fn recursive_cases_compile_identically_through_the_cache() {
    let cases = benchsuite::recursive_cases()
        .into_iter()
        .map(|c| (c.file, c.source));
    let corpus = table_benchmarks().into_iter().map(|b| (b.file, b.source));
    for ((file, source), target) in corpus
        .chain(cases)
        .flat_map(|p| [(p, Target::Sz32), (p, Target::Rv)])
    {
        let program = clight::frontend(source, &[]).unwrap();
        let config = compiler::PipelineConfig::with_options(compiler::Options::for_target(target));
        // `Compiled` holds every intermediate program; the `Debug`
        // rendering pins them all at once.
        let direct = format!(
            "{:?}",
            compiler::Pipeline::new(config.clone()).run(&program)
        );
        let cache = vcache::VCache::new();
        let keys = vcache::keys(&program, &config.options);
        for pass in ["cold", "spliced"] {
            let cached = vcache::compile(&cache, &program, &config, &keys);
            assert_eq!(direct, format!("{cached:?}"), "{file} [{target}] {pass}");
        }
    }
}

/// Refinement checkpoints run inside the pass manager on cached
/// programs too: a checkpointed verifier with a shared cache verifies
/// every Table 1 program twice on both targets — cold, then with every
/// function spliced from the cache — and both passes render exactly the
/// default verifier's report.
#[test]
fn refinement_checkpoints_hold_on_spliced_programs() {
    std::thread::scope(|scope| {
        for target in [Target::Sz32, Target::Rv] {
            scope.spawn(move || {
                let cache = Arc::new(vcache::VCache::new());
                let checked = Verifier::new()
                    .fuel(FUEL)
                    .target(target)
                    .check_refinement(true)
                    .vcache(cache.clone());
                let plain = Verifier::new().fuel(FUEL).target(target);
                for pass in ["cold", "spliced"] {
                    for b in benchsuite::table1_benchmarks() {
                        let what = format!("{} [{target}] {pass}", b.file);
                        let got = checked
                            .verify(b.source)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(
                            plain.verify(b.source).unwrap().to_string(),
                            got.to_string(),
                            "{what}"
                        );
                    }
                    let (hits, misses) = cache.stats(vcache::CacheStage::Compile);
                    assert_eq!(
                        hits,
                        if pass == "cold" { 0 } else { misses },
                        "[{target}] {pass}"
                    );
                }
            });
        }
    });
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
/// overlapping mutated programs on both targets through the same
/// `VCache`/`MeasureCache`, and every report finds what the cache-free
/// [`reference`] finds — and the four stage mutexes never deadlock
/// against each other.
#[test]
fn concurrent_shared_cache_reports_match_serial() {
    const THREADS: usize = 4;
    let variants: Vec<(String, Target)> = (0..6u32)
        .flat_map(|k| {
            let src = format!(
                "{}int main() {{ u32 r; r = b({k}); return r % 256; }}\n",
                source(k * 7 + 1, k + 2, k * 3 + 5)
            );
            [(src.clone(), Target::Sz32), (src, Target::Rv)]
        })
        .collect();
    let expected: Vec<Findings> = variants
        .iter()
        .map(|(src, target)| reference(src, *target))
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
                    let (src, target) = &variants[i];
                    let report = Verifier::new()
                        .fuel(FUEL)
                        .target(*target)
                        .vcache(cache.clone())
                        .measure_cache(measures.clone())
                        .verify(src)
                        .expect("cached verify");
                    assert_eq!(findings(&report), expected[i], "thread {t}: variant {i}");
                }
            });
        }
    });
}

/// Editing one function reuses every compiled artifact the edit cannot
/// reach, and the spliced compile equals a cold one, on both targets.
/// Editing the leaf `a` recompiles `a` and its caller `b` and reuses `c`;
/// editing `b` then reuses `a` and `c`. With inlining on, that second
/// compile is where reuse meets whole-program context: the candidate
/// table reads the cached `a` to decide about the fresh `b`, which must
/// inline it.
#[test]
fn editing_one_function_reuses_nondependent_artifacts() {
    for target in [Target::Sz32, Target::Rv] {
        for inline in [false, true] {
            let options = compiler::Options {
                inline,
                ..compiler::Options::for_target(target)
            };
            let config = compiler::PipelineConfig::with_options(options);
            let cache = vcache::VCache::new();
            for (src, reused) in [
                (source(1, 2, 3), 0),
                (source(7, 2, 3), 1),
                (source(7, 9, 3), 2),
            ] {
                let program = clight::frontend(&src, &[]).unwrap();
                let (hits0, misses0) = cache.stats(vcache::CacheStage::Compile);
                let warm =
                    vcache::compile(&cache, &program, &config, &vcache::keys(&program, &options))
                        .unwrap();
                let (hits, misses) = cache.stats(vcache::CacheStage::Compile);
                let what = format!("[{target}, inline {inline}] {src}");
                assert_eq!(
                    (hits - hits0, misses - misses0),
                    (reused, 3 - reused),
                    "{what}"
                );
                let cold = compiler::Pipeline::new(config.clone()).run(&program);
                assert_eq!(format!("{cold:?}"), format!("Ok({warm:?})"), "{what}");
                let b = &warm.rtl_opt.function("b").unwrap().code;
                let calls_a = b
                    .iter()
                    .any(|i| matches!(i, RtlInstr::Call(g, ..) if g == "a"));
                assert_eq!(calls_a, !inline, "{what}: `b` calls `a`");
            }
        }
    }
}
