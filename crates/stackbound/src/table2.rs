//! Cached verification of the Table 2 recursive cases.
//!
//! The automatic analyzer rejects recursion, so each Table 2 row carries
//! hand-written quantitative-logic derivations
//! ([`benchsuite::RecursiveCase`]). Re-checking those derivations is by
//! far the most expensive step of the corpus, and this module routes it
//! through the shared content-addressed [`vcache::VCache`]: the verdict
//! key covers the program content, the compiler options (hence the
//! backend target), and a digest of the whole proof bundle, so editing
//! either the program or any proof invalidates the verdict while
//! everything else stays warm.
//!
//! The one-shot harnesses (`obs_regress`, the `table2_cold` benchmark
//! workload) and the `sbound serve` daemon's `table2` verb all call
//! [`verify_case_cached`], so a served rendering is byte-identical to a
//! one-shot run by construction.

/// Verifies one Table 2 case for `target` through `cache`: re-checks
/// every hand-written derivation (memoized under a key covering program,
/// options, and proof bundle) and compiles the program to report the
/// concrete `M(f)` of the headline function. Returns the rendered
/// one-line report.
///
/// # Errors
///
/// Front-end, derivation-check, and compiler failures, rendered with a
/// stage prefix. Failures are never cached.
pub fn verify_case_cached(
    case: &benchsuite::RecursiveCase,
    target: asm::Target,
    cache: &vcache::VCache,
) -> Result<String, String> {
    let config = compiler::PipelineConfig::with_options(compiler::Options::for_target(target));
    let program = clight::frontend(case.source, &[]).map_err(|e| format!("front end: {e}"))?;
    let keys = vcache::keys(&program, &config.options);
    let Some(&case_key) = keys.get(case.name) else {
        return Err(format!(
            "function `{}` not defined by the case source",
            case.name
        ));
    };
    // One digest covers the whole proof bundle: each verdict depends on
    // every spec in the case's context, so editing any proof must
    // invalidate the case. The `Debug` rendering of the `Vec` is
    // deterministic (ordered fields, ordered elements), unlike hashing
    // the `Context`'s `HashMap` directly.
    let proofs = vcache::digest_str("table2-proofs-v1", &format!("{:?}", case.proofs));
    let verdict = vcache::combine("table2-check-v1", &[case_key, proofs]);
    vcache::check_cached(cache, verdict, || case.check(&program))
        .map_err(|e| format!("derivation: {e}"))?;
    let compiled =
        vcache::compile(cache, &program, &config, &keys).map_err(|e| format!("compiler: {e}"))?;
    Ok(format!(
        "{}: {} proofs checked, bound {}, M({}) = {}",
        case.file,
        case.proofs.len(),
        case.bound_display,
        case.name,
        compiled.metric.call_cost(case.name),
    ))
}

#[cfg(test)]
mod tests {
    use super::verify_case_cached;

    #[test]
    fn warm_rendering_matches_cold_and_hits_the_cache() {
        let case = benchsuite::recursive_case("fib").expect("fib is a Table 2 row");
        let cache = vcache::VCache::new();
        let cold = verify_case_cached(&case, asm::Target::Sz32, &cache).unwrap();
        assert!(cold.contains("proofs checked"), "{cold}");
        let (h0, _) = cache.stats(vcache::CacheStage::Check);
        let warm = verify_case_cached(&case, asm::Target::Sz32, &cache).unwrap();
        assert_eq!(cold, warm);
        let (h1, _) = cache.stats(vcache::CacheStage::Check);
        assert!(h1 > h0, "warm pass must resolve the verdict from cache");
    }
}
