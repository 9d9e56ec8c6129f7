//! `table2_cold`: a closed loop with one caller. Each pass creates a
//! fresh [`stackbound::vcache::VCache`] and runs
//! [`stackbound::table2::verify_case_cached`] — the function the daemon's
//! `table2` verb calls — on all 8 Table 2 cases for both targets (16
//! verdicts), in a seeded order. The check key covers the target, so the
//! `rv` verdict re-checks the proofs the `sz32` one already checked.

use crate::corpus::{self, TARGETS};
use crate::known::Known;
use crate::rng::Rng;
use crate::tracer::Tracer;
use crate::{run_passes, timed_setup, Outcome};
use stackbound::asm::Target;
use stackbound::benchsuite::RecursiveCase;
use stackbound::compiler::{Options, PipelineConfig};
use stackbound::{clight, vcache};
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 21;

struct Inputs {
    known: Known,
    cases: Vec<RecursiveCase>,
}

/// Builds the cases (their hand-written derivations) and checks the
/// known answers against them: every case source parses, defines its
/// headline function, and has a known line on each target.
fn setup() -> Result<Inputs, String> {
    let known = Known::load();
    let cases = corpus::cases();
    for c in &cases {
        let parsed = clight::frontend(c.source, &[]).map_err(|e| format!("{}: {e}", c.file))?;
        if parsed.function(c.name).is_none() {
            return Err(format!("{}: no function `{}`", c.file, c.name));
        }
        for t in TARGETS {
            if !known
                .table2
                .contains_key(&(t.name().to_owned(), c.name.to_owned()))
            {
                return Err(format!("{} [{}]: no known answer", c.name, t.name()));
            }
        }
    }
    Ok(Inputs { known, cases })
}

/// The same verdict as [`stackbound::table2::verify_case_cached`], through
/// each layer's public functions in its stage order: the front end, the
/// content keys, the memoized derivation check (the check itself timed as
/// `qhl`), and the cached compile (timed as `compiler`).
///
/// # Errors
///
/// The stage-prefixed failures `verify_case_cached` returns.
pub fn verify_case_traced(
    tr: &Tracer,
    case: &RecursiveCase,
    target: Target,
    cache: &vcache::VCache,
) -> Result<String, String> {
    let config = PipelineConfig::with_options(Options::for_target(target));
    let program = tr
        .layer("clight", || clight::frontend(case.source, &[]))
        .map_err(|e| format!("front end: {e}"))?;
    tr.count("clight.calls", 1);
    let keys = tr.sub("vcache", "vcache.keys_ms", || {
        vcache::keys(&program, &config.options)
    });
    let Some(&case_key) = keys.get(case.name) else {
        return Err(format!(
            "function `{}` not defined by the case source",
            case.name
        ));
    };
    tr.layer("vcache", || {
        let proofs = vcache::digest_str("table2-proofs-v1", &format!("{:?}", case.proofs));
        let verdict = vcache::combine("table2-check-v1", &[case_key, proofs]);
        vcache::check_cached(cache, verdict, || {
            tr.count("qhl.proofs_checked", case.proofs.len() as u64);
            tr.sub("qhl", &format!("qhl.case_ms.{}", case.name), || {
                case.check(&program)
            })
        })
    })
    .map_err(|e| format!("derivation: {e}"))?;
    let compiled = tr
        .layer("compiler", || {
            vcache::compile(cache, &program, &config, &keys)
        })
        .map_err(|e| format!("compiler: {e}"))?;
    Ok(format!(
        "{}: {} proofs checked, bound {}, M({}) = {}",
        case.file,
        case.proofs.len(),
        case.bound_display,
        case.name,
        compiled.metric.call_cost(case.name),
    ))
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, inputs) = timed_setup(SETUPS, setup);
    let inputs = match inputs {
        Ok(i) => i,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let items: Vec<(usize, Target)> = (0..inputs.cases.len())
        .flat_map(|c| TARGETS.map(|t| (c, t)))
        .collect();
    let mut rng = Rng::new(seed, 0x7ab1e2);
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut verify_ms = Vec::new();
    let mut verify_inputs = Vec::new();
    let mut pass_s = Vec::new();
    let mut pass_orders = Vec::new();
    let mut lines = Vec::new();
    let mut wall = Duration::ZERO;
    run_passes(budget, |_| {
        let mut order: Vec<usize> = (0..items.len()).collect();
        rng.shuffle(&mut order);
        let start = Instant::now();
        let cache = vcache::VCache::new();
        for &i in &order {
            let (c, t) = items[i];
            let case = &inputs.cases[c];
            let t0 = Instant::now();
            let result = stackbound::table2::verify_case_cached(case, t, &cache);
            verify_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            verify_inputs.push(i);
            out.attempted += 1;
            match result {
                Ok(line) => {
                    if let Err(e) = inputs.known.check_table2(t, case.name, &line) {
                        out.fail(e);
                    }
                    lines.push(line);
                }
                Err(e) => {
                    out.fail(format!("{} [{}]: {e}", case.name, t.name()));
                    lines.push(e);
                }
            }
        }
        let d = start.elapsed();
        wall += d;
        pass_s.push(d.as_secs_f64());
        pass_orders.push(order);
        d
    });
    if !trace {
        // The tail is taken over five passes at a time: its percentile must not
        // depend on how many passes the machine fits into the run, since the
        // 16 verdicts of a pass differ in cost by three orders of magnitude.
        out.set_closed_loop(
            "table2_cold",
            setup_s,
            &verify_ms,
            &verify_inputs,
            &pass_s,
            5 * items.len(),
        );
        return out;
    }

    let tr = Tracer::new();
    let mut traced_wall = Duration::ZERO;
    let mut expected = lines.iter();
    let mut hits = [(0u64, 0u64); 4];
    for order in &pass_orders {
        let start = Instant::now();
        let cache = vcache::VCache::new();
        for &i in order {
            let (c, t) = items[i];
            let case = &inputs.cases[c];
            let got = verify_case_traced(&tr, case, t, &cache).unwrap_or_else(|e| e);
            if expected.next() != Some(&got) {
                out.fail_check(format!(
                    "{} [{}]: traced rendering differs from untraced",
                    case.name,
                    t.name()
                ));
            }
        }
        traced_wall += start.elapsed();
        for (acc, stage) in hits.iter_mut().zip(vcache::CacheStage::ALL) {
            let (h, m) = cache.stats(stage);
            acc.0 += h;
            acc.1 += m;
        }
    }
    out.set_layers(&tr);
    for ((h, m), stage) in hits.iter().zip(vcache::CacheStage::ALL) {
        let ratio = if h + m > 0 {
            *h as f64 / (h + m) as f64
        } else {
            0.0
        };
        out.set(
            &format!("vcache.hit_ratio.{}", stage.name()),
            ratio,
            "ratio",
        );
    }
    out.set_accounting(&tr, traced_wall, wall);
    out
}
