//! `table1_cold`: the one-shot `sbound --lint` path, a closed loop with
//! one caller. Each pass verifies the 9 Table 1 programs and the 5 extras
//! on both targets (28 verdicts) through a cache-less
//! [`stackbound::Verifier`] and runs [`stackbound::stacklint::analyze`]
//! on the compiled code. The seed shuffles the order of every pass.

use crate::corpus::{self, Program, FUEL, TARGETS};
use crate::known::{Known, Verdict};
use crate::rng::Rng;
use crate::tracer::{timed_pipeline, PassTimes, Tracer};
use crate::{run_passes, stats, timed_setup, Outcome};
use stackbound::asm::Target;
use stackbound::compiler::{Options, PipelineConfig};
use stackbound::stacklint::LintReport;
use stackbound::{analyzer, asm, clight, stacklint, Error};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// The inputs of one run.
struct Inputs {
    known: Known,
    items: Vec<(Program, Target)>,
}

/// Loads the known answers and checks them against the inputs: every
/// program parses, and its known verdict on each target names exactly
/// its functions.
fn setup() -> Result<Inputs, String> {
    let known = Known::load();
    let programs = corpus::programs();
    for p in &programs {
        let parsed = clight::frontend(p.source, &[]).map_err(|e| format!("{}: {e}", p.file))?;
        let names: BTreeSet<&str> = parsed.function_names().collect();
        for t in TARGETS {
            let known_names: Option<BTreeSet<&str>> = known
                .verdict(t, p.file)
                .map(|v| v.bounds.keys().map(String::as_str).collect());
            if known_names.as_ref() != Some(&names) {
                return Err(format!(
                    "{} [{}]: known answers do not cover its functions",
                    p.file,
                    t.name()
                ));
            }
        }
    }
    let items = programs
        .into_iter()
        .flat_map(|p| TARGETS.map(|t| (p, t)))
        .collect();
    Ok(Inputs { known, items })
}

/// The pass orders of a run: one seeded shuffle per pass.
struct Orders(Rng);

impl Orders {
    fn new(seed: u64) -> Orders {
        Orders(Rng::new(seed, 0x7ab1e1))
    }

    fn next(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.0.shuffle(&mut order);
        order
    }
}

/// The assembled report of one verdict: the certified bounds, `main`'s
/// measured peak and the binary-level verdicts.
fn assemble(verdict: &Verdict, lint: &LintReport) -> String {
    let mut out = verdict.text();
    for (f, v) in &lint.verdicts {
        let _ = writeln!(out, "lint {f} {v}");
    }
    out
}

/// Checks one verdict against its known answer and the sandwich.
fn check(
    inputs: &Inputs,
    p: &Program,
    t: Target,
    verdict: &Verdict,
    lint: &LintReport,
) -> Result<(), String> {
    inputs.known.check_verdict(t, p.file, verdict)?;
    verdict
        .sandwich(lint)
        .map_err(|e| format!("{} [{}]: {e}", p.file, t.name()))
}

/// One untraced verdict: the `Verifier` plus the lint.
fn verify(p: &Program, t: Target) -> Result<(Verdict, LintReport), Error> {
    let report = stackbound::Verifier::new()
        .fuel(FUEL)
        .target(t)
        .verify(p.source)?;
    let lint = stacklint::analyze(&report.compiled.asm);
    Ok((Verdict::of_report(&report), lint))
}

/// The same verdict through each layer's public functions in the
/// `Verifier`'s stage order, each call timed as its layer.
fn verify_traced(
    tr: &Tracer,
    times: &PassTimes,
    p: &Program,
    t: Target,
) -> Result<(Verdict, LintReport), Error> {
    let program = tr
        .layer("clight", || clight::frontend(p.source, &[]))
        .map_err(Error::Frontend)?;
    tr.count("clight.calls", 1);
    let analysis = tr
        .layer("analyzer", || analyzer::analyze(&program))
        .map_err(Error::Analyzer)?;
    tr.count("analyzer.functions", analysis.order().len() as u64);
    tr.layer("qhl", || analysis.check(&program))
        .map_err(Error::Derivation)?;
    tr.count("qhl.proofs_checked", analysis.order().len() as u64);
    let config = PipelineConfig::with_options(Options::for_target(t));
    let compiled = tr
        .layer("compiler", || timed_pipeline(&config, times).run(&program))
        .map_err(|e| match e {
            stackbound::compiler::PipelineError::Compile(e) => Error::Compiler(e),
            other => Error::Pipeline(other),
        })?;
    tr.count(
        "compiler.asm_instrs",
        compiled
            .asm
            .functions
            .iter()
            .map(|f| f.code.len() as u64)
            .sum(),
    );
    let bounds: BTreeMap<String, u32> = tr.sub("analyzer", "analyzer.bound_ms", || {
        program
            .function_names()
            .filter_map(|f| {
                Some((
                    f.to_owned(),
                    analysis.concrete_bound(f, &compiled.metric)? as u32,
                ))
            })
            .collect()
    });
    let mut measured_main = None;
    if let Some(&b) = bounds.get("main") {
        let m = tr
            .layer("asm", || {
                asm::measure_function(&compiled.asm, "main", &[], b, FUEL)
            })
            .map_err(|e| Error::Machine(e.to_string()))?;
        tr.count("asm.steps", m.steps);
        if let Some(err) = m.error {
            return Err(Error::Machine(err.to_string()));
        }
        if m.behavior.converges() {
            measured_main = Some(m.stack_usage);
        }
    }
    let lint = tr.layer("stacklint", || stacklint::analyze(&compiled.asm));
    Ok((
        Verdict {
            bounds,
            measured_main,
        },
        lint,
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
    let mut orders = Orders::new(seed);
    // In a traced run, half the time goes to untraced passes and the same
    // passes are then replayed traced.
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut verify_ms = Vec::new();
    let mut verify_inputs = Vec::new();
    let mut pass_s = Vec::new();
    let mut pass_orders = Vec::new();
    let mut reports = Vec::new();
    let mut wall = Duration::ZERO;
    run_passes(budget, |_| {
        let order = orders.next(inputs.items.len());
        let start = Instant::now();
        for &i in &order {
            let (p, t) = &inputs.items[i];
            let t0 = Instant::now();
            let result = verify(p, *t);
            verify_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            verify_inputs.push(i);
            out.attempted += 1;
            match result {
                Ok((v, lint)) => {
                    if let Err(e) = check(&inputs, p, *t, &v, &lint) {
                        out.fail(e);
                    }
                    if trace {
                        reports.push(assemble(&v, &lint));
                    }
                }
                Err(e) => out.fail(format!("{} [{}]: {e}", p.file, t.name())),
            }
        }
        let d = start.elapsed();
        wall += d;
        pass_s.push(d.as_secs_f64());
        pass_orders.push(order);
        d
    });
    if !trace {
        out.set_closed_loop(
            "table1_cold",
            setup_s,
            &verify_ms,
            &verify_inputs,
            &pass_s,
            stats::WINDOW,
        );
        return out;
    }

    let tr = Tracer::new();
    let times = PassTimes::default();
    let mut traced_wall = Duration::ZERO;
    let mut expected = reports.iter();
    for order in &pass_orders {
        let start = Instant::now();
        for &i in order {
            let (p, t) = &inputs.items[i];
            let result = verify_traced(&tr, &times, p, *t);
            let want = expected.next();
            match result {
                Ok((v, lint)) if want == Some(&assemble(&v, &lint)) => {}
                Ok(_) => out.fail_check(format!(
                    "{} [{}]: traced report differs from untraced",
                    p.file,
                    t.name()
                )),
                Err(e) => out.fail_check(format!("{} [{}]: traced: {e}", p.file, t.name())),
            }
        }
        traced_wall += start.elapsed();
    }
    for (pass, d) in times
        .lock()
        .expect("pass timer lock is never poisoned")
        .iter()
    {
        tr.add_sub(&format!("compiler.{pass}_ms"), *d);
    }
    out.set_layers(&tr);
    out.set_accounting(&tr, traced_wall, wall);
    out
}
