//! `serve_edit`: an in-process `stackbound::serve` daemon over loopback
//! TCP. The set-up warms the daemon on the corpus and on the generated
//! DAGs. An open loop then offers seeded Poisson arrivals at each rate
//! of [`LADDER`] (one connection, one sender and one receiver thread),
//! and a closed loop sends one request at a time over one connection.
//! About 80% of requests are reads (corpus `verify`, recursive-case
//! `verify` and warm `table2`, both targets) and 20% are writes:
//! single-function edits of generated call DAGs ([`crate::gen`]).
//!
//! The latency metrics come from the closed loop. The open loop's round
//! trips, timed from each request's scheduled send time, are printed per
//! rate and decide `sustained_rps`; their run-to-run spread on a shared
//! machine is too wide to bound (README.md, "Steadiness").

use crate::corpus::FUEL;
use crate::gen::{self, Expect, Stream};
use crate::known::{Known, Verdict};
use crate::openloop::{self, Phase, P99_LIMIT_MS};
use crate::tracer::Tracer;
use crate::{stats, timed_setup, Outcome};
use obs::json::Value;
use stackbound::asm::Target;
use stackbound::compiler::{Options, PipelineConfig};
use stackbound::qhl::Checker;
use stackbound::serve::protocol::{self, Request, VerifyRequest};
use stackbound::serve::{spawn_tcp, ServeOptions, Server, ServerHandle, Session};
use stackbound::vcache::CacheStage;
use stackbound::{clight, stacklint, vcache, Error};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Share of the measured time the closed loop runs; the ladder, which
/// runs first, has the rest.
const CLOSED_SHARE: f64 = 0.6;

/// The rate the closed loop's requests are generated at, for their mix
/// and edits; one connection completes fewer, so the loop never runs out.
const CLOSED_RATE: f64 = 2500.0;

/// The offered rates in req/s, each with its share of the measured time.
/// 500 req/s is the nominal rate, well below saturation (2000–2400
/// req/s on a 2-core x86-64 machine). The top rung is far past
/// saturation, so it always fails: a rung near saturation (2000 req/s
/// sits right at the p99 limit there) would make `sustained_rps` flip
/// between two rungs from run to run.
pub const LADDER: [(f64, f64); 4] = [(250.0, 0.05), (500.0, 0.15), (1000.0, 0.15), (4000.0, 0.05)];

/// Index of the nominal rate in [`LADDER`].
pub const NOMINAL: usize = 1;

/// Index of the closed loop among the stream's phases, after the rungs.
const CLOSED: usize = LADDER.len();

/// How long the client waits for a response after the last send.
const GRACE: Duration = Duration::from_secs(30);

/// A running daemon, shut down (drained and joined) when dropped.
struct Daemon(Option<ServerHandle>);

impl Daemon {
    fn addr(&self) -> std::net::SocketAddr {
        self.0.as_ref().expect("daemon is running").addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            let _ = handle.shutdown();
        }
    }
}

fn session() -> Session {
    Session::new().fuel(FUEL)
}

/// The warm-up requests: every corpus read, then the first version of
/// every DAG of `seed`.
fn warm_up_lines(reads: &[(String, Expect)], seed: u64) -> Vec<String> {
    let dags = gen::dags(seed);
    let bodies = reads
        .iter()
        .map(|(body, _)| body.clone())
        .chain(dags.iter().map(|(t, d)| gen::verify_body(&d.source(), *t)));
    bodies
        .enumerate()
        .map(|(i, body)| gen::with_id(i as u64 + 1, &body))
        .collect()
}

/// Spawns a daemon and warms it on every corpus read, checking each
/// warm-up answer, and on the first version of every DAG the run's
/// writes edit, so that each write is an edit of a program the daemon
/// has seen.
fn spawn_warm(known: &Known, reads: &[(String, Expect)], seed: u64) -> Result<Daemon, String> {
    let server = Arc::new(Server::new(
        session(),
        ServeOptions {
            fuel: FUEL,
            ..ServeOptions::default()
        },
    ));
    let daemon = Daemon(Some(spawn_tcp(server).map_err(|e| e.to_string())?));
    let lines = warm_up_lines(reads, seed);
    let burst: Vec<(Duration, &str)> = lines.iter().map(|l| (Duration::ZERO, l.as_str())).collect();
    let phase =
        openloop::run_phase(daemon.addr(), 0.0, &burst, GRACE).map_err(|e| e.to_string())?;
    let (corpus, dags) = phase.samples.split_at(reads.len());
    for (s, (_, expect)) in corpus.iter().zip(reads) {
        check(known, expect, s.response.as_deref(), &[])?;
    }
    for s in dags {
        let ok = s
            .response
            .as_deref()
            .and_then(|l| obs::json::parse(l).ok())
            .is_some_and(|v| v.get("ok") == Some(&Value::Bool(true)));
        if !ok {
            return Err(format!("DAG warm-up: {:?}", s.response));
        }
    }
    Ok(daemon)
}

/// The verdict a `verify` response's `functions` object carries.
fn served_verdict(v: &Value) -> Option<Verdict> {
    let Some(Value::Object(fns)) = v.get("functions") else {
        return None;
    };
    let mut verdict = Verdict::default();
    for (name, f) in fns {
        verdict
            .bounds
            .insert(name.clone(), f.get("bound")?.as_f64()? as u32);
        if name == "main" {
            verdict.measured_main = f.get("measured").and_then(Value::as_f64).map(|m| m as u32);
        }
    }
    Some(verdict)
}

/// Checks one response against its known answer; `edits` holds the
/// one-shot report of every edit (served ≡ one-shot).
fn check(
    known: &Known,
    expect: &Expect,
    line: Option<&str>,
    edits: &[Result<String, String>],
) -> Result<(), String> {
    let line = line.ok_or_else(|| format!("{expect:?}: no response"))?;
    let v = obs::json::parse(line).map_err(|e| format!("{expect:?}: malformed response: {e}"))?;
    let ok = v.get("ok") == Some(&Value::Bool(true));
    let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or_default();
    match expect {
        Expect::Verdict(t, file) if ok => {
            let got =
                served_verdict(&v).ok_or_else(|| format!("{file}: no functions in response"))?;
            known.check_verdict(*t, file, &got)
        }
        Expect::Reject(t, case) if !ok => known.check_reject(*t, case, field("error")),
        Expect::Table2(t, case) if ok => known.check_table2(*t, case, field("report")),
        Expect::Edit(_, i) if ok => match edits.get(*i) {
            Some(Ok(want)) if want == field("report") => Ok(()),
            Some(Ok(_)) => Err(format!("edit {i}: served report differs from one-shot")),
            Some(Err(e)) => Err(format!("edit {i}: one-shot: {e}")),
            None => Err(format!("edit {i}: no one-shot answer")),
        },
        _ => Err(format!("{expect:?}: unexpected response {line}")),
    }
}

/// The one-shot answer of an edit: the report a cache-less `Verifier`
/// renders, after the `stacklint` sandwich holds on it.
fn one_shot(target: Target, source: &str) -> Result<String, String> {
    let report = stackbound::Verifier::new()
        .fuel(FUEL)
        .target(target)
        .verify(source)
        .map_err(|e| e.to_string())?;
    Verdict::of_report(&report).sandwich(&stacklint::analyze(&report.compiled.asm))?;
    Ok(report.to_string())
}

/// One-shot answers for every edit the run sent: `sent` holds, per
/// phase, how many of its requests went out.
fn one_shot_edits(stream: &Stream, sent: &[(usize, usize)]) -> Vec<Result<String, String>> {
    let mut targets = vec![None; stream.edits.len()];
    for &(k, n) in sent {
        for r in &stream.phases[k][..n] {
            if let Expect::Edit(t, i) = r.expect {
                targets[i] = Some(t);
            }
        }
    }
    let jobs: Vec<(usize, Option<Target>)> = targets.into_iter().enumerate().collect();
    stackbound::par_map(&jobs, |&(i, t)| match t {
        Some(t) => one_shot(t, &stream.edits[i]),
        None => Err("not sent".to_owned()),
    })
}

/// One request's answer, kept until the clock stops and then rendered
/// canonically for the byte-for-byte comparison.
enum Answer {
    Verify(Result<Verdict, Error>),
    Table2(Result<String, String>),
    NotPool,
}

impl Answer {
    fn text(&self) -> String {
        match self {
            Answer::Verify(Ok(v)) => v.text(),
            Answer::Verify(Err(e)) => format!("error: {e}"),
            Answer::Table2(Ok(line)) => line.clone(),
            Answer::Table2(Err(e)) => format!("error: {e}"),
            Answer::NotPool => "error: not a pool request".to_owned(),
        }
    }
}

/// One request served by a `Session` directly, with its service time:
/// parsing the line and the session call, as a daemon worker does.
fn direct(session: &Session, line: &str) -> (Duration, Answer) {
    let start = Instant::now();
    match protocol::parse_request(line) {
        Ok(Request::Verify(req)) => {
            let result = session.verify(&req);
            let service = start.elapsed();
            (
                service,
                Answer::Verify(result.map(|r| Verdict::of_report(&r))),
            )
        }
        Ok(Request::Table2(req)) => {
            let result = session.table2(&req);
            (start.elapsed(), Answer::Table2(result))
        }
        _ => (start.elapsed(), Answer::NotPool),
    }
}

/// The same answer through each layer's public functions, in the stage
/// order of a cached `Verifier` (for `verify`) or of
/// `table2::verify_case_cached` (for `table2`).
fn traced(tr: &Tracer, session: &Session, line: &str) -> Answer {
    match tr.layer("serve", || protocol::parse_request(line)) {
        Ok(Request::Verify(req)) => Answer::Verify(verify_traced(tr, session, &req)),
        Ok(Request::Table2(req)) => {
            let case = tr.layer("serve", || {
                stackbound::benchsuite::recursive_case(&req.case)
            });
            Answer::Table2(match case {
                Some(case) => {
                    crate::table2::verify_case_traced(tr, &case, req.target, session.cache())
                }
                None => Err(format!("unknown table2 case `{}`", req.case)),
            })
        }
        _ => Answer::NotPool,
    }
}

/// The layer a cached call is charged to: `layer` when it missed and so
/// did that layer's work, `vcache` when it only looked up.
fn layer_if(missed: bool, layer: &'static str) -> &'static str {
    if missed {
        layer
    } else {
        "vcache"
    }
}

fn verify_traced(tr: &Tracer, session: &Session, req: &VerifyRequest) -> Result<Verdict, Error> {
    let params: Vec<(&str, u32)> = req.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let program = tr
        .layer("clight", || clight::frontend(&req.source, &params))
        .map_err(Error::Frontend)?;
    tr.count("clight.calls", 1);
    let config = PipelineConfig::with_options(Options::for_target(req.target));
    let cache = session.cache();
    let keys = tr.sub("vcache", "vcache.keys_ms", || {
        vcache::keys(&program, &config.options)
    });
    // `vcache::analyze` derives the functions it misses, so a call with
    // misses is analyzer work and one without is lookups.
    let misses = |stage| cache.stats(stage).1;
    let analyze_misses = misses(CacheStage::Analyze);
    let analysis = tr
        .layer_by(
            || vcache::analyze(cache, &program, &keys),
            |_| layer_if(misses(CacheStage::Analyze) > analyze_misses, "analyzer"),
        )
        .map_err(Error::Analyzer)?;
    tr.count(
        "analyzer.functions",
        misses(CacheStage::Analyze) - analyze_misses,
    );
    // `vcache::check`'s loop, so that the checks of the misses count as
    // `qhl`: each function's verdict is looked up under its key, and
    // re-checked in topological order when absent.
    let checker = Checker::new(&program, analysis.context());
    for name in analysis.order() {
        let deriv = analysis.derivation(name).expect("analysis is complete");
        let check = || {
            tr.count("qhl.proofs_checked", 1);
            tr.layer("qhl", || checker.check_function(name, deriv, None))
        };
        match keys.get(name) {
            Some(&key) => tr.layer("vcache", || vcache::check_cached(cache, key, check)),
            None => check(),
        }
        .map_err(Error::Derivation)?;
    }
    let compiled = tr
        .layer("compiler", || {
            vcache::compile(cache, &program, &config, &keys)
        })
        .map_err(Error::Compiler)?;
    let bound_misses = misses(CacheStage::Bound);
    let bound_start = Instant::now();
    let bounds: BTreeMap<String, u32> = tr.layer_by(
        || {
            program
                .function_names()
                .filter_map(|f| {
                    Some((
                        f.to_owned(),
                        vcache::concrete_bound(cache, &analysis, &compiled.metric, f, &keys)?
                            as u32,
                    ))
                })
                .collect()
        },
        |_| layer_if(misses(CacheStage::Bound) > bound_misses, "analyzer"),
    );
    if misses(CacheStage::Bound) > bound_misses {
        tr.add_sub("analyzer.bound_ms", bound_start.elapsed());
    }
    let mut measured_main = None;
    if let (true, Some(&b)) = (req.measure, bounds.get("main")) {
        let misses = session.measures().stats().1;
        let m = tr
            .layer("asm", || {
                session
                    .measures()
                    .measure_function(&compiled.asm, "main", &[], b, FUEL)
            })
            .map_err(|e| Error::Machine(e.to_string()))?;
        if session.measures().stats().1 > misses {
            tr.count("asm.steps", m.steps);
        }
        if let Some(err) = m.error {
            return Err(Error::Machine(err.to_string()));
        }
        if m.behavior.converges() {
            measured_main = Some(m.stack_usage);
        }
    }
    Ok(Verdict {
        bounds,
        measured_main,
    })
}

/// `(hits, lookups)` of the four `vcache` stages and the measure cache.
fn cache_counts(session: &Session) -> [(u64, u64); 5] {
    let mut out = [(0, 0); 5];
    for (slot, stage) in out.iter_mut().zip(CacheStage::ALL) {
        let (h, m) = session.cache().stats(stage);
        *slot = (h, h + m);
    }
    let (h, m) = session.measures().stats();
    out[4] = (h, h + m);
    out
}

struct Inputs {
    known: Known,
    daemon: Daemon,
    stream: Stream,
}

/// Times of the successful responses' daemon work (`work_us`), in ms; a
/// response that failed its check counts as infinitely slow.
fn work_ms(phase: &Phase, bad: &[bool]) -> Vec<f64> {
    phase
        .samples
        .iter()
        .zip(bad)
        .filter_map(|(s, &b)| {
            let v = s.response.as_deref().and_then(|l| obs::json::parse(l).ok());
            match v.as_ref().map(|v| v.get("work_us").and_then(Value::as_f64)) {
                _ if b => Some(f64::INFINITY),
                Some(Some(us)) => Some(us / 1e3),
                _ => None,
            }
        })
        .collect()
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let reads = gen::corpus_reads();
    // Phase `k` of the stream is the ladder's rung `k`, phase `CLOSED`
    // the closed loop.
    let closed_s = seconds * CLOSED_SHARE;
    let plan: Vec<(f64, Duration)> = LADDER
        .iter()
        .map(|&(rate, share)| (rate, seconds * share))
        .chain(std::iter::once((CLOSED_RATE, closed_s)))
        .map(|(rate, secs)| (rate, Duration::from_secs_f64(secs)))
        .collect();
    let (setup_s, inputs) = timed_setup(SETUPS, || -> Result<Inputs, String> {
        let known = Known::load();
        let daemon = spawn_warm(&known, &reads, seed)?;
        let stream = gen::stream(seed, &plan);
        Ok(Inputs {
            known,
            daemon,
            stream,
        })
    });
    let inputs = match inputs {
        Ok(i) => i,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };

    // The ladder, then the closed loop. A traced run offers the nominal
    // rate only and gives the closed loop a quarter of its time. Every
    // rung sends a fixed number of requests, so the daemon's cache, which
    // grows with every edit it sees, is the same size whatever the
    // machine's speed until the closed loop starts.
    let mut phases: Vec<(usize, Phase)> = Vec::new();
    let rungs: Vec<usize> = if trace {
        vec![NOMINAL]
    } else {
        (0..LADDER.len()).collect()
    };
    let mut peak_rss_mb = 0.0;
    for &k in &rungs {
        let lines: Vec<(Duration, &str)> = inputs.stream.phases[k]
            .iter()
            .map(|r| (r.at, r.line.as_str()))
            .collect();
        // Peak memory is taken before the overloaded top rung, whose
        // backlog would make it depend on how far behind it fell.
        if k + 1 == LADDER.len() {
            peak_rss_mb = crate::peak_rss_mb();
        }
        match openloop::run_phase(inputs.daemon.addr(), LADDER[k].0, &lines, GRACE) {
            Ok(p) => phases.push((k, p)),
            Err(e) => {
                out.attempted += lines.len() as u64;
                out.fail(format!("{} req/s: {e}", LADDER[k].0));
            }
        }
    }
    let closed_lines: Vec<&str> = inputs.stream.phases[CLOSED]
        .iter()
        .map(|r| r.line.as_str())
        .collect();
    let budget = Duration::from_secs_f64(if trace { closed_s / 4.0 } else { closed_s });
    match openloop::run_closed(inputs.daemon.addr(), &closed_lines, budget) {
        Ok(p) => phases.push((CLOSED, p)),
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("closed loop: {e}"));
        }
    }
    drop(inputs.daemon);

    // Correctness, after the clock stops: known answers for reads, and
    // served ≡ one-shot (plus the sandwich) for every edit.
    let sent: Vec<(usize, usize)> = phases.iter().map(|(k, p)| (*k, p.samples.len())).collect();
    let edits = one_shot_edits(&inputs.stream, &sent);
    let mut failed: BTreeMap<usize, Vec<bool>> = BTreeMap::new();
    for (k, phase) in &phases {
        let bad: Vec<bool> = phase
            .samples
            .iter()
            .zip(&inputs.stream.phases[*k])
            .map(
                |(s, r)| match check(&inputs.known, &r.expect, s.response.as_deref(), &edits) {
                    Ok(()) => false,
                    Err(e) => {
                        out.fail(e);
                        true
                    }
                },
            )
            .collect();
        out.attempted += bad.len() as u64;
        failed.insert(*k, bad);
    }
    let writes = |k: usize, n: usize| {
        inputs.stream.phases[k][..n]
            .iter()
            .filter(|r| matches!(r.expect, Expect::Edit(..)))
            .count()
    };
    let mut sustained = 0.0;
    for (k, phase) in phases.iter().filter(|(k, _)| *k != CLOSED) {
        let rtts = phase.rtts_ms(&failed[k]);
        let p99 = stats::windowed_percentile(&rtts, 99.0, stats::WINDOW);
        let rtts = stats::sorted(rtts);
        let grows = phase.backlog_grows();
        if p99 <= P99_LIMIT_MS && !grows {
            sustained = phase.throughput();
        }
        out.notes.push(format!(
            "serve_edit {:>6} req/s: {} requests, {} writes, rtt p50 {:.3} ms p99 {:.3} ms, backlog max {}{}, sender lag p99 {:.3} ms, {:.1} done/s",
            LADDER[*k].0,
            phase.samples.len(),
            writes(*k, phase.samples.len()),
            stats::percentile(&rtts, 50.0),
            p99,
            phase.backlog_max(),
            if grows { " (growing)" } else { "" },
            phase.generator_lag_ms(),
            phase.throughput(),
        ));
    }
    let Some((_, closed)) = phases.iter().find(|(k, _)| *k == CLOSED) else {
        return out;
    };
    let bad = &failed[&CLOSED];
    let rtts = closed.rtts_ms(bad);
    let work = work_ms(closed, bad);
    let tail = stats::tail(&work, stats::WINDOW);
    let elapsed = closed
        .samples
        .last()
        .and_then(|s| s.received)
        .unwrap_or_default();
    out.notes.push(format!(
        "serve_edit closed loop: {} requests, {} writes in {:.3} s, rtt p50 {:.3} ms p99 {:.3} ms; verify_ms_tail is p{} over {} daemon work times (median of {}-sample windows)",
        closed.samples.len(),
        writes(CLOSED, closed.samples.len()),
        elapsed.as_secs_f64(),
        stats::median(&rtts),
        stats::windowed_percentile(&rtts, 99.0, stats::WINDOW),
        tail.pct,
        tail.samples,
        stats::WINDOW,
    ));
    if !trace {
        out.set("setup_s", setup_s, "s");
        out.set(
            "programs_per_s",
            closed.samples.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            "verdicts/s",
        );
        out.set("verify_ms_p50", stats::median(&work), "ms");
        out.set("verify_ms_tail", tail.value, "ms");
        out.set("rtt_ms_p50", stats::median(&rtts), "ms");
        out.set("sustained_rps", sustained, "req/s");
        out.set("peak_rss_mb", peak_rss_mb, "MiB");
        return out;
    }

    // Traced run: the closed loop's requests served by a warm `Session`
    // directly (service time), then replayed through the layers on
    // another one.
    let warm = |s: &Session| {
        for line in warm_up_lines(&reads, seed) {
            direct(s, &line);
        }
    };
    let requests = &inputs.stream.phases[CLOSED][..closed.samples.len()];
    let plain = session();
    warm(&plain);
    let start = Instant::now();
    let served: Vec<(Duration, Answer)> =
        requests.iter().map(|r| direct(&plain, &r.line)).collect();
    let untraced_wall = start.elapsed();
    let service_ms: Vec<f64> = served.iter().map(|(d, _)| d.as_secs_f64() * 1e3).collect();
    let answers: Vec<String> = served.iter().map(|(_, a)| a.text()).collect();

    let layered = session();
    warm(&layered);
    let before = cache_counts(&layered);
    let tr = Tracer::new();
    let start = Instant::now();
    let replayed: Vec<Answer> = requests
        .iter()
        .map(|r| traced(&tr, &layered, &r.line))
        .collect();
    let traced_wall = start.elapsed();
    for ((r, got), want) in requests.iter().zip(replayed).zip(&answers) {
        if &got.text() != want {
            out.fail_check(format!(
                "request `{}`: traced answer differs from direct",
                &r.line[..r.line.len().min(60)]
            ));
        }
    }
    let after = cache_counts(&layered);

    out.set_layers(&tr);
    for ((stage, b), a) in crate::CACHE_STAGES.iter().zip(before).zip(after) {
        let lookups = a.1 - b.1;
        let ratio = if lookups > 0 {
            (a.0 - b.0) as f64 / lookups as f64
        } else {
            0.0
        };
        out.set(&format!("vcache.hit_ratio.{stage}"), ratio, "ratio");
    }
    let transport: Vec<f64> = closed
        .samples
        .iter()
        .zip(&service_ms)
        .map(|(s, svc)| s.wire_ms() - svc)
        .collect();
    out.set("serve.service_ms_p50", stats::median(&service_ms), "ms");
    out.set("serve.transport_ms_p50", stats::median(&transport), "ms");
    if let Some((_, nominal)) = phases.iter().find(|(k, _)| *k == NOMINAL) {
        out.set("serve.backlog_max", nominal.backlog_max() as f64, "count");
        out.set("serve.generator_lag_ms", nominal.generator_lag_ms(), "ms");
    }
    let service_total: f64 = service_ms.iter().sum();
    out.notes.push(format!(
        "serve_edit: qhl is {:.2}% of service time",
        100.0 * tr.layer_ms("qhl") / service_total
    ));
    out.set_accounting(&tr, traced_wall, untraced_wall);
    out
}
