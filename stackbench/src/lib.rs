//! `stackbench` — the end-to-end and per-layer benchmark of the
//! `stackbound` verifier. See `README.md` next to `Cargo.toml` for the
//! workloads, the metrics and what each layer metric should move.

pub mod corpus;
pub mod gen;
pub mod known;
pub mod openloop;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod table1;
pub mod table2;
pub mod tracer;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workloads, as named on the command line.
pub const WORKLOADS: [&str; 3] = ["table1_cold", "table2_cold", "serve_edit"];

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("programs_per_s", "verdicts/s"),
    ("verify_ms_p50", "ms"),
    ("verify_ms_tail", "ms"),
    ("rtt_ms_p50", "ms"),
    ("sustained_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// The Table 2 case names, in the paper's order.
pub const CASES: [&str; 8] = [
    "recid",
    "bsearch",
    "fib",
    "qsort",
    "filter_pos",
    "sum",
    "fact_sq",
    "filter_find",
];

/// The cache stages a hit ratio is reported for.
pub const CACHE_STAGES: [&str; 5] = ["analyze", "check", "compile", "bound", "measure"];

/// Per-layer metrics, printed by every traced run, with their units.
/// Layers a workload does not reach report 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("qhl.busy_ms".into(), "ms"),
        ("qhl.proofs_checked".into(), "count"),
    ];
    out.extend(CASES.iter().map(|c| (format!("qhl.case_ms.{c}"), "ms")));
    out.push(("compiler.busy_ms".into(), "ms"));
    out.extend(
        tracer::default_pass_names()
            .into_iter()
            .map(|p| (format!("compiler.{p}_ms"), "ms")),
    );
    out.extend([
        ("compiler.asm_instrs".into(), "count"),
        ("asm.busy_ms".into(), "ms"),
        ("asm.steps".into(), "count"),
        ("asm.steps_per_s".into(), "steps/s"),
        ("clight.busy_ms".into(), "ms"),
        ("clight.calls".into(), "count"),
        ("vcache.keys_ms".into(), "ms"),
        ("analyzer.busy_ms".into(), "ms"),
        ("analyzer.functions".into(), "count"),
        ("analyzer.bound_ms".into(), "ms"),
        ("vcache.busy_ms".into(), "ms"),
    ]);
    out.extend(
        CACHE_STAGES
            .iter()
            .map(|s| (format!("vcache.hit_ratio.{s}"), "ratio")),
    );
    out.extend([
        ("stacklint.busy_ms".into(), "ms"),
        ("serve.service_ms_p50".into(), "ms"),
        ("serve.transport_ms_p50".into(), "ms"),
        ("serve.backlog_max".into(), "count"),
        ("serve.generator_lag_ms".into(), "ms"),
        ("trace.overhead_ratio".into(), "ratio"),
        ("trace.coverage".into(), "ratio"),
    ]);
    out
}

/// The layer names a [`tracer::Tracer`] records self time under.
pub const LAYERS: [&str; 8] = [
    "clight",
    "analyzer",
    "qhl",
    "compiler",
    "asm",
    "stacklint",
    "vcache",
    "serve",
];

/// The least share of the traced wall time the layer self times must
/// cover, so that no work goes unmeasured.
pub const MIN_COVERAGE: f64 = 0.9;

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verdicts or requests attempted.
    pub attempted: u64,
    /// Those whose answer was wrong, missing or an error.
    pub failed: u64,
    /// Failed whole-run checks (traced ≢ untraced, too little coverage).
    pub check_failures: u64,
    /// The first problems found, for the log.
    pub problems: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one wrong answer.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.note_problem(problem);
    }

    /// Counts one failed whole-run check.
    pub fn fail_check(&mut self, problem: String) {
        self.check_failures += 1;
        self.note_problem(problem);
    }

    fn note_problem(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Records the end-to-end metrics of a closed loop with one caller
    /// from its per-verdict times in arrival order, the input each verdict
    /// was for, and the wall time of each pass over the inputs.
    ///
    /// The p50 is the median over the inputs of each input's fastest time
    /// to a verdict, and the rate is one pass's verdicts over the fastest
    /// pass. On a shared machine other tenants slow a run down in bursts,
    /// and by a share that changes from minute to minute; the fastest of
    /// the many short samples a run takes is the one such bursts left
    /// alone. A change to the program moves it, the host's load does not.
    /// The tail is taken the same way: [`stats::tail`] over windows of
    /// `window` verdicts, each verdict counted at its input's fastest
    /// time, which makes it the time of the slowest inputs.
    /// With one in-process caller the round trip is the call itself and the
    /// sustained rate is the rate the caller achieved, so `rtt_ms_p50` and
    /// `sustained_rps` repeat `verify_ms_p50` and `programs_per_s`: every
    /// result line carries every declared metric.
    pub fn set_closed_loop(
        &mut self,
        workload: &str,
        setup_s: f64,
        verify_ms: &[f64],
        inputs: &[usize],
        pass_s: &[f64],
        window: usize,
    ) {
        let tail = stats::tail(&stats::fastest_of_input(verify_ms, inputs), window);
        let p50 = stats::median_of_fastest(verify_ms, inputs);
        let per_pass = verify_ms.len() as f64 / pass_s.len().max(1) as f64;
        let fastest_pass = pass_s.iter().copied().fold(f64::INFINITY, f64::min);
        let rate = per_pass / fastest_pass;
        self.notes.push(format!(
            "{workload}: {} passes, {} verdicts in {:.3} s; verify_ms_tail is p{} over {} samples at their input's fastest time ({window}-sample windows)",
            pass_s.len(),
            verify_ms.len(),
            pass_s.iter().sum::<f64>(),
            tail.pct,
            tail.samples,
        ));
        self.set("setup_s", setup_s, "s");
        self.set("programs_per_s", rate, "verdicts/s");
        self.set("verify_ms_p50", p50, "ms");
        self.set("verify_ms_tail", tail.value, "ms");
        self.set("rtt_ms_p50", p50, "ms");
        self.set("sustained_rps", rate, "req/s");
        self.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    /// Records every per-layer metric a tracer holds, 0 where absent.
    pub fn set_layers(&mut self, tr: &tracer::Tracer) {
        for (name, unit) in per_layer_names() {
            let value = match name.split_once('.') {
                Some((layer, "busy_ms")) => tr.layer_ms(layer),
                _ if unit == "ms" => tr.sub_ms(&name),
                _ => tr.counter(&name) as f64,
            };
            self.set(&name, value, unit);
        }
        let asm_s = tr.layer_ms("asm") / 1e3;
        let steps = tr.counter("asm.steps") as f64;
        self.set(
            "asm.steps_per_s",
            if asm_s > 0.0 { steps / asm_s } else { 0.0 },
            "steps/s",
        );
    }

    /// Records the traced-run accounting: the overhead ratio, and the
    /// share of the traced wall time the layer self times cover, failing
    /// the run when it is below [`MIN_COVERAGE`].
    pub fn set_accounting(
        &mut self,
        tr: &tracer::Tracer,
        traced_wall: Duration,
        untraced_wall: Duration,
    ) {
        let wall_ms = traced_wall.as_secs_f64() * 1e3;
        let coverage = tr.covered_ms() / wall_ms;
        let overhead = traced_wall.as_secs_f64() / untraced_wall.as_secs_f64();
        self.set("trace.coverage", coverage, "ratio");
        self.set("trace.overhead_ratio", overhead, "ratio");
        let mut by_layer = String::new();
        for layer in LAYERS {
            let ms = tr.layer_ms(layer);
            if ms > 0.0 {
                by_layer.push_str(&format!(" {layer} {:.1}%", 100.0 * ms / wall_ms));
            }
        }
        self.notes.push(format!(
            "traced wall {wall_ms:.1} ms, layers cover {:.1}% (need ≥ {:.0}%):{by_layer}; overhead ×{overhead:.3}",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
        if coverage < MIN_COVERAGE {
            self.fail_check(format!(
                "layer self times cover only {:.1}% of the traced wall time",
                coverage * 100.0
            ));
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                // A request that never completed has an infinite latency; print
                // it as a huge finite number so the line stays valid JSON.
                let v = if value.is_finite() { *value } else { 1e9 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.check_failures == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Times `setup` `times` times and returns the median duration with the
/// last result.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = setup();
        secs.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (stats::median(&secs), last.expect("setup ran at least once"))
}

/// Runs closed-loop passes until `seconds` are measured, rounding to the
/// nearest whole number of passes (at least one): another pass starts
/// only while the run would end closer to `seconds` with it than
/// without it. Returns the number of passes run.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(usize) -> Duration) -> usize {
    let mut spent = 0.0;
    let mut n = 0;
    loop {
        spent += pass(n).as_secs_f64();
        n += 1;
        if spent + spent / n as f64 / 2.0 > seconds {
            return n;
        }
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units the code prints are exactly the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn metric_names_match_the_benchmark_declaration() {
        let decl = obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            decl.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_owned(),
                        m.get("unit").unwrap().as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let declared: Vec<&str> = decl
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        // Every declared workload runs; `table2_cold` runs but is not
        // declared (see README.md, "Steadiness").
        assert_eq!(declared, ["table1_cold", "serve_edit"]);
    }

    #[test]
    fn passes_round_to_the_nearest_count() {
        let ms = |m| move |_| Duration::from_millis(m);
        assert_eq!(run_passes(1.0, ms(300)), 3); // 0.9 s beats 1.2 s
        assert_eq!(run_passes(1.0, ms(450)), 2); // 0.9 s beats 1.35 s
        assert_eq!(run_passes(1.0, ms(3000)), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5, "s");
        let v = obs::json::parse(&o.json()).unwrap();
        assert_eq!(v.get("correct"), Some(&obs::json::Value::Bool(true)));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(3.0));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        o.fail("x".into());
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
