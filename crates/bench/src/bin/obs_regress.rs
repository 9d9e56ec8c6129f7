//! CI gate: the observability layer itself is load-bearing.
//!
//! `obs_regress` runs the full corpus (Table 1 + extras + the Table 2
//! recursive cases) through the cached [`stackbound::Verifier`] under an
//! installed [`obs`] recorder and compares every global counter against
//! a checked-in baseline (`ci/obs_baselines/suite.txt`). The counters
//! encode *behaviour*: cache hits and misses, `qhl/rule/*` applications,
//! `stacklint/*` verdicts, machine steps. A counter that drifts or
//! disappears fails CI, so instrumentation regressions are caught like
//! any other regression. Timing is not gated here; the `stackbench`
//! package at the repository root measures it.
//!
//! The workload is serial and starts from fresh caches, so every counter
//! is byte-deterministic.
//!
//! Baseline lines are `counter name value rule`:
//!
//! ```text
//! counter   machine/steps            1188090  exact
//! ```
//!
//! Rules: `exact`, `ceiling` (current <= value), `floor`
//! (current >= value), or `<N>%` (relative tolerance) — edit the rule in
//! place to relax a counter that is legitimately machine-dependent.
//!
//! After the serial gate, a second *parallel* pass (`--parallel-measure`
//! semantics) exports a Chrome trace of the suite, re-validates it with
//! the in-crate [`obs::json`] parser, and asserts the timeline has at
//! least two distinct thread tracks when the machine has more than one
//! core — the end-to-end guarantee behind `sbound --trace-chrome`.
//!
//! ```sh
//! cargo run -p bench --bin obs_regress                   # compare
//! cargo run -p bench --bin obs_regress -- --snapshot     # (re)write baseline
//! cargo run -p bench --bin obs_regress -- --trace-chrome trace.json
//! ```

use stackbound::{asm, compiler, stacklint, vcache};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

const DEFAULT_BASELINE: &str = "ci/obs_baselines/suite.txt";

struct Options {
    baseline: String,
    snapshot: bool,
    trace_chrome: Option<String>,
    trace_folded: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: obs_regress [--baseline FILE] [--snapshot] \
         [--trace-chrome FILE] [--trace-folded FILE]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        baseline: DEFAULT_BASELINE.to_owned(),
        snapshot: false,
        trace_chrome: None,
        trace_folded: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--snapshot" => opts.snapshot = true,
            "--baseline" => opts.baseline = args.next().ok_or_else(usage)?,
            "--trace-chrome" => opts.trace_chrome = Some(args.next().ok_or_else(usage)?),
            "--trace-folded" => opts.trace_folded = Some(args.next().ok_or_else(usage)?),
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    // ---- serial deterministic pass ------------------------------------
    let report = {
        let session = obs::install();
        run_corpus();
        let report = obs::report().expect("recorder is installed");
        drop(session);
        report
    };
    let current = report.counters;
    println!(
        "obs_regress: serial corpus pass recorded {} counters",
        current.len()
    );

    if opts.snapshot {
        let text = render_snapshot(&current);
        if let Some(dir) = std::path::Path::new(&opts.baseline).parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("obs_regress: cannot create `{}`: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&opts.baseline, text) {
            eprintln!("obs_regress: cannot write `{}`: {e}", opts.baseline);
            return ExitCode::FAILURE;
        }
        println!("obs_regress: wrote baseline `{}`", opts.baseline);
    } else {
        let text = match std::fs::read_to_string(&opts.baseline) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "obs_regress: cannot read `{}`: {e} (run with --snapshot to create it)",
                    opts.baseline
                );
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("obs_regress: `{}`: {e}", opts.baseline);
                return ExitCode::FAILURE;
            }
        };
        let failures = compare(&baseline, &current);
        for f in &failures {
            eprintln!("obs_regress: FAILED: {f}");
        }
        let fresh: Vec<&String> = current
            .keys()
            .filter(|name| !baseline.iter().any(|e| e.name == **name))
            .collect();
        if !fresh.is_empty() {
            println!(
                "obs_regress: note: {} counters not in baseline (snapshot to adopt), e.g. {:?}",
                fresh.len(),
                fresh[0]
            );
        }
        if !failures.is_empty() {
            eprintln!(
                "obs_regress: {} of {} baseline counters failed",
                failures.len(),
                baseline.len()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "obs_regress: all {} baseline counters within tolerance",
            baseline.len()
        );
    }

    // ---- parallel pass: the Chrome timeline is real -------------------
    match parallel_trace_pass(opts.trace_chrome.as_deref(), opts.trace_folded.as_deref()) {
        Ok(tracks) => {
            println!("obs_regress: chrome trace valid with {tracks} thread track(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_regress: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The serial gate workload: the whole corpus through fresh shared
/// caches, exactly once, on one thread of control, plus one binary-level
/// stack-analysis pass (whose `stacklint/*` counters are deterministic
/// and baselined like everything else).
fn run_corpus() {
    let cache = Arc::new(vcache::VCache::new());
    let verifier = stackbound::Verifier::new()
        .fuel(bench::FUEL)
        .vcache(cache.clone())
        .measure_cache(Arc::new(asm::MeasureCache::new()));
    for b in stackbound::benchsuite::table1_benchmarks()
        .into_iter()
        .chain(stackbound::benchsuite::extra_benchmarks())
    {
        verifier
            .verify(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.file));
    }
    for case in stackbound::benchsuite::recursive_cases() {
        stackbound::table2::verify_case_cached(&case, asm::Target::Sz32, &cache)
            .unwrap_or_else(|e| panic!("{}: {e}", case.file));
    }
    for case in bench::lint_corpus() {
        let program = stackbound::clight::frontend(&case.source, &[])
            .unwrap_or_else(|e| panic!("{}: front end: {e}", case.file));
        let compiled =
            compiler::compile(&program).unwrap_or_else(|e| panic!("{}: compiler: {e}", case.file));
        let lint = stacklint::analyze(&compiled.asm);
        assert!(
            lint.is_clean(),
            "{}: compiler-emitted code drew diagnostics: {:?}",
            case.file,
            lint.diagnostics
        );
    }
}

/// Per-counter comparison rule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// current == value
    Exact,
    /// current <= value
    Ceiling,
    /// current >= value
    Floor,
    /// |current - value| <= value * pct / 100
    Percent(f64),
}

impl Rule {
    fn parse(s: &str) -> Result<Rule, String> {
        match s {
            "exact" => Ok(Rule::Exact),
            "ceiling" => Ok(Rule::Ceiling),
            "floor" => Ok(Rule::Floor),
            _ => match s.strip_suffix('%') {
                Some(pct) => pct
                    .parse::<f64>()
                    .ok()
                    .filter(|p| *p >= 0.0)
                    .map(Rule::Percent)
                    .ok_or_else(|| format!("bad tolerance `{s}`")),
                None => Err(format!("unknown rule `{s}`")),
            },
        }
    }

    fn admits(&self, baseline: u64, current: u64) -> bool {
        match self {
            Rule::Exact => current == baseline,
            Rule::Ceiling => current <= baseline,
            Rule::Floor => current >= baseline,
            Rule::Percent(pct) => {
                (current as f64 - baseline as f64).abs() <= baseline as f64 * pct / 100.0
            }
        }
    }

    fn render(&self) -> String {
        match self {
            Rule::Exact => "exact".to_owned(),
            Rule::Ceiling => "ceiling".to_owned(),
            Rule::Floor => "floor".to_owned(),
            Rule::Percent(p) => format!("{p}%"),
        }
    }
}

/// One baseline line.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    name: String,
    value: u64,
    rule: Rule,
}

/// Renders the current counters as a fresh baseline, every one `exact`.
fn render_snapshot(current: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(
        "# obs_regress baseline: `counter name value rule` per line.\n\
         # Regenerate with `cargo run --release -p bench --bin obs_regress -- --snapshot`.\n\
         # Rules: exact | ceiling | floor | <pct>% — relax in place when a\n\
         # counter is legitimately machine-dependent.\n",
    );
    let width = current.keys().map(String::len).max().unwrap_or(0).max(4);
    for (name, value) in current {
        out.push_str(&format!("counter   {name:<width$} {value:>12} exact\n"));
    }
    out
}

/// Parses a baseline file (see [`render_snapshot`] for the format).
fn parse_baseline(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [kind, name, value, rule] = fields[..] else {
            return Err(format!(
                "line {}: expected `counter name value rule`",
                i + 1
            ));
        };
        if kind != "counter" {
            return Err(format!("line {}: unknown kind `{kind}`", i + 1));
        }
        let value = value
            .parse::<u64>()
            .map_err(|e| format!("line {}: bad value: {e}", i + 1))?;
        let rule = Rule::parse(rule).map_err(|e| format!("line {}: {e}", i + 1))?;
        entries.push(Entry {
            name: name.to_owned(),
            value,
            rule,
        });
    }
    if entries.is_empty() {
        return Err("baseline declares no counters".to_owned());
    }
    Ok(entries)
}

/// Checks every baseline entry against the current counters, returning
/// one message per violation (a counter missing from the current run is a
/// violation — the instrumentation that produced it is gone).
fn compare(baseline: &[Entry], current: &BTreeMap<String, u64>) -> Vec<String> {
    let mut failures = Vec::new();
    for e in baseline {
        match current.get(&e.name) {
            None => failures.push(format!(
                "counter {} missing from current run (baseline {})",
                e.name, e.value
            )),
            Some(&got) if !e.rule.admits(e.value, got) => failures.push(format!(
                "counter {}: {got} violates {} {}",
                e.name,
                e.rule.render(),
                e.value
            )),
            Some(_) => {}
        }
    }
    failures
}

/// The parallel acceptance pass: prepares and measures the Table 1 suite
/// with `--parallel-measure` semantics, exports the Chrome trace,
/// re-parses it with [`obs::json::parse`], and asserts it carries at
/// least two thread tracks on a multi-core machine. Returns the number of
/// distinct thread tracks.
fn parallel_trace_pass(
    chrome_out: Option<&str>,
    folded_out: Option<&str>,
) -> Result<usize, String> {
    let report = {
        let session = obs::install();
        let opts = bench::SuiteOptions {
            parallel_measure: true,
        };
        let preps = bench::prepare_table1_with_opts(&Default::default(), &opts);
        bench::measure_mains(&preps, &opts);
        let report = obs::report().expect("recorder is installed");
        drop(session);
        report
    };

    let trace = report.to_chrome_trace();
    let doc = obs::json::parse(&trace).map_err(|e| format!("chrome trace is invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(obs::json::Value::as_array)
        .ok_or("chrome trace has no traceEvents array")?;
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(obs::json::Value::as_str) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(obs::json::Value::as_f64))
        .map(|t| t as u64)
        .collect();
    tids.sort_unstable();
    tids.dedup();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 && tids.len() < 2 {
        return Err(format!(
            "expected >= 2 thread tracks on a {cores}-core machine, got {}",
            tids.len()
        ));
    }

    if let Some(path) = chrome_out {
        std::fs::write(path, &trace).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("obs_regress: wrote chrome trace `{path}`");
    }
    if let Some(path) = folded_out {
        std::fs::write(path, report.to_folded_stacks())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("obs_regress: wrote folded stacks `{path}`");
    }
    Ok(tids.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_parse_and_admit() {
        assert!(Rule::parse("exact").unwrap().admits(5, 5));
        assert!(!Rule::parse("exact").unwrap().admits(5, 6));
        assert!(Rule::parse("ceiling").unwrap().admits(10, 10));
        assert!(!Rule::parse("ceiling").unwrap().admits(10, 11));
        assert!(Rule::parse("floor").unwrap().admits(10, 10));
        assert!(!Rule::parse("floor").unwrap().admits(10, 9));
        let pct = Rule::parse("10%").unwrap();
        assert!(pct.admits(100, 110));
        assert!(pct.admits(100, 90));
        assert!(!pct.admits(100, 111));
        assert!(Rule::parse("ten").is_err());
        assert!(Rule::parse("-5%").is_err());
        assert!(Rule::parse("x%").is_err());
    }

    #[test]
    fn baseline_round_trips_through_snapshot() {
        let mut current = BTreeMap::new();
        current.insert("machine/steps".to_owned(), 123);
        current.insert("vcache/check_miss".to_owned(), 4);
        let entries = parse_baseline(&render_snapshot(&current)).unwrap();
        assert_eq!(
            entries[0],
            Entry {
                name: "machine/steps".into(),
                value: 123,
                rule: Rule::Exact,
            }
        );
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.rule == Rule::Exact));
        // An identical re-run passes its own snapshot.
        assert!(compare(&entries, &current).is_empty());
    }

    #[test]
    fn compare_flags_drift_and_missing_metrics() {
        let baseline = vec![
            Entry {
                name: "steps".into(),
                value: 100,
                rule: Rule::Exact,
            },
            Entry {
                name: "gone".into(),
                value: 1,
                rule: Rule::Exact,
            },
        ];
        let mut current = BTreeMap::new();
        current.insert("steps".to_owned(), 101);
        let failures = compare(&baseline, &current);
        assert_eq!(failures.len(), 2);
        assert!(
            failures[0].contains("101 violates exact 100"),
            "{failures:?}"
        );
        assert!(failures[1].contains("missing"), "{failures:?}");
    }

    #[test]
    fn baseline_parser_rejects_malformed_lines() {
        assert!(parse_baseline("").is_err());
        assert!(parse_baseline("# only comments\n").is_err());
        assert!(parse_baseline("counter a 1\n").is_err());
        assert!(parse_baseline("widget a 1 exact\n").is_err());
        // Timing is stackbench's business: span kinds are gone.
        assert!(parse_baseline("spanns b 2 ceiling\n").is_err());
        assert!(parse_baseline("counter a one exact\n").is_err());
        assert!(parse_baseline("counter a 1 sometimes\n").is_err());
        let ok = parse_baseline("# c\n\ncounter a 1 exact\ncounter b 2 ceiling\n").unwrap();
        assert_eq!(ok.len(), 2);
    }
}
