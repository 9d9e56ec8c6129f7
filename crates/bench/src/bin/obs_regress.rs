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
//! is byte-deterministic, and the gate requires each one to equal its
//! baseline exactly. Baseline lines are `name value`:
//!
//! ```text
//! machine/steps            1188090
//! ```
//!
//! `--trace-chrome`/`--trace-folded` export the same run's timeline.
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

    let report = {
        let session = obs::install();
        run_corpus();
        let report = obs::report().expect("recorder is installed");
        drop(session);
        report
    };
    let current = &report.counters;
    println!(
        "obs_regress: serial corpus pass recorded {} counters",
        current.len()
    );

    if opts.snapshot {
        let text = render_snapshot(current);
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
        let failures = compare(&baseline, current);
        for f in &failures {
            eprintln!("obs_regress: FAILED: {f}");
        }
        let fresh: Vec<&String> = current
            .keys()
            .filter(|name| !baseline.contains_key(*name))
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
            "obs_regress: all {} baseline counters match",
            baseline.len()
        );
    }

    let exports = [
        (
            &opts.trace_chrome,
            obs::Report::to_chrome_trace as fn(&obs::Report) -> String,
        ),
        (&opts.trace_folded, obs::Report::to_folded_stacks),
    ];
    for (path, export) in exports {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, export(&report)) {
                eprintln!("obs_regress: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            println!("obs_regress: wrote `{path}`");
        }
    }
    ExitCode::SUCCESS
}

/// The gate workload: the whole corpus through fresh shared
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

/// Renders the current counters as a fresh baseline.
fn render_snapshot(current: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(
        "# obs_regress baseline: `name value` per line; every counter must match exactly.\n\
         # Regenerate with `cargo run --release -p bench --bin obs_regress -- --snapshot`.\n",
    );
    let width = current.keys().map(String::len).max().unwrap_or(0);
    for (name, value) in current {
        out.push_str(&format!("{name:<width$} {value:>12}\n"));
    }
    out
}

/// Parses a baseline file (see [`render_snapshot`] for the format) into
/// counter values by name.
fn parse_baseline(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut entries = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, value] = fields[..] else {
            return Err(format!("line {}: expected `name value`", i + 1));
        };
        let value = value
            .parse::<u64>()
            .map_err(|e| format!("line {}: bad value: {e}", i + 1))?;
        if entries.insert(name.to_owned(), value).is_some() {
            return Err(format!("line {}: duplicate counter `{name}`", i + 1));
        }
    }
    if entries.is_empty() {
        return Err("baseline declares no counters".to_owned());
    }
    Ok(entries)
}

/// Checks every baseline entry against the current counters, returning
/// one message per violation (a counter missing from the current run is a
/// violation — the instrumentation that produced it is gone).
fn compare(baseline: &BTreeMap<String, u64>, current: &BTreeMap<String, u64>) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, &value) in baseline {
        match current.get(name) {
            None => failures.push(format!(
                "counter {name} missing from current run (baseline {value})"
            )),
            Some(&got) if got != value => {
                failures.push(format!("counter {name}: {got}, baseline {value}"))
            }
            Some(_) => {}
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_through_snapshot() {
        let mut current = BTreeMap::new();
        current.insert("machine/steps".to_owned(), 123);
        current.insert("vcache/check_miss".to_owned(), 4);
        let baseline = parse_baseline(&render_snapshot(&current)).unwrap();
        assert_eq!(baseline, current);
        // An identical re-run passes its own snapshot.
        assert!(compare(&baseline, &current).is_empty());
    }

    #[test]
    fn compare_flags_drift_and_missing_metrics() {
        let baseline = parse_baseline("steps 100\ngone 1\n").unwrap();
        let mut current = BTreeMap::new();
        current.insert("steps".to_owned(), 101);
        let failures = compare(&baseline, &current);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("gone missing"), "{failures:?}");
        assert!(failures[1].contains("101, baseline 100"), "{failures:?}");
    }

    #[test]
    fn baseline_parser_rejects_malformed_lines() {
        assert!(parse_baseline("").is_err());
        assert!(parse_baseline("# only comments\n").is_err());
        assert!(parse_baseline("a\n").is_err());
        assert!(parse_baseline("a one\n").is_err());
        assert!(parse_baseline("a 1 exact\n").is_err());
        assert!(parse_baseline("a 1\na 2\n").is_err());
        let ok = parse_baseline("# c\n\na 1\nb 2\n").unwrap();
        assert_eq!(ok.len(), 2);
    }
}
