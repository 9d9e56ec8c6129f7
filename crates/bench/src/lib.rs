//! Shared helpers for the paper-reproduction harness binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation (§6)
//! or gates one property of the corpus:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — automatically verified bounds |
//! | `table2` | Table 2 — manually verified symbolic bounds |
//! | `fig7` | Figure 7 — bound vs. measured usage sweeps |
//! | `accuracy` | §6 — every bound equals measured + 4 |
//! | `theorem1` | Theorem 1 — the exact overflow boundary |
//! | `ablation_merge` | stack merging on/off |
//! | `ablation_opt` | optimizations on/off |
//! | `ablation_metric` | `M = SF + 4` vs. the naive `M = SF` |
//! | `ablation_inline` | leaf inlining on/off |
//! | `stacklint` | binary-level `measured <= binary <= certified` gate |
//! | `obs_regress` | exact-count observability baseline gate |
//! | `obs-diff` | diff of two `--metrics-json` reports |
//!
//! Run them with `cargo run -p bench --bin <name>`. Timing is not these
//! binaries' job: the `stackbench` package at the repository root is the
//! one benchmark, and its README lists every metric it reports.

#![warn(missing_docs)]

use stackbound::{analyzer, asm, clight, compiler};

/// Fuel for all harness executions.
pub const FUEL: u64 = 400_000_000;

/// A fully prepared Table 1 benchmark: program, analysis, compiled code.
pub struct Prepared {
    /// File name as in the paper.
    pub file: &'static str,
    /// Source line count.
    pub loc: usize,
    /// The functions Table 1 reports.
    pub functions: &'static [&'static str],
    /// The type-checked program.
    pub program: clight::Program,
    /// The analyzer output.
    pub analysis: analyzer::Analysis,
    /// The compiled program.
    pub compiled: compiler::Compiled,
}

/// Analyzes and compiles every Table 1 benchmark with the default
/// pipeline configuration, panicking with a clear message on any failure
/// (the test suite guards these paths; the harness just reports).
pub fn prepare_table1() -> Vec<Prepared> {
    prepare_table1_with(&compiler::PipelineConfig::default())
}

/// [`prepare_table1`] through an explicit [`compiler::PipelineConfig`]
/// (refinement checkpoints, optimization selection, …).
pub fn prepare_table1_with(config: &compiler::PipelineConfig) -> Vec<Prepared> {
    let pipeline = compiler::Pipeline::new(config.clone());
    let prepare = |b: stackbound::benchsuite::Benchmark| {
        let program = b
            .program()
            .unwrap_or_else(|e| panic!("{}: front end: {e}", b.file));
        let analysis =
            analyzer::analyze(&program).unwrap_or_else(|e| panic!("{}: analyzer: {e}", b.file));
        analysis
            .check(&program)
            .unwrap_or_else(|e| panic!("{}: derivation: {e}", b.file));
        let compiled = pipeline
            .run(&program)
            .unwrap_or_else(|e| panic!("{}: compiler: {e}", b.file));
        Prepared {
            file: b.file,
            loc: b.loc(),
            functions: b.table1_functions,
            program,
            analysis,
            compiled,
        }
    };
    stackbound::benchsuite::table1_benchmarks()
        .into_iter()
        .map(prepare)
        .collect()
}

/// Measures `fname` on each argument vector in turn (a Figure 7 sweep),
/// in input order.
pub fn measure_sweep(
    compiled: &compiler::Compiled,
    fname: &str,
    argsets: &[Vec<u32>],
) -> Vec<asm::Measurement> {
    argsets
        .iter()
        .map(|args| {
            let _s = obs::span_dyn(|| format!("measure/fn/{fname}"));
            measure(compiled, fname, args)
        })
        .collect()
}

/// Handles the harness binaries' shared pipeline flag:
///
/// * `--check-refinement` — run every pass's refinement checkpoint.
pub fn pipeline_config_from_args() -> compiler::PipelineConfig {
    compiler::PipelineConfig {
        check_refinement: std::env::args().skip(1).any(|a| a == "--check-refinement"),
        ..compiler::PipelineConfig::default()
    }
}

/// One corpus program for the binary-level differential gate: a named C
/// source plus, for the Table 2 cases, the headline recursive function
/// the binary analyzer must report a call-graph cycle through.
pub struct LintCase {
    /// File name as in the paper.
    pub file: &'static str,
    /// Complete C source (recursive cases get the driver `main`
    /// appended by [`recursive_driver`]).
    pub source: String,
    /// The headline recursive function, on Table 2 cases.
    pub recursive: Option<&'static str>,
}

/// Wraps a Table 2 recursive case in the `int main()` driver the
/// differential suite uses, so the whole-program pipeline (and the
/// binary analyzer's call graph) sees the recursion from `main`.
pub fn recursive_driver(case: &stackbound::benchsuite::RecursiveCase) -> String {
    let n = case.sweep.0.max(4);
    let args: Vec<String> = (case.args_for)(n).iter().map(|a| a.to_string()).collect();
    let (ret, use_r) = if case.name == "qsort" {
        ("", "0")
    } else {
        ("u32 r; r = ", "r & 0xff")
    };
    format!(
        "{}\nint main() {{ {ret}{}({}); return {use_r}; }}",
        case.source,
        case.name,
        args.join(", ")
    )
}

/// The full corpus the binary-level differential gate runs on: every
/// Table 1 benchmark, every extra, and every Table 2 recursive case
/// wrapped in its driver `main`.
pub fn lint_corpus() -> Vec<LintCase> {
    let mut out: Vec<LintCase> = stackbound::benchsuite::table1_benchmarks()
        .into_iter()
        .chain(stackbound::benchsuite::extra_benchmarks())
        .map(|b| LintCase {
            file: b.file,
            source: b.source.to_owned(),
            recursive: None,
        })
        .collect();
    out.extend(
        stackbound::benchsuite::recursive_cases()
            .iter()
            .map(|case| LintCase {
                file: case.file,
                source: recursive_driver(case),
                recursive: Some(case.name),
            }),
    );
    out
}

/// Measures the peak stack usage of `main` with a generous stack.
pub fn measure_main(compiled: &compiler::Compiled) -> asm::Measurement {
    asm::measure_main(&compiled.asm, 1 << 22, FUEL).expect("machine setup")
}

/// Measures `fname(args)` with a generous stack.
pub fn measure(compiled: &compiler::Compiled, fname: &str, args: &[u32]) -> asm::Measurement {
    asm::measure_function(&compiled.asm, fname, args, 1 << 22, FUEL).expect("machine setup")
}

/// Handles the harness binaries' shared observability flags:
///
/// * `--metrics` — print the recorded span tree, counters, and the
///   per-function hotspots table on exit;
/// * `--metrics-json <path>` — write the machine-readable JSON-lines
///   report to `path` on exit;
/// * `--trace-chrome <path>` — write a Chrome trace-event JSON timeline
///   (one track per thread) to `path` on exit;
/// * `--trace-folded <path>` — write folded flamegraph stacks to `path`
///   on exit.
///
/// When any flag is present the global recorder is installed for the
/// binary's lifetime; keep the returned guard alive until the end of
/// `main` (it emits the reports when dropped).
pub fn metrics_from_args() -> MetricsGuard {
    let mut print = false;
    let mut json = None;
    let mut chrome = None;
    let mut folded = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics" => print = true,
            "--metrics-json" => json = args.next(),
            "--trace-chrome" => chrome = args.next(),
            "--trace-folded" => folded = args.next(),
            _ => {}
        }
    }
    let enable = print || json.is_some() || chrome.is_some() || folded.is_some();
    MetricsGuard {
        session: enable.then(obs::install),
        print,
        json,
        chrome,
        folded,
    }
}

/// Guard returned by [`metrics_from_args`]; reports on drop.
pub struct MetricsGuard {
    session: Option<obs::Session>,
    print: bool,
    json: Option<String>,
    chrome: Option<String>,
    folded: Option<String>,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        if self.session.is_none() {
            return;
        }
        let report = obs::report().unwrap_or_default();
        let exports = [
            (
                &self.json,
                obs::Report::to_json_lines as fn(&obs::Report) -> String,
            ),
            (&self.chrome, obs::Report::to_chrome_trace),
            (&self.folded, obs::Report::to_folded_stacks),
        ];
        for (path, export) in exports {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, export(&report)) {
                    eprintln!("cannot write metrics to `{path}`: {e}");
                }
            }
        }
        if self.print {
            println!("\n{}", report.render_tree());
            let hotspots = report.render_hotspots();
            if !hotspots.is_empty() {
                println!("{hotspots}");
            }
        }
    }
}
