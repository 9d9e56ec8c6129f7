//! End-to-end observability: one verified run must produce a span tree
//! covering every pipeline layer, machine-readable JSON lines, and a
//! stack waterline whose peak is the measured usage.

use std::sync::{Arc, Mutex, OnceLock};

const SRC: &str = "
    u32 square(u32 x) { return x * x; }
    u32 poly(u32 x) { u32 a; u32 b; a = square(x); b = square(x + 1); return a + b; }
    int main() { u32 r; r = poly(6); return r % 256; }";

/// The obs recorder is process-global; serialize the tests that install it.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GLOBAL: OnceLock<Mutex<()>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Every span name of the report's trees, parents first.
fn span_names(report: &obs::Report) -> Vec<String> {
    fn walk(node: &obs::SpanNode, out: &mut Vec<String>) {
        out.push(node.name.clone());
        node.children.iter().for_each(|c| walk(c, out));
    }
    let mut out = Vec::new();
    report.roots.iter().for_each(|root| walk(root, &mut out));
    out
}

#[test]
fn span_tree_covers_every_layer() {
    let _guard = lock();
    let session = obs::install();
    stackbound::verify_program(SRC).unwrap();
    let report = obs::report().expect("recorder installed");
    drop(session);

    let spans = span_names(&report);
    for expected in [
        "verify/program",
        "clight/frontend",
        "clight/parse",
        "clight/typecheck",
        // The verifier enters the analyzer and the checker through the
        // verification cache, a fresh one when the caller brings none.
        "vcache/analyze",
        "vcache/check",
        "compiler/compile",
        "compiler/cminorgen",
        "compiler/rtlgen",
        "compiler/constprop",
        "compiler/dce",
        "compiler/tunnel",
        // Target-specific backend stages carry a `target=` label so a
        // sz32 and an rv run never collide in obs-diff or hotspots.
        "compiler/machgen{target=sz32}",
        "compiler/asmgen{target=sz32}",
        "verify/bounds",
        "verify/measure",
        // Per-function attribution spans (`<stage>/fn/<function>`): the
        // checker, the backend passes, and the measurement all name the
        // corpus function they are working on.
        "analyzer/fn/main",
        "qhl/fn/main",
        "compiler/machgen{target=sz32}/fn/main",
        "compiler/asmgen{target=sz32}/fn/main",
        "measure/fn/main",
    ] {
        assert!(
            spans.iter().any(|s| s == expected),
            "span `{expected}` missing from {spans:?}"
        );
    }
    // Rule applications and machine opcode classes were counted.
    assert!(report.counters.get("qhl/rule/Q:CALL").copied().unwrap_or(0) > 0);
    assert!(report.counters.get("asm/instrs/call").copied().unwrap_or(0) > 0);
    assert!(report.counters.get("clight/tokens").copied().unwrap_or(0) > 0);
}

#[test]
fn json_lines_parse_and_reference_valid_parents() {
    let _guard = lock();
    let session = obs::install();
    stackbound::verify_program(SRC).unwrap();
    let report = obs::report().expect("recorder installed");
    drop(session);

    let text = report.to_json_lines();
    assert!(!text.is_empty());
    let mut span_ids = Vec::new();
    let mut kinds = Vec::new();
    for line in text.lines() {
        let v = obs::json::parse(line).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"));
        let k = v
            .get("k")
            .and_then(|k| k.as_str())
            .expect("k field")
            .to_owned();
        match k.as_str() {
            "span" => {
                let id = v.get("id").and_then(|i| i.as_f64()).expect("id") as i64;
                if let Some(p) = v.get("parent").and_then(|p| p.as_f64()) {
                    assert!(
                        span_ids.contains(&(p as i64)),
                        "parent {p} appears after child in {line}"
                    );
                }
                assert!(v.get("name").and_then(|n| n.as_str()).is_some());
                assert!(v.get("dur_ns").and_then(|d| d.as_f64()).is_some());
                span_ids.push(id);
            }
            "counter" => {
                assert!(v.get("value").and_then(|n| n.as_f64()).is_some());
            }
            "hist" => {
                assert!(v.get("count").and_then(|n| n.as_f64()).is_some());
            }
            "thread" => {
                assert!(v.get("tid").and_then(|t| t.as_f64()).is_some());
                assert!(v.get("name").and_then(|n| n.as_str()).is_some());
            }
            other => panic!("unknown record kind `{other}`"),
        }
        kinds.push(k);
    }
    assert!(kinds.iter().any(|k| k == "span"));
    assert!(kinds.iter().any(|k| k == "counter"));
}

/// Several zero-parameter functions, each measured on its own verified
/// bound under `measure_all_functions`.
const SRC_MULTI: &str = "
    u32 leaf0() { return 3; }
    u32 leaf1() { return 5; }
    u32 leaf2() { u32 a; a = leaf0(); return a + 1; }
    u32 leaf3() { u32 a; a = leaf1(); return a + 2; }
    int main() { u32 a; u32 b; a = leaf2(); b = leaf3(); return (a + b) % 256; }";

#[test]
fn measure_all_attributes_hotspots_and_exports_chrome_timelines() {
    let _guard = lock();
    let session = obs::install();
    stackbound::Verifier::new()
        .measure_all_functions(true)
        .verify(SRC_MULTI)
        .unwrap();
    let report = obs::report().expect("recorder installed");
    drop(session);

    // Every measured function got a hotspot row, with its machine steps
    // attributed and measure-stage time recorded.
    let hotspots = report.hotspots();
    for f in ["main", "leaf0", "leaf1", "leaf2", "leaf3"] {
        let spot = hotspots
            .iter()
            .find(|h| h.function == f)
            .unwrap_or_else(|| panic!("no hotspot for `{f}`"));
        assert!(spot.steps() > 0, "`{f}` executed no machine steps");
        assert!(
            spot.stages.keys().any(|s| s.contains("measure")),
            "`{f}` has no measure stage: {:?}",
            spot.stages
        );
    }
    let rendered = report.render_hotspots();
    assert!(rendered.contains("main"), "{rendered}");

    // The Chrome export is valid JSON (per the in-crate parser), and the
    // measurements ran on the calling thread's track.
    assert_eq!(span_threads(&report).len(), 1);

    // The folded export names a thread in every stack line.
    for line in report.to_folded_stacks().lines() {
        let (stack, self_ns) = line.rsplit_once(' ').expect("`stack self_ns` shape");
        assert!(stack.contains(';'), "no thread prefix in `{line}`");
        self_ns.parse::<u64>().expect("numeric self time");
    }
}

/// The distinct thread ids of the Chrome export's complete (`X`) span
/// events, after checking that the export is valid JSON (per the in-crate
/// parser).
fn span_threads(report: &obs::Report) -> Vec<u64> {
    let trace = report.to_chrome_trace();
    let doc = obs::json::parse(&trace).unwrap_or_else(|e| panic!("invalid chrome trace: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(obs::json::Value::as_array)
        .expect("traceEvents array");
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(obs::json::Value::as_str) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(obs::json::Value::as_f64))
        .map(|t| t as u64)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    tids
}

/// A verification through a cache runs on the calling thread, even where
/// the call graph has independent functions side by side (`leaf0`/`leaf1`,
/// then `leaf2`/`leaf3`); and a second one, whose every function hits the
/// cache, still runs the pass manager pass by pass, splicing instead of
/// translating.
#[test]
fn cached_verify_runs_every_pass_on_the_calling_thread() {
    let _guard = lock();
    let cache = Arc::new(stackbound::vcache::VCache::new());
    let verifier = stackbound::Verifier::new().vcache(cache.clone());
    for pass in ["cold", "cached"] {
        let session = obs::install();
        verifier.verify(SRC_MULTI).unwrap();
        let report = obs::report().expect("recorder installed");
        drop(session);
        assert_eq!(span_threads(&report).len(), 1, "{pass}: several threads");
        let spans = span_names(&report);
        let passes = ["cminorgen", "rtlgen", "constprop", "dce", "tunnel"];
        let backend = ["machgen{target=sz32}", "asmgen{target=sz32}"];
        for name in passes.into_iter().chain(backend) {
            assert!(
                spans.contains(&format!("compiler/{name}")),
                "{pass}: {spans:?}"
            );
        }
        let translated = spans
            .iter()
            .any(|s| s.starts_with("compiler/machgen{target=sz32}/fn/"));
        assert_eq!(translated, pass == "cold", "{pass}: {spans:?}");
    }
    assert_eq!(cache.stats(stackbound::vcache::CacheStage::Compile), (5, 5));
}

#[test]
fn measurement_waterline_peaks_at_stack_usage() {
    // No recorder here on purpose: profiling is independent of obs. The
    // lock keeps this run's spans out of another test's recorder.
    let _guard = lock();
    let report = stackbound::verify_program(SRC).unwrap();
    let m = report.measurement.as_ref().expect("main was measured");
    assert!(!m.profile.samples().is_empty());
    assert_eq!(m.profile.peak(), m.stack_usage);
    assert_eq!(Some(m.stack_usage), report.measured("main"));
    // The verified bound exceeds the waterline peak by exactly 4 bytes.
    assert_eq!(report.bound("main"), Some(m.profile.peak() + 4));
}
