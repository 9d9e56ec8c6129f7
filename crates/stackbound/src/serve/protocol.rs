//! The daemon's line-delimited JSON wire protocol.
//!
//! One request object per line in, one response object per line out.
//! Responses to pipelined `verify` requests may arrive out of request
//! order (the worker pool runs them in parallel). The `op` field selects
//! the verb; every request carries a client-chosen numeric `id` that is
//! echoed in the response so clients can match them up:
//!
//! ```text
//! → {"op":"verify","id":1,"source":"int main() { return 0; }",
//!    "target":"rv","params":{"ALEN":10},"measure":true,"timeout_ms":5000}
//! ← {"id":1,"ok":true,"target":"rv","functions":{"main":{"bound":8,
//!    "measured":8,"slack":0}},"report":"function ...","cache":{...},
//!    "queue_us":12,"work_us":3456}
//!
//! → {"op":"table2","id":5,"case":"fib","target":"sz32"}
//! ← {"id":5,"ok":true,"case":"fib","target":"sz32",
//!    "report":"fib.c: 1 proofs checked, bound ...","cache":{...},
//!    "queue_us":9,"work_us":187000}
//!
//! → {"op":"ping","id":2}
//! ← {"id":2,"ok":true,"pong":true}
//!
//! → {"op":"metrics","id":3}
//! ← {"id":3,"ok":true,"uptime_ms":...,"requests":{...},"cache":{...},
//!    "obs":{...}}
//!
//! → {"op":"shutdown","id":4}
//! ← {"id":4,"ok":true,"draining":true}      (written after the drain)
//! ```
//!
//! Failures — malformed JSON, unknown ops, verification errors, timeouts,
//! an overloaded (draining) queue — all use one shape:
//!
//! ```text
//! ← {"id":1,"ok":false,"error":"analyzer: recursion on f"}
//! ```
//!
//! The `id` in an error response is best-effort: if the request line was
//! parseable enough to carry one it is echoed, otherwise it is `0`.
//!
//! `verify` defaults: `target` `"sz32"`, `params` `{}`, `measure` `true`,
//! `timeout_ms` the server's default. The `report` field of a successful
//! response is exactly the [`Report`] table a one-shot
//! `sbound` run prints for the same source and target, byte for byte —
//! the serve equivalence tests hang off this field.
//!
//! `table2` re-verifies one of the daemon's built-in Table 2 recursive
//! cases (the hand-written derivations shipped with the crate) by
//! headline name, through the same shared cache; its `report` is the
//! one-shot [`table2`](crate::table2) rendering, byte for byte. It takes
//! the same `target`/`timeout_ms` options as `verify`.

use crate::Report;
use obs::json::Value;
use std::fmt::Write as _;

/// JSON-escapes a string (quotes included); shared with the obs exporters.
pub use obs::json::escape;

/// A fully parsed `verify` request.
#[derive(Debug, Clone)]
pub struct VerifyRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The C source text to verify.
    pub source: String,
    /// Backend target to certify for (`"sz32"` or `"rv"`).
    pub target: asm::Target,
    /// Compile-time parameters (the paper's `ALEN` section hypotheses),
    /// in sorted name order.
    pub params: Vec<(String, u32)>,
    /// Whether to run the measurement stage (default `true`).
    pub measure: bool,
    /// Per-request deadline override in milliseconds; `None` uses the
    /// server default.
    pub timeout_ms: Option<u64>,
}

/// A fully parsed `table2` request: re-verify one of the built-in
/// Table 2 recursive cases against the shared cache.
#[derive(Debug, Clone)]
pub struct Table2Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Headline name of the case (`"fib"`, `"qsort"`, …).
    pub case: String,
    /// Backend target to certify for (`"sz32"` or `"rv"`).
    pub target: asm::Target,
    /// Per-request deadline override in milliseconds; `None` uses the
    /// server default.
    pub timeout_ms: Option<u64>,
}

/// One parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Verify a program and reply with bounds (`op: "verify"`).
    Verify(Box<VerifyRequest>),
    /// Re-verify a built-in Table 2 recursive case (`op: "table2"`).
    Table2(Table2Request),
    /// Report live server/cache/obs statistics (`op: "metrics"`).
    Metrics {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe (`op: "ping"`).
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Drain the queue and stop the server (`op: "shutdown"`).
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.get(key)
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    let n = field(v, key)?.as_f64()?;
    if n.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&n) {
        Some(n as u64)
    } else {
        None
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns `(id, message)` for malformed lines — the best-effort `id` (0
/// when unrecoverable) lets the caller still address the error response.
pub fn parse_request(line: &str) -> Result<Request, (u64, String)> {
    let v = obs::json::parse(line).map_err(|e| (0, format!("malformed request: {e}")))?;
    let id = u64_field(&v, "id").unwrap_or(0);
    let op = field(&v, "op")
        .and_then(Value::as_str)
        .ok_or_else(|| (id, "missing string field `op`".to_owned()))?;
    match op {
        "ping" => Ok(Request::Ping { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "verify" => {
            let source = field(&v, "source")
                .and_then(Value::as_str)
                .ok_or_else(|| (id, "verify: missing string field `source`".to_owned()))?
                .to_owned();
            let target = target_field(&v, id, "verify")?;
            let mut params = Vec::new();
            if let Some(p) = field(&v, "params") {
                let Value::Object(map) = p else {
                    return Err((id, "verify: `params` must be an object".to_owned()));
                };
                // BTreeMap iteration gives a deterministic sorted order.
                for (name, val) in map {
                    let n = val
                        .as_f64()
                        .filter(|n| n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(n));
                    match n {
                        Some(n) => params.push((name.clone(), n as u32)),
                        None => {
                            return Err((id, format!("verify: param `{name}` must be a u32")));
                        }
                    }
                }
            }
            let measure = match field(&v, "measure") {
                None => true,
                Some(Value::Bool(b)) => *b,
                Some(_) => {
                    return Err((id, "verify: `measure` must be a boolean".to_owned()));
                }
            };
            let timeout_ms = timeout_field(&v, id, "verify")?;
            Ok(Request::Verify(Box::new(VerifyRequest {
                id,
                source,
                target,
                params,
                measure,
                timeout_ms,
            })))
        }
        "table2" => {
            let case = field(&v, "case")
                .and_then(Value::as_str)
                .ok_or_else(|| (id, "table2: missing string field `case`".to_owned()))?
                .to_owned();
            let target = target_field(&v, id, "table2")?;
            let timeout_ms = timeout_field(&v, id, "table2")?;
            Ok(Request::Table2(Table2Request {
                id,
                case,
                target,
                timeout_ms,
            }))
        }
        other => Err((id, format!("unknown op `{other}`"))),
    }
}

fn target_field(v: &Value, id: u64, op: &str) -> Result<asm::Target, (u64, String)> {
    match field(v, "target") {
        None => Ok(asm::Target::default()),
        Some(t) => t
            .as_str()
            .ok_or_else(|| (id, format!("{op}: `target` must be a string")))?
            .parse()
            .map_err(|e| (id, format!("{op}: {e}"))),
    }
}

fn timeout_field(v: &Value, id: u64, op: &str) -> Result<Option<u64>, (u64, String)> {
    match field(v, "timeout_ms") {
        None => Ok(None),
        Some(_) => u64_field(v, "timeout_ms").map(Some).ok_or_else(|| {
            (
                id,
                format!("{op}: `timeout_ms` must be a non-negative integer"),
            )
        }),
    }
}

/// The uniform failure response (`ok: false`).
pub fn error_response(id: u64, message: &str) -> String {
    format!("{{\"id\":{id},\"ok\":false,\"error\":{}}}", escape(message))
}

/// The `ping` → pong response.
pub fn pong_response(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"pong\":true}}")
}

/// The `shutdown` acknowledgement, written once the drain has completed.
pub fn shutdown_response(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"draining\":true}}")
}

/// The combined cache-statistics object embedded in `verify` and
/// `metrics` responses: per-stage `[hits, misses]` pairs for the four
/// [`vcache`] stages plus the measure cache, and the live entry counts.
pub fn cache_stats(vc: &vcache::VCache, mc: &asm::MeasureCache) -> String {
    let mut out = String::from("{");
    for stage in vcache::CacheStage::ALL {
        let (h, m) = vc.stats(stage);
        let _ = write!(out, "\"{}\":[{h},{m}],", stage.name());
    }
    let (h, m) = mc.stats();
    let _ = write!(
        out,
        "\"measure\":[{h},{m}],\"vcache_entries\":{},\"measure_entries\":{}}}",
        vc.len(),
        mc.len()
    );
    out
}

/// A successful `verify` response: per-function bounds/measurements, the
/// one-shot-identical report rendering, cache statistics, and the time
/// the request spent queued vs. being worked.
pub fn verify_response(
    id: u64,
    report: &Report,
    cache: &str,
    queue_us: u64,
    work_us: u64,
) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"ok\":true,\"target\":\"{}\",\"functions\":{{",
        report.target().name()
    );
    let mut first = true;
    for (name, bound) in report.bounds() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{{\"bound\":{bound}", escape(name));
        if let Some(m) = report.measured(name) {
            let _ = write!(out, ",\"measured\":{m},\"slack\":{}", bound - m);
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "}},\"report\":{},\"cache\":{cache},\"queue_us\":{queue_us},\"work_us\":{work_us}}}",
        escape(&report.to_string())
    );
    out
}

/// A successful `table2` response: the case name, target, the
/// one-shot-identical single-line rendering, cache statistics, and the
/// time the request spent queued vs. being worked.
pub fn table2_response(
    id: u64,
    case: &str,
    target: asm::Target,
    report: &str,
    cache: &str,
    queue_us: u64,
    work_us: u64,
) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"case\":{},\"target\":\"{}\",\"report\":{},\
         \"cache\":{cache},\"queue_us\":{queue_us},\"work_us\":{work_us}}}",
        escape(case),
        target.name(),
        escape(report)
    )
}

/// Live server counters for the `metrics` verb — assembled by the server,
/// rendered by [`metrics_response`].
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Correlation id of the `metrics` request.
    pub id: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Requests accepted off connections (all verbs counted).
    pub received: u64,
    /// `verify` jobs completed successfully.
    pub completed: u64,
    /// `verify` jobs that failed verification (or were rejected).
    pub failed: u64,
    /// `verify` jobs cancelled at their deadline before starting.
    pub timed_out: u64,
    /// Jobs currently waiting in the bounded queue.
    pub queue_depth: usize,
    /// Jobs currently being verified by workers.
    pub in_flight: usize,
    /// The [`cache_stats`] fragment.
    pub cache: String,
    /// Live obs recorder totals `(spans, counters, histograms)` from a
    /// non-draining [`obs::snapshot`], when a recorder is installed.
    pub obs: Option<(usize, usize, usize)>,
}

/// Renders the `metrics` response line.
pub fn metrics_response(m: &Metrics) -> String {
    let mut out = format!(
        "{{\"id\":{},\"ok\":true,\"uptime_ms\":{},\"requests\":{{\"received\":{},\
         \"completed\":{},\"failed\":{},\"timed_out\":{},\"queue_depth\":{},\
         \"in_flight\":{}}},\"cache\":{}",
        m.id,
        m.uptime_ms,
        m.received,
        m.completed,
        m.failed,
        m.timed_out,
        m.queue_depth,
        m.in_flight,
        m.cache,
    );
    match m.obs {
        Some((spans, counters, histograms)) => {
            let _ = write!(
                out,
                ",\"obs\":{{\"spans\":{spans},\"counters\":{counters},\
                 \"histograms\":{histograms}}}}}"
            );
        }
        None => out.push_str(",\"obs\":null}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{
        cache_stats, error_response, metrics_response, parse_request, verify_response, Metrics,
        Request,
    };

    #[test]
    fn parses_every_verb_and_defaults() {
        match parse_request(r#"{"op":"ping","id":7}"#).unwrap() {
            Request::Ping { id } => assert_eq!(id, 7),
            other => panic!("wrong verb: {other:?}"),
        }
        match parse_request(r#"{"op":"metrics","id":8}"#).unwrap() {
            Request::Metrics { id } => assert_eq!(id, 8),
            other => panic!("wrong verb: {other:?}"),
        }
        match parse_request(r#"{"op":"shutdown"}"#).unwrap() {
            Request::Shutdown { id } => assert_eq!(id, 0),
            other => panic!("wrong verb: {other:?}"),
        }
        let req =
            parse_request(r#"{"op":"verify","id":3,"source":"int main() { return 0; }"}"#).unwrap();
        match req {
            Request::Verify(v) => {
                assert_eq!(v.id, 3);
                assert_eq!(v.target, asm::Target::Sz32);
                assert!(v.params.is_empty());
                assert!(v.measure);
                assert_eq!(v.timeout_ms, None);
            }
            other => panic!("wrong verb: {other:?}"),
        }
    }

    #[test]
    fn parses_verify_options() {
        let req = parse_request(
            r#"{"op":"verify","id":4,"source":"x","target":"rv",
                "params":{"B":2,"A":1},"measure":false,"timeout_ms":250}"#,
        )
        .unwrap();
        match req {
            Request::Verify(v) => {
                assert_eq!(v.target, asm::Target::Rv);
                assert_eq!(v.params, vec![("A".to_owned(), 1), ("B".to_owned(), 2)]);
                assert!(!v.measure);
                assert_eq!(v.timeout_ms, Some(250));
            }
            other => panic!("wrong verb: {other:?}"),
        }
    }

    #[test]
    fn parses_table2_requests() {
        let req = parse_request(r#"{"op":"table2","id":21,"case":"fib"}"#).unwrap();
        match req {
            Request::Table2(t) => {
                assert_eq!(t.id, 21);
                assert_eq!(t.case, "fib");
                assert_eq!(t.target, asm::Target::Sz32);
                assert_eq!(t.timeout_ms, None);
            }
            other => panic!("wrong verb: {other:?}"),
        }
        let req = parse_request(
            r#"{"op":"table2","id":22,"case":"qsort","target":"rv","timeout_ms":9000}"#,
        )
        .unwrap();
        match req {
            Request::Table2(t) => {
                assert_eq!(t.target, asm::Target::Rv);
                assert_eq!(t.timeout_ms, Some(9000));
            }
            other => panic!("wrong verb: {other:?}"),
        }
        let (id, msg) = parse_request(r#"{"op":"table2","id":23}"#).unwrap_err();
        assert_eq!(id, 23);
        assert!(msg.contains("case"), "{msg}");

        let line = super::table2_response(
            5,
            "fib",
            asm::Target::Rv,
            "fib.c: 1 proofs checked",
            "{}",
            10,
            20,
        );
        let v = obs::json::parse(&line).unwrap();
        assert_eq!(v.get("case").unwrap().as_str(), Some("fib"));
        assert_eq!(v.get("target").unwrap().as_str(), Some("rv"));
        assert_eq!(
            v.get("report").unwrap().as_str(),
            Some("fib.c: 1 proofs checked")
        );
    }

    #[test]
    fn errors_keep_the_request_id_when_recoverable() {
        assert_eq!(parse_request("not json").unwrap_err().0, 0);
        let (id, msg) = parse_request(r#"{"op":"frobnicate","id":9}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("frobnicate"), "{msg}");
        let (id, msg) = parse_request(r#"{"op":"verify","id":11}"#).unwrap_err();
        assert_eq!(id, 11);
        assert!(msg.contains("source"), "{msg}");
        let (id, _) =
            parse_request(r#"{"op":"verify","id":12,"source":"x","target":"mips"}"#).unwrap_err();
        assert_eq!(id, 12);
        let (id, msg) = parse_request(r#"{"op":"verify","id":13,"source":"x","params":{"A":1.5}}"#)
            .unwrap_err();
        assert_eq!(id, 13);
        assert!(msg.contains("u32"), "{msg}");
    }

    #[test]
    fn responses_are_well_formed_json() {
        let report = crate::verify_program(
            "u32 leaf(u32 x) { return x + 1; }
             int main() { u32 r; r = leaf(1); return r; }",
        )
        .unwrap();
        let vc = vcache::VCache::new();
        let mc = asm::MeasureCache::new();
        let cache = cache_stats(&vc, &mc);
        let line = verify_response(5, &report, &cache, 10, 2000);
        let v = obs::json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_f64(), Some(5.0));
        assert_eq!(v.get("ok"), Some(&obs::json::Value::Bool(true)));
        assert_eq!(v.get("target").unwrap().as_str(), Some("sz32"));
        let main = v.get("functions").unwrap().get("main").unwrap();
        assert_eq!(
            main.get("bound").unwrap().as_f64(),
            Some(f64::from(report.bound("main").unwrap()))
        );
        assert_eq!(main.get("slack").unwrap().as_f64(), Some(4.0));
        // The embedded report is the one-shot rendering, byte for byte.
        assert_eq!(
            v.get("report").unwrap().as_str(),
            Some(report.to_string().as_str())
        );

        let err = error_response(6, "analyzer: recursion on \"f\"");
        let v = obs::json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&obs::json::Value::Bool(false)));
        assert!(v
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("recursion"));

        let m = metrics_response(&Metrics {
            id: 7,
            uptime_ms: 1234,
            received: 10,
            completed: 8,
            failed: 1,
            timed_out: 1,
            queue_depth: 0,
            in_flight: 0,
            cache: cache_stats(&vc, &mc),
            obs: Some((3, 2, 1)),
        });
        let v = obs::json::parse(&m).unwrap();
        assert_eq!(
            v.get("requests")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_f64(),
            Some(8.0)
        );
        assert_eq!(
            v.get("obs").unwrap().get("spans").unwrap().as_f64(),
            Some(3.0)
        );
        assert!(v.get("cache").unwrap().get("analyze").is_some());
    }
}
