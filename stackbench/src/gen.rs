//! Seeded inputs of the `serve_edit` workload: a call-DAG program family
//! with single-function edits, the read/write request mix, and the
//! open-loop arrival schedule.
//!
//! The seed picks the DAG shape (function count and call edges), every
//! function's frame size (a local array), and, for each edit, which
//! function's constant changes. An edit of function `f` changes the
//! content key of `f` and of every transitive caller of `f`, so a write
//! invalidates anything from `main` alone up to the whole DAG.

use crate::corpus::{self, TARGETS};
use crate::rng::Rng;
use stackbound::asm::Target;
use stackbound::serve::protocol::escape;
use std::fmt::Write as _;
use std::time::Duration;

/// Share of requests that are writes (edits); the rest are reads.
pub const WRITE_SHARE: f64 = 0.2;

/// A generated call DAG: function 0 is `main`, and every call edge goes
/// from a lower to a higher index, so the call graph is acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    /// Callees of each function.
    pub callees: Vec<Vec<usize>>,
    /// Words in each function's local array (its frame-size knob).
    pub words: Vec<u32>,
    /// The constant each function adds; edits change one of these.
    pub consts: Vec<u32>,
}

impl Dag {
    /// A seeded DAG of `n ≥ 1` functions; each function has at most two
    /// callees, which keeps a run of `main` to a few thousand calls.
    pub fn generate(rng: &mut Rng, n: usize) -> Dag {
        let mut callees = vec![Vec::new(); n];
        for j in 1..n {
            // One caller among the earlier functions keeps every
            // function reachable from `main`.
            let candidates: Vec<usize> = (0..j).filter(|&i| callees[i].len() < 2).collect();
            let i = candidates[rng.below(candidates.len() as u64) as usize];
            callees[i].push(j);
        }
        for (i, out) in callees.iter_mut().enumerate() {
            for j in i + 1..n {
                if out.len() < 2 && !out.contains(&j) && rng.unit() < 0.25 {
                    out.push(j);
                }
            }
            out.sort_unstable();
        }
        let words = (0..n).map(|_| 1 + rng.below(16) as u32).collect();
        let consts = (0..n).map(|_| rng.below(1000) as u32).collect();
        Dag {
            callees,
            words,
            consts,
        }
    }

    /// The function's name in the generated source.
    pub fn name(i: usize) -> String {
        if i == 0 {
            "main".to_owned()
        } else {
            format!("f{i}")
        }
    }

    /// The C source; callees are defined before their callers.
    pub fn source(&self) -> String {
        let mut out = String::new();
        for i in (0..self.callees.len()).rev() {
            let w = self.words[i];
            let k = self.consts[i];
            if i == 0 {
                out.push_str("int main() {\n");
                let _ = writeln!(
                    out,
                    "    u32 buf[{w}];\n    u32 r;\n    u32 t;\n    buf[0] = {k};"
                );
            } else {
                let _ = writeln!(out, "u32 f{i}(u32 x) {{");
                let _ = writeln!(
                    out,
                    "    u32 buf[{w}];\n    u32 r;\n    u32 t;\n    buf[0] = x + {k};"
                );
            }
            out.push_str("    r = buf[0];\n");
            for &c in &self.callees[i] {
                let _ = writeln!(out, "    t = {}(r);\n    r = r ^ t;", Dag::name(c));
            }
            let _ = writeln!(out, "    buf[{}] = r * 3;", w - 1);
            if i == 0 {
                let _ = writeln!(out, "    return buf[{}] % 256;\n}}", w - 1);
            } else {
                let _ = writeln!(out, "    return buf[{}];\n}}", w - 1);
            }
        }
        out
    }

    /// Gives one seeded function the fresh constant `value`.
    pub fn edit(&mut self, rng: &mut Rng, value: u32) {
        let f = rng.below(self.consts.len() as u64) as usize;
        self.consts[f] = value;
    }
}

/// What a request's response must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A corpus program's known verdict.
    Verdict(Target, &'static str),
    /// A recursive case's known rejection.
    Reject(Target, &'static str),
    /// A Table 2 case's known rendered line.
    Table2(Target, &'static str),
    /// The one-shot report of an edited DAG program (index into
    /// [`Stream::edits`]).
    Edit(Target, usize),
}

/// One scheduled request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Send time, relative to the start of the phase.
    pub at: Duration,
    /// The protocol line (no trailing newline).
    pub line: String,
    /// The known answer.
    pub expect: Expect,
}

/// The reads: every corpus `verify` (expecting its known verdict), every
/// recursive-case `verify` (expecting the analyzer's rejection) and every
/// `table2` request, on both targets. `id` is filled in per request.
pub fn corpus_reads() -> Vec<(String, Expect)> {
    let mut reads = Vec::new();
    for target in TARGETS {
        let t = target.name();
        for p in corpus::programs() {
            reads.push((
                verify_body(p.source, target),
                Expect::Verdict(target, p.file),
            ));
        }
        for c in corpus::cases() {
            reads.push((
                verify_body(c.source, target),
                Expect::Reject(target, c.name),
            ));
            reads.push((
                format!(
                    r#""op":"table2","case":{},"target":"{t}"}}"#,
                    escape(c.name)
                ),
                Expect::Table2(target, c.name),
            ));
        }
    }
    reads
}

/// The request line with correlation id `id`.
pub fn with_id(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}")
}

/// The generated request stream of one run: phases of scheduled
/// requests plus the source of every edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// One request list per offered rate, in ladder order.
    pub phases: Vec<Vec<Request>>,
    /// The source text of every write, indexed by [`Expect::Edit`].
    pub edits: Vec<String>,
}

/// Function counts of the call DAGs edited per target. Writes spread
/// over all of them, and every seed gets the same sizes, so the cost of
/// a write averages over many DAG shapes whatever the seed.
pub const DAG_SIZES: [usize; 6] = [5, 6, 7, 8, 9, 10];

/// DAGs of each size per target.
pub const DAG_COPIES: usize = 4;

/// The seeded DAGs a run starts from: [`DAG_COPIES`] of each of
/// [`DAG_SIZES`] per target.
pub fn dags(seed: u64) -> Vec<(Target, Dag)> {
    let mut out = Vec::new();
    for &t in &TARGETS {
        for _ in 0..DAG_COPIES {
            for &n in &DAG_SIZES {
                let stream = 0xda6 + out.len() as u64;
                out.push((t, Dag::generate(&mut Rng::new(seed, stream), n)));
            }
        }
    }
    out
}

/// The `verify` request body for `source` on `target`.
pub fn verify_body(source: &str, target: Target) -> String {
    format!(
        r#""op":"verify","source":{},"target":"{}"}}"#,
        escape(source),
        target.name()
    )
}

/// Builds the stream for `seed`: for each `(rate, duration)` phase,
/// `rate × duration` arrivals placed uniformly at random in the phase
/// (a Poisson process conditioned on its count), each request a write
/// with probability [`WRITE_SHARE`] and otherwise a uniformly drawn
/// corpus read. A write edits one of the [`dags`], so every write's
/// previous version is the one the daemon saw last.
pub fn stream(seed: u64, phases: &[(f64, Duration)]) -> Stream {
    let reads = corpus_reads();
    let mut rng = Rng::new(seed, 0x5e7e);
    let mut dags = dags(seed);
    let mut edit_counter = 1000u32;
    let mut edits = Vec::new();
    let mut out = Vec::new();
    for &(rate, duration) in phases {
        let n = (rate * duration.as_secs_f64()).round() as usize;
        let mut times: Vec<f64> = (0..n)
            .map(|_| rng.unit() * duration.as_secs_f64())
            .collect();
        times.sort_by(f64::total_cmp);
        let mut reqs = Vec::with_capacity(n);
        for (i, t) in times.into_iter().enumerate() {
            let id = i as u64 + 1;
            let (line, expect) = if rng.unit() < WRITE_SHARE {
                let pick = rng.below(dags.len() as u64) as usize;
                let (target, dag) = &mut dags[pick];
                edit_counter += 1;
                dag.edit(&mut rng, edit_counter);
                let source = dag.source();
                let line = with_id(id, &verify_body(&source, *target));
                edits.push(source);
                (line, Expect::Edit(*target, edits.len() - 1))
            } else {
                let (body, expect) = &reads[rng.below(reads.len() as u64) as usize];
                (with_id(id, body), expect.clone())
            };
            reqs.push(Request {
                at: Duration::from_secs_f64(t),
                line,
                expect,
            });
        }
        out.push(reqs);
    }
    Stream { phases: out, edits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::FUEL;

    fn phases() -> Vec<(f64, Duration)> {
        vec![
            (250.0, Duration::from_millis(400)),
            (500.0, Duration::from_millis(400)),
        ]
    }

    fn bytes(s: &Stream) -> String {
        let mut out = String::new();
        for p in &s.phases {
            for r in p {
                let _ = writeln!(out, "{} {}", r.at.as_nanos(), r.line);
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(bytes(&stream(11, &phases())), bytes(&stream(11, &phases())));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(bytes(&stream(11, &phases())), bytes(&stream(12, &phases())));
        assert_ne!(
            Dag::generate(&mut Rng::new(1, 0), 8),
            Dag::generate(&mut Rng::new(2, 0), 8)
        );
    }

    #[test]
    fn mix_and_rate_are_close_to_nominal() {
        let s = stream(5, &[(500.0, Duration::from_secs(4))]);
        let n = s.phases[0].len() as f64;
        assert_eq!(n, 2000.0);
        let writes = s.edits.len() as f64;
        assert!(
            (writes / n - WRITE_SHARE).abs() < 0.04,
            "{writes} writes of {n}"
        );
        assert!(s.phases[0].windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// The functions an edit of `f` invalidates: `f` and its transitive
    /// callers, in index order.
    fn invalidated_by(dag: &Dag, f: usize) -> Vec<usize> {
        let mut hit = vec![false; dag.callees.len()];
        hit[f] = true;
        // Callers have lower indices, so one backward sweep closes the set.
        for i in (0..f).rev() {
            if dag.callees[i].iter().any(|&c| hit[c]) {
                hit[i] = true;
            }
        }
        (0..hit.len()).filter(|&i| hit[i]).collect()
    }

    #[test]
    fn an_edit_invalidates_the_function_and_its_transitive_callers() {
        let dag = Dag::generate(&mut Rng::new(9, 0), 10);
        assert_eq!(invalidated_by(&dag, 0), vec![0]);
        for f in 1..dag.callees.len() {
            let inv = invalidated_by(&dag, f);
            assert!(inv.contains(&0) && inv.contains(&f), "{f}: {inv:?}");
        }
        // Check against the content keys the daemon caches by.
        let mut edited = dag.clone();
        let f = dag.callees.len() - 1;
        edited.consts[f] += 1;
        let opts = stackbound::compiler::Options::default();
        let before = stackbound::vcache::keys(
            &stackbound::clight::frontend(&dag.source(), &[]).unwrap(),
            &opts,
        );
        let after = stackbound::vcache::keys(
            &stackbound::clight::frontend(&edited.source(), &[]).unwrap(),
            &opts,
        );
        let changed: Vec<usize> = (0..dag.callees.len())
            .filter(|&i| before[&Dag::name(i)] != after[&Dag::name(i)])
            .collect();
        assert_eq!(changed, invalidated_by(&dag, f));
    }

    #[test]
    fn every_generated_program_verifies_and_terminates_within_fuel() {
        for seed in 0..12 {
            let s = stream(seed, &[(400.0, Duration::from_millis(60))]);
            let starts = dags(seed).into_iter().map(|(_, d)| d.source());
            for src in starts.chain(s.edits) {
                for target in TARGETS {
                    let report = stackbound::Verifier::new()
                        .fuel(FUEL)
                        .target(target)
                        .verify(&src)
                        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
                    let m = report.measurement.as_ref().expect("main was measured");
                    assert!(m.behavior.converges(), "seed {seed}: {}", m.behavior);
                    assert!(m.steps < FUEL);
                }
            }
        }
    }
}
