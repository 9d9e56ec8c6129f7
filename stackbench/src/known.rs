//! Known answers and the independent checks every verdict must pass.
//!
//! `known_answers.txt` (next to `Cargo.toml`) holds one tab-separated
//! record per line:
//!
//! ```text
//! bound     <target> <program> <function> <bytes>   certified bound
//! measured  <target> <program> main       <bytes>   measured peak of main
//! table2    <target> <case>    <rendered Table 2 line>
//! reject    <target> <case>    <the analyzer's rejection message>
//! ```
//!
//! On top of the file, every automatically verified program must pass
//! the `stacklint` sandwich `measured ≤ binary ≤ certified`.

use crate::corpus::{self, FUEL, TARGETS};
use stackbound::asm::Target;
use stackbound::stacklint::LintReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The checked-in known-answer file.
pub const KNOWN_ANSWERS: &str = include_str!("../known_answers.txt");

/// One automatically verified program's result: every certified bound
/// and `main`'s measured peak.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Certified bound per function, in bytes.
    pub bounds: BTreeMap<String, u32>,
    /// Measured peak stack usage of `main`, in bytes.
    pub measured_main: Option<u32>,
}

impl Verdict {
    /// The verdict a [`stackbound::Report`] carries.
    pub fn of_report(report: &stackbound::Report) -> Verdict {
        Verdict {
            bounds: report.bounds().map(|(f, b)| (f.to_owned(), b)).collect(),
            measured_main: report.measured("main"),
        }
    }

    /// The canonical rendering compared byte for byte between runs.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (f, b) in &self.bounds {
            let _ = writeln!(out, "{f} {b}");
        }
        if let Some(m) = self.measured_main {
            let _ = writeln!(out, "measured main {m}");
        }
        out
    }

    /// The binary-level sandwich: a clean lint, a binary bound for every
    /// certified function with `binary ≤ certified`, and
    /// `measured ≤ binary` for `main`.
    ///
    /// # Errors
    ///
    /// Describes the first broken inequality.
    pub fn sandwich(&self, lint: &LintReport) -> Result<(), String> {
        if !lint.is_clean() {
            return Err(format!("stacklint diagnostics: {:?}", lint.diagnostics));
        }
        for (f, &certified) in &self.bounds {
            let binary = lint
                .bound(f)
                .ok_or_else(|| format!("`{f}` has no binary-level bound"))?;
            if binary > certified {
                return Err(format!("`{f}`: binary {binary} > certified {certified}"));
            }
        }
        if let Some(m) = self.measured_main {
            let binary = lint
                .bound("main")
                .ok_or("`main` has no binary-level bound")?;
            if m > binary {
                return Err(format!("`main`: measured {m} > binary {binary}"));
            }
        }
        Ok(())
    }
}

/// The parsed known-answer file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Known {
    /// `(target, program)` → verdict.
    pub verdicts: BTreeMap<(String, String), Verdict>,
    /// `(target, case)` → rendered Table 2 line.
    pub table2: BTreeMap<(String, String), String>,
    /// `(target, case)` → the one-shot rejection message of the case source.
    pub reject: BTreeMap<(String, String), String>,
}

fn key(target: Target, name: &str) -> (String, String) {
    (target.name().to_owned(), name.to_owned())
}

impl Known {
    /// Parses the known-answer format.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Known, String> {
        let mut known = Known::default();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("known answers line {}: `{line}`", i + 1);
            let fields: Vec<&str> = line.splitn(5, '\t').collect();
            let k = (
                fields.get(1).ok_or_else(bad)?.to_string(),
                fields.get(2).ok_or_else(bad)?.to_string(),
            );
            match (fields[0], fields.len()) {
                ("bound", 5) => {
                    let b = fields[4].parse().map_err(|_| bad())?;
                    known
                        .verdicts
                        .entry(k)
                        .or_default()
                        .bounds
                        .insert(fields[3].to_owned(), b);
                }
                ("measured", 5) if fields[3] == "main" => {
                    let m = fields[4].parse().map_err(|_| bad())?;
                    known.verdicts.entry(k).or_default().measured_main = Some(m);
                }
                ("table2", 4) => {
                    known.table2.insert(k, fields[3].to_owned());
                }
                ("reject", 4) => {
                    known.reject.insert(k, fields[3].to_owned());
                }
                _ => return Err(bad()),
            }
        }
        Ok(known)
    }

    /// The checked-in answers.
    ///
    /// # Panics
    ///
    /// When the checked-in file is malformed (a unit test pins it).
    pub fn load() -> Known {
        Known::parse(KNOWN_ANSWERS).expect("known_answers.txt is well formed")
    }

    /// Renders the file format (the inverse of [`Known::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Known answers for the stackbench workloads; regenerate with\n\
             # `cargo run --release --manifest-path stackbench/Cargo.toml -- --regen-known`\n\
             # and hand-check the diff against tests/paper_claims.rs.\n",
        );
        for ((t, p), v) in &self.verdicts {
            for (f, b) in &v.bounds {
                let _ = writeln!(out, "bound\t{t}\t{p}\t{f}\t{b}");
            }
            if let Some(m) = v.measured_main {
                let _ = writeln!(out, "measured\t{t}\t{p}\tmain\t{m}");
            }
        }
        for ((t, c), line) in &self.table2 {
            let _ = writeln!(out, "table2\t{t}\t{c}\t{line}");
        }
        for ((t, c), msg) in &self.reject {
            let _ = writeln!(out, "reject\t{t}\t{c}\t{msg}");
        }
        out
    }

    /// Checks one program's verdict against its known answer.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_verdict(
        &self,
        target: Target,
        program: &str,
        got: &Verdict,
    ) -> Result<(), String> {
        match self.verdicts.get(&key(target, program)) {
            None => Err(format!("{program} [{}]: no known answer", target.name())),
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "{program} [{}]: got\n{}want\n{}",
                target.name(),
                got.text(),
                want.text()
            )),
        }
    }

    /// Checks a rendered Table 2 line.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_table2(&self, target: Target, case: &str, got: &str) -> Result<(), String> {
        expect_eq(self.table2.get(&key(target, case)), got, case, target)
    }

    /// Checks a recursive case's rejection message.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_reject(&self, target: Target, case: &str, got: &str) -> Result<(), String> {
        expect_eq(self.reject.get(&key(target, case)), got, case, target)
    }

    /// The known answer of one program (for building expectations).
    pub fn verdict(&self, target: Target, program: &str) -> Option<&Verdict> {
        self.verdicts.get(&key(target, program))
    }
}

fn expect_eq(want: Option<&String>, got: &str, what: &str, target: Target) -> Result<(), String> {
    match want {
        Some(w) if w == got => Ok(()),
        Some(w) => Err(format!(
            "{what} [{}]: got `{got}`, want `{w}`",
            target.name()
        )),
        None => Err(format!("{what} [{}]: no known answer", target.name())),
    }
}

/// Recomputes every known answer with one-shot, cache-less runs. The
/// sandwich is enforced on the way, so a regenerated file never records
/// a verdict that breaks it.
///
/// # Errors
///
/// Any verification failure or broken sandwich.
pub fn regenerate() -> Result<Known, String> {
    let mut known = Known::default();
    for target in TARGETS {
        let verifier = stackbound::Verifier::new().fuel(FUEL).target(target);
        for p in corpus::programs() {
            let report = verifier
                .verify(p.source)
                .map_err(|e| format!("{}: {e}", p.file))?;
            let verdict = Verdict::of_report(&report);
            verdict
                .sandwich(&stackbound::stacklint::analyze(&report.compiled.asm))
                .map_err(|e| format!("{}: {e}", p.file))?;
            known.verdicts.insert(key(target, p.file), verdict);
        }
        for case in corpus::cases() {
            let err = match verifier.verify(case.source) {
                Ok(_) => return Err(format!("{}: recursive case verified", case.file)),
                Err(e) => e.to_string(),
            };
            known.reject.insert(key(target, case.name), err);
            let cache = stackbound::vcache::VCache::new();
            let line = stackbound::table2::verify_case_cached(&case, target, &cache)?;
            known.table2.insert(key(target, case.name), line);
        }
    }
    Ok(known)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_round_trips_and_covers_the_corpus() {
        let known = Known::load();
        assert_eq!(Known::parse(&known.render()).unwrap(), known);
        for target in TARGETS {
            for p in corpus::programs() {
                let v = known
                    .verdict(target, p.file)
                    .unwrap_or_else(|| panic!("{}", p.file));
                assert!(v.bounds.contains_key("main"), "{}", p.file);
                assert!(v.measured_main.is_some(), "{}", p.file);
            }
            for c in corpus::cases() {
                assert!(
                    known.table2.contains_key(&key(target, c.name)),
                    "{}",
                    c.name
                );
                assert!(
                    known.reject.contains_key(&key(target, c.name)),
                    "{}",
                    c.name
                );
            }
        }
        assert_eq!(known.verdicts.len(), 2 * 14);
        assert_eq!(known.table2.len(), 2 * 8);
    }

    /// Hand-check against the paper's claims as `tests/paper_claims.rs`
    /// and `tests/multi_target.rs` pin them: on `sz32` every Table 1
    /// `main` runs in exactly its bound minus main's own 4-byte return
    /// address; on `rv` the bound is exact.
    #[test]
    fn table1_answers_match_the_pinned_paper_claims() {
        let known = Known::load();
        for b in stackbound::benchsuite::table1_benchmarks() {
            let sz = known.verdict(Target::Sz32, b.file).unwrap();
            assert_eq!(
                sz.measured_main.unwrap() + 4,
                sz.bounds["main"],
                "{}",
                b.file
            );
            let rv = known.verdict(Target::Rv, b.file).unwrap();
            assert_eq!(rv.measured_main, Some(rv.bounds["main"]), "{}", b.file);
            for f in b.table1_functions {
                assert!(
                    sz.bounds.contains_key(*f) && rv.bounds.contains_key(*f),
                    "{}: {f}",
                    b.file
                );
            }
        }
        // The Table 2 metric column on sz32, as the `table2` harness prints it.
        for (case, m) in [
            ("recid", 16),
            ("bsearch", 36),
            ("fib", 20),
            ("qsort", 44),
            ("filter_pos", 32),
            ("sum", 24),
            ("filter_find", 44),
        ] {
            let line = &known.table2[&key(Target::Sz32, case)];
            assert!(line.ends_with(&format!("M({case}) = {m}")), "{line}");
        }
        for ((_, case), msg) in &known.reject {
            assert!(msg.starts_with("analyzer: "), "{case}: {msg}");
        }
    }

    #[test]
    fn sandwich_rejects_a_measured_peak_above_the_binary_bound() {
        let report = stackbound::Verifier::new()
            .verify(
                "u32 leaf(u32 x) { return x + 1; } int main() { u32 r; r = leaf(1); return r; }",
            )
            .unwrap();
        let lint = stackbound::stacklint::analyze(&report.compiled.asm);
        let mut v = Verdict::of_report(&report);
        v.sandwich(&lint).unwrap();
        v.measured_main = Some(v.bounds["main"] + 1);
        assert!(v.sandwich(&lint).is_err());
    }

    #[test]
    fn mismatches_are_reported() {
        let known = Known::load();
        let p = corpus::programs()[0];
        let mut v = known.verdict(Target::Sz32, p.file).unwrap().clone();
        known.check_verdict(Target::Sz32, p.file, &v).unwrap();
        *v.bounds.get_mut("main").unwrap() += 4;
        assert!(known.check_verdict(Target::Sz32, p.file, &v).is_err());
        assert!(known.check_table2(Target::Rv, "fib", "nope").is_err());
        assert!(known.check_reject(Target::Rv, "nope", "x").is_err());
    }
}
