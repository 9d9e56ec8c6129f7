//! `stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones).
//! `stackbench --regen-known` prints a freshly computed known-answer file.

use stackbench::{known, serve, table1, table2, Outcome, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--regen-known") {
        return match known::regenerate() {
            Ok(k) => {
                print!("{}", k.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("stackbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "table1_cold" => table1::run(args.seed, args.seconds, args.trace),
        "table2_cold" => table2::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    for note in &out.notes {
        println!("{note}");
    }
    for problem in &out.problems {
        println!("problem: {problem}");
    }
    println!(
        "error_rate = {}/{} ({})",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, (value, unit)) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
