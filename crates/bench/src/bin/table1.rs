//! Regenerates **Table 1**: automatically verified stack bounds for C
//! functions, with the analysis wall-clock time per file (the paper
//! reports "less than a second for every example file").
//!
//! ```sh
//! cargo run -p bench --bin table1
//! ```

use std::time::Instant;

fn main() {
    let _metrics = bench::metrics_from_args();
    let config = bench::pipeline_config_from_args();
    println!("Table 1: automatically verified stack bounds");
    println!("(bounds instantiate the analyzer's symbolic result with the");
    println!(" compiler's cost metric M(f) = SF(f) + 4)\n");
    println!(
        "{:<28} {:>5}  {:<20} {:>16}",
        "File Name", "LOC", "Function Name", "Verified Bound"
    );
    println!("{}", "-".repeat(75));
    for prep in bench::prepare_table1_with(&config) {
        let started = Instant::now();
        let analysis = stackbound::analyzer::analyze(&prep.program).expect("analyzable");
        analysis.check(&prep.program).expect("derivations check");
        let elapsed = started.elapsed();
        let mut first = true;
        for fname in prep.functions {
            let bound = analysis
                .concrete_bound(fname, &prep.compiled.metric)
                .expect("concrete bound");
            let file_cell = if first {
                format!("{} ", prep.file)
            } else {
                String::new()
            };
            let loc_cell = if first {
                format!("{}", prep.loc)
            } else {
                String::new()
            };
            println!("{file_cell:<28} {loc_cell:>5}  {fname:<20} {bound:>10.0} bytes");
            first = false;
        }
        println!(
            "{:<28} {:>5}  (analysis + derivation check: {:.1} ms)",
            "",
            "",
            elapsed.as_secs_f64() * 1e3
        );
        println!();
    }
}
