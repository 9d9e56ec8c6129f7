//! Regenerates **Table 2**: manually verified symbolic stack bounds for
//! recursive functions, checked by the quantitative-logic derivation
//! checker and instantiated with the compiler's metric.
//!
//! ```sh
//! cargo run -p bench --bin table2
//! ```

use stackbound::{benchsuite, clight, compiler};

fn main() {
    let _metrics = bench::metrics_from_args();
    let show_proofs = std::env::args().any(|a| a == "--proofs");
    println!("Table 2: manually verified stack bounds for recursive functions\n");
    println!(
        "{:<36} {:<46} Instantiated (this compiler)",
        "Function Name", "Symbolic Bound"
    );
    println!("{}", "-".repeat(120));
    let cases = benchsuite::recursive_cases();
    let prepare = |case: &benchsuite::RecursiveCase| {
        let program =
            clight::frontend(case.source, &[]).unwrap_or_else(|e| panic!("{}: {e}", case.file));
        case.check(&program)
            .unwrap_or_else(|e| panic!("{}: derivation rejected: {e}", case.file));
        let compiled = compiler::compile(&program).expect("compiles");
        (program, compiled)
    };
    // The cases' numeric side-condition checks are independent and
    // dominate the run, so they are the one harness loop worth fanning
    // out; `par_map` keeps the case order.
    let prepared = stackbound::par_map(&cases, prepare);
    for (case, (program, compiled)) in cases.iter().zip(&prepared) {
        // Render the instantiated bound by substituting metric values into
        // the display string.
        let mut inst = case.bound_display.to_owned();
        for f in &compiled.mach.functions {
            inst = inst.replace(&format!("M({})", f.name), &(f.frame_size + 4).to_string());
        }
        let signature = signature(program, case.name);
        println!("{signature:<36} {:<46} {inst} bytes", case.bound_display);
        if show_proofs {
            for proof in &case.proofs {
                println!("\n  derivation for {} (spec {}):", proof.name, proof.spec);
                for line in proof.derivation.render().lines() {
                    println!("    {line}");
                }
            }
            println!();
        }
    }
    println!("\nevery derivation above was re-checked by qhl::Checker before printing.");
}

fn signature(program: &clight::Program, fname: &str) -> String {
    let f = program.function(fname).expect("headline function");
    let params: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
    format!("{fname}({})", params.join(", "))
}
