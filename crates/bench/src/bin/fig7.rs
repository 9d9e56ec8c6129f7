//! Regenerates **Figure 7**: measured stack consumption of compiled code
//! against the hand-derived bounds, for `bsearch` (top plot, logarithmic)
//! and `fact_sq` (bottom plot, quadratic).
//!
//! Prints gnuplot-ready columns and an ASCII sketch of each plot.
//!
//! ```sh
//! cargo run -p bench --bin fig7
//! ```

use stackbound::{benchsuite, clight, compiler, qhl};

fn main() {
    let _metrics = bench::metrics_from_args();
    sweep("bsearch", &sample_points(2, 4000, 48));
    sweep("fact_sq", &(1..=100).collect::<Vec<i64>>());
}

fn sweep(name: &str, points: &[i64]) {
    let case = benchsuite::recursive_case(name).expect("case exists");
    let program = clight::frontend(case.source, &[]).expect("front end");
    case.check(&program).expect("derivation checks");
    let compiled = compiler::compile(&program).expect("compiles");
    let spec = case.spec();
    let f = program.function(name).expect("function");

    println!(
        "# Figure 7 ({name}): verified bound = {}",
        case.bound_display
    );
    println!("# with M({name}) = {}", compiled.metric.call_cost(name));
    println!("{:>8} {:>14} {:>14}", "x", "measured", "bound");

    let argsets: Vec<Vec<u32>> = points
        .iter()
        .map(|&x| (case.args_for)(x).iter().map(|a| *a as u32).collect())
        .collect();
    let measurements = bench::measure_sweep(&compiled, name, &argsets);

    let mut series = Vec::new();
    for (&x, m) in points.iter().zip(&measurements) {
        let args = (case.args_for)(x);
        let env = qhl::Valuation::of_vars(
            f.params
                .iter()
                .map(|p| p.name.clone())
                .zip(args.iter().copied()),
        );
        let bound = spec
            .pre
            .eval(&compiled.metric, &env)
            .expect("bound evaluates")
            .finite()
            .expect("finite bound")
            + f64::from(compiled.metric.call_cost(name));
        assert!(m.behavior.converges(), "x = {x}: {}", m.behavior);
        assert!(
            f64::from(m.stack_usage) <= bound,
            "x = {x}: measured {} above bound {bound}",
            m.stack_usage
        );
        println!("{x:>8} {:>8} bytes {bound:>8.0} bytes", m.stack_usage);
        series.push((x, m.stack_usage, bound));
    }
    ascii_plot(name, &series);
    println!();
}

/// Logarithmically-spaced integer sample points.
fn sample_points(lo: i64, hi: i64, n: usize) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / (n - 1) as f64;
        let x = (lo as f64 * (hi as f64 / lo as f64).powf(t)).round() as i64;
        if out.last() != Some(&x) {
            out.push(x);
        }
    }
    out
}

/// A small ASCII rendition of the plot: bound curve (`-`) and measured
/// points (`x`), like the paper's blue line and red crosses.
fn ascii_plot(name: &str, series: &[(i64, u32, f64)]) {
    const ROWS: usize = 12;
    const COLS: usize = 64;
    let max_y = series
        .iter()
        .map(|(_, _, b)| *b)
        .fold(0.0f64, f64::max)
        .max(1.0);
    let max_x = series.iter().map(|(x, _, _)| *x).max().unwrap_or(1) as f64;
    let mut grid = vec![vec![b' '; COLS]; ROWS];
    for (x, measured, bound) in series {
        let col = (((*x as f64) / max_x) * (COLS - 1) as f64) as usize;
        let brow = ROWS - 1 - ((bound / max_y) * (ROWS - 1) as f64) as usize;
        grid[brow][col] = b'-';
        let mrow = ROWS - 1 - ((f64::from(*measured) / max_y) * (ROWS - 1) as f64) as usize;
        grid[mrow][col] = b'x';
    }
    println!("# {name}: bound (-) vs measured (x), y-max = {max_y:.0} bytes");
    for row in grid {
        println!("# |{}", String::from_utf8_lossy(&row));
    }
    println!("# +{}", "-".repeat(COLS));
}
