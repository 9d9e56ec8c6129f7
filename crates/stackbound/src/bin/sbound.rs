//! `sbound`: the command-line verified stack analyzer.
//!
//! The executable counterpart of the paper's "verified C compiler that …
//! automatically derives a stack bound for each function in the program
//! including main()" (§5).
//!
//! ```text
//! USAGE:
//!     sbound [OPTIONS] <file.c>
//!     sbound serve [--listen ADDR] [--uds PATH] [--stdio] [--workers N]
//!                  [--queue-cap N] [--timeout-ms MS] [--fuel N] [--obs]
//!                  [--cache-dir DIR] [--cache-cap N]
//!     sbound cache-key [--target T]
//!
//! SUBCOMMANDS:
//!     serve             run the cache-resident verification daemon: one
//!                       shared verification + measurement cache, requests
//!                       over line-delimited JSON (TCP, Unix socket, or
//!                       stdio); verbs: verify, table2 (re-check a built-in
//!                       Table 2 case's derivations), metrics, ping,
//!                       shutdown — see DESIGN.md "Verification server"
//!     cache-key         print the compiler-configuration digest that
//!                       scopes a shared `--cache-dir` (CI keys restored
//!                       caches by toolchain + this digest)
//!
//! OPTIONS:
//!     -D <NAME=VALUE>   define a compile-time parameter (repeatable)
//!     --target <T>      backend target: sz32 (default, pushed return
//!                       addresses, M(f) = SF(f) + 4) or rv (link
//!                       register, 8-byte words, M(f) = SF(f))
//!     --run             also execute main() on the ASMsz machine with a
//!                       stack of exactly the verified bound
//!     --no-measure      skip the measurement stage (bound-only batch mode)
//!     --check-refinement run every compiler pass's refinement checkpoint
//!     --measure-all     also measure every zero-argument function on its
//!                       own verified bound
//!     --cache-dir <D>   load/save a content-addressed verification cache
//!                       (function-granular; incremental re-verification)
//!     --cache-cap <N>   cap the persisted cache at N entries (least
//!                       recently used keys are evicted from the file)
//!     --lint            re-derive stack bounds from the emitted binary
//!                       with the stacklint abstract interpreter and
//!                       cross-check them against the certified bounds
//!                       (exit 1 on any stack-discipline diagnostic)
//!     --emit-asm        print the generated assembly listing
//!     --metric          print the target's cost metric M(f)
//!     --symbolic        print the symbolic (metric-parametric) bounds
//!     --metrics         print the span tree, counters, and per-function
//!                       hotspots table of the run
//!     --trace-json <F>  write the spans/counters/histograms as JSON lines
//!     --trace-chrome <F> write a Chrome trace-event JSON timeline (one
//!                       track per thread; open in Perfetto/chrome://tracing)
//!     --trace-folded <F> write folded flamegraph stacks (self time)
//!     --profile-stack   print the stack waterline of the main() run
//! ```

use std::process::ExitCode;

struct Options {
    file: Option<String>,
    params: Vec<(String, u32)>,
    target: stackbound::asm::Target,
    run: bool,
    no_measure: bool,
    check_refinement: bool,
    measure_all: bool,
    cache_dir: Option<String>,
    cache_cap: Option<usize>,
    lint: bool,
    emit_asm: bool,
    metric: bool,
    symbolic: bool,
    metrics: bool,
    trace_json: Option<String>,
    trace_chrome: Option<String>,
    trace_folded: Option<String>,
    profile_stack: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sbound [-D NAME=VALUE]... [--target sz32|rv] [--run] [--no-measure] [--check-refinement] \
         [--measure-all] [--cache-dir DIR] [--cache-cap N] [--lint] [--emit-asm] [--metric] [--symbolic] \
         [--metrics] [--trace-json FILE] [--trace-chrome FILE] \
         [--trace-folded FILE] [--profile-stack] <file.c>\n       \
         sbound serve [--listen ADDR] [--uds PATH] [--stdio] [--workers N] [--queue-cap N] \
         [--timeout-ms MS] [--fuel N] [--obs] [--cache-dir DIR] [--cache-cap N]\n       \
         sbound cache-key [--target sz32|rv]"
    );
    ExitCode::from(2)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, ExitCode> {
    let mut opts = Options {
        file: None,
        params: Vec::new(),
        target: stackbound::asm::Target::default(),
        run: false,
        no_measure: false,
        check_refinement: false,
        measure_all: false,
        cache_dir: None,
        cache_cap: None,
        lint: false,
        emit_asm: false,
        metric: false,
        symbolic: false,
        metrics: false,
        trace_json: None,
        trace_chrome: None,
        trace_folded: None,
        profile_stack: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--run" => opts.run = true,
            "--no-measure" => opts.no_measure = true,
            "--check-refinement" => opts.check_refinement = true,
            "--measure-all" => opts.measure_all = true,
            "--lint" => opts.lint = true,
            "--emit-asm" => opts.emit_asm = true,
            "--metric" => opts.metric = true,
            "--symbolic" => opts.symbolic = true,
            "--metrics" => opts.metrics = true,
            "--profile-stack" => opts.profile_stack = true,
            "--trace-json" => {
                let Some(path) = args.next() else {
                    return Err(usage());
                };
                opts.trace_json = Some(path);
            }
            "--trace-chrome" => {
                let Some(path) = args.next() else {
                    return Err(usage());
                };
                opts.trace_chrome = Some(path);
            }
            "--trace-folded" => {
                let Some(path) = args.next() else {
                    return Err(usage());
                };
                opts.trace_folded = Some(path);
            }
            "--target" => {
                let Some(t) = args.next() else {
                    return Err(usage());
                };
                match t.parse() {
                    Ok(t) => opts.target = t,
                    Err(e) => {
                        eprintln!("sbound: {e}");
                        return Err(usage());
                    }
                }
            }
            "--cache-dir" => {
                let Some(dir) = args.next() else {
                    return Err(usage());
                };
                opts.cache_dir = Some(dir);
            }
            "--cache-cap" => {
                let Some(cap) = args.next().and_then(|c| c.parse().ok()) else {
                    return Err(usage());
                };
                opts.cache_cap = Some(cap);
            }
            "-D" => {
                let Some(def) = args.next() else {
                    return Err(usage());
                };
                let Some((name, value)) = def.split_once('=') else {
                    eprintln!("sbound: bad definition `{def}` (expected NAME=VALUE)");
                    return Err(usage());
                };
                let Ok(value) = value.parse::<u32>() else {
                    eprintln!("sbound: `{value}` is not an unsigned integer");
                    return Err(usage());
                };
                opts.params.push((name.to_owned(), value));
            }
            "-h" | "--help" => return Err(usage()),
            _ if arg.starts_with('-') => {
                eprintln!("sbound: unknown option `{arg}`");
                return Err(usage());
            }
            _ if opts.file.is_none() => opts.file = Some(arg),
            _ => return Err(usage()),
        }
    }
    if opts.file.is_none() {
        return Err(usage());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("serve") => return serve_main(args.skip(1)),
        Some("cache-key") => return cache_key_main(args.skip(1)),
        _ => {}
    }
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let file = opts.file.expect("checked in parse_args");
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sbound: cannot read `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let params: Vec<(&str, u32)> = opts.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();

    let tracing = opts.metrics
        || opts.trace_json.is_some()
        || opts.trace_chrome.is_some()
        || opts.trace_folded.is_some();
    let session = tracing.then(obs::install);

    // With `--cache-dir`, route the verification and measurement stages
    // through shared content-addressed caches, warmed from disk.
    let vcache = opts.cache_dir.as_ref().map(|dir| {
        let cache = std::sync::Arc::new(stackbound::vcache::VCache::new());
        cache.set_disk_cap(opts.cache_cap);
        if let Err(e) = cache.load_dir(std::path::Path::new(dir)) {
            eprintln!("sbound: cannot load cache from `{dir}`: {e}");
        }
        cache
    });
    let measure_cache = opts
        .cache_dir
        .is_some()
        .then(|| std::sync::Arc::new(stackbound::asm::MeasureCache::new()));

    let mut verifier = stackbound::Verifier::new()
        .params(&params)
        .measure(!opts.no_measure)
        .measure_all_functions(opts.measure_all)
        .check_refinement(opts.check_refinement)
        .target(opts.target);
    if let Some(cache) = &vcache {
        verifier = verifier.vcache(cache.clone());
    }
    if let Some(cache) = &measure_cache {
        verifier = verifier.measure_cache(cache.clone());
    }
    let report = match verifier.verify(&source) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sbound: {file}: {e}");
            if matches!(
                e,
                stackbound::Error::Analyzer(analyzer::AnalyzerError::Recursion { .. })
            ) {
                eprintln!(
                    "sbound: hint: recursive functions need an interactive derivation; \
                     see the `interactive_proof` example"
                );
            }
            return ExitCode::FAILURE;
        }
    };

    println!("{file}: verified stack bounds [{}]", report.target());
    for (name, bound) in report.bounds() {
        if opts.symbolic {
            let symbolic = report
                .analysis
                .bound(name)
                .map(|b| b.to_string())
                .unwrap_or_default();
            println!("    {name:<24} {bound:>8} bytes    = M({name}) + {symbolic}");
        } else {
            println!("    {name:<24} {bound:>8} bytes");
        }
    }

    if opts.metric {
        let allowance = opts.target.call_allowance();
        match allowance {
            0 => println!("\ncost metric for {} (Mach frame sizes):", opts.target),
            a => println!(
                "\ncost metric for {} (Mach frame sizes + {a}):",
                opts.target
            ),
        }
        for (f, c) in report.compiled.metric.iter() {
            println!("    M({f}) = {c}");
        }
    }

    if opts.run {
        match (report.bound("main"), report.measured("main")) {
            (Some(bound), Some(measured)) => {
                println!("\nmain() ran on a {bound}-byte stack: peak usage {measured} bytes");
            }
            _ => println!("\nmain() was not executed (no main or it diverged)"),
        }
    }

    if opts.measure_all {
        println!("\nmeasured peak usage (each function on its own bound):");
        for (name, usage) in report.measured_usages() {
            println!("    {name:<24} {usage:>8} bytes");
        }
    }

    let mut lint_failed = false;
    if opts.lint {
        let lint = stackbound::stacklint::analyze(&report.compiled.asm);
        if !lint.is_clean() {
            lint_failed = true;
            println!("\nstack-discipline diagnostics:");
            for d in &lint.diagnostics {
                println!("    {d}");
            }
        }
        println!(
            "\nbinary stack analysis [{}] (measured <= binary <= certified):",
            report.target()
        );
        println!(
            "    {:<24} {:>12} {:>12} {:>12} {:>12}",
            "function", "measured", "binary", "certified", "slack"
        );
        for (name, verdict) in &lint.verdicts {
            let cell = |v: Option<u32>| match v {
                Some(b) => format!("{b} bytes"),
                None => "-".to_owned(),
            };
            match verdict {
                stackbound::stacklint::Verdict::Bounded(b) => println!(
                    "    {name:<24} {:>12} {:>12} {:>12} {:>12}",
                    cell(report.measured(name)),
                    format!("{b} bytes"),
                    cell(report.bound(name)),
                    cell(report.slack(name)),
                ),
                recursive => println!("    {name:<24} {recursive}"),
            }
        }
    }

    if opts.emit_asm {
        println!("\n{}", report.compiled.asm.listing());
    }

    if opts.profile_stack {
        match &report.measurement {
            Some(m) => {
                println!("\nstack waterline of main() ({} steps):", m.steps);
                print!("{}", m.profile.render());
            }
            None => println!("\nno stack waterline: main() was not executed"),
        }
    }

    if let (Some(cache), Some(dir)) = (&vcache, &opts.cache_dir) {
        if let Err(e) = cache.save_dir(std::path::Path::new(dir)) {
            eprintln!("sbound: cannot save cache to `{dir}`: {e}");
        }
    }

    if let Some(session) = session {
        let obs_report = obs::report().unwrap_or_default();
        drop(session);
        let exports = [
            (
                &opts.trace_json,
                obs::Report::to_json_lines as fn(&obs::Report) -> String,
            ),
            (&opts.trace_chrome, obs::Report::to_chrome_trace),
            (&opts.trace_folded, obs::Report::to_folded_stacks),
        ];
        for (path, export) in exports {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, export(&obs_report)) {
                    eprintln!("sbound: cannot write `{path}`: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if opts.metrics {
            println!("\n{}", obs_report.render_tree());
            let hotspots = obs_report.render_hotspots();
            if !hotspots.is_empty() {
                println!("{hotspots}");
            }
            if let Some(cache) = &vcache {
                println!("verification cache ({} entries):", cache.len());
                for stage in stackbound::vcache::CacheStage::ALL {
                    let (hits, misses) = cache.stats(stage);
                    let rate = cache
                        .hit_rate(stage)
                        .map(|r| format!("{:.1}%", r * 100.0))
                        .unwrap_or_else(|| "-".to_owned());
                    println!(
                        "    {:<10} {hits:>6} hits {misses:>6} misses  hit rate {rate:>6}",
                        stage.name()
                    );
                }
            }
            if let Some(cache) = &measure_cache {
                let (hits, misses) = cache.stats();
                let rate = cache
                    .hit_rate()
                    .map(|r| format!("{:.1}%", r * 100.0))
                    .unwrap_or_else(|| "-".to_owned());
                println!(
                    "measure cache: {} entries, {hits} hits {misses} misses  hit rate {rate:>6}",
                    cache.len()
                );
            }
        }
    }
    if lint_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `sbound cache-key`: prints the digest that scopes shared cache
/// storage — two machines may share a `--cache-dir` exactly when their
/// toolchain fingerprint and this digest agree.
fn cache_key_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut target = stackbound::asm::Target::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--target" => {
                let Some(t) = args.next() else {
                    return usage();
                };
                match t.parse() {
                    Ok(t) => target = t,
                    Err(e) => {
                        eprintln!("sbound: {e}");
                        return usage();
                    }
                }
            }
            _ => {
                eprintln!("sbound: cache-key: unknown option `{arg}`");
                return usage();
            }
        }
    }
    let options = stackbound::compiler::Options::for_target(target);
    println!("{}", stackbound::vcache::config_digest(&options));
    ExitCode::SUCCESS
}

/// `sbound serve`: the cache-resident verification daemon.
fn serve_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    use stackbound::serve::{ServeOptions, Server, Session};

    let mut listen: Option<String> = None;
    let mut uds: Option<String> = None;
    let mut stdio = false;
    let mut cache_dir: Option<String> = None;
    let mut cache_cap: Option<usize> = None;
    let mut obs_on = false;
    let mut opts = ServeOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--obs" => obs_on = true,
            "--listen" | "--uds" | "--cache-dir" => {
                let Some(value) = args.next() else {
                    return usage();
                };
                match arg.as_str() {
                    "--listen" => listen = Some(value),
                    "--uds" => uds = Some(value),
                    _ => cache_dir = Some(value),
                }
            }
            "--workers" | "--queue-cap" | "--timeout-ms" | "--fuel" | "--cache-cap" => {
                let Some(n) = args.next().and_then(|n| n.parse::<u64>().ok()) else {
                    return usage();
                };
                match arg.as_str() {
                    "--workers" => opts.workers = n as usize,
                    "--queue-cap" => opts.queue_cap = n as usize,
                    "--timeout-ms" => opts.timeout = std::time::Duration::from_millis(n),
                    "--fuel" => opts.fuel = n,
                    _ => cache_cap = Some(n as usize),
                }
            }
            _ => {
                eprintln!("sbound: serve: unknown option `{arg}`");
                return usage();
            }
        }
    }
    if stdio as usize + listen.is_some() as usize + uds.is_some() as usize > 1 {
        eprintln!("sbound: serve: --listen, --uds, and --stdio are mutually exclusive");
        return usage();
    }

    // A long-lived recorder grows without bound, so obs is opt-in; the
    // `metrics` verb reports `"obs":null` without it.
    let _session = obs_on.then(obs::install);

    let mut session = Session::new();
    if let Some(dir) = &cache_dir {
        let cache = std::sync::Arc::new(stackbound::vcache::VCache::new());
        cache.set_disk_cap(cache_cap);
        if let Err(e) = cache.load_dir(std::path::Path::new(dir)) {
            eprintln!("sbound: cannot load cache from `{dir}`: {e}");
        }
        session = session.vcache(cache);
    }
    let server = Server::new(session, opts);

    // Protocol answers own stdout under --stdio, so status goes to stderr.
    let result = if stdio {
        server.run_stream(std::io::stdin().lock(), std::io::stdout());
        Ok(())
    } else if let Some(path) = uds {
        let _ = std::fs::remove_file(&path); // stale socket from a dead server
        match std::os::unix::net::UnixListener::bind(&path) {
            Ok(listener) => {
                eprintln!("sbound: serving on {path}");
                let r = server.run_uds(listener);
                let _ = std::fs::remove_file(&path);
                r
            }
            Err(e) => Err(e),
        }
    } else {
        let addr = listen.as_deref().unwrap_or("127.0.0.1:7777");
        match std::net::TcpListener::bind(addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(a) => eprintln!("sbound: serving on {a}"),
                    Err(_) => eprintln!("sbound: serving on {addr}"),
                }
                server.run_tcp(listener)
            }
            Err(e) => Err(e),
        }
    };
    if let Err(e) = result {
        eprintln!("sbound: serve: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(dir) = &cache_dir {
        if let Err(e) = server.session().cache().save_dir(std::path::Path::new(dir)) {
            eprintln!("sbound: cannot save cache to `{dir}`: {e}");
        }
    }
    ExitCode::SUCCESS
}
