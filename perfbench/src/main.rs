//! `deta-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! `deta-perfbench spec` prints the `BENCHMARK.json` these tables
//! define.

use deta_perfbench::{e2e, layers, metrics, stats, traced, workloads};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Before any thread starts, so the whole federation shares one CPU
    // (see `stats::pin_to_one_cpu`); the traced child inherits it.
    if stats::pin_to_one_cpu().is_none() {
        eprintln!("deta-perfbench: could not pin to one CPU; running unpinned");
    }
    match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        // `traced <workload> <seed> <dump dir>`: the traced run's own
        // process, spawned by the per-layer pass.
        Some("traced") => return traced_child(&argv[1..]),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("deta-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::find(&args.workload) else {
        eprintln!("deta-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let (mut report, specs) = if args.trace {
        (layers::run(w, args.seed), metrics::per_layer())
    } else {
        (e2e::run(w, args.seed, args.seconds), metrics::end_to_end())
    };
    println!("{}", report.to_json(&specs));
    ExitCode::SUCCESS
}

fn traced_child(argv: &[String]) -> ExitCode {
    let [workload, seed, dir] = argv else {
        eprintln!("deta-perfbench traced: needs <workload> <seed> <dump dir>");
        return ExitCode::from(2);
    };
    let (Some(w), Ok(seed)) = (workloads::find(workload), seed.parse()) else {
        eprintln!("deta-perfbench traced: bad workload or seed");
        return ExitCode::from(2);
    };
    match traced::child(w, seed, std::path::Path::new(dir)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("deta-perfbench traced: {e}");
            ExitCode::FAILURE
        }
    }
}
