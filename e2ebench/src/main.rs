//! `tfe-e2e-bench` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload vgg16-dense-b1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures every end-to-end metric with tracing off;
//! `--trace 1` is the separate traced run that prints the per-layer
//! metrics and writes its spans to `.bench_trace/`. The last line of
//! standard output is the JSON result; the lines above it are `# key:
//! value` diagnostics (host fingerprint, raw times, tail percentile).
//! See `e2ebench/README.md` for the workloads and metrics.

mod engine_wl;
mod fleet_wl;
mod host;
mod report;
mod rng;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: tfe-e2e-bench --workload <vgg16-dense-b1|resnet56-transferred-b8|fleet-tcp-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks = host::cpu_ticks();
    let tracer = trace::Tracer::new(args.trace, Instant::now(), 0);
    let result = match args.workload.as_str() {
        "vgg16-dense-b1" => {
            engine_wl::run(&engine_wl::VGG16_DENSE_B1, args.seed, args.seconds, tracer)
        }
        "resnet56-transferred-b8" => engine_wl::run(
            &engine_wl::RESNET56_TRANSFERRED_B8,
            args.seed,
            args.seconds,
            tracer,
        ),
        "fleet-tcp-mixed" => fleet_wl::run(args.seed, args.seconds, tracer),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (key, value) in host::fingerprint() {
        println!("# {key}: {value}");
    }
    println!(
        "# workload: {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    if let (Some(before), Some(after)) = (ticks, host::cpu_ticks()) {
        println!("# host.steal_pct: {:.2}", host::steal_pct(before, after));
    }
    for (key, value) in &report.notes {
        println!("# {key}: {value}");
    }
    for problem in &report.problems {
        println!("# FAILED: {problem}");
    }
    println!("{}", report.result_line(args.trace));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
