//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide16 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics and writes the run's spans as a Chrome trace to
//! `perfbench/out/`.

use clustered_perfbench::{run, Kind, Options, DEFAULT_SEED};
use clustered_stats::Json;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <wide16|adaptive_narrow|paper_grid> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 25.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = workload.ok_or("--workload is required")?;
    let mut opts = Options::new(kind, seed, seconds, trace);
    if trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        opts.trace_out = Some(out.join(format!("{}-seed{seed}.trace.json", kind.name())));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark times live capture, not the on-disk trace cache;
    // heartbeat output would perturb the timed sweeps; and a fixed
    // describe string keeps provenance from spawning `git`.
    std::env::remove_var("CLUSTERED_TRACE_CACHE");
    std::env::remove_var("CLUSTERED_PROGRESS");
    std::env::set_var("CLUSTERED_GIT_DESCRIBE", "perfbench");

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} trace={} seconds={} passes={} window={}+{} jobs={} cpus={cpus}",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.seconds,
        opts.kind.passes(opts.seconds),
        opts.window.warmup,
        opts.window.measure,
        opts.kind.jobs(),
    );
    let outcome = run(&opts);
    for e in &outcome.errors {
        eprintln!("FAILED: {e}");
    }
    for m in &outcome.metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, value, unit, remark) in &outcome.extras {
        println!("  {name:<42} {value:>16.6} {unit}  ({remark})");
    }
    println!(
        "  {:<42} {:>16} of {} runs",
        "failed_runs", outcome.failed, outcome.attempted
    );
    if let Some(path) = &opts.trace_out {
        println!("  spans written to {}", path.display());
    }
    let metrics = outcome.metrics.iter().fold(Json::object(), |doc, m| {
        doc.set(
            m.name,
            Json::object().set("value", m.value).set("unit", m.unit),
        )
    });
    let result = Json::object()
        .set("correct", outcome.correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", result.to_string_compact());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
