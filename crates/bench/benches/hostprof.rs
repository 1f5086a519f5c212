//! Host-profiler overhead bench: the same run with the profiler off
//! (`NullObserver`, the default every experiment uses) and on
//! (`HostProfiler` at its default sample interval).
//!
//! The `profiler_off` case is the zero-cost contract: the compile-time
//! `WANTS_HOST_PROFILE` gate must keep it at the pre-profiler
//! throughput recorded in the `results/BENCH_*.json` trajectory
//! (`bench-cmp` in `scripts/ci.sh` enforces that). The `profiler_on`
//! case quantifies what turning the instrumentation on costs — exact
//! per-event and per-cycle counts, plus seven `Instant` reads on one
//! sampled cycle in `STAGE_CLOCK_PERIOD` — so regressions in the
//! profiled path itself are visible too. Deltas go to
//! `results/BENCH_hostprof.json` (schema in EXPERIMENTS.md).

use clustered_bench::harness::Harness;
use clustered_bench::run_stream;
use clustered_bench::sweep::capture_for;
use clustered_sim::{
    FixedPolicy, HostProfiler, Processor, SimConfig, SimStats, SteeringKind,
    DEFAULT_SAMPLE_INTERVAL,
};
use clustered_workloads::CapturedTrace;
use std::hint::black_box;

const WARMUP: u64 = 5_000;
const INSTRUCTIONS: u64 = 100_000;

fn run_off(trace: &CapturedTrace) -> SimStats {
    run_stream(
        trace.replay(),
        SimConfig::default(),
        Box::new(FixedPolicy::new(8)),
        SteeringKind::default(),
        WARMUP,
        INSTRUCTIONS,
    )
}

fn run_on(trace: &CapturedTrace) -> SimStats {
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        trace.replay(),
        Box::new(FixedPolicy::new(8)),
        SteeringKind::default(),
        HostProfiler::new(DEFAULT_SAMPLE_INTERVAL),
    )
    .expect("valid bench configuration");
    cpu.run(WARMUP).expect("simulator stalled in warm-up");
    let before = *cpu.stats();
    cpu.run(INSTRUCTIONS).expect("simulator stalled");
    cpu.stats().delta_since(&before)
}

fn main() {
    let mut h = Harness::from_env("hostprof");
    let gzip = clustered_workloads::by_name("gzip").expect("gzip workload");
    let trace = capture_for(&gzip, WARMUP, INSTRUCTIONS);

    // The simulation is deterministic, and the profiler must not
    // perturb it: pin that here before timing anything.
    let off = run_off(&trace);
    let on = run_on(&trace);
    assert_eq!(off, on, "HostProfiler must not change simulation statistics");

    // Interleaved: the on/off ratio is the result, and a shared host's
    // speed drifts over the seconds a case takes.
    h.bench_interleaved(&mut [
        ("hostprof/profiler_off", &mut || {
            black_box(run_off(&trace));
        }),
        ("hostprof/profiler_on", &mut || {
            black_box(run_on(&trace));
        }),
    ]);
    let [off_best, on_best] = [0, 1].map(|i| h.results()[i].min());

    println!();
    println!(
        "profiler off {:>10.0} sim-cycles/s   on {:>10.0} sim-cycles/s   overhead {:.2}x",
        off.cycles as f64 / off_best.as_secs_f64(),
        on.cycles as f64 / on_best.as_secs_f64(),
        on_best.as_secs_f64() / off_best.as_secs_f64()
    );
    h.finish();
}
