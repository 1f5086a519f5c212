//! One benchmark run: set up, a closed loop of sweeps for the
//! requested time, the correctness gate, and the metrics.
//!
//! Every pass runs all of the workload's points through
//! `sweep::run_sweep_with` — on one thread for the single-run
//! workloads, on two workers for the grid — once plain, once with only
//! `HostProfiler` attached ("observed") and, in a traced run, once
//! with spans and a policy probe ("traced"). The single-run points get
//! one strict `AuditObserver` pass at the end.

use crate::host::{self, probe, scaled, REFERENCE_NS};
use crate::plan::{self, nanos, Kind, Policy, Setup, Window};
use crate::probe::{clock_overhead_ns, PolicyProbe};
use crate::spans::{SpanId, Spans};
use clustered_bench::sweep::{run_sweep_with, SweepOutcome, SweepPoint};
use clustered_emu::TraceSource;
use clustered_sim::{
    AuditObserver, HostProfiler, NullObserver, Processor, ReconfigPolicy, SimObserver, SimStats,
    HOST_STAGE_COUNT,
};
use clustered_stats::{envelope, geometric_mean, percent_change, Provenance};
use clustered_workloads::{CompiledReplay, CompiledTrace};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// End-to-end metrics (untraced run), as `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_kips", "kinst/s"),
    ("host_ns_per_cycle", "ns"),
    ("observed_kips", "kinst/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ipc", "inst/cycle"),
];

/// Per-layer metrics (traced run), as `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("capture.ns_per_record", "ns"),
    ("capture.bytes", "B"),
    ("compile.ns_per_record", "ns"),
    ("compile.table_bytes", "B"),
    ("compile.blocks", "count"),
    ("pipeline.ns_per_cycle", "ns"),
    ("pipeline.ns_per_inst", "ns"),
    ("pipeline.event_drain.ns_per_cycle", "ns"),
    ("pipeline.commit.ns_per_cycle", "ns"),
    ("pipeline.issue.ns_per_cycle", "ns"),
    ("pipeline.dispatch.ns_per_cycle", "ns"),
    ("pipeline.fetch.ns_per_cycle", "ns"),
    ("pipeline.other.ns_per_cycle", "ns"),
    ("pipeline.drained_events_per_cycle", "1/cycle"),
    ("pipeline.drain_skew", "ratio"),
    ("pipeline.quiescent_frac", "frac"),
    ("observer.overhead_frac", "frac"),
    ("policy.calls", "count"),
    ("policy.ns_per_call", "ns"),
    ("policy.requests", "count"),
    ("policy.effective_ratio", "ratio"),
    ("policy.flush_stall_frac", "frac"),
    ("sweep.points", "count"),
    ("sweep.point_s.p50", "s"),
    ("sweep.point_s.max", "s"),
    ("sweep.worker_busy_frac", "frac"),
    ("sweep.tail_s", "s"),
    ("export.us_per_artifact", "us"),
    ("bpred.mispredicts_per_kinst", "1/kinst"),
    ("cache.l1_hit_rate", "frac"),
    ("cache.l2_miss_rate", "frac"),
    ("cache.transfers_per_kinst", "1/kinst"),
    ("cache.bank_mispredict_rate", "frac"),
    ("lsq.forwards_per_kinst", "1/kinst"),
    ("interconnect.reg_transfers_per_kinst", "1/kinst"),
    ("interconnect.hops_per_transfer", "hops"),
    ("sim.active_clusters_mean", "clusters"),
    ("sim.rob_occupancy_mean", "entries"),
    ("sim.dispatch_stall_fetch_per_cycle", "frac"),
    ("sim.dispatch_stall_rob_per_cycle", "frac"),
    ("sim.dispatch_stall_resources_per_cycle", "frac"),
    ("trace.overhead_frac", "frac"),
    ("span.setup.self_us", "us"),
    ("span.capture.self_us", "us"),
    ("span.compile.self_us", "us"),
    ("span.sweep.self_us", "us"),
    ("span.point.self_us", "us"),
    ("span.warmup.self_us", "us"),
    ("span.measure.self_us", "us"),
    ("span.export.self_us", "us"),
];

/// The span layers whose self time the traced run reports, with the
/// metric each is reported as.
const SPAN_LAYERS: [(&str, &str); 8] = [
    ("setup", "span.setup.self_us"),
    ("capture", "span.capture.self_us"),
    ("compile", "span.compile.self_us"),
    ("sweep", "span.sweep.self_us"),
    ("point", "span.point.self_us"),
    ("warmup", "span.warmup.self_us"),
    ("measure", "span.measure.self_us"),
    ("export", "span.export.self_us"),
];

/// `HostProfiler::stage_nanos` buckets, in `HostStage::ALL` order, as
/// metrics.
const STAGES: [&str; HOST_STAGE_COUNT] = [
    "pipeline.event_drain.ns_per_cycle",
    "pipeline.commit.ns_per_cycle",
    "pipeline.issue.ns_per_cycle",
    "pipeline.dispatch.ns_per_cycle",
    "pipeline.fetch.ns_per_cycle",
    "pipeline.other.ns_per_cycle",
];

/// How one benchmark run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Nominal length of the closed loop; it sets the number of passes
    /// (see [`Kind::passes`]).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Simulation window of every point.
    pub window: Window,
    /// Where a traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl Options {
    /// The benchmark's own settings for `kind`.
    pub fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            kind,
            seed,
            seconds,
            trace,
            window: kind.window(),
            trace_out: None,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every point run succeeded and passed every check.
    pub correct: bool,
    /// Point runs attempted.
    pub attempted: u64,
    /// Point runs that failed: an error, a panic, statistics differing
    /// from the point's other runs, a failed sanity check or an audit
    /// violation. `correct` is also false when a metric could not be
    /// measured.
    pub failed: u64,
    /// [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), in order.
    pub metrics: Vec<Metric>,
    /// Printed-only results that are not metrics of every workload,
    /// as `(name, value, unit, remark)`.
    pub extras: Vec<(&'static str, f64, &'static str, String)>,
    /// One line per failure.
    pub errors: Vec<String>,
}

/// What the observer of a point run reported.
#[derive(Debug, Clone, Copy)]
enum Extra {
    None,
    Profile {
        stage_ns: [u64; HOST_STAGE_COUNT],
        cycles: u64,
        drained: u64,
        skew: f64,
        quiescent: u64,
    },
    Probe {
        calls: u64,
        requests: u64,
        sampled: u64,
        sampled_ns: u64,
    },
    Audit {
        violations: usize,
        dropped: u64,
    },
}

/// Times a run sets the workload up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// One simulation of one point.
#[derive(Debug, Clone)]
struct PointRun {
    /// Measured-window statistics.
    stats: SimStats,
    /// Whole-run statistics, warm-up included.
    full: SimStats,
    /// Host time of the warm-up and measured `Processor::run` calls.
    run_ns: u64,
    /// The geometric mean of the host probes the worker ran just
    /// before and just after the point.
    probe_ns: f64,
    /// Wall time the worker spent in those probes, in the sweep's
    /// wall time but not in `run_ns`.
    probe_spent_ns: u64,
    /// The runner call, on the sweep's clock.
    start: Instant,
    end: Instant,
    worker: usize,
    extra: Extra,
}

/// A point run or why it failed.
struct RunResult(Result<PointRun, String>);

impl SweepOutcome for RunResult {
    fn sim_cycles(&self) -> Option<u64> {
        self.0.as_ref().ok().map(|r| r.stats.cycles)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Observed,
    Traced,
    Audit,
}

/// One sweep over every point.
struct SweepRun {
    runs: Vec<Result<PointRun, String>>,
    start: Instant,
    end: Instant,
    jobs: usize,
}

impl SweepRun {
    fn wall_ns(&self) -> u64 {
        nanos(self.start, self.end)
    }
}

/// Maps sweep worker threads to small ids in order of first use, and
/// keeps each worker's latest host probe.
#[derive(Default)]
struct Workers(Mutex<Vec<(ThreadId, Option<f64>)>>);

impl Workers {
    /// The calling worker's id and its latest probe time, if any.
    fn id(&self) -> (usize, Option<f64>) {
        let me = std::thread::current().id();
        let mut seen = self.lock();
        match seen.iter().position(|&(t, _)| t == me) {
            Some(id) => (id, seen[id].1),
            None => {
                seen.push((me, None));
                (seen.len() - 1, None)
            }
        }
    }

    fn set_probe(&self, id: usize, ns: f64) {
        self.lock()[id].1 = Some(ns);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(ThreadId, Option<f64>)>> {
        self.0
            .lock()
            .expect("a sweep worker panicked holding the registry")
    }
}

/// A replay of `compiled` that starts `offset` records in.
fn replay_from(compiled: &CompiledTrace, offset: u64) -> CompiledReplay {
    let mut replay = compiled.replay();
    let mut scratch = Vec::with_capacity(256);
    let mut left = usize::try_from(offset).expect("window offsets fit in usize");
    while left > 0 {
        scratch.clear();
        let n = replay.next_run(left.min(256), &mut scratch);
        if n == 0 {
            break;
        }
        left -= n;
    }
    replay
}

/// Simulates `point` from `offset` with `observer`, timing the warm-up
/// and the measured `Processor::run` calls.
fn simulate<O: SimObserver>(
    point: &SweepPoint,
    offset: u64,
    policy: Box<dyn ReconfigPolicy>,
    observer: O,
    spans: Option<(&Spans, SpanId, usize)>,
    extract: impl FnOnce(&O) -> Extra,
) -> Result<PointRun, String> {
    let fail = |e: clustered_sim::SimError| format!("{}: {e}", point.label);
    let replay = replay_from(&point.compiled, offset);
    let mut cpu = Processor::with_observer(point.cfg, replay, policy, point.steering, observer)
        .map_err(fail)?;
    let t0 = Instant::now();
    cpu.run(point.warmup).map_err(fail)?;
    let t1 = Instant::now();
    let before = *cpu.stats();
    cpu.run(point.measure).map_err(fail)?;
    let t2 = Instant::now();
    let full = *cpu.stats();
    let stats = full.delta_since(&before);
    if stats.committed < point.measure {
        return Err(format!(
            "{}: trace ended after {} of {} measured instructions",
            point.label, stats.committed, point.measure
        ));
    }
    if let Some((spans, parent, tid)) = spans {
        spans.record("warmup", &point.label, Some(parent), tid, t0, t1);
        spans.record("measure", &point.label, Some(parent), tid, t1, t2);
    }
    Ok(PointRun {
        stats,
        full,
        run_ns: nanos(t0, t2),
        probe_ns: f64::NAN,
        probe_spent_ns: 0,
        start: t0,
        end: t2,
        worker: 0,
        extra: extract(cpu.observer()),
    })
}

fn profile_extra(p: &HostProfiler) -> Extra {
    // Skew over the clusters that drained anything: max over mean.
    let drained: Vec<u64> = p
        .drained_events()
        .iter()
        .copied()
        .filter(|&n| n > 0)
        .collect();
    let skew = match drained.iter().max() {
        Some(&max) => max as f64 * drained.len() as f64 / drained.iter().sum::<u64>() as f64,
        None => 0.0,
    };
    Extra::Profile {
        stage_ns: *p.stage_nanos(),
        cycles: p.cycles(),
        drained: p.drained_total(),
        skew,
        quiescent: p.fully_quiescent_cycles(),
    }
}

/// Runs one point in `mode`.
fn run_point(
    point: &SweepPoint,
    offset: u64,
    policy: Box<dyn ReconfigPolicy>,
    mode: Mode,
    spans: Option<(&Spans, SpanId, usize)>,
) -> Result<PointRun, String> {
    match mode {
        Mode::Plain => simulate(point, offset, policy, NullObserver, None, |_| Extra::None),
        Mode::Observed => simulate(
            point,
            offset,
            policy,
            HostProfiler::default(),
            None,
            profile_extra,
        ),
        Mode::Traced => {
            let (probe, counts) = PolicyProbe::new(policy);
            let mut run = simulate(point, offset, Box::new(probe), NullObserver, spans, |_| {
                Extra::None
            })?;
            run.extra = Extra::Probe {
                calls: counts.calls.get(),
                requests: counts.requests.get(),
                sampled: counts.sampled.get(),
                sampled_ns: counts.sampled_ns.get(),
            };
            Ok(run)
        }
        Mode::Audit => simulate(point, offset, policy, AuditObserver::new(), None, |a| {
            Extra::Audit {
                violations: a.violations().len(),
                dropped: a.dropped(),
            }
        }),
    }
}

/// Runs every point of `setup` once in `mode` through the sweep
/// executor on `jobs` workers.
fn sweep(setup: &Setup, jobs: usize, mode: Mode, spans: Option<&Spans>) -> SweepRun {
    let workers = Workers::default();
    let sweep_id = spans.map(Spans::new_id);
    let start = Instant::now();
    let results = run_sweep_with(&setup.points, jobs, |point| {
        let index = setup
            .points
            .iter()
            .position(|p| std::ptr::eq(p, point))
            .expect("the executor runs the points it was given");
        // Each point runs between two host probes on its worker; the
        // one after a point is the one before the worker's next.
        let p0 = Instant::now();
        let (worker, last_probe) = workers.id();
        let before = last_probe.unwrap_or_else(probe);
        let point_id = spans.map(Spans::new_id);
        let context = spans.zip(point_id).map(|(s, id)| (s, id, worker));
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_point(point, setup.offsets[index], (point.policy)(), mode, context)
        }))
        .unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("{}: panicked: {message}", point.label))
        });
        let t1 = Instant::now();
        let after = probe();
        workers.set_probe(worker, after);
        let p1 = Instant::now();
        if let (Some(spans), Some(id), Some(parent)) = (spans, point_id, sweep_id) {
            spans.record_with_id(id, "point", &point.label, Some(parent), worker, t0, t1);
            // Probes are not the sweep's own time.
            spans.record("probe", "", Some(parent), worker, p0, t0);
            spans.record("probe", "", Some(parent), worker, t1, p1);
        }
        RunResult(result.map(|run| PointRun {
            start: t0,
            end: t1,
            worker,
            probe_ns: (before * after).sqrt(),
            probe_spent_ns: nanos(p0, t0) + nanos(t1, p1),
            ..run
        }))
    });
    let end = Instant::now();
    if let (Some(spans), Some(id)) = (spans, sweep_id) {
        spans.record_with_id(id, "sweep", "", None, 0, start, end);
    }
    SweepRun {
        runs: results.into_iter().map(|r| r.0).collect(),
        start,
        end,
        jobs,
    }
}

/// Exports each traced run's statistics as a provenance-enveloped
/// artifact, as `clustered run --json` does, and returns the
/// microseconds each took.
fn export(setup: &Setup, traced: &SweepRun, spans: &Spans) -> Vec<f64> {
    let mut micros = Vec::new();
    for ((point, plan), run) in setup.points.iter().zip(&setup.plans).zip(&traced.runs) {
        let Ok(run) = run else { continue };
        let t0 = Instant::now();
        let provenance = Provenance::new(
            &point.label,
            Some(point.trace_checksum),
            point.config_digest,
            &plan.policy.id(),
        )
        .with_wall_seconds(run.run_ns as f64 / 1e9);
        let text = envelope(&provenance, run.stats.to_json()).to_string_compact();
        std::hint::black_box(text);
        let t1 = Instant::now();
        spans.record("export", &point.label, None, 0, t0, t1);
        micros.push(nanos(t0, t1) as f64 / 1e3);
    }
    micros
}

/// The median of `values` (NaN when empty); sorts them.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The host time of one pass over `sweeps` at the probe's reference
/// speed: with `wall`, the median over sweeps of the sweep's wall time
/// less its workers' mean probe time, scaled by its points' probes
/// weighted by point time; otherwise the sum over points of each
/// point's median, over sweeps, of its `Processor::run` time scaled by
/// the probes around it.
///
/// The probes take out the host's swings over seconds and minutes; the
/// medians ride out most of what is left. Taken per point, a burst
/// that slows one point of a pass leaves the rest of the pass counted.
fn median_pass(sweeps: &[SweepRun], wall: bool) -> f64 {
    let at_reference = |r: &PointRun| scaled(r.run_ns as f64, r.probe_ns);
    if wall {
        let mut times: Vec<f64> = sweeps
            .iter()
            .map(|s| {
                let runs: Vec<&PointRun> = s.runs.iter().filter_map(|r| r.as_ref().ok()).collect();
                let raw: f64 = runs.iter().map(|r| r.run_ns as f64).sum();
                let scaled_sum: f64 = runs.iter().map(|r| at_reference(r)).sum();
                let probing: f64 = runs.iter().map(|r| r.probe_spent_ns as f64).sum();
                (s.wall_ns() as f64 - probing / s.jobs as f64) * scaled_sum / raw
            })
            .collect();
        median(&mut times)
    } else {
        let points = sweeps.first().map_or(0, |s| s.runs.len());
        (0..points)
            .map(|i| {
                let mut times: Vec<f64> = sweeps
                    .iter()
                    .filter_map(|s| s.runs[i].as_ref().ok())
                    .map(at_reference)
                    .collect();
                median(&mut times)
            })
            .sum()
    }
}

/// The shape of one sweep: median and longest point wall time, the
/// share of worker time spent in points, and the tail — from the
/// moment the first worker ran out of points to the sweep's end.
fn sweep_shape(s: &SweepRun) -> (f64, f64, f64, f64) {
    let ok: Vec<&PointRun> = s.runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    let mut durations: Vec<f64> = ok
        .iter()
        .map(|r| nanos(r.start, r.end) as f64 / 1e9)
        .collect();
    let busy: f64 = durations.iter().sum();
    let max = durations.iter().copied().fold(0.0, f64::max);
    let p50 = median(&mut durations);
    let wall = s.wall_ns() as f64 / 1e9;
    let mut last_end: BTreeMap<usize, Instant> = BTreeMap::new();
    for r in &ok {
        let end = last_end.entry(r.worker).or_insert(r.end);
        *end = (*end).max(r.end);
    }
    let first_idle = last_end.values().min().copied().unwrap_or(s.end);
    let tail = nanos(first_idle, s.end) as f64 / 1e9;
    (p50, max, busy / (s.jobs as f64 * wall), tail)
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks every run of every point against the point's first run and
/// against what any correct run must satisfy; returns one line per
/// failed run.
fn check(setup: &Setup, sweeps: &[&SweepRun], attempted: &mut u64) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, (point, plan)) in setup.points.iter().zip(&setup.plans).enumerate() {
        let mut reference: Option<PointRun> = None;
        for sweep in sweeps {
            *attempted += 1;
            let run = match &sweep.runs[i] {
                Ok(run) => run,
                Err(e) => {
                    errors.push(e.clone());
                    continue;
                }
            };
            if let Some(problem) = sanity(point, plan.policy, run) {
                errors.push(format!("{}: {problem}", point.label));
            } else if let Some(first) = &reference {
                if (first.stats, first.full) != (run.stats, run.full) {
                    errors.push(format!("{}: statistics differ between runs", point.label));
                }
            } else {
                reference = Some(run.clone());
            }
        }
    }
    errors
}

/// What a correct run of `point` must satisfy, or the first violation.
fn sanity(point: &SweepPoint, policy: Policy, run: &PointRun) -> Option<String> {
    let s = &run.stats;
    let width = point.cfg.frontend.commit_width as f64;
    if s.cycles == 0 || !(s.ipc() > 0.0 && s.ipc() <= width) {
        return Some(format!("IPC {} outside (0, {width}]", s.ipc()));
    }
    let active = s.avg_active_clusters();
    if !(1.0..=point.cfg.clusters.count as f64).contains(&active) {
        return Some(format!("mean active clusters {active} out of range"));
    }
    if let Policy::Fixed(n) = policy {
        if s.active_cluster_cycles != n as u64 * s.cycles || s.reconfigurations != 0 {
            return Some(format!("fixed-{n} point left {n} active clusters"));
        }
    }
    if let Extra::Audit {
        violations,
        dropped,
    } = run.extra
    {
        if violations > 0 || dropped > 0 {
            return Some(format!(
                "audit found {} violations",
                violations as u64 + dropped
            ));
        }
    }
    None
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated per-layer rates over the measured windows of `runs`.
fn simulated_metrics(runs: &[&PointRun], m: &mut BTreeMap<&'static str, f64>) {
    let t = |f: fn(&SimStats) -> u64| runs.iter().map(|r| f(&r.stats)).sum::<u64>() as f64;
    let kinst = t(|s| s.committed) / 1e3;
    let cycles = t(|s| s.cycles);
    m.insert(
        "bpred.mispredicts_per_kinst",
        ratio(t(|s| s.mispredicts), kinst),
    );
    m.insert(
        "cache.l1_hit_rate",
        ratio(t(|s| s.l1_hits), t(|s| s.l1_hits + s.l1_misses)),
    );
    m.insert(
        "cache.l2_miss_rate",
        ratio(t(|s| s.l2_misses), t(|s| s.l1_misses)),
    );
    m.insert(
        "cache.transfers_per_kinst",
        ratio(t(|s| s.cache_transfers), kinst),
    );
    m.insert(
        "cache.bank_mispredict_rate",
        ratio(t(|s| s.bank_mispredictions), t(|s| s.bank_predictions)),
    );
    m.insert(
        "lsq.forwards_per_kinst",
        ratio(t(|s| s.lsq_forwards), kinst),
    );
    m.insert(
        "interconnect.reg_transfers_per_kinst",
        ratio(t(|s| s.reg_transfers), kinst),
    );
    m.insert(
        "interconnect.hops_per_transfer",
        ratio(t(|s| s.reg_transfer_hops), t(|s| s.reg_transfers)),
    );
    m.insert(
        "sim.active_clusters_mean",
        ratio(t(|s| s.active_cluster_cycles), cycles),
    );
    m.insert(
        "sim.rob_occupancy_mean",
        ratio(t(|s| s.rob_occupancy_sum), cycles),
    );
    m.insert(
        "sim.dispatch_stall_fetch_per_cycle",
        ratio(t(|s| s.dispatch_stall_fetch), cycles),
    );
    m.insert(
        "sim.dispatch_stall_rob_per_cycle",
        ratio(t(|s| s.dispatch_stall_rob), cycles),
    );
    m.insert(
        "sim.dispatch_stall_resources_per_cycle",
        ratio(t(|s| s.dispatch_stall_resources), cycles),
    );
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let kind = opts.kind;
    let jobs = kind.jobs();
    let plan = plan::plan(kind, opts.seed);
    let spans = opts.trace.then(Spans::new);
    let spans = spans.as_ref();

    let mut setup_s = Vec::new();
    let mut capture_ns = Vec::new();
    let mut compile_ns = Vec::new();
    // Every set-up runs between host probes, as every point does.
    let mut timed_setup = || {
        let (s, probe_ns) = host::around(|| plan::setup(&plan, opts.window, spans));
        let records = s.traces.iter().map(|t| t.records as f64).sum::<f64>();
        setup_s.push(scaled(s.setup_ns as f64, probe_ns) / 1e9);
        capture_ns.push(s.traces.iter().map(|t| t.capture_ns as f64).sum::<f64>() / records);
        compile_ns.push(s.traces.iter().map(|t| t.compile_ns as f64).sum::<f64>() / records);
        s
    };
    let setup = timed_setup();

    // A fixed number of passes, back to back, so that every statistic
    // below is taken over the same number of samples however fast the
    // code under test is.
    let (mut plain, mut observed, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut export_us = Vec::new();
    for _ in 0..kind.passes(opts.seconds) {
        plain.push(sweep(&setup, jobs, Mode::Plain, None));
        observed.push(sweep(&setup, jobs, Mode::Observed, None));
        if let Some(spans) = spans {
            let run = sweep(&setup, jobs, Mode::Traced, Some(spans));
            export_us.extend(export(&setup, &run, spans));
            traced.push(run);
        }
    }
    // Read before the repeated set-ups below, so the peak is that of
    // one set-up plus the runs, as a user's process sees it.
    let peak_rss = peak_rss_mb();
    for _ in 1..SETUP_REPS {
        drop(timed_setup());
    }
    let audit = (!kind.is_grid()).then(|| sweep(&setup, jobs, Mode::Audit, None));

    let all: Vec<&SweepRun> = plain
        .iter()
        .chain(&observed)
        .chain(&traced)
        .chain(audit.as_ref())
        .collect();
    let mut attempted = 0;
    let mut errors = check(&setup, &all, &mut attempted);
    let failed = errors.len() as u64;

    let first: Vec<&PointRun> = plain[0]
        .runs
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    let plain_ns = median_pass(&plain, false);
    let observed_ns = median_pass(&observed, false);
    let insts: f64 = first.iter().map(|r| r.full.committed as f64).sum();
    let cycles: f64 = first.iter().map(|r| r.full.cycles as f64).sum();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(spans) = spans {
        let traces = &setup.traces;
        m.insert("capture.ns_per_record", median(&mut capture_ns));
        m.insert(
            "capture.bytes",
            traces.iter().map(|t| t.capture_bytes as f64).sum(),
        );
        m.insert("compile.ns_per_record", median(&mut compile_ns));
        m.insert(
            "compile.table_bytes",
            traces.iter().map(|t| t.table_bytes as f64).sum(),
        );
        m.insert(
            "compile.blocks",
            traces.iter().map(|t| t.blocks as f64).sum(),
        );
        m.insert("pipeline.ns_per_cycle", plain_ns / cycles);
        m.insert("pipeline.ns_per_inst", plain_ns / insts);
        m.insert("observer.overhead_frac", observed_ns / plain_ns - 1.0);
        m.insert(
            "trace.overhead_frac",
            median_pass(&traced, false) / plain_ns - 1.0,
        );
        m.insert("sweep.points", setup.points.len() as f64);
        m.insert("export.us_per_artifact", median(&mut export_us));
        profile_metrics(&observed, &mut m);
        policy_metrics(&traced, &first, &mut m);
        sweep_metrics(&plain, &mut m);
        simulated_metrics(&first, &mut m);
        let self_times = spans.self_times();
        for (layer, name) in SPAN_LAYERS {
            let (ns, count) = self_times.get(layer).copied().unwrap_or((0, 0));
            m.insert(name, ratio(ns as f64 / 1e3, count as f64));
        }
        if let Some(path) = &opts.trace_out {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, spans.chrome_trace().to_string_compact()));
            if let Err(e) = written {
                errors.push(format!("writing {}: {e}", path.display()));
            }
        }
    } else {
        // The grid's user waits for the whole sweep; a single run's
        // user waits for its `Processor::run` calls.
        let (plain_time, observed_time) = if kind.is_grid() {
            (median_pass(&plain, true), median_pass(&observed, true))
        } else {
            (plain_ns, observed_ns)
        };
        m.insert("sim_kips", insts / plain_time * 1e6);
        m.insert("host_ns_per_cycle", plain_time / cycles);
        m.insert("observed_kips", insts / observed_time * 1e6);
        m.insert("setup_s", median(&mut setup_s));
        match peak_rss {
            Some(mb) => {
                m.insert("peak_rss_mb", mb);
            }
            None => errors.push("peak resident set unreadable from /proc/self/status".into()),
        }
        let ipcs: Vec<f64> = first.iter().map(|r| r.stats.ipc()).collect();
        m.insert("sim_ipc", geometric_mean(&ipcs).unwrap_or(f64::NAN));
    }
    let mut extras = vec![(
        "host_speed",
        REFERENCE_NS / median(&mut ok_runs(&plain).map(|r| r.probe_ns).collect::<Vec<_>>()),
        "x",
        "the host probe's reference time over its median time around the plain runs".into(),
    )];
    if kind.is_grid() {
        extras.push(explore_gain(&setup, &plain[0]));
    }

    let list: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = list
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: m.get(name).copied().unwrap_or(f64::NAN),
            unit,
        })
        .collect::<Vec<_>>();
    for metric in &metrics {
        if !metric.value.is_finite() {
            errors.push(format!("metric {} is not a finite number", metric.name));
        }
    }
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        extras,
        errors,
    }
}

fn ok_runs(sweeps: &[SweepRun]) -> impl Iterator<Item = &PointRun> {
    sweeps
        .iter()
        .flat_map(|s| &s.runs)
        .filter_map(|r| r.as_ref().ok())
}

/// Stage split, event drain and quiescence from the observed runs'
/// `HostProfiler`s.
fn profile_metrics(observed: &[SweepRun], m: &mut BTreeMap<&'static str, f64>) {
    let mut stage_ns = [0u64; HOST_STAGE_COUNT];
    let (mut cycles, mut drained, mut quiescent, mut skews) = (0u64, 0u64, 0u64, Vec::new());
    for run in ok_runs(observed) {
        if let Extra::Profile {
            stage_ns: ns,
            cycles: c,
            drained: d,
            skew,
            quiescent: q,
        } = run.extra
        {
            stage_ns.iter_mut().zip(ns).for_each(|(a, b)| *a += b);
            cycles += c;
            drained += d;
            quiescent += q;
            skews.push(skew);
        }
    }
    let cycles = cycles as f64;
    for (name, ns) in STAGES.into_iter().zip(stage_ns) {
        m.insert(name, ratio(ns as f64, cycles));
    }
    m.insert(
        "pipeline.drained_events_per_cycle",
        ratio(drained as f64, cycles),
    );
    m.insert(
        "pipeline.drain_skew",
        ratio(skews.iter().sum(), skews.len() as f64),
    );
    m.insert("pipeline.quiescent_frac", ratio(quiescent as f64, cycles));
}

/// Policy calls and requests (first traced pass), sampled call cost
/// (every traced pass), and how many requests became reconfigurations.
fn policy_metrics(traced: &[SweepRun], first: &[&PointRun], m: &mut BTreeMap<&'static str, f64>) {
    let (mut calls, mut requests, mut sampled, mut sampled_ns) = (0u64, 0u64, 0u64, 0u64);
    for run in ok_runs(&traced[..1]) {
        if let Extra::Probe {
            calls: c,
            requests: r,
            ..
        } = run.extra
        {
            calls += c;
            requests += r;
        }
    }
    for run in ok_runs(traced) {
        if let Extra::Probe {
            sampled: n,
            sampled_ns: ns,
            ..
        } = run.extra
        {
            sampled += n;
            sampled_ns += ns;
        }
    }
    let reconfigs: u64 = first.iter().map(|r| r.full.reconfigurations).sum();
    let flush: u64 = first.iter().map(|r| r.full.flush_stall_cycles).sum();
    let cycles: u64 = first.iter().map(|r| r.full.cycles).sum();
    m.insert("policy.calls", calls as f64);
    // Net of the clock read each sample pays; a trivial policy can
    // read slightly below zero.
    let per_call = ratio(sampled_ns as f64, sampled as f64) - clock_overhead_ns();
    m.insert("policy.ns_per_call", per_call);
    m.insert("policy.requests", requests as f64);
    m.insert(
        "policy.effective_ratio",
        ratio(reconfigs as f64, requests as f64),
    );
    m.insert(
        "policy.flush_stall_frac",
        ratio(flush as f64, cycles as f64),
    );
}

/// The plain sweeps' shape, median over passes.
fn sweep_metrics(plain: &[SweepRun], m: &mut BTreeMap<&'static str, f64>) {
    let shapes: Vec<(f64, f64, f64, f64)> = plain.iter().map(sweep_shape).collect();
    let med =
        |f: fn(&(f64, f64, f64, f64)) -> f64| median(&mut shapes.iter().map(f).collect::<Vec<_>>());
    m.insert("sweep.point_s.p50", med(|s| s.0));
    m.insert("sweep.point_s.max", med(|s| s.1));
    m.insert("sweep.worker_busy_frac", med(|s| s.2));
    m.insert("sweep.tail_s", med(|s| s.3));
}

/// Explore's geomean IPC over the best static organisation's geomean,
/// in percent (the paper's headline figure).
fn explore_gain(setup: &Setup, plain: &SweepRun) -> (&'static str, f64, &'static str, String) {
    let mut by_policy: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (plan, run) in setup.plans.iter().zip(&plain.runs) {
        if let Ok(run) = run {
            by_policy
                .entry(plan.policy.id())
                .or_default()
                .push(run.stats.ipc());
        }
    }
    let geo = |id: &str| {
        by_policy
            .get(id)
            .and_then(|v| geometric_mean(v))
            .unwrap_or(f64::NAN)
    };
    let best_static = [2, 4, 8, 16]
        .map(|n| geo(&Policy::Fixed(n).id()))
        .into_iter()
        .fold(f64::NAN, f64::max);
    let gain = percent_change(geo(&Policy::Explore.id()), best_static).unwrap_or(f64::NAN);
    (
        "explore_gain_pct",
        gain,
        "%",
        "paper: +11%; the model is unvalidated against real hardware".into(),
    )
}
