//! End-to-end checks of the host-profiled cycle loop: profiling must
//! never change simulated behaviour, the profile it produces must be
//! internally consistent with the run it measured, and the sampled
//! stage clock must time a deterministic set of cycles.

use clustered_sim::{
    is_timed_cycle, CacheModel, FixedPolicy, HostProfiler, HostStage, Processor, QueueHealth,
    SimConfig, SimObserver, SimStats, SteeringKind, STAGE_CLOCK_PERIOD,
};
use clustered_workloads::by_name;

fn run_profiled(instructions: u64, sample_interval: u64) -> (SimStats, HostProfiler) {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        stream,
        Box::new(FixedPolicy::new(8)),
        SteeringKind::default(),
        HostProfiler::new(sample_interval),
    )
    .expect("valid config");
    let stats = cpu.run(instructions).expect("no stall");
    let profiler = cpu.observer().clone();
    (stats, profiler)
}

/// The acceptance criterion for the profiler gate: a profiler-on run
/// changes no `SimStats` counter. Together with
/// `observed_and_unobserved_runs_are_identical` (which pins the
/// profiler-*off* loop) this brackets both sides of the
/// `WANTS_HOST_PROFILE` branch.
#[test]
fn profiled_and_plain_runs_have_identical_stats() {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut plain = Processor::new(SimConfig::default(), stream, Box::new(FixedPolicy::new(8)))
        .expect("valid config");
    let baseline = plain.run(20_000).expect("no stall");
    let (profiled, _) = run_profiled(20_000, 1_000);
    assert_eq!(baseline, profiled, "host profiling must not change simulated behaviour");
}

#[test]
fn profile_is_consistent_with_the_run() {
    let (stats, p) = run_profiled(30_000, 1_000);

    // Stage attribution: every cycle is counted, about one in
    // STAGE_CLOCK_PERIOD is timed, and the stage shares partition the
    // estimated loop time.
    assert_eq!(p.cycles(), stats.cycles, "every simulated cycle is counted");
    let expected = stats.cycles as f64 / STAGE_CLOCK_PERIOD as f64;
    let timed = p.timed_cycles() as f64;
    assert!(
        (timed - expected).abs() <= 0.25 * expected,
        "{timed} timed cycles, expected about {expected}"
    );
    assert!(p.loop_nanos() > 0, "a real run takes real time");
    let share_sum: f64 = HostStage::ALL.iter().map(|&s| p.stage_share(s)).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "stage shares sum to 1, got {share_sum}");

    // Per-kind attribution is complete too, and a gzip run writes back.
    assert_eq!(p.drained_by_kind().iter().sum::<u64>(), p.drained_total());
    assert!(p.drained_by_kind()[0] > 0, "write-backs drain");

    // Load skew: FixedPolicy(8) keeps 8 clusters active, so events
    // drain from more than one shard and the skew summary is defined.
    assert!(p.drained_total() > 0, "a gzip run drains events");
    let active_shards = p.drained_events().iter().filter(|&&n| n > 0).count();
    assert!(active_shards > 1, "events spread across shards, saw {active_shards}");
    assert!(p.drained_skew() >= 1.0, "skew is max/mean over active shards");
    assert_eq!(
        p.drained_events().iter().sum::<u64>(),
        p.drained_total(),
        "per-shard attribution is complete"
    );

    // Busy-cycle accounting: the profiler samples the queued mask at
    // end-of-cycle (after dispatch has refilled it), so it is a
    // different instant than the issue-time `cluster_busy_cycles` in
    // SimStats — the counts need not match exactly, but both must be
    // plausible per-cycle tallies of the same machine.
    let profiler_busy: u64 = p.cluster_busy_cycles().iter().sum();
    assert!(profiler_busy > 0, "an active run has busy clusters");
    for (c, &busy) in p.cluster_busy_cycles().iter().enumerate() {
        assert!(busy <= stats.cycles, "cluster {c} busy {busy} of {} cycles", stats.cycles);
    }
    assert!(
        p.fully_quiescent_cycles() <= stats.cycles,
        "quiescent cycles bounded by the run length"
    );

    // Timeline: slices cover the run in order, with no drops at this
    // cap, and their stage nanos and timed cycles re-sum to (at most)
    // the totals.
    assert!(!p.slices().is_empty());
    assert_eq!(p.dropped_slices(), 0);
    let mut prev_end = 0;
    for s in p.slices() {
        assert!(s.start_cycle >= prev_end);
        assert!(s.end_cycle > s.start_cycle);
        prev_end = s.end_cycle;
    }
    let sliced: u64 = p.slices().iter().map(|s| s.stage_nanos.iter().sum::<u64>()).sum();
    assert!(sliced <= p.loop_nanos(), "slices never claim more time than measured");
    let sliced_timed: u64 = p.slices().iter().map(|s| s.timed_cycles).sum();
    assert!(sliced_timed <= p.timed_cycles());
}

/// Two identical runs time the same cycles: the same count and the
/// same per-slice sample, at the same slice boundaries.
#[test]
fn identical_runs_time_identical_cycles() {
    let (_, a) = run_profiled(30_000, 1_000);
    let (_, b) = run_profiled(30_000, 1_000);
    assert!(a.timed_cycles() > 0);
    assert_eq!(a.timed_cycles(), b.timed_cycles());
    let slices = |p: &HostProfiler| -> Vec<(u64, u64, u64)> {
        p.slices().iter().map(|s| (s.start_cycle, s.end_cycle, s.timed_cycles)).collect()
    };
    assert_eq!(slices(&a), slices(&b));
}

/// Records the cycles whose stages were timed (the queue-health sample
/// arrives on exactly those).
#[derive(Debug, Clone, Default)]
struct TimedCycles(Vec<u64>);

impl SimObserver for TimedCycles {
    const WANTS_HOST_PROFILE: bool = true;

    fn on_queue_health(&mut self, sample: &QueueHealth) {
        self.0.push(sample.cycle);
    }
}

/// Runs gzip for a 5K-instruction warm-up and a 10K measured window,
/// resetting the profiler in between when `reset` is set. Returns the
/// cycle the window started at, the profiler and the timed cycles.
fn warm_then_measure(reset: bool) -> (u64, HostProfiler, Vec<u64>) {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        stream,
        Box::new(FixedPolicy::new(8)),
        SteeringKind::default(),
        (HostProfiler::new(500), TimedCycles::default()),
    )
    .expect("valid config");
    cpu.run(5_000).expect("no stall");
    let warm = cpu.cycle();
    if reset {
        cpu.observer_mut().0.reset();
    }
    cpu.run(10_000).expect("no stall");
    let (profiler, timed) = cpu.observer().clone();
    (warm, profiler, timed.0)
}

/// Which cycles are timed depends on the cycle number alone: a warm-up
/// `reset()` neither moves the later timed cycles nor changes how many
/// the profile counts, and the cycle loop times exactly the cycles
/// `is_timed_cycle` names.
#[test]
fn reset_after_warmup_keeps_the_timed_cycles() {
    let (warm, kept, all) = warm_then_measure(false);
    let (warm_reset, fresh, all_reset) = warm_then_measure(true);
    assert_eq!(warm, warm_reset);
    assert_eq!(all, all_reset, "reset moved the timed cycles");
    assert_eq!(all, (1..=kept.cycles()).filter(|&c| is_timed_cycle(c)).collect::<Vec<_>>());
    let after_warmup = all.iter().filter(|&&c| c > warm).count() as u64;
    assert_eq!(fresh.timed_cycles(), after_warmup, "the reset profile times the window only");
    assert_eq!(kept.timed_cycles(), all.len() as u64);
    assert_eq!(fresh.cycles(), kept.cycles() - warm);
}

#[test]
fn reset_discards_warmup_from_the_profile() {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        stream,
        Box::new(FixedPolicy::new(8)),
        SteeringKind::default(),
        HostProfiler::new(500),
    )
    .expect("valid config");
    cpu.run(5_000).expect("no stall");
    let warm = cpu.stats().cycles;
    cpu.observer_mut().reset();
    let stats = cpu.run(10_000).expect("no stall");
    let p = cpu.observer();
    assert_eq!(p.cycles(), stats.cycles - warm, "profile covers only the measured window");
    for s in p.slices() {
        assert!(s.start_cycle >= warm, "no slice reaches back into the warmup");
    }
}

/// Runs gzip under `FixedPolicy(active)` on the default 16-cluster
/// machine: `warmup` instructions, a profiler reset, then `measure`.
fn fixed_run(active: usize, model: CacheModel, warmup: u64, measure: u64) -> HostProfiler {
    let mut cfg = SimConfig::default();
    cfg.cache.model = model;
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        cfg,
        stream,
        Box::new(FixedPolicy::new(active)),
        SteeringKind::default(),
        HostProfiler::new(10_000),
    )
    .expect("valid config");
    cpu.run(warmup).expect("no stall");
    cpu.observer_mut().reset();
    cpu.run(measure).expect("no stall");
    cpu.observer().clone()
}

/// Drained events are attributed to the cluster or LSQ slice they were
/// scheduled for: on a fixed-N run nothing lands beyond cluster N, and
/// the per-cluster and per-kind counts each account for every drain.
#[test]
fn drains_are_attributed_to_active_clusters_only() {
    for model in [CacheModel::Centralized, CacheModel::Decentralized] {
        for active in [1, 2, 4, 8, 16] {
            let p = fixed_run(active, model, 2_000, 10_000);
            assert!(p.drained_total() > 0, "{model:?}/{active}: a gzip run drains events");
            for (c, &n) in p.drained_events().iter().enumerate().skip(active) {
                assert_eq!(n, 0, "{model:?}/{active}: cluster {c} is inactive but drained {n}");
            }
            assert_eq!(p.drained_events().iter().sum::<u64>(), p.drained_total());
            assert_eq!(p.drained_by_kind().iter().sum::<u64>(), p.drained_total());
        }
    }
}

/// The drain attribution of gzip on 16 of 16 clusters with the
/// decentralized cache (50K + 400K instructions), pinned to the counts
/// `clustered perf --json` reported when every cluster still had an
/// event queue of its own. Both are exact counts, so a machine-wide
/// queue whose labels name the destination must reproduce them.
#[test]
fn drain_attribution_matches_the_per_cluster_queues() {
    let p = fixed_run(16, CacheModel::Decentralized, 50_000, 400_000);
    assert_eq!(
        p.drained_events(),
        &[
            58070, 53459, 50529, 50210, 47192, 46158, 45311, 44836, 43446, 43374, 43787, 43518,
            43767, 46099, 44627, 45562
        ]
    );
    // write_back, load_addr, store_addr, load_at_lsq, store_resolved.
    assert_eq!(p.drained_by_kind(), &[400022, 89919, 10005, 89919, 160080]);
    assert_eq!(p.drained_total(), 749945);
}
