//! Observers compose: a pair `(A, B)` is itself an observer that ORs
//! the members' `WANTS_*` flags and forwards every hook to both. A
//! composed run must simulate exactly what a plain run simulates, and
//! each member must report exactly what it reports when attached alone
//! (apart from wall-clock timings, which no two runs share).

use clustered::policies::IntervalExplore;
use clustered::sim::{
    AuditObserver, DecisionTrace, HostProfiler, NullObserver, Processor, SimConfig, SimObserver,
    SimStats, SteeringKind,
};

const INSTRUCTIONS: u64 = 40_000;

/// Runs gzip under the explore policy (it reconfigures and records
/// decisions) with `observer` attached.
fn run<O: SimObserver + Clone>(observer: O) -> (SimStats, O) {
    let workload = clustered::workloads::by_name("gzip").expect("known workload");
    let stream = workload.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        stream,
        Box::new(IntervalExplore::default()),
        SteeringKind::default(),
        observer,
    )
    .expect("valid config");
    let stats = cpu.run(INSTRUCTIONS).expect("no stall");
    (stats, cpu.observer().clone())
}

/// An auditor that reports a violation on every check, so that equal
/// violation logs are a real comparison rather than two empty lists.
fn skewed_auditor() -> AuditObserver {
    let mut a = AuditObserver::with_interval(1_000);
    a.inject_fetched_skew(1);
    a
}

fn assert_same_audit(paired: &AuditObserver, alone: &AuditObserver, label: &str) {
    assert_eq!(paired.checks_run(), alone.checks_run(), "{label}: audit checks");
    assert_eq!(paired.violations(), alone.violations(), "{label}: audit violations");
    assert_eq!(paired.dropped(), alone.dropped(), "{label}: dropped violations");
}

/// Everything a profile holds except wall-clock nanoseconds.
fn assert_same_profile(paired: &HostProfiler, alone: &HostProfiler) {
    assert_eq!(paired.cycles(), alone.cycles());
    assert_eq!(paired.timed_cycles(), alone.timed_cycles());
    assert_eq!(paired.drained_total(), alone.drained_total());
    assert_eq!(paired.drained_events(), alone.drained_events());
    assert_eq!(paired.drained_by_kind(), alone.drained_by_kind());
    assert_eq!(paired.fully_quiescent_cycles(), alone.fully_quiescent_cycles());
    assert_eq!(paired.cluster_busy_cycles(), alone.cluster_busy_cycles());
    let bounds = |p: &HostProfiler| -> Vec<(u64, u64, u64, u64)> {
        p.slices().iter().map(|s| (s.start_cycle, s.end_cycle, s.timed_cycles, s.drained)).collect()
    };
    assert_eq!(bounds(paired), bounds(alone), "slice boundaries and counts");
}

#[test]
fn composed_observers_match_plain_stats_and_their_solo_runs() {
    let (plain, NullObserver) = run(NullObserver);
    assert!(plain.reconfigurations > 0, "the explore policy must reconfigure");

    let (profiled_audited, (profile, audit)) = run((HostProfiler::default(), skewed_auditor()));
    assert_eq!(profiled_audited, plain, "(HostProfiler, AuditObserver) perturbed the run");
    let (audited_traced, (audit2, trace)) = run((skewed_auditor(), DecisionTrace::new()));
    assert_eq!(audited_traced, plain, "(AuditObserver, DecisionTrace) perturbed the run");

    let (_, profile_alone) = run(HostProfiler::default());
    let (_, audit_alone) = run(skewed_auditor());
    let (_, trace_alone) = run(DecisionTrace::new());

    assert_same_profile(&profile, &profile_alone);
    assert_eq!(profile.cycles(), plain.cycles);
    assert!(!audit_alone.violations().is_empty(), "the skewed auditor reports");
    assert_same_audit(&audit, &audit_alone, "with the profiler");
    assert_same_audit(&audit2, &audit_alone, "with the decision trace");
    assert!(!trace_alone.decisions().is_empty(), "the explore policy records decisions");
    assert_eq!(trace.decisions(), trace_alone.decisions(), "decision records");
    assert_eq!(trace.dropped(), trace_alone.dropped());
}

/// Pairs nest: a three-member observer still ORs every flag.
#[test]
fn nested_pairs_or_every_flag() {
    type Three = (HostProfiler, (AuditObserver, DecisionTrace));
    const _: () = assert!(
        <Three as SimObserver>::WANTS_HOST_PROFILE
            && <Three as SimObserver>::WANTS_AUDIT
            && <Three as SimObserver>::WANTS_DECISIONS
    );
    const _: () = assert!(!<(NullObserver, NullObserver) as SimObserver>::WANTS_HOST_PROFILE);
    let (plain, _) = run(NullObserver);
    let (stats, (profile, (audit, trace))) =
        run((HostProfiler::default(), (AuditObserver::new(), DecisionTrace::new())));
    assert_eq!(stats, plain);
    assert_eq!(profile.cycles(), plain.cycles);
    assert!(audit.is_clean(), "{:?}", audit.violations().first());
    assert!(!trace.decisions().is_empty());
}
