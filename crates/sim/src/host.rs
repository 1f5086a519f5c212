//! Host-side performance profiling: where does simulator *wall-clock*
//! go?
//!
//! The guest observability layer ([`SimObserver`](crate::SimObserver),
//! `SimStats`) describes the simulated machine; this module describes
//! the simulator itself. A [`HostProfiler`] attaches through the same
//! observer seam. The cycle loop then counts every drained event (by
//! destination cluster and by [`EventKind`]) and every cycle's busy
//! clusters exactly, and on a deterministic sample of cycles — one in
//! [`STAGE_CLOCK_PERIOD`], chosen by [`is_timed_cycle`] — attributes
//! its monotonic wall-clock to per-stage buckets
//! (fetch/dispatch/issue/commit/event-drain) and samples calendar-queue
//! health; on a second, disjoint sample of the same rate it attributes
//! the event drain's wall-clock to each [`EventKind`]. Stage and kind
//! times are scaled up from their samples.
//!
//! The gate is compile-time, in the `WANTS_DECISIONS` style: the
//! processor consults
//! [`SimObserver::WANTS_HOST_PROFILE`](crate::SimObserver::WANTS_HOST_PROFILE)
//! — a `const` — so a profiler-off build (the default
//! [`NullObserver`](crate::NullObserver)) compiles the clock reads and
//! hooks out of its one cycle-loop body. Profiling changes *no*
//! simulated behaviour either way: the hooks only read machine state,
//! and the bit-identical-stats tests pin it.
//!
//! Why sample: a clock read costs tens of nanoseconds against a few
//! hundred nanoseconds of work per simulated cycle, so reading it
//! around every stage of every cycle nearly halved the simulator's
//! speed. Timing one cycle in [`STAGE_CLOCK_PERIOD`] keeps the stage
//! shares while leaving the profiler cheap enough to stay on.
//!
//! Why these measurements: stage shares say which layer an
//! optimisation must move, per-[`EventKind`] drain counts and times say
//! what the largest stage (event drain) is spending its time on, and
//! sim-cycles/sec per configuration is the throughput figure every
//! speed claim is stated in — host properties no `SimStats` counter
//! can see.

use crate::config::MAX_CLUSTERS;
use crate::observe::{EventKind, EVENT_KIND_COUNT};
use clustered_stats::{Histogram, Json};
use std::sync::OnceLock;
use std::time::Instant;

/// Bytes of the busy-cluster mask the profiler tallies.
const BUSY_MASK_BYTES: usize = MAX_CLUSTERS.div_ceil(8);

/// Number of wall-clock stage buckets the profiled cycle loop reports.
pub const HOST_STAGE_COUNT: usize = 6;

/// Period of the sampled stage clock: exactly one cycle in each aligned
/// block of this many simulated cycles is timed.
pub const STAGE_CLOCK_PERIOD: u64 = 64;

const _: () = assert!(STAGE_CLOCK_PERIOD.is_power_of_two());

/// Whether the cycle loop reads the stage clock on simulated cycle
/// `cycle`.
///
/// Cycles are grouped into aligned blocks of [`STAGE_CLOCK_PERIOD`];
/// in each block the timed cycle's offset is a fixed hash (the
/// splitmix64 finaliser) of the block index. The choice depends on the
/// cycle number alone — not on profiler state — so identical runs time
/// identical cycles and a warm-up `reset()` moves nothing; the hash
/// keeps periodic program behaviour from aliasing with the sample;
/// and the blocks bound the sample count to within one of
/// `cycles / STAGE_CLOCK_PERIOD`.
#[inline]
pub fn is_timed_cycle(cycle: u64) -> bool {
    cycle % STAGE_CLOCK_PERIOD == timed_offset(cycle / STAGE_CLOCK_PERIOD)
}

/// Whether the cycle loop times the event drain per [`EventKind`] on
/// simulated cycle `cycle`: one cycle per block, half a block away from
/// the [`is_timed_cycle`] one. The per-event clock reads cost more
/// than the read they are netted of, so keeping the two samples
/// disjoint leaves the stage shares untouched.
#[inline]
pub(crate) fn is_drain_timed_cycle(cycle: u64) -> bool {
    let offset = timed_offset(cycle / STAGE_CLOCK_PERIOD) + STAGE_CLOCK_PERIOD / 2;
    cycle % STAGE_CLOCK_PERIOD == offset % STAGE_CLOCK_PERIOD
}

/// The stage-timed cycle's offset within block `block`.
#[inline]
fn timed_offset(block: u64) -> u64 {
    let mut z = block.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % STAGE_CLOCK_PERIOD
}

/// What one stage interval costs when it times nothing: the median of
/// 1001 empty `Instant` intervals, measured once per process. Each
/// stage interval of a timed cycle spans one clock read, so the cycle
/// loop subtracts this from every interval it reports.
pub(crate) fn clock_read_nanos() -> u64 {
    static NANOS: OnceLock<u64> = OnceLock::new();
    *NANOS.get_or_init(|| {
        let mut samples: Vec<u64> = (0..1_001)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(start).elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// One wall-clock bucket of the cycle loop.
///
/// `Other` is the loop glue outside the five pipeline stages (statistic
/// increments, the `on_cycle` callback); including it makes the buckets
/// *partition* the measured loop time, so shares always sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStage {
    /// Draining due events from the calendar queues.
    EventDrain,
    /// In-order retirement plus reconfiguration application.
    Commit,
    /// Per-cluster select/issue.
    Issue,
    /// Rename, steering, and structural-hazard checks.
    Dispatch,
    /// Branch prediction and the fetch queue.
    Fetch,
    /// Per-cycle bookkeeping outside the stages.
    Other,
}

impl HostStage {
    /// Every stage, in cycle-loop order (the order of the
    /// [`SimObserver::on_stage_nanos`](crate::SimObserver::on_stage_nanos)
    /// array).
    pub const ALL: [HostStage; HOST_STAGE_COUNT] = [
        HostStage::EventDrain,
        HostStage::Commit,
        HostStage::Issue,
        HostStage::Dispatch,
        HostStage::Fetch,
        HostStage::Other,
    ];

    /// Stable lower-case name (JSON keys, trace track names).
    pub fn as_str(self) -> &'static str {
        match self {
            HostStage::EventDrain => "event_drain",
            HostStage::Commit => "commit",
            HostStage::Issue => "issue",
            HostStage::Dispatch => "dispatch",
            HostStage::Fetch => "fetch",
            HostStage::Other => "other",
        }
    }
}

/// One sample of event-queue and quiescence health, taken at the end
/// of a timed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueHealth {
    /// The cycle the sample describes.
    pub cycle: u64,
    /// Undelivered events waiting in the calendar rings.
    pub calendar_events: usize,
    /// Events parked in the far-future overflow heap.
    pub overflow_events: usize,
    /// The event floor watermark (lower bound on every undelivered
    /// event time).
    pub floor: u64,
    /// How far the floor rose during this cycle.
    pub floor_advance: u64,
    /// Bit `c` set ⇔ cluster `c` had queued instructions this cycle.
    pub queued_mask: u32,
    /// Active clusters this cycle.
    pub active_clusters: usize,
    /// Physically configured clusters.
    pub configured_clusters: usize,
}

/// One aggregated slice of the host-time timeline: stage wall-clock
/// and queue depths over `start_cycle..end_cycle`. The Chrome-trace
/// exporter renders each slice as one `ph:"X"` span per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSlice {
    /// First cycle covered (exclusive of the previous slice).
    pub start_cycle: u64,
    /// Last cycle covered.
    pub end_cycle: u64,
    /// Estimated wall-clock nanoseconds per stage over the slice, in
    /// [`HostStage::ALL`] order: the timed cycles' nanoseconds times
    /// [`STAGE_CLOCK_PERIOD`].
    pub stage_nanos: [u64; HOST_STAGE_COUNT],
    /// Timed cycles in the slice (the sample behind `stage_nanos`).
    pub timed_cycles: u64,
    /// Calendar-queue events pending at the slice's last timed cycle.
    pub calendar_events: usize,
    /// Overflow-heap events pending at the slice's last timed cycle.
    pub overflow_events: usize,
    /// Busy (non-quiescent) clusters at the slice end.
    pub busy_clusters: u32,
    /// Events drained during the slice.
    pub drained: u64,
}

/// Default slice width of the host timeline, in simulated cycles.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

/// Default cap on the stored host-timeline slices; past it slices are
/// counted, not stored (same policy as the guest event logs).
pub const DEFAULT_SLICE_CAP: usize = 65_536;

/// The host-performance observer: stage wall-clock attribution,
/// calendar-queue health histograms, drain counts and per-cluster load
/// skew.
///
/// Attach it like any observer; its
/// [`WANTS_HOST_PROFILE`](crate::SimObserver::WANTS_HOST_PROFILE) flag
/// switches the cycle loop's profiling hooks on. Stage times, shares,
/// slices and the four histograms come from the timed cycles (see
/// [`is_timed_cycle`]); cycle, drain, quiescence and busy-cycle counts
/// are exact. All data is purely host-side: a profiled run's
/// `SimStats` are bit-identical to an unprofiled one.
#[derive(Debug, Clone)]
pub struct HostProfiler {
    sample_interval: u64,
    slice_cap: usize,
    cycles: u64,
    timed_cycles: u64,
    stage_nanos: [u64; HOST_STAGE_COUNT],
    ring_occupancy: Histogram,
    overflow_depth: Histogram,
    floor_advance: Histogram,
    busy_clusters: Histogram,
    fully_quiescent_cycles: u64,
    drained_events: [u64; MAX_CLUSTERS],
    drained_by_kind: [u64; EVENT_KIND_COUNT],
    drain_nanos_by_kind: [u64; EVENT_KIND_COUNT],
    drained_total: u64,
    /// End-of-cycle busy masks tallied per byte: `busy_by_byte[h][b]`
    /// counts the cycles whose mask byte `h` was `b`. Two increments a
    /// cycle, however many clusters are busy; the per-cluster counts
    /// are folded out on demand.
    busy_by_byte: [[u64; 256]; BUSY_MASK_BYTES],
    /// `(calendar, overflow)` events at the last timed cycle.
    last_depths: (usize, usize),
    slices: Vec<HostSlice>,
    dropped_slices: u64,
    slice_start: Option<u64>,
    stage_at_slice: [u64; HOST_STAGE_COUNT],
    timed_at_slice: u64,
    drained_at_slice: u64,
}

impl Default for HostProfiler {
    fn default() -> HostProfiler {
        HostProfiler::new(DEFAULT_SAMPLE_INTERVAL)
    }
}

impl HostProfiler {
    /// A profiler whose timeline aggregates one slice per
    /// `sample_interval` simulated cycles. The slice width is unrelated
    /// to the stage clock's fixed [`STAGE_CLOCK_PERIOD`].
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    pub fn new(sample_interval: u64) -> HostProfiler {
        HostProfiler::with_cap(sample_interval, DEFAULT_SLICE_CAP)
    }

    /// Like [`HostProfiler::new`] with an explicit timeline cap; slices
    /// past the cap are counted, not stored.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    pub fn with_cap(sample_interval: u64, slice_cap: usize) -> HostProfiler {
        assert!(sample_interval > 0, "sample interval must be non-zero");
        HostProfiler {
            sample_interval,
            slice_cap,
            cycles: 0,
            timed_cycles: 0,
            stage_nanos: [0; HOST_STAGE_COUNT],
            ring_occupancy: Histogram::log2(),
            overflow_depth: Histogram::log2(),
            floor_advance: Histogram::log2(),
            busy_clusters: Histogram::linear(1, MAX_CLUSTERS + 1),
            fully_quiescent_cycles: 0,
            drained_events: [0; MAX_CLUSTERS],
            drained_by_kind: [0; EVENT_KIND_COUNT],
            drain_nanos_by_kind: [0; EVENT_KIND_COUNT],
            drained_total: 0,
            busy_by_byte: [[0; 256]; BUSY_MASK_BYTES],
            last_depths: (0, 0),
            slices: Vec::new(),
            dropped_slices: 0,
            slice_start: None,
            stage_at_slice: [0; HOST_STAGE_COUNT],
            timed_at_slice: 0,
            drained_at_slice: 0,
        }
    }

    /// Discards everything collected so far (e.g. after a warm-up, so
    /// the profile covers only the measured window). The sampling
    /// configuration is kept, and which cycles are timed does not
    /// change: that depends on the cycle number alone.
    pub fn reset(&mut self) {
        *self = HostProfiler::with_cap(self.sample_interval, self.slice_cap);
    }

    /// Profiled cycles (every cycle, timed or not).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles whose stages were timed: the sample behind every stage
    /// time, share and histogram.
    pub fn timed_cycles(&self) -> u64 {
        self.timed_cycles
    }

    /// Estimated wall-clock nanoseconds spent in each stage, in
    /// [`HostStage::ALL`] order: the timed cycles' nanoseconds times
    /// [`STAGE_CLOCK_PERIOD`].
    pub fn stage_nanos(&self) -> &[u64; HOST_STAGE_COUNT] {
        &self.stage_nanos
    }

    /// Estimated total loop wall-clock (the sum of every stage bucket),
    /// in nanoseconds. Stage shares are fractions of this, so they sum
    /// to 1 by construction.
    pub fn loop_nanos(&self) -> u64 {
        self.stage_nanos.iter().sum()
    }

    /// Fraction of the loop time spent in `stage` (0.0 for an empty
    /// profile).
    pub fn stage_share(&self, stage: HostStage) -> f64 {
        let total = self.loop_nanos();
        if total == 0 {
            0.0
        } else {
            self.stage_nanos[stage_index(stage)] as f64 / total as f64
        }
    }

    /// Events drained per destination cluster — the cluster or LSQ
    /// slice each event was scheduled for (load-skew raw data).
    pub fn drained_events(&self) -> &[u64; MAX_CLUSTERS] {
        &self.drained_events
    }

    /// Events drained per kind, in [`EventKind::ALL`] order.
    pub fn drained_by_kind(&self) -> &[u64; EVENT_KIND_COUNT] {
        &self.drained_by_kind
    }

    /// Estimated wall-clock nanoseconds the event drain spent per kind,
    /// in [`EventKind::ALL`] order: the drain-timed cycles' nanoseconds
    /// (one cycle per block, disjoint from the stage-timed ones) times
    /// [`STAGE_CLOCK_PERIOD`], like [`HostProfiler::stage_nanos`].
    pub fn drain_nanos_by_kind(&self) -> &[u64; EVENT_KIND_COUNT] {
        &self.drain_nanos_by_kind
    }

    /// Estimated nanoseconds per drained event of `kind` (0.0 when none
    /// drained).
    pub fn drain_ns_per_event(&self, kind: EventKind) -> f64 {
        match self.drained_by_kind[kind.index()] {
            0 => 0.0,
            n => self.drain_nanos_by_kind[kind.index()] as f64 / n as f64,
        }
    }

    /// Total events drained.
    pub fn drained_total(&self) -> u64 {
        self.drained_total
    }

    /// Cycles each cluster spent busy (non-quiescent) at end of cycle.
    pub fn cluster_busy_cycles(&self) -> [u64; MAX_CLUSTERS] {
        let mut busy = [0; MAX_CLUSTERS];
        for (h, table) in self.busy_by_byte.iter().enumerate() {
            for (byte, &n) in table.iter().enumerate() {
                let mut m = byte;
                while m != 0 {
                    busy[8 * h + m.trailing_zeros() as usize] += n;
                    m &= m - 1;
                }
            }
        }
        busy
    }

    /// Cycles in which *no* cluster had queued instructions.
    pub fn fully_quiescent_cycles(&self) -> u64 {
        self.fully_quiescent_cycles
    }

    /// The aggregated host timeline.
    pub fn slices(&self) -> &[HostSlice] {
        &self.slices
    }

    /// Slices dropped past the timeline cap.
    pub fn dropped_slices(&self) -> u64 {
        self.dropped_slices
    }

    /// Load skew across the destination clusters that drained at least
    /// one event: max/mean of per-cluster drained events (1.0 =
    /// perfectly even, 0.0 when nothing drained).
    pub fn drained_skew(&self) -> f64 {
        let active: Vec<u64> =
            self.drained_events.iter().copied().filter(|&n| n > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        let max = *active.iter().max().expect("non-empty") as f64;
        let mean = active.iter().sum::<u64>() as f64 / active.len() as f64;
        max / mean
    }

    /// The whole profile as one JSON document (schema documented in
    /// EXPERIMENTS.md under `host_profile`).
    pub fn to_json(&self) -> Json {
        let mut stages = Json::object();
        for (i, stage) in HostStage::ALL.iter().enumerate() {
            stages = stages.set(
                stage.as_str(),
                Json::object()
                    .set("nanos", self.stage_nanos[i])
                    .set("share", self.stage_share(*stage)),
            );
        }
        let mut by_kind = Json::object();
        let mut nanos_by_kind = Json::object();
        for kind in EventKind::ALL {
            by_kind = by_kind.set(kind.as_str(), self.drained_by_kind[kind.index()]);
            nanos_by_kind =
                nanos_by_kind.set(kind.as_str(), self.drain_nanos_by_kind[kind.index()]);
        }
        let drained: Vec<Json> =
            self.drained_events.iter().map(|&n| Json::from(n)).collect();
        let busy: Vec<Json> =
            self.cluster_busy_cycles().iter().map(|&n| Json::from(n)).collect();
        let slices: Vec<Json> = self.slices.iter().map(slice_json).collect();
        Json::object()
            .set("cycles", self.cycles)
            .set("timed_cycles", self.timed_cycles)
            .set("stage_clock_period", STAGE_CLOCK_PERIOD)
            .set("loop_nanos", self.loop_nanos())
            .set("stages", stages)
            .set(
                "queue",
                Json::object()
                    .set("ring_occupancy", self.ring_occupancy.to_json())
                    .set("overflow_depth", self.overflow_depth.to_json())
                    .set("floor_advance", self.floor_advance.to_json())
                    .set("drained_events", self.drained_total)
                    .set("drained_by_kind", by_kind)
                    .set("drain_nanos_by_kind", nanos_by_kind),
            )
            .set(
                "skew",
                Json::object()
                    .set("drained_per_cluster", Json::Arr(drained))
                    .set("busy_cycles_per_cluster", Json::Arr(busy))
                    .set("busy_clusters", self.busy_clusters.to_json())
                    .set("fully_quiescent_cycles", self.fully_quiescent_cycles)
                    .set("drained_skew", self.drained_skew()),
            )
            .set("sample_interval", self.sample_interval)
            .set("slices", Json::Arr(slices))
            .set("dropped_slices", self.dropped_slices)
    }

    fn close_slice(&mut self, start: u64, end: u64, queued_mask: u32) {
        let mut stage_nanos = [0u64; HOST_STAGE_COUNT];
        for (i, n) in stage_nanos.iter_mut().enumerate() {
            *n = self.stage_nanos[i] - self.stage_at_slice[i];
        }
        let slice = HostSlice {
            start_cycle: start,
            end_cycle: end,
            stage_nanos,
            timed_cycles: self.timed_cycles - self.timed_at_slice,
            calendar_events: self.last_depths.0,
            overflow_events: self.last_depths.1,
            busy_clusters: queued_mask.count_ones(),
            drained: self.drained_total - self.drained_at_slice,
        };
        if self.slices.len() < self.slice_cap {
            self.slices.push(slice);
        } else {
            self.dropped_slices += 1;
        }
        self.stage_at_slice = self.stage_nanos;
        self.timed_at_slice = self.timed_cycles;
        self.drained_at_slice = self.drained_total;
        self.slice_start = Some(end);
    }
}

fn stage_index(stage: HostStage) -> usize {
    HostStage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("every stage is in ALL")
}

fn slice_json(s: &HostSlice) -> Json {
    let mut stages = Json::object();
    for (i, stage) in HostStage::ALL.iter().enumerate() {
        stages = stages.set(stage.as_str(), s.stage_nanos[i]);
    }
    Json::object()
        .set("start_cycle", s.start_cycle)
        .set("end_cycle", s.end_cycle)
        .set("stage_nanos", stages)
        .set("timed_cycles", s.timed_cycles)
        .set("calendar_events", s.calendar_events)
        .set("overflow_events", s.overflow_events)
        .set("busy_clusters", u64::from(s.busy_clusters))
        .set("drained", s.drained)
}

impl crate::observe::SimObserver for HostProfiler {
    const WANTS_HOST_PROFILE: bool = true;

    fn on_stage_nanos(&mut self, nanos: &[u64; HOST_STAGE_COUNT]) {
        self.timed_cycles += 1;
        for (bucket, n) in self.stage_nanos.iter_mut().zip(nanos) {
            *bucket += n * STAGE_CLOCK_PERIOD;
        }
    }

    fn on_drain_nanos(&mut self, nanos: &[u64; EVENT_KIND_COUNT]) {
        for (bucket, n) in self.drain_nanos_by_kind.iter_mut().zip(nanos) {
            *bucket += n * STAGE_CLOCK_PERIOD;
        }
    }

    fn on_queue_health(&mut self, sample: &QueueHealth) {
        self.ring_occupancy.record(sample.calendar_events as u64);
        self.overflow_depth.record(sample.overflow_events as u64);
        self.floor_advance.record(sample.floor_advance);
        self.busy_clusters.record(u64::from(sample.queued_mask.count_ones()));
        self.last_depths = (sample.calendar_events, sample.overflow_events);
    }

    fn on_busy_clusters(&mut self, cycle: u64, queued_mask: u32) {
        self.cycles += 1;
        if queued_mask == 0 {
            self.fully_quiescent_cycles += 1;
        }
        for (h, table) in self.busy_by_byte.iter_mut().enumerate() {
            table[(queued_mask >> (8 * h)) as usize & 0xff] += 1;
        }
        match self.slice_start {
            None => self.slice_start = Some(cycle.saturating_sub(1)),
            Some(start) if cycle - start >= self.sample_interval => {
                self.close_slice(start, cycle, queued_mask);
            }
            Some(_) => {}
        }
    }

    fn on_event_drained(&mut self, cluster: usize, kind: EventKind) {
        self.drained_total += 1;
        self.drained_by_kind[kind.index()] += 1;
        if cluster < MAX_CLUSTERS {
            self.drained_events[cluster] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::SimObserver;

    fn health(cycle: u64, mask: u32) -> QueueHealth {
        QueueHealth {
            cycle,
            calendar_events: 3,
            overflow_events: 0,
            floor: cycle,
            floor_advance: 1,
            queued_mask: mask,
            active_clusters: 4,
            configured_clusters: 16,
        }
    }

    /// One profiled cycle as the cycle loop delivers it: on a timed
    /// cycle the stage nanos and the queue sample, then the busy mask.
    fn cycle(p: &mut HostProfiler, cycle: u64, nanos: &[u64; HOST_STAGE_COUNT], mask: u32) {
        if is_timed_cycle(cycle) {
            p.on_stage_nanos(nanos);
            p.on_queue_health(&health(cycle, mask));
        }
        p.on_busy_clusters(cycle, mask);
    }

    #[test]
    fn one_cycle_per_block_is_timed() {
        for block in 0..1_000u64 {
            let cycles = block * STAGE_CLOCK_PERIOD..(block + 1) * STAGE_CLOCK_PERIOD;
            assert_eq!(cycles.filter(|&c| is_timed_cycle(c)).count(), 1, "block {block}");
        }
        // The offset within a block moves: a fixed offset would alias
        // with program loops whose period divides the block.
        let offsets: std::collections::BTreeSet<u64> = (0..64 * STAGE_CLOCK_PERIOD)
            .filter(|&c| is_timed_cycle(c))
            .map(|c| c % STAGE_CLOCK_PERIOD)
            .collect();
        assert!(offsets.len() > STAGE_CLOCK_PERIOD as usize / 2, "{} offsets", offsets.len());
    }

    #[test]
    fn one_drain_timed_cycle_per_block_apart_from_the_stage_sample() {
        for block in 0..1_000u64 {
            let cycles = block * STAGE_CLOCK_PERIOD..(block + 1) * STAGE_CLOCK_PERIOD;
            let drain: Vec<u64> = cycles.filter(|&c| is_drain_timed_cycle(c)).collect();
            assert_eq!(drain.len(), 1, "block {block}");
            assert!(!is_timed_cycle(drain[0]), "block {block}: the samples overlap");
        }
    }

    #[test]
    fn stage_times_scale_the_timed_cycles_and_partition_the_loop() {
        let mut p = HostProfiler::new(1_000);
        p.on_stage_nanos(&[10, 20, 30, 15, 20, 5]);
        p.on_stage_nanos(&[10, 20, 30, 15, 20, 5]);
        assert_eq!(p.timed_cycles(), 2);
        assert_eq!(p.cycles(), 0, "only the per-cycle hook counts cycles");
        assert_eq!(p.loop_nanos(), 200 * STAGE_CLOCK_PERIOD);
        let total: f64 = HostStage::ALL.iter().map(|&s| p.stage_share(s)).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to 1, got {total}");
        assert_eq!(p.stage_share(HostStage::Issue), 0.3);
        assert_eq!(HostProfiler::default().stage_share(HostStage::Fetch), 0.0);
    }

    #[test]
    fn busy_masks_count_every_cycle_and_samples_feed_histograms() {
        let mut p = HostProfiler::new(1_000);
        p.on_busy_clusters(1, 0b101); // clusters 0 and 2 busy
        p.on_busy_clusters(2, 0);
        p.on_queue_health(&health(2, 0));
        assert_eq!(p.cycles(), 2);
        assert_eq!(p.cluster_busy_cycles()[0], 1);
        assert_eq!(p.cluster_busy_cycles()[1], 0);
        assert_eq!(p.cluster_busy_cycles()[2], 1);
        assert_eq!(p.fully_quiescent_cycles(), 1);
        // Histograms hold the timed samples only.
        assert_eq!(p.busy_clusters.count(), 1);
        assert_eq!(p.floor_advance.count(), 1);
        assert_eq!(p.ring_occupancy.count(), 1);
    }

    #[test]
    fn drained_events_attribute_per_shard_and_compute_skew() {
        let mut p = HostProfiler::default();
        assert_eq!(p.drained_skew(), 0.0, "empty profile has no skew");
        for _ in 0..6 {
            p.on_event_drained(0, EventKind::WriteBack);
        }
        p.on_event_drained(1, EventKind::WriteBack);
        p.on_event_drained(1, EventKind::WriteBack);
        assert_eq!(p.drained_total(), 8);
        assert_eq!(p.drained_events()[0], 6);
        assert_eq!(p.drained_events()[1], 2);
        // max 6 / mean 4 = 1.5.
        assert!((p.drained_skew() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn drained_events_are_counted_per_kind() {
        let mut p = HostProfiler::default();
        let drains = [
            (0, EventKind::WriteBack),
            (1, EventKind::WriteBack),
            (1, EventKind::LoadAddr),
            (2, EventKind::LoadAtLsq),
            (2, EventKind::StoreResolved),
            (3, EventKind::StoreResolved),
            (3, EventKind::StoreResolved),
        ];
        for (shard, kind) in drains {
            p.on_event_drained(shard, kind);
        }
        assert_eq!(p.drained_by_kind(), &[2, 1, 0, 1, 3]);
        assert_eq!(p.drained_by_kind().iter().sum::<u64>(), p.drained_total());
        let j = p.to_json();
        let by_kind = j.get("queue").and_then(|q| q.get("drained_by_kind")).expect("per-kind");
        assert_eq!(
            by_kind.keys().unwrap(),
            vec!["write_back", "load_addr", "store_addr", "load_at_lsq", "store_resolved"]
        );
        assert_eq!(by_kind.get("store_resolved"), Some(&Json::from(3u64)));
        assert_eq!(by_kind.get("store_addr"), Some(&Json::from(0u64)));
    }

    #[test]
    fn drain_nanos_scale_per_kind_and_divide_by_the_exact_counts() {
        let mut p = HostProfiler::default();
        p.on_drain_nanos(&[100, 0, 2_000, 0, 40]);
        p.on_drain_nanos(&[50, 0, 0, 0, 20]);
        assert_eq!(p.drain_nanos_by_kind(), &[150 * 64, 0, 2_000 * 64, 0, 60 * 64]);
        for _ in 0..3 {
            p.on_event_drained(0, EventKind::WriteBack);
        }
        p.on_event_drained(1, EventKind::StoreAddr);
        assert_eq!(p.drain_ns_per_event(EventKind::WriteBack), 150.0 * 64.0 / 3.0);
        assert_eq!(p.drain_ns_per_event(EventKind::StoreAddr), 2_000.0 * 64.0);
        assert_eq!(p.drain_ns_per_event(EventKind::LoadAddr), 0.0, "none drained");
        let j = p.to_json();
        let nanos = j.get("queue").and_then(|q| q.get("drain_nanos_by_kind")).expect("per-kind");
        assert_eq!(nanos.keys().unwrap(), EventKind::ALL.map(EventKind::as_str).to_vec());
        assert_eq!(nanos.get("store_addr"), Some(&Json::from(2_000 * 64u64)));
        p.reset();
        assert_eq!(p.drain_nanos_by_kind(), &[0; EVENT_KIND_COUNT]);
    }

    #[test]
    fn timeline_slices_aggregate_per_interval_and_cap() {
        let mut p = HostProfiler::with_cap(100, 2);
        for c in 1..=450u64 {
            p.on_event_drained(0, EventKind::WriteBack);
            cycle(&mut p, c, &[1; HOST_STAGE_COUNT], 1);
        }
        // Slices close at cycles 100, 200, 300, 400; cap 2 keeps the
        // first two and counts the rest.
        assert_eq!(p.slices().len(), 2);
        assert_eq!(p.dropped_slices(), 2);
        let s = &p.slices()[0];
        assert_eq!((s.start_cycle, s.end_cycle), (0, 100));
        let timed = (1..=100).filter(|&c| is_timed_cycle(c)).count() as u64;
        assert_eq!(s.timed_cycles, timed);
        assert_eq!(
            s.stage_nanos.iter().sum::<u64>(),
            timed * HOST_STAGE_COUNT as u64 * STAGE_CLOCK_PERIOD,
            "timed cycles × 6 ns, scaled"
        );
        assert_eq!(s.drained, 100);
        assert_eq!(p.slices()[1].start_cycle, 100);
        assert_eq!(p.cycles(), 450);
        assert_eq!(p.timed_cycles(), (1..=450).filter(|&c| is_timed_cycle(c)).count() as u64);
    }

    #[test]
    fn reset_clears_data_but_keeps_configuration() {
        let mut p = HostProfiler::with_cap(7, 3);
        p.on_stage_nanos(&[1; HOST_STAGE_COUNT]);
        p.on_event_drained(2, EventKind::LoadAddr);
        p.on_queue_health(&health(1, 1));
        p.on_busy_clusters(1, 1);
        p.reset();
        assert_eq!(p.cycles(), 0);
        assert_eq!(p.timed_cycles(), 0);
        assert_eq!(p.loop_nanos(), 0);
        assert_eq!(p.drained_total(), 0);
        assert_eq!(p.drained_by_kind(), &[0; EVENT_KIND_COUNT]);
        assert_eq!(p.sample_interval, 7);
        assert_eq!(p.slice_cap, 3);
    }

    #[test]
    fn json_has_the_documented_sections() {
        let mut p = HostProfiler::new(10);
        for c in 1..=STAGE_CLOCK_PERIOD {
            cycle(&mut p, c, &[5; HOST_STAGE_COUNT], 0b11);
        }
        let j = p.to_json();
        assert_eq!(
            j.keys().unwrap(),
            vec![
                "cycles",
                "timed_cycles",
                "stage_clock_period",
                "loop_nanos",
                "stages",
                "queue",
                "skew",
                "sample_interval",
                "slices",
                "dropped_slices"
            ]
        );
        assert!(j.get("timed_cycles").and_then(Json::as_u64).unwrap() > 0);
        let stages = j.get("stages").unwrap();
        assert_eq!(
            stages.keys().unwrap(),
            vec!["event_drain", "commit", "issue", "dispatch", "fetch", "other"]
        );
        let share: f64 = HostStage::ALL
            .iter()
            .filter_map(|s| {
                stages.get(s.as_str()).and_then(|e| e.get("share")).and_then(Json::as_f64)
            })
            .sum();
        assert!((share - 1.0).abs() < 1e-9);
        let skew = j.get("skew").unwrap();
        assert_eq!(
            skew.keys().unwrap(),
            vec![
                "drained_per_cluster",
                "busy_cycles_per_cluster",
                "busy_clusters",
                "fully_quiescent_cycles",
                "drained_skew"
            ]
        );
        let text = j.to_string_compact();
        let reparsed = clustered_stats::json::parse(&text).expect("valid JSON");
        assert_eq!(reparsed, j);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_sample_interval_is_rejected() {
        let _ = HostProfiler::new(0);
    }
}
