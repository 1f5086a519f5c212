//! What each workload simulates, derived from the seed, and the timed
//! set-up that turns a plan into sweep points.
//!
//! The seed picks each program's window start offset and the phase
//! order and lengths of the synthetic phased program; nothing else
//! varies between seeds.

use crate::spans::Spans;
use clustered_bench::sweep::{capture_for, SweepPoint};
use clustered_core::{FineGrain, IntervalExplore, IntervalExploreConfig};
use clustered_sim::{CacheModel, FixedPolicy, ReconfigPolicy, SimConfig};
use clustered_workloads::data::Rng;
use clustered_workloads::synthetic::{phased, PhaseKind, PhaseSpec};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// gzip and swim on the 16-of-16 decentralized machine, fixed
    /// policy, one thread.
    Wide16,
    /// vpr, gzip and a seeded phased program under interval-explore
    /// and fine-grain branch, centralized cache, one thread.
    AdaptiveNarrow,
    /// Nine kernels × {fixed 2, 4, 8, 16, explore} through the sweep
    /// executor on two workers.
    PaperGrid,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Wide16, Kind::AdaptiveNarrow, Kind::PaperGrid];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Wide16 => "wide16",
            Kind::AdaptiveNarrow => "adaptive_narrow",
            Kind::PaperGrid => "paper_grid",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload is a grid through the parallel sweep
    /// executor rather than single runs on one thread.
    pub fn is_grid(self) -> bool {
        self == Kind::PaperGrid
    }

    /// Sweep workers: two for the grid (never more than the host's
    /// cores), one for the single-run workloads.
    pub fn jobs(self) -> usize {
        if self.is_grid() {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
        } else {
            1
        }
    }

    /// Seconds one pass (a plain and an observed sweep of every point)
    /// takes on the host the benchmark was tuned on, a 2-vCPU Xeon VM.
    fn nominal_pass_seconds(self) -> f64 {
        match self {
            Kind::Wide16 => 2.5,
            Kind::AdaptiveNarrow => 4.5,
            Kind::PaperGrid => 14.0,
        }
    }

    /// Passes in a run of nominally `seconds`: a count fixed by the
    /// workload and `seconds` alone, so a faster or slower simulator
    /// gets the same number of samples and only its run time changes.
    /// At least one.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_seconds()).round() as usize).max(1)
    }

    /// The simulation window. Windows under 300K measured instructions
    /// understate interval-explore, which spends several 10K intervals
    /// exploring.
    pub fn window(self) -> Window {
        match self {
            Kind::Wide16 => Window {
                warmup: 50_000,
                measure: 400_000,
            },
            Kind::AdaptiveNarrow | Kind::PaperGrid => Window {
                warmup: 50_000,
                measure: 300_000,
            },
        }
    }
}

/// Warm-up and measured instruction counts of every point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Instructions simulated before the measured window.
    pub warmup: u64,
    /// Instructions in the measured window.
    pub measure: u64,
}

impl Window {
    /// A tiny window for smoke tests of the benchmark itself.
    pub const SMOKE: Window = Window {
        warmup: 2_000,
        measure: 8_000,
    };
}

/// The reconfiguration policy of one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// A fixed number of active clusters.
    Fixed(usize),
    /// The paper's interval-based exploration, with Figure 5's
    /// give-up bound scaled to the window.
    Explore,
    /// The paper's fine-grain branch-triggered scheme.
    Branch,
}

impl Policy {
    /// Short id used in point labels.
    pub fn id(self) -> String {
        match self {
            Policy::Fixed(n) => format!("fixed{n}"),
            Policy::Explore => "explore".to_string(),
            Policy::Branch => "branch".to_string(),
        }
    }

    /// A fresh policy instance for a window of `measure` instructions.
    pub fn build(self, measure: u64) -> Box<dyn ReconfigPolicy> {
        match self {
            Policy::Fixed(n) => Box::new(FixedPolicy::new(n)),
            Policy::Explore => Box::new(IntervalExplore::new(IntervalExploreConfig {
                max_interval: (measure / 4).max(40_000),
                ..IntervalExploreConfig::default()
            })),
            Policy::Branch => Box::new(FineGrain::branch_policy()),
        }
    }
}

/// A program to simulate: one of the nine kernels, or the synthetic
/// phased program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Program {
    /// A kernel of `clustered_workloads::all()`, by name.
    Kernel(&'static str),
    /// `synthetic::phased` over these phases.
    Phased(Vec<PhaseSpec>),
}

/// One program of a plan and where its window starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramPlan {
    /// What to simulate.
    pub program: Program,
    /// Dynamic instructions skipped before the warm-up begins.
    pub offset: u64,
}

/// One point of a plan: a program (index into [`Plan::programs`]),
/// a configuration and a policy.
#[derive(Debug, Clone, Copy)]
pub struct PointPlan {
    /// Index of the program in [`Plan::programs`].
    pub program: usize,
    /// The timing configuration.
    pub cfg: SimConfig,
    /// The reconfiguration policy.
    pub policy: Policy,
}

/// Everything a workload simulates for one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Distinct programs; each is captured and compiled once.
    pub programs: Vec<ProgramPlan>,
    /// The points, in sweep order.
    pub points: Vec<PointPlan>,
}

/// Window offsets are drawn from `0..MAX_OFFSET` instructions.
const MAX_OFFSET: u64 = 16_384;

/// The plan of workload `kind` under `seed`.
pub fn plan(kind: Kind, seed: u64) -> Plan {
    let mut rng = Rng::seeded(seed);
    let mut program = |program: Program| ProgramPlan {
        program,
        offset: rng.below(MAX_OFFSET),
    };
    let centralized = SimConfig::default();
    match kind {
        Kind::Wide16 => {
            let mut cfg = SimConfig::default();
            cfg.cache.model = CacheModel::Decentralized;
            Plan {
                programs: vec![
                    program(Program::Kernel("gzip")),
                    program(Program::Kernel("swim")),
                ],
                points: (0..2)
                    .map(|p| PointPlan {
                        program: p,
                        cfg,
                        policy: Policy::Fixed(16),
                    })
                    .collect(),
            }
        }
        Kind::AdaptiveNarrow => {
            let phases = phases(seed);
            let programs = vec![
                program(Program::Kernel("vpr")),
                program(Program::Kernel("gzip")),
                program(Program::Phased(phases)),
            ];
            let points = (0..programs.len())
                .flat_map(|p| {
                    [Policy::Explore, Policy::Branch].map(|policy| PointPlan {
                        program: p,
                        cfg: centralized,
                        policy,
                    })
                })
                .collect();
            Plan { programs, points }
        }
        Kind::PaperGrid => {
            let programs: Vec<ProgramPlan> = clustered_workloads::NAMES
                .iter()
                .map(|&name| program(Program::Kernel(name)))
                .collect();
            let policies = [
                Policy::Fixed(2),
                Policy::Fixed(4),
                Policy::Fixed(8),
                Policy::Fixed(16),
                Policy::Explore,
            ];
            let points = (0..programs.len())
                .flat_map(|p| {
                    policies.map(|policy| PointPlan {
                        program: p,
                        cfg: centralized,
                        policy,
                    })
                })
                .collect();
            Plan { programs, points }
        }
    }
}

/// The phased program's phases: each of the three kinds once, in a
/// seeded order, each lasting a seeded 24K–40K instructions. Every seed
/// keeps all three kinds, so the mix of narrow and wide phases — and
/// with it the program's IPC — stays comparable across seeds.
fn phases(seed: u64) -> Vec<PhaseSpec> {
    let mut rng = Rng::seeded(seed ^ 0x5048_4153_4544);
    let mut kinds = [PhaseKind::Serial, PhaseKind::Parallel, PhaseKind::Branchy];
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|kind| PhaseSpec::lasting(kind, 24_000 + rng.below(16_000) as u32))
        .collect()
}

/// Measured cost and size of one program's capture and compile.
#[derive(Debug, Clone)]
pub struct TraceCost {
    /// Records captured.
    pub records: usize,
    /// Wall time of `sweep::capture_for`.
    pub capture_ns: u64,
    /// Wall time of `CapturedTrace::compile`.
    pub compile_ns: u64,
    /// Captured record buffer size.
    pub capture_bytes: usize,
    /// Compiled static-table size.
    pub table_bytes: usize,
    /// Basic blocks in the compiled stream.
    pub blocks: usize,
}

/// A set-up workload: sweep points ready to run.
pub struct Setup {
    /// The sweep points, in plan order.
    pub points: Vec<SweepPoint>,
    /// Each point's plan, parallel to `points`.
    pub plans: Vec<PointPlan>,
    /// Window offset of each point, parallel to `points`.
    pub offsets: Vec<u64>,
    /// Capture and compile cost per program.
    pub traces: Vec<TraceCost>,
    /// Wall time of the whole set-up.
    pub setup_ns: u64,
}

/// Builds the workloads of `plan`, captures and compiles each program
/// once, and makes one sweep point per planned point. With `spans`,
/// records a `setup` span with `capture` and `compile` children.
pub fn setup(plan: &Plan, window: Window, spans: Option<&Spans>) -> Setup {
    let started = Instant::now();
    let setup_id = spans.map(Spans::new_id);
    let suite = clustered_workloads::all();
    let mut captured = Vec::with_capacity(plan.programs.len());
    let mut traces = Vec::with_capacity(plan.programs.len());
    for p in &plan.programs {
        let workload = match &p.program {
            Program::Kernel(name) => suite
                .iter()
                .find(|w| w.name() == *name)
                .unwrap_or_else(|| panic!("kernel `{name}` is not in the suite"))
                .clone(),
            Program::Phased(phases) => phased("phased", phases),
        };
        let t0 = Instant::now();
        let trace = capture_for(&workload, p.offset + window.warmup, window.measure);
        let t1 = Instant::now();
        let compiled = trace.compile();
        let t2 = Instant::now();
        if let (Some(spans), Some(parent)) = (spans, setup_id) {
            spans.record("capture", workload.name(), Some(parent), 0, t0, t1);
            spans.record("compile", workload.name(), Some(parent), 0, t1, t2);
        }
        traces.push(TraceCost {
            records: trace.len(),
            capture_ns: nanos(t0, t1),
            compile_ns: nanos(t1, t2),
            capture_bytes: trace.buffer_bytes(),
            table_bytes: compiled.table_bytes(),
            blocks: compiled.block_count(),
        });
        captured.push(trace);
    }
    let mut points = Vec::with_capacity(plan.points.len());
    let mut offsets = Vec::with_capacity(plan.points.len());
    for pp in &plan.points {
        let trace = &captured[pp.program];
        let policy = pp.policy;
        let measure = window.measure;
        points.push(SweepPoint::new(
            format!("{}/{}", trace.name(), policy.id()),
            trace,
            pp.cfg,
            move || policy.build(measure),
            window.warmup,
            window.measure,
        ));
        offsets.push(plan.programs[pp.program].offset);
    }
    let ended = Instant::now();
    if let (Some(spans), Some(id)) = (spans, setup_id) {
        spans.record_with_id(id, "setup", "", None, 0, started, ended);
    }
    Setup {
        points,
        plans: plan.points.clone(),
        offsets,
        traces,
        setup_ns: nanos(started, ended),
    }
}

/// Nanoseconds from `a` to `b`.
pub fn nanos(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}
