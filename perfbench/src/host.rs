//! A fixed probe of the host's current speed, run next to the timed
//! work, by which every host-time metric is scaled to a reference
//! speed.
//!
//! The benchmark shares its host with other tenants. On the 2-vCPU
//! Xeon VM it was tuned on, the simulator's speed swings by up to twice
//! over seconds and drifts over minutes with what the neighbours run;
//! no statistic over a 30 s run rides that out, and two sets of runs
//! some minutes apart disagree by more than any useful bound. The probe
//! is code of the benchmark's own, which no change to the simulator
//! touches: hash-map updates and sorts, in about equal shares of time.
//! Of the kernels tried against the simulator over such swings (ALU
//! chains, pointer chases from 1 to 32 MB, ordered maps, branchy and
//! indirect-call loops, hash maps, sorts), these two tracked its speed
//! closest. A probe run just before and just after a piece of work
//! says how fast the host was while it ran. A change to the simulator
//! moves the scaled metrics in full; a change in the host's speed moves
//! the probe as well and mostly cancels out. Not fully: the simulator
//! slows about 1.3 times as much, in log terms, as the probe does, so
//! about a quarter of a swing is left in the scaled figures.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// About the probe's median wall time on the host the benchmark was
/// tuned on. Host times are reported as if every run ran at that speed.
pub const REFERENCE_NS: f64 = 10e6;

/// Deterministic 64-bit LCG; the probe does the same work every time.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 17
    }
}

fn hash_map_work(rng: &mut Lcg) -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let key = rng.next() % 16_384;
        *map.entry(key).or_insert(0) += 1;
        acc += map.get(&(key ^ 1)).copied().unwrap_or(0);
    }
    acc
}

fn sort_work(rng: &mut Lcg) -> u64 {
    let mut values: Vec<u32> = (0..100_000).map(|_| rng.next() as u32).collect();
    values.sort_unstable();
    u64::from(values[values.len() / 2])
}

/// Runs the probe once and returns its wall time in nanoseconds.
pub fn probe() -> f64 {
    let mut rng = Lcg(0x5EED);
    let started = Instant::now();
    let mut acc = hash_map_work(&mut rng);
    acc ^= sort_work(&mut rng);
    acc ^= sort_work(&mut rng);
    std::hint::black_box(acc);
    started.elapsed().as_nanos() as f64
}

/// Probe rounds before and after a set-up; each side's probe time is
/// their median, which a burst in one round leaves be.
const ROUNDS: usize = 3;

/// Runs `work` between two sets of probes and returns its result with
/// the geometric mean of the two sides' probe times.
pub fn around<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = rounds();
    let result = work();
    let after = rounds();
    (result, (before * after).sqrt())
}

/// The median time of [`ROUNDS`] probes.
fn rounds() -> f64 {
    let mut samples: Vec<f64> = (0..ROUNDS).map(|_| probe()).collect();
    crate::bench::median(&mut samples)
}

/// `ns` measured while the probe took `probe_ns`, at reference speed.
pub fn scaled(ns: f64, probe_ns: f64) -> f64 {
    ns * REFERENCE_NS / probe_ns
}
