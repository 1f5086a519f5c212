//! A [`ReconfigPolicy`] wrapper that counts and samples the policy
//! layer from outside, through the public trait only.

use clustered_sim::{CommitEvent, DecisionRecord, ReconfigPolicy};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// One call in `SAMPLE_EVERY` is timed; timing every call would cost
/// more than most policies' `on_commit`.
pub const SAMPLE_EVERY: u64 = 64;

/// The median cost of one timed empty interval — what a timed call
/// pays for the clock itself, to be subtracted from the samples.
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<u128> = (0..1_001)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(started).elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// What a [`PolicyProbe`] saw. Shared with the caller, since the
/// processor owns the policy for the whole run.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    /// `on_commit` calls.
    pub calls: Cell<u64>,
    /// Calls that returned a cluster-count request.
    pub requests: Cell<u64>,
    /// Calls that were timed.
    pub sampled: Cell<u64>,
    /// Wall time of the timed calls, each including one clock read.
    pub sampled_ns: Cell<u64>,
}

/// Forwards every call to the wrapped policy, counting calls and
/// requests and timing one call in [`SAMPLE_EVERY`].
pub struct PolicyProbe {
    inner: Box<dyn ReconfigPolicy>,
    counts: Rc<ProbeCounts>,
}

impl PolicyProbe {
    /// Wraps `inner`; read the counts through the returned handle.
    pub fn new(inner: Box<dyn ReconfigPolicy>) -> (PolicyProbe, Rc<ProbeCounts>) {
        let counts = Rc::new(ProbeCounts::default());
        (
            PolicyProbe {
                inner,
                counts: Rc::clone(&counts),
            },
            counts,
        )
    }
}

impl ReconfigPolicy for PolicyProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_clusters(&self) -> usize {
        self.inner.initial_clusters()
    }

    fn on_commit(&mut self, event: &CommitEvent) -> Option<usize> {
        let c = &self.counts;
        let calls = c.calls.get();
        c.calls.set(calls + 1);
        let request = if calls.is_multiple_of(SAMPLE_EVERY) {
            let started = Instant::now();
            let request = self.inner.on_commit(event);
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            c.sampled.set(c.sampled.get() + 1);
            c.sampled_ns.set(c.sampled_ns.get() + ns);
            request
        } else {
            self.inner.on_commit(event)
        };
        if request.is_some() {
            c.requests.set(c.requests.get() + 1);
        }
        request
    }

    fn take_decision(&mut self) -> Option<DecisionRecord> {
        self.inner.take_decision()
    }
}
