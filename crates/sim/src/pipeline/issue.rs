//! Per-cluster select/issue, skipping quiescent clusters.
//!
//! The stage walks `queued_mask` — the set of clusters with dispatched
//! instructions awaiting issue — in ascending cluster order, which is
//! exactly the order the pre-sharding loop visited all clusters in. A
//! skipped cluster would have selected nothing and scheduled nothing,
//! so skipping it changes no machine state and consumes no event
//! ticks: the computed schedule is bit-identical, the cost is
//! proportional to busy clusters only.
//!
//! Each busy cluster runs a *select* half (its scheduler picks this
//! cycle's issue set into its own domain's scratch) and then an
//! *apply* half (ROB updates, stats, event scheduling — shared state).
//! An issued instruction wakes consumers via *events*, never by a
//! same-cycle direct enqueue, so apply on cluster `c` never touches
//! another cluster's scheduler.

use super::events::Event;
use crate::cluster::{latency_of, Domain};
use crate::observe::SimObserver;
use crate::reconfig::DISTANT_DEPTH;
use clustered_emu::TraceSource;
use clustered_isa::OpClass;

use super::Processor;

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    /// Per busy cluster, in ascending cluster order: select, then
    /// apply.
    pub(super) fn issue(&mut self) {
        let busy = self.queued_mask.count_ones() as usize;
        self.stats.quiescent_cluster_cycles += (self.domains.len() - busy) as u64;
        let mut m = self.queued_mask;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            self.select_cluster(c);
            self.apply_cluster(c);
        }
    }

    /// The select half: the cluster's scheduler fills its domain's
    /// `selected` scratch. Touches only that domain.
    fn select_cluster(&mut self, c: usize) {
        let d = &mut self.domains[c];
        d.selected.clear();
        d.sched.select(self.now, &mut d.selected);
    }

    /// The apply half: commits cluster `c`'s selections to shared
    /// state — FU occupancy, ROB flags, criticality training, stats,
    /// and the writeback/AGU events.
    fn apply_cluster(&mut self, c: usize) {
        let head_seq = self.rob.front().map(|e| e.d.seq);
        self.stats.cluster_busy_cycles[c] += 1;
        if self.domains[c].sched.queued() == 0 {
            self.queued_mask &= !(1 << c);
        }
        let selected = std::mem::take(&mut self.domains[c].selected);
        for &(seq, group, unit) in &selected {
            let Some(idx) = self.rob_index(seq) else {
                debug_assert!(false, "issued seq {seq} not in the ROB");
                continue;
            };
            let class = self.rob[idx].class;
            let (lat, pipelined) = latency_of(&self.cfg.exec, class);
            let busy_until = if pipelined { self.now + 1 } else { self.now + lat };
            self.domains[c].sched.occupy(group, unit, busy_until);
            self.domains[c].iq_used[Domain::of(class).index()] -= 1;
            self.observer.on_issue(self.now, seq, c);
            self.rob[idx].distant = head_seq.is_some_and(|h| seq - h >= DISTANT_DEPTH);
            // Train the criticality predictor with the operand that
            // arrived last.
            if self.rob[idx].src_present == [true, true] {
                let [a0, a1] = self.rob[idx].src_arrival;
                self.crit.update(self.rob[idx].d.pc, usize::from(a1 >= a0));
            }
            match class {
                OpClass::Load => self
                    .schedule(c, self.now + self.cfg.exec.int_alu, Event::LoadAddr { seq }),
                OpClass::Store => self
                    .schedule(c, self.now + self.cfg.exec.int_alu, Event::StoreAddr { seq }),
                _ => self.schedule(c, self.now + lat, Event::WriteBack { seq }),
            }
        }
        self.domains[c].selected = selected;
    }
}
