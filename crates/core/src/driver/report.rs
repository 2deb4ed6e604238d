//! Report assembly: the only place a [`RunReport`] is put together from
//! driver state. Reads every layer's counters; calls nothing.
//!
//! Both report producers — the `end_measure` snapshot taken while the run
//! is still in flight, and the end-of-run report — go through
//! [`DriverCore::snapshot_report`], which aggregates the per-node
//! breakdowns with [`RunReport::breakdown_sum`] (the same primitive the
//! sweep uses), so there is exactly one place where per-node time turns
//! into system-wide statistics. [`DriverCore::build_report`] then sets the
//! fields that account for the whole run.

use crate::report::{MemMisses, MemPeaks, RunReport};

use super::DriverCore;

impl DriverCore {
    /// The end-of-run report: the `end_measure` snapshot if one was taken,
    /// else the current state.
    pub(super) fn build_report(&mut self) -> RunReport {
        let mut report = match self.snapshot.take() {
            Some(snap) => snap,
            None => self.snapshot_report(),
        };
        // The timing and bandwidth stats honor the measurement window (an
        // `end_measured` snapshot excludes teardown traffic), but the
        // reliability ledger is an accounting of the whole run: a snapshot
        // taken with messages legitimately still in flight would read as
        // unbalanced, so the final report always carries the final counters.
        report.loss = self.net.loss_stats();
        report.unfinished_threads = self.threads.len() - self.finished_total;
        report.failures = self.net.delivery_failures();
        // The step log and state fingerprint cover the *whole* run (an
        // end-measure snapshot would miss post-measurement picks, and the
        // model checker's equivalence is over terminal states).
        if self.cfg.record_steps {
            report.steps = self.steps.take();
            report.state_hash = self.state_fingerprint();
        }
        report
    }

    /// Assembles a report from the current state.
    pub(super) fn snapshot_report(&self) -> RunReport {
        let mut nodes = Vec::with_capacity(self.cfg.nodes);
        let mut stats = self.stats.clone();
        for (n, ctl) in self.ctl.iter().enumerate() {
            let mut b = ctl.breakdown;
            b.clock = ctl.sched.clock;
            stats.twins_created += self.cell(n).twin_creations;
            nodes.push(b);
        }
        let mut mem = MemMisses::default();
        let mut node_twin_peak = Vec::with_capacity(self.cfg.nodes);
        for n in 0..self.cfg.nodes {
            let c = self.cell(n);
            node_twin_peak.push(c.twin_bytes_peak);
            if let Some(m) = &c.memsim {
                mem.dcache += m.dcache_misses();
                mem.dtlb += m.dtlb_misses();
                mem.itlb += m.itlb_misses();
            }
        }
        let mem_peaks = MemPeaks {
            node_twin_peak,
            node_cache_peak: self.ctl.iter().map(|c| c.cache_peak).collect(),
            node_parked_peak: self.net.parked().peaks().to_vec(),
            twin_global_peak: self.twin_global_peak,
            cache_global_peak: self.cache_global_peak,
            parked_global_peak: self.net.parked().peak_total(),
        };
        let mut report = RunReport {
            total_time: cvm_sim::VirtualTime::ZERO,
            stats,
            net: self.net.stats().clone(),
            loss: self.net.loss_stats(),
            // Failures so far; `build_report` overwrites both fields
            // with the final values (this snapshot is taken mid-run, so
            // "unfinished" is not meaningful here).
            failures: self.net.delivery_failures(),
            unfinished_threads: 0,
            nodes,
            mem,
            mem_peaks,
            hist: {
                // Fold per-node request latencies into the run histograms.
                // Node order + commutative bucket addition keeps the merge
                // independent of host-thread interleaving.
                let mut hist = self.hist.clone();
                for n in 0..self.cfg.nodes {
                    hist.request_ns.merge(&self.cell(n).req_hist);
                }
                hist
            },
            attr: self.attr.clone(),
            trace: if self.trace.enabled() {
                Some(self.trace.clone())
            } else {
                None
            },
            spans: if self.spans.enabled() {
                Some(self.spans.clone())
            } else {
                None
            },
            findings: self.cfg.verify_sink.snapshot(),
            explore_decisions: self.cfg.pick.decisions(),
            // Filled at end of run (the step log spans the whole run and
            // the fingerprint is of the *terminal* state).
            steps: None,
            state_hash: 0,
        };
        let sum = report.breakdown_sum();
        report.total_time = sum.clock;
        report.stats.user_time += sum.user;
        report.stats.wait_barrier += sum.barrier;
        report.stats.wait_fault += sum.fault;
        report.stats.wait_lock += sum.lock;
        report.stats.wait_idle += sum.idle;
        report
    }
}
