//! Run results: everything the harness needs to regenerate the paper's
//! tables and figures.

use std::fmt;

use cvm_net::{DeliveryFailure, LossStats, NetStats};
use cvm_sim::json::JsonValue;
use cvm_sim::{SimDuration, StepLog, VirtualTime};

use crate::attr::ResourceAttr;
use crate::hist::DsmHistograms;
use crate::oracle::Finding;
use crate::span::SpanForest;
use crate::stats::DsmStats;
use crate::trace::Trace;

/// Per-node execution-time breakdown — the four categories of Figure 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeBreakdown {
    /// Computation + local consistency + thread switches.
    pub user: SimDuration,
    /// Non-overlapped barrier wait.
    pub barrier: SimDuration,
    /// Non-overlapped fault (remote data) wait.
    pub fault: SimDuration,
    /// Non-overlapped lock wait.
    pub lock: SimDuration,
    /// Open-loop idle: every runnable thread asleep on the arrival clock
    /// (`sleep_until`), i.e. the node is under-offered. Zero for the
    /// closed-loop batch kernels.
    pub idle: SimDuration,
    /// The node's final clock.
    pub clock: VirtualTime,
}

impl NodeBreakdown {
    /// Sum of all categories (≈ the node's wall time).
    pub fn total(&self) -> SimDuration {
        self.user + self.barrier + self.fault + self.lock + self.idle
    }
}

/// Peak-memory accounting: high-water marks of the three stores whose
/// footprint grows with scale — twin pages, cached diffs and messages
/// parked in the network (retransmission copies, reorder holds). Peaks
/// are measured over the *measured* region (startup reset re-arms them)
/// and are a property of the simulated execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemPeaks {
    /// Per node: peak live twin bytes.
    pub node_twin_peak: Vec<u64>,
    /// Per node: peak diff-cache bytes (modelled wire size).
    pub node_cache_peak: Vec<u64>,
    /// Per node: peak parked message bytes (sender retransmission copies
    /// and receiver reorder holds).
    pub node_parked_peak: Vec<u64>,
    /// Whole-run peak of the cluster-wide twin total (≤ the sum of the
    /// per-node peaks, which need not coincide in time).
    pub twin_global_peak: u64,
    /// Whole-run peak of the cluster-wide diff-cache total.
    pub cache_global_peak: u64,
    /// Whole-run peak of the network-wide parked total.
    pub parked_global_peak: u64,
}

impl MemPeaks {
    /// Largest single-node peak across all three stores — the number that
    /// must fit in one node's memory budget.
    pub fn worst_node_bytes(&self) -> u64 {
        let worst = |v: &[u64]| v.iter().copied().max().unwrap_or(0);
        worst(&self.node_twin_peak)
            .max(worst(&self.node_cache_peak))
            .max(worst(&self.node_parked_peak))
    }
}

/// Cache/TLB miss totals across all nodes (Figure 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemMisses {
    /// Data-cache misses.
    pub dcache: u64,
    /// Data-TLB misses.
    pub dtlb: u64,
    /// Instruction-TLB misses.
    pub itlb: u64,
}

/// The complete result of one CVM run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall virtual time of the run (max node clock), measured from
    /// `startup_done`.
    pub total_time: VirtualTime,
    /// DSM-level statistics (Tables 3 and 5).
    pub stats: DsmStats,
    /// Traffic statistics (Table 2).
    pub net: NetStats,
    /// Reliability-layer counters (all zero unless loss injection was
    /// configured; then `retransmissions > 0` is the proof the run really
    /// exercised the recovery path).
    pub loss: LossStats,
    /// Messages the reliability layer abandoned after retry exhaustion
    /// (graceful degradation instead of a panic). Empty in a healthy run.
    pub failures: Vec<DeliveryFailure>,
    /// Threads still blocked when the run ended because traffic they
    /// depended on was abandoned. Non-zero only when `failures` is
    /// non-empty.
    pub unfinished_threads: usize,
    /// Per-node breakdown (Figure 1).
    pub nodes: Vec<NodeBreakdown>,
    /// Memory-system misses, if the simulator was enabled (Figure 2).
    pub mem: MemMisses,
    /// Peak-memory high-water marks (always collected).
    pub mem_peaks: MemPeaks,
    /// Latency and size distributions (always collected).
    pub hist: DsmHistograms,
    /// Per-page and per-lock attribution (always collected).
    pub attr: ResourceAttr,
    /// Protocol event trace, if tracing was enabled.
    pub trace: Option<Trace>,
    /// Causal span forest, if span recording was enabled
    /// ([`CvmConfig::spans`](crate::CvmConfig)).
    pub spans: Option<SpanForest>,
    /// Invariant violations recorded by the online oracle (empty unless
    /// `verify` was set — and then hopefully still empty).
    pub findings: Vec<Finding>,
    /// Scheduler pick decisions perturbed by the exploration schedule
    /// (0 when no exploration was configured).
    pub explore_decisions: u64,
    /// Scheduling-point log (enabled sets, chosen indices, burst
    /// footprints), recorded when
    /// [`CvmConfig::record_steps`](crate::CvmConfig) was set.
    pub steps: Option<StepLog>,
    /// FNV-1a fingerprint of the terminal protocol-visible state (node
    /// memories, page states, vector times); 0 unless `record_steps`.
    pub state_hash: u64,
}

impl RunReport {
    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_time.as_ms_f64()
    }

    /// True if the run completed degraded: some traffic was abandoned at
    /// retry exhaustion (an unresponsive peer), so results describe a
    /// partially-finished computation rather than a clean run.
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty() || self.unfinished_threads > 0
    }

    /// Sums the per-node breakdowns into one system-wide breakdown (the
    /// sweep's aggregation primitive; `clock` carries the max node clock).
    pub fn breakdown_sum(&self) -> NodeBreakdown {
        let mut sum = NodeBreakdown::default();
        for n in &self.nodes {
            sum.user += n.user;
            sum.barrier += n.barrier;
            sum.fault += n.fault;
            sum.lock += n.lock;
            sum.idle += n.idle;
            sum.clock = sum.clock.max(n.clock);
        }
        sum
    }

    /// Average per-node share of one Figure 1 category, as a fraction of
    /// total run time.
    pub fn fraction(&self, pick: impl Fn(&NodeBreakdown) -> SimDuration) -> f64 {
        if self.nodes.is_empty() || self.total_time == VirtualTime::ZERO {
            return 0.0;
        }
        let sum: f64 = self.nodes.iter().map(|n| pick(n).as_us_f64()).sum();
        sum / (self.nodes.len() as f64) / self.total_time.as_us_f64()
    }

    /// The whole report as one JSON document, with the top `top_n`
    /// entries of each hot-resource table. Trace *entries* are not
    /// embedded (use [`chrome_trace`](crate::export::chrome_trace) for
    /// the timeline); only the trace's bookkeeping totals appear.
    pub fn to_json(&self, top_n: usize) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("schema", "cvm-run-report");
        obj.set("version", 1u64);
        obj.set("total_ns", self.total_time.as_ns());
        obj.set("total_ms", self.total_ms());
        obj.set("stats", self.stats.to_json());
        obj.set("net", self.net.to_json());
        obj.set("loss", self.loss.to_json());
        if self.degraded() {
            let mut degraded = JsonValue::object();
            degraded.set("unfinished_threads", self.unfinished_threads);
            let mut rows = JsonValue::array();
            for fail in &self.failures {
                let mut row = JsonValue::object();
                row.set("src", fail.src.0);
                row.set("dst", fail.dst.0);
                row.set("seq", fail.seq);
                row.set("kind", format!("{:?}", fail.kind));
                row.set("span", fail.span);
                rows.push(row);
            }
            degraded.set("failures", rows);
            obj.set("degraded", degraded);
        }
        obj.set("hist", self.hist.to_json());
        obj.set("attr", self.attr.to_json(top_n));
        let mut nodes = JsonValue::array();
        for (i, n) in self.nodes.iter().enumerate() {
            let mut row = JsonValue::object();
            row.set("node", i);
            row.set("user_ns", n.user.as_ns());
            row.set("barrier_ns", n.barrier.as_ns());
            row.set("fault_ns", n.fault.as_ns());
            row.set("lock_ns", n.lock.as_ns());
            row.set("idle_ns", n.idle.as_ns());
            row.set("clock_ns", n.clock.as_ns());
            nodes.push(row);
        }
        obj.set("nodes", nodes);
        let mut mem = JsonValue::object();
        mem.set("dcache", self.mem.dcache);
        mem.set("dtlb", self.mem.dtlb);
        mem.set("itlb", self.mem.itlb);
        obj.set("mem", mem);
        let mut peaks = JsonValue::object();
        let per_node = |v: &[u64]| {
            let mut arr = JsonValue::array();
            for &b in v {
                arr.push(b);
            }
            arr
        };
        peaks.set("node_twin_peak", per_node(&self.mem_peaks.node_twin_peak));
        peaks.set("node_cache_peak", per_node(&self.mem_peaks.node_cache_peak));
        peaks.set(
            "node_parked_peak",
            per_node(&self.mem_peaks.node_parked_peak),
        );
        peaks.set("twin_global_peak", self.mem_peaks.twin_global_peak);
        peaks.set("cache_global_peak", self.mem_peaks.cache_global_peak);
        peaks.set("parked_global_peak", self.mem_peaks.parked_global_peak);
        obj.set("mem_peaks", peaks);
        if let Some(trace) = &self.trace {
            let mut t = JsonValue::object();
            t.set("recorded", trace.len());
            t.set("overflow", trace.overflow());
            t.set("events_total", trace.events_total());
            obj.set("trace", t);
        }
        if let Some(spans) = &self.spans {
            obj.set("spans", spans.to_json(self.total_time));
        }
        let mut findings = JsonValue::array();
        for fd in &self.findings {
            let mut row = JsonValue::object();
            row.set("invariant", format!("{}", fd.invariant));
            if let Some(n) = fd.node {
                row.set("node", n);
            }
            row.set("at_ns", fd.at.as_ns());
            row.set("detail", fd.detail.clone());
            findings.push(row);
        }
        obj.set("findings", findings);
        obj.set("explore_decisions", self.explore_decisions);
        if let Some(steps) = &self.steps {
            obj.set("steps", steps.to_json());
            obj.set("state_hash", format!("{:016x}", self.state_hash));
        }
        obj
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run: {:.3} ms", self.total_ms())?;
        writeln!(f, "{}", self.stats)?;
        writeln!(f, "{}", self.net)?;
        if self.loss != LossStats::default() {
            writeln!(
                f,
                "loss: dropped {} retransmissions {} dup-suppressed {} acks {}",
                self.loss.dropped,
                self.loss.retransmissions,
                self.loss.duplicates_suppressed,
                self.loss.acks_sent
            )?;
        }
        if self.degraded() {
            writeln!(
                f,
                "DEGRADED: {} message(s) abandoned at retry exhaustion, \
                 {} thread(s) unfinished",
                self.failures.len(),
                self.unfinished_threads
            )?;
        }
        if self.hist.rows().iter().any(|(_, _, h)| h.count() > 0) {
            write!(f, "{}", self.hist)?;
        }
        let attr_text = self.attr.render(5);
        if !attr_text.is_empty() {
            write!(f, "{attr_text}")?;
        }
        writeln!(
            f,
            "mem misses: dcache {} dtlb {} itlb {}",
            self.mem.dcache, self.mem.dtlb, self.mem.itlb
        )?;
        write!(
            f,
            "mem peaks: twins {} B, diff cache {} B, parked {} B \
             (worst node {} B)",
            self.mem_peaks.twin_global_peak,
            self.mem_peaks.cache_global_peak,
            self.mem_peaks.parked_global_peak,
            self.mem_peaks.worst_node_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums() {
        let b = NodeBreakdown {
            user: SimDuration::from_us(10),
            barrier: SimDuration::from_us(5),
            fault: SimDuration::from_us(3),
            lock: SimDuration::from_us(2),
            idle: SimDuration::from_us(1),
            clock: VirtualTime::from_us(21),
        };
        assert_eq!(b.total(), SimDuration::from_us(21));
    }

    #[test]
    fn fractions_are_normalized() {
        let report = RunReport {
            total_time: VirtualTime::from_us(100),
            stats: DsmStats::default(),
            net: NetStats::new(),
            loss: LossStats::default(),
            failures: Vec::new(),
            unfinished_threads: 0,
            nodes: vec![
                NodeBreakdown {
                    user: SimDuration::from_us(60),
                    barrier: SimDuration::from_us(40),
                    ..Default::default()
                },
                NodeBreakdown {
                    user: SimDuration::from_us(100),
                    ..Default::default()
                },
            ],
            mem: MemMisses::default(),
            mem_peaks: MemPeaks::default(),
            hist: DsmHistograms::default(),
            attr: ResourceAttr::default(),
            trace: None,
            spans: None,
            findings: Vec::new(),
            explore_decisions: 0,
            steps: None,
            state_hash: 0,
        };
        assert!((report.fraction(|n| n.user) - 0.8).abs() < 1e-9);
        assert!((report.fraction(|n| n.barrier) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sum_aggregates_nodes() {
        let report = RunReport {
            total_time: VirtualTime::from_us(100),
            stats: DsmStats::default(),
            net: NetStats::new(),
            loss: LossStats::default(),
            failures: Vec::new(),
            unfinished_threads: 0,
            nodes: vec![
                NodeBreakdown {
                    user: SimDuration::from_us(60),
                    fault: SimDuration::from_us(5),
                    clock: VirtualTime::from_us(80),
                    ..Default::default()
                },
                NodeBreakdown {
                    user: SimDuration::from_us(100),
                    clock: VirtualTime::from_us(100),
                    ..Default::default()
                },
            ],
            mem: MemMisses::default(),
            mem_peaks: MemPeaks::default(),
            hist: DsmHistograms::default(),
            attr: ResourceAttr::default(),
            trace: None,
            spans: None,
            findings: Vec::new(),
            explore_decisions: 0,
            steps: None,
            state_hash: 0,
        };
        let sum = report.breakdown_sum();
        assert_eq!(sum.user, SimDuration::from_us(160));
        assert_eq!(sum.fault, SimDuration::from_us(5));
        assert_eq!(sum.clock, VirtualTime::from_us(100), "clock is the max");
    }

    #[test]
    fn json_has_all_sections() {
        let mut report = RunReport {
            total_time: VirtualTime::from_us(100),
            stats: DsmStats::default(),
            net: NetStats::new(),
            loss: LossStats::default(),
            failures: Vec::new(),
            unfinished_threads: 0,
            nodes: vec![NodeBreakdown::default()],
            mem: MemMisses::default(),
            mem_peaks: MemPeaks::default(),
            hist: DsmHistograms::default(),
            attr: ResourceAttr::default(),
            trace: Some(Trace::new(16)),
            spans: None,
            findings: Vec::new(),
            explore_decisions: 0,
            steps: None,
            state_hash: 0,
        };
        report.hist.fault_fetch_ns.record(900);
        report.attr.page_mut(4).faults = 1;
        let j = report.to_json(8);
        assert_eq!(j.get("schema").unwrap().as_str(), Some("cvm-run-report"));
        assert_eq!(j.get("total_ns").unwrap().as_u64(), Some(100_000));
        for key in [
            "stats",
            "net",
            "loss",
            "hist",
            "attr",
            "nodes",
            "mem",
            "trace",
            "findings",
            "explore_decisions",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("nodes").unwrap().as_array().unwrap().len(), 1);
        let hot = j.get("attr").unwrap().get("hot_pages").unwrap();
        assert_eq!(
            hot.as_array().unwrap()[0].get("page").unwrap().as_u64(),
            Some(4)
        );
        // The document survives a print/parse round trip.
        let text = j.to_pretty();
        assert_eq!(JsonValue::parse(&text).unwrap(), j);
    }
}
