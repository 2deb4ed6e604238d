//! The one run function ([`run_app`]) and the one grid enumerator
//! ([`grid`]) behind every campaign: the paper tables, `sweep` and `bench`.

use cvm_apps::{build_app, build_variant, AppId, Scale, Variant};
use cvm_dsm::{CvmBuilder, CvmConfig, ProtocolKind, RunReport, DEFAULT_SEED};
use cvm_net::MsgClass;

/// One experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Application under test.
    pub app: AppId,
    /// Problem scale.
    pub scale: Scale,
    /// Nodes (processors).
    pub nodes: usize,
    /// Threads per node.
    pub threads: usize,
    /// Enable the cache/TLB simulator (Figure 2 runs).
    pub memsim: bool,
    /// Per-node barrier arrival aggregation (ablation switch).
    pub aggregate_barriers: bool,
    /// Memory-conscious LIFO scheduling (paper §5 future-work switch).
    pub lifo: bool,
    /// Coherence protocol under test.
    pub protocol: ProtocolKind,
    /// Network jitter bound in microseconds (0 disables).
    pub jitter_us: u64,
    /// Release-prefers-local-waiters lock policy (ablation switch).
    pub prefer_local_locks: bool,
    /// Record the causal span forest (`cvm … --spans`).
    pub spans: bool,
    /// Master seed.
    pub seed: u64,
    /// A source modification of `app` to run instead of its stock program
    /// (Table 5, the `r` ablation).
    pub variant: Option<Variant>,
}

impl RunSpec {
    /// A standard spec with the defaults used throughout the evaluation.
    pub fn new(app: AppId, scale: Scale, nodes: usize, threads: usize) -> Self {
        RunSpec {
            app,
            scale,
            nodes,
            threads,
            memsim: false,
            aggregate_barriers: true,
            lifo: false,
            protocol: ProtocolKind::LazyMultiWriter,
            prefer_local_locks: true,
            jitter_us: 0,
            spans: false,
            seed: DEFAULT_SEED,
            variant: None,
        }
    }
}

/// The standard specs of `apps` × `nodes` × `threads`, in that nesting
/// order, minus the thread counts an application rejects.
pub fn grid(scale: Scale, apps: &[AppId], nodes: &[usize], threads: &[usize]) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &app in apps {
        for &n in nodes {
            for &t in threads.iter().filter(|&&t| app.supports_threads(t)) {
                specs.push(RunSpec::new(app, scale, n, t));
            }
        }
    }
    specs
}

/// A completed run plus convenience accessors for the table columns.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The spec that produced this run.
    pub spec: RunSpec,
    /// The full report.
    pub report: RunReport,
}

impl RunOutcome {
    /// The cell's progress line for [`crate::campaign::run`].
    pub fn done_label(&self) -> String {
        let s = &self.spec;
        format!("{} P={} T={} done", s.app, s.nodes, s.threads)
    }

    /// Total execution time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.report.total_ms()
    }

    /// Messages in a Table 2 class.
    pub fn msgs(&self, class: MsgClass) -> u64 {
        self.report.net.class_count(class)
    }

    /// Total messages.
    pub fn total_msgs(&self) -> u64 {
        self.report.net.total_count()
    }

    /// Total bandwidth in kilobytes.
    pub fn bw_kb(&self) -> u64 {
        self.report.net.total_bytes() / 1024
    }

    /// Non-overlapped delay of one class, in milliseconds (summed over
    /// nodes — the paper's Total Delay columns).
    pub fn delay_ms(&self, class: MsgClass) -> f64 {
        match class {
            MsgClass::Barrier => self.report.stats.wait_barrier.as_ms_f64(),
            MsgClass::Lock => self.report.stats.wait_lock.as_ms_f64(),
            MsgClass::Diff => self.report.stats.wait_fault.as_ms_f64(),
            MsgClass::Other => 0.0,
        }
    }
}

/// The paper-environment configuration `spec` describes.
pub(crate) fn config_for(spec: &RunSpec) -> CvmConfig {
    let mut cfg = CvmConfig::paper(spec.nodes, spec.threads);
    cfg.memsim_enabled = spec.memsim;
    cfg.aggregate_barriers = spec.aggregate_barriers;
    if spec.lifo {
        cfg.pick.base = cvm_sim::BaseOrder::Lifo;
    }
    cfg.protocol = spec.protocol;
    cfg.jitter_max = cvm_sim::SimDuration::from_us(spec.jitter_us);
    cfg.prefer_local_lock_waiters = spec.prefer_local_locks;
    cfg.spans = spec.spans;
    cfg.seed = spec.seed;
    cfg
}

/// Runs one experiment: `spec.app`'s stock program, or `spec.variant`.
///
/// # Panics
///
/// If `spec.variant` modifies an application other than `spec.app`.
pub fn run_app(spec: RunSpec) -> RunOutcome {
    let mut builder = CvmBuilder::new(config_for(&spec));
    let body = match spec.variant {
        None => build_app(&mut builder, spec.app, spec.scale),
        Some(v) => {
            assert_eq!(v.app(), spec.app, "{v:?} is not a variant of {}", spec.app);
            build_variant(&mut builder, v, spec.scale)
        }
    };
    let report = builder.run(body);
    RunOutcome { spec, report }
}

/// Percentage change helper for Table 4 (`+12%` style rounding).
pub fn pct_change(base: u64, new: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (new as f64 - base as f64) / base as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_change_handles_zero_base() {
        assert_eq!(pct_change(0, 10), 0.0);
        assert_eq!(pct_change(100, 112), 12.0);
        assert_eq!(pct_change(100, 88), -12.0);
    }

    #[test]
    #[should_panic(expected = "OceanWithoutReduction is not a variant of SOR")]
    fn a_variant_of_another_app_is_rejected() {
        run_app(RunSpec {
            variant: Some(Variant::OceanWithoutReduction),
            ..RunSpec::new(AppId::Sor, Scale::Tiny, 1, 1)
        });
    }
}
