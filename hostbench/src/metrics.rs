//! Every metric hostbench prints, with unit and direction: the table
//! behind `--list`, and what a test holds `BENCHMARK.json` to.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of `cvm` sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.10),
    e2e("host_wall_s", "s", Better::Lower, 0.10),
    e2e("host_cpu_s", "s", Better::Lower, 0.10),
    e2e("host_work_per_s", "1/s", Better::Higher, 0.10),
    e2e("host_peak_rss_mib", "MiB", Better::Lower, 0.05),
];

/// One layer each, from the traced run. Not gated.
pub const PER_LAYER: &[MetricDef] = &[
    // sim (P)
    lo("sim.baton_roundtrip_ns", "ns"),
    lo("sim.baton_roundtrip_xcpu_ns", "ns"),
    lo("sim.coop_spawn_join_ns", "ns"),
    lo("sim.event_push_pop_ns", "ns"),
    lo("sim.json_emit_ns_per_kib", "ns/KiB"),
    lo("sim.json_parse_ns_per_kib", "ns/KiB"),
    lo("sim.zipf_sample_ns", "ns"),
    lo("sim.log2hist_record_ns", "ns"),
    lo("sim.workq_item_ns", "ns"),
    // net (P)
    lo("net.send_deliver_ns", "ns"),
    lo("net.send_deliver_reliable_ns", "ns"),
    lo("net.send_deliver_loss10_ns", "ns"),
    lo("net.send_deliver_storm_ns", "ns"),
    // net (C)
    lo("net.msgs", "count"),
    lo("net.bytes", "B"),
    lo("net.retransmissions", "count"),
    lo("net.acks", "count"),
    lo("net.dup_suppressed", "count"),
    lo("net.gave_up", "count"),
    lo("net.retx_per_send", "ratio"),
    lo("net.parked_peak_bytes", "B"),
    // core (P)
    lo("core.shared_read_ns", "ns"),
    lo("core.shared_write_ns", "ns"),
    lo("core.shared_read_memsim_ns", "ns"),
    lo("core.diff_create_sparse_ns", "ns"),
    lo("core.diff_create_dense_ns", "ns"),
    lo("core.diff_apply_dense_ns", "ns"),
    lo("core.vt_merge_128_ns", "ns"),
    lo("core.twin_ensure_clear_ns", "ns"),
    lo("core.fault_host_us", "us"),
    lo("core.lock_host_us", "us"),
    lo("core.barrier_host_us_n8", "us"),
    lo("core.barrier_host_us_n128", "us"),
    lo("core.run_min_2x2_us", "us"),
    lo("core.report_to_json_us", "us"),
    lo("core.spans_overhead_pct", "%"),
    // core (C)
    lo("core.thread_switches", "count"),
    lo("core.remote_faults", "count"),
    lo("core.remote_locks", "count"),
    lo("core.diffs_created", "count"),
    lo("core.diffs_used", "count"),
    hi("core.diff_reuse", "ratio"),
    lo("core.twins_created", "count"),
    lo("core.barriers", "count"),
    lo("core.twin_peak_bytes", "B"),
    lo("core.diffcache_peak_bytes", "B"),
    // virtual time (C): the modelled cluster's clock
    lo("virt.time_ms", "ms"),
    hi("virt.user_share", "share"),
    lo("virt.barrier_share", "share"),
    lo("virt.fault_share", "share"),
    lo("virt.lock_share", "share"),
    lo("virt.idle_share", "share"),
    lo("virt.serve_p50_us_r1000", "us"),
    lo("virt.serve_p99_us_r1000", "us"),
    lo("virt.serve_p99_us_r1500", "us"),
    lo("virt.serve_mean_us_r1500", "us"),
    hi("virt.serve_max_rate_rps", "1/s"),
    hi("virt.serve_sat_rps", "1/s"),
    hi("virt.serve_knee_rps", "1/s"),
    // memsim, apps
    lo("memsim.access_ns", "ns"),
    lo("apps.serve_host_us_per_req", "us"),
    // verify
    lo("verify.traces", "count"),
    hi("verify.sleep_prunes", "count"),
    lo("verify.backtracks", "count"),
    hi("verify.naive_log10", "log10"),
    lo("verify.host_us_per_trace", "us"),
    lo("verify.check_random_ms", "ms"),
    // harness
    lo("harness.cli_startup_ms", "ms"),
    lo("harness.gate_self_ms", "ms"),
    lo("harness.micro_paper_err_pct", "%"),
    // the walk: one representative cell in-process
    lo("walk.run_ms", "ms"),
    lo("walk.emit_ms", "ms"),
    // attribution estimates: count x probe cost / host_wall_s
    lo("attr.net_send_deliver_est", "share"),
    lo("attr.core_diff_apply_est", "share"),
    lo("attr.core_twin_est", "share"),
    lo("attr.core_fault_est", "share"),
    lo("attr.sim_json_emit_est", "share"),
    lo("attr.unexplained_residual", "share"),
    // the benchmark's own health
    hi("bench.pinned", "flag"),
    hi("bench.reps", "count"),
    lo("bench.wall_med_s", "s"),
    lo("bench.wall_max_s", "s"),
    lo("bench.steal_share", "share"),
    lo("bench.trace_overhead_pct", "%"),
];

/// `--list`: one line per workload and per metric.
pub fn list() -> String {
    let mut out = String::from("# workload name: why\n");
    for w in crate::workload::Workload::ALL {
        out += &format!("workload {}: {}\n", w.name(), w.why());
    }
    out += "# kind name unit better bound\n";
    for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in defs {
            let bound = d.bound.map_or("-".to_owned(), |b| b.to_string());
            out += &format!("{kind} {} {} {} {bound}\n", d.name, d.unit, d.better.word());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use cvm_sim::JsonValue;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above, which are what the binary really prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let s = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(JsonValue::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(s(j, "name"), d.name);
                assert_eq!(s(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(s(j, "better"), d.better.word(), "{}", d.name);
                assert_eq!(
                    j.get("bound").and_then(JsonValue::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
        let workloads = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(s(j, "name"), w.name());
            assert_eq!(s(j, "why"), w.why());
        }
        let paths = doc.get("paths").and_then(JsonValue::as_array).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("hostbench"));
    }
}
