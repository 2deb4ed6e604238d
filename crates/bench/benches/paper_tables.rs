//! One bench per paper artifact: measures the cost of regenerating the
//! runs behind Figure 1 and Tables 2–5 (at reduced size so sampling is
//! fast), and prints the simulated headline metrics once per group.
//!
//! The full-size artifacts are produced by the `cvm` binary:
//! `cargo run --release -p cvm-harness -- all`.

use cvm_apps::water_nsq::{self, WaterNsqOpt};
use cvm_apps::{build_app, sor, AppId, Scale};
use cvm_bench::timing::bench;
use cvm_bench::workloads;
use cvm_dsm::{CvmBuilder, CvmConfig, RunReport};

fn tiny_run(app: AppId, nodes: usize, threads: usize) -> RunReport {
    // Figure 2 source: memory simulator enabled.
    let mut cfg = CvmConfig::paper(nodes, threads);
    cfg.memsim_enabled = app == AppId::Fft; // keep one memsim case hot
    let mut b = CvmBuilder::new(cfg);
    let body = match app {
        AppId::Sor => sor::build(&mut b, workloads::sor_tiny()),
        AppId::WaterNsq => water_nsq::build(&mut b, workloads::water_tiny()),
        other => build_app(&mut b, other, Scale::Small),
    };
    b.run(body)
}

/// Figure 1 / Table 2 / Table 3 source runs: app × thread level.
fn bench_fig1_tables23() {
    for threads in [1usize, 4] {
        for app in [AppId::Sor, AppId::WaterNsq] {
            bench(&format!("fig1_tables23/{}_{threads}", app.name()), || {
                tiny_run(app, 8, threads)
            });
        }
    }
    let r = tiny_run(AppId::WaterNsq, 8, 4);
    eprintln!(
        "\n[table2/3 sample] Water-Nsq P=8 T=4: {} msgs, {} KB, {} switches, {} diffs",
        r.net.total_count(),
        r.net.total_bytes() / 1024,
        r.stats.thread_switches,
        r.stats.diffs_created
    );
}

/// Figure 2 source: a memsim-enabled run.
fn bench_fig2() {
    bench("fig2/fft_memsim_p4_t2", || tiny_run(AppId::Fft, 4, 2));
    let r = tiny_run(AppId::Fft, 4, 2);
    eprintln!(
        "\n[fig2 sample] FFT P=4 T=2: dcache {} dtlb {} itlb {} misses",
        r.mem.dcache, r.mem.dtlb, r.mem.itlb
    );
}

/// Table 4 source: a 16-processor scalability run.
fn bench_table4() {
    bench("table4/sor_p16_t2", || {
        let mut builder = CvmBuilder::new(CvmConfig::paper(16, 2));
        let body = sor::build(&mut builder, workloads::sor_tiny());
        builder.run(body)
    });
}

/// Table 5 source: the Water-Nsq variants.
fn bench_table5() {
    for (name, opt) in [
        ("noopts", WaterNsqOpt::NoOpts),
        ("bothopts", WaterNsqOpt::BothOpts),
    ] {
        bench(&format!("table5_variants/{name}"), || {
            let mut cfg = workloads::water_tiny();
            cfg.opt = opt;
            let mut builder = CvmBuilder::new(CvmConfig::paper(8, 4));
            let body = water_nsq::build(&mut builder, cfg);
            builder.run(body)
        });
    }
}

fn main() {
    bench_fig1_tables23();
    bench_fig2();
    bench_table4();
    bench_table5();
}
