//! `cvm` — the harness's one binary: tables, single runs, campaigns,
//! benches and the verification checker; see [`cvm_harness::cli`].

fn main() {
    cvm_harness::cli::run();
}
