//! The one way to run a campaign: a grid of independent cells fanned over
//! host worker threads, results back in grid order.
//!
//! The paper tables, `bench`, `sweep`, `faults`, `serve` and `check` keep
//! only their grid, cell function and row/table emitters. Determinism is
//! the callers' half of the bargain — every cell's seed is a pure function of
//! its grid coordinates ([`workq::seed_split`]) — and this module's half
//! is [`workq::run_indexed`]: results keyed by cell index, so a report is
//! byte-identical at any worker count. Host wall-clock goes to stderr
//! only, never into an artifact.

use std::time::Instant;

use cvm_sim::workq;

/// Runs `cell_fn(index, cell)` for every cell on `workers` host threads
/// (0 = one per available core) and returns the outcomes in cell order.
/// Progress goes to stderr under `[tag]`: the grid size, one line per
/// finished cell (`label` describes the outcome) and a completion line.
pub fn run<C: Send, O: Send>(
    tag: &str,
    workers: usize,
    cells: Vec<C>,
    label: impl Fn(&O) -> String + Sync,
    cell_fn: impl Fn(usize, C) -> O + Sync,
) -> Vec<O> {
    let workers = if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };
    eprintln!("[{tag}] {} cells on {workers} worker(s)", cells.len());
    let started = Instant::now();
    let outcomes = workq::run_indexed(workers, cells, |i, cell| {
        let t0 = Instant::now();
        let outcome = cell_fn(i, cell);
        eprintln!(
            "[{tag}] {} in {:.2}s host",
            label(&outcome),
            t0.elapsed().as_secs_f64()
        );
        outcome
    });
    eprintln!(
        "[{tag}] complete: {} cells in {:.2}s host wall-clock",
        outcomes.len(),
        started.elapsed().as_secs_f64()
    );
    outcomes
}
