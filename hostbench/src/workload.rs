//! The five workloads: what one repetition runs and what it counts as
//! work. Each is one pinned `cvm` child over a closed set of
//! deterministic cells; the seed reaches `cvm` only through the flags
//! and the deck generated here.

use std::path::Path;

use crate::artifact::Summary;

/// The serve ladder's offered rates, requests per virtual second. The
/// 4×2 store keeps up through 2000 and saturates at 3000, so the ladder
/// brackets the knee with one cell to spare on each side.
pub const SERVE_RATES: [u32; 5] = [500, 1000, 1500, 2000, 3000];
/// Arrival window of every ladder cell, virtual milliseconds.
pub const SERVE_WINDOW_MS: u32 = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepBatch,
    ServeLadder,
    Scale128,
    DporSor,
    FaultsLossy,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SweepBatch,
        Workload::ServeLadder,
        Workload::Scale128,
        Workload::DporSor,
        Workload::FaultsLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepBatch => "sweep-batch",
            Workload::ServeLadder => "serve-ladder",
            Workload::Scale128 => "scale-128",
            Workload::DporSor => "dpor-sor",
            Workload::FaultsLossy => "faults-lossy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the same line BENCHMARK.json carries).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SweepBatch => "the paper's campaign, all 7 apps at 4 nodes x 2 threads; ~63% is SOR, so the core SharedVec access path does most of the work and the baton under 1%",
            Workload::ServeLadder => "open-loop KV ladder across the knee; tiny bursts, ~5 baton round-trips per request, so sim::coop and core::lock dominate and the access path idles",
            Workload::Scale128 => "Barnes on 128 nodes x 4 threads: 512 OS threads, 128-wide vector times, core::driver handlers, the event queue and memory at scale",
            Workload::DporSor => "1120 DPOR re-executions of a 2x2 system: build, spawn/join and tear-down dominate, so a gain bought by a costlier set-up shows as a loss",
            Workload::FaultsLossy => "36 cells over all 3 protocols under loss, reorder and storm plans: net::reliable retransmit/ack/park plus the eager-update and home-lazy paths",
        }
    }

    /// Timed repetitions of one end-to-end run. Fixed per workload: the
    /// host timings are minima, and a count that followed the clock would
    /// give faster code more draws. The 0.8 s ladder gets more than the
    /// 2 s workloads so that each timed phase lasts about 10 s.
    pub fn reps(self) -> usize {
        match self {
            Workload::ServeLadder => 9,
            _ => 5,
        }
    }

    /// The unit `host_work_per_s` counts for this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::SweepBatch | Workload::Scale128 => "messages + thread switches",
            Workload::ServeLadder => "requests served",
            Workload::DporSor => "DPOR traces",
            Workload::FaultsLossy => "campaign cells",
        }
    }

    /// Work units in one repetition, from its artifact.
    pub fn work(self, s: &Summary) -> f64 {
        match self {
            Workload::SweepBatch | Workload::Scale128 => s.msgs + s.thread_switches,
            Workload::ServeLadder => s.served,
            Workload::DporSor => s.traces,
            Workload::FaultsLossy => s.ops as f64,
        }
    }

    /// The deck `serve-ladder` runs: the repository's session scenario
    /// written out in full, with a 2 s window so that each cell serves
    /// thousands of requests, and the run's seed.
    pub fn serve_deck(seed: u64) -> String {
        let rates: Vec<String> = SERVE_RATES.iter().map(u32::to_string).collect();
        format!(
            "[store]\nkeys = 16384\nshards = 16\ntheta = 0.99\nwrite_mix = 0.2\nservice_flops = 200\n\n\
             [traffic]\nrate_rps = 1500\nduration_ms = {SERVE_WINDOW_MS}\nsweep = {}\n\n\
             [system]\nnodes = 4\nthreads = 2\nlocal_grant_cap = 0\nseed = {seed}\n",
            rates.join(", ")
        )
    }

    /// Writes the generated inputs into `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text.
    pub fn write_inputs(self, dir: &Path, seed: u64) -> Result<(), String> {
        if self == Workload::ServeLadder {
            let path = dir.join("ladder.ini");
            std::fs::write(&path, Workload::serve_deck(seed))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Arguments of one repetition; the artifact goes to `out`.
    pub fn argv(self, dir: &Path, seed: u64, out: &Path) -> Vec<String> {
        let seed = seed.to_string();
        let deck = dir.join("ladder.ini").display().to_string();
        let mut v: Vec<&str> = match self {
            Workload::SweepBatch => vec![
                "sweep",
                "--nodes",
                "4",
                "--threads",
                "2",
                "--workers",
                "1",
                "--seed",
                &seed,
            ],
            Workload::ServeLadder => vec!["serve", &deck, "--workers", "1"],
            Workload::Scale128 => vec![
                "sweep",
                "--app",
                "barnes",
                "--nodes",
                "128",
                "--threads",
                "4",
                "--workers",
                "1",
                "--seed",
                &seed,
            ],
            // `cvm check` takes no master seed under --dpor: the search
            // is exhaustive, so every seed runs the same 1120 traces.
            Workload::DporSor => vec!["check", "--dpor", "--app", "sor", "--app", "barnes"],
            Workload::FaultsLossy => vec![
                "faults",
                "--workers",
                "1",
                "--nodes",
                "8",
                "--threads",
                "2",
                "--app",
                "barnes",
                "--app",
                "fft",
                "--app",
                "water-sp",
                "--plan",
                "none",
                "--plan",
                "loss-10",
                "--plan",
                "reorder",
                "--plan",
                "storm",
                "--seed",
                &seed,
            ],
        };
        v.push("--json");
        v.push("--out");
        let mut v: Vec<String> = v.into_iter().map(str::to_owned).collect();
        v.push(out.display().to_string());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_reaches_the_program_only_through_flags_and_deck() {
        let dir = Path::new("/tmp/x");
        let out = dir.join("a.json");
        for w in Workload::ALL {
            let a = w.argv(dir, 7, &out);
            let b = w.argv(dir, 8, &out);
            assert_eq!(a, w.argv(dir, 7, &out), "same seed, same inputs");
            let takes_seed = a != b;
            assert_eq!(
                takes_seed,
                matches!(
                    w,
                    Workload::SweepBatch | Workload::Scale128 | Workload::FaultsLossy
                )
            );
            assert_eq!(&a[a.len() - 3..a.len() - 1], ["--json", "--out"]);
            if w != Workload::DporSor && w != Workload::ServeLadder {
                assert!(a.windows(2).any(|p| p == ["--workers", "1"]));
            }
        }
        assert_ne!(Workload::serve_deck(7), Workload::serve_deck(8));
        assert!(Workload::serve_deck(7).contains("seed = 7\n"));
        assert!(Workload::serve_deck(7).contains("sweep = 500, 1000, 1500, 2000, 3000\n"));
    }
}
