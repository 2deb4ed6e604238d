//! Set-up and the timed repetitions of one workload.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::artifact::{self, Summary};
use crate::child::{self, Rep};
use crate::proc::{self, Pinning};
use crate::spans::Spans;
use crate::workload::Workload;

/// Fewest timed repetitions, however early `--seconds` run out.
pub const MIN_REPS: usize = 3;

/// Where and how children run.
#[derive(Debug, Clone)]
pub struct Env {
    /// The program under test: `cvm`, the sibling of this executable.
    pub cvm: PathBuf,
    /// This executable (the probes run in a child of it).
    pub me: PathBuf,
    pub pin: Pinning,
    /// Scratch directory for the generated inputs and the artifact.
    pub dir: PathBuf,
}

impl Env {
    /// Finds `cvm` next to this executable, decides the pinning and
    /// makes the scratch directory (inside the build directory, so
    /// nothing is written outside the checkout).
    ///
    /// # Errors
    ///
    /// Returns a message when `cvm` is missing or the directory cannot
    /// be made.
    pub fn locate(workload: Workload) -> Result<Env, String> {
        let me = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
        let bin_dir = me.parent().ok_or("executable has no directory")?.to_owned();
        let cvm = bin_dir.join("cvm");
        if !cvm.is_file() {
            return Err(format!(
                "{} not found: build it first (hostbench/run.sh does)",
                cvm.display()
            ));
        }
        let dir = bin_dir.join("hostbench-work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot make {}: {e}", dir.display()))?;
        Ok(Env {
            cvm,
            me,
            pin: Pinning::detect(),
            dir,
        })
    }

    pub fn artifact_path(&self) -> PathBuf {
        self.dir.join("artifact.json")
    }

    /// Where the traced run leaves its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.dir
            .parent()
            .expect("dir was joined onto a parent")
            .join("trace.json")
    }
}

/// What the warm-up repetition produced: every timed repetition must
/// reproduce it byte for byte.
#[derive(Debug, Clone)]
pub struct Reference {
    pub summary: Summary,
    pub digest: u64,
}

/// A workload that is set up and ready to be timed.
#[derive(Debug, Clone)]
pub struct Job {
    pub env: Env,
    pub workload: Workload,
    pub seed: u64,
    pub reference: Reference,
}

/// One repetition, checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub rep: Rep,
    pub summary: Option<Summary>,
    pub digest: Option<u64>,
    /// The artifact's bytes differ from the warm-up's.
    pub digest_differs: bool,
    /// Why the repetition counts as failed (empty = it passed).
    pub problems: Vec<String>,
}

/// Runs `cvm` once for `workload` and reads its artifact back.
/// `reference` is the warm-up's result, absent for the warm-up itself.
pub fn checked_rep(
    env: &Env,
    workload: Workload,
    seed: u64,
    reference: Option<&Reference>,
    spans: &mut Spans,
    parent: u32,
) -> Outcome {
    let out = env.artifact_path();
    // A stale artifact must not pass for this repetition's.
    let _ = std::fs::remove_file(&out);
    let args = workload.argv(&env.dir, seed, &out);
    let mut problems = Vec::new();
    let rep = child::run(&env.pin, &env.cvm, &args, spans, parent).unwrap_or_else(|e| {
        problems.push(e);
        Rep::never_ran()
    });
    if !rep.exit_ok {
        problems.push("child exited non-zero".into());
    }
    if !rep.pin_held(&env.pin) {
        problems.push(format!(
            "child was not pinned: Cpus_allowed_list {:?}",
            rep.cpus_allowed
        ));
    }
    let parse_span = spans.open(parent, "parse_artifact");
    let (summary, digest) = match std::fs::read(&out) {
        Ok(bytes) => {
            let digest = artifact::digest(&bytes);
            match artifact::summarize(&String::from_utf8_lossy(&bytes)) {
                Ok(s) => (Some(s), Some(digest)),
                Err(e) => {
                    problems.push(e);
                    (None, Some(digest))
                }
            }
        }
        Err(e) => {
            problems.push(format!("no artifact: {e}"));
            (None, None)
        }
    };
    spans.close(parse_span);
    let check_span = spans.open(parent, "digest_check");
    if let Some(s) = &summary {
        if s.failed > 0 {
            problems.push(format!(
                "artifact marks {} of {} ops failed",
                s.failed, s.ops
            ));
        }
    }
    let digest_differs = match (reference, digest) {
        (Some(r), Some(d)) => d != r.digest,
        _ => false,
    };
    if digest_differs {
        problems.push("artifact digest differs from the warm-up's".into());
    }
    spans.close(check_span);
    Outcome {
        rep,
        summary,
        digest,
        digest_differs,
        problems,
    }
}

impl Outcome {
    /// Ops of this repetition that failed, out of `ops` attempted: what
    /// the artifact itself marks failed, or all of them when the
    /// repetition as a whole cannot be trusted.
    pub fn failed_ops(&self, ops: u64) -> u64 {
        let by_artifact = self.summary.as_ref().map_or(ops, |s| s.failed);
        let whole_rep_bad = !self.rep.exit_ok || self.summary.is_none() || self.digest_differs;
        if whole_rep_bad {
            ops
        } else {
            by_artifact.min(ops)
        }
    }
}

/// Set-up: scratch directory, generated inputs, `cvm` located, pinning
/// decided, one warm-up repetition, its artifact parsed and checked.
///
/// # Errors
///
/// Returns a message when the warm-up does not produce a clean
/// artifact: there is then nothing to measure against.
pub fn setup(workload: Workload, seed: u64, spans: &mut Spans, parent: u32) -> Result<Job, String> {
    let gen_span = spans.open(parent, "gen_inputs");
    let env = Env::locate(workload)?;
    workload.write_inputs(&env.dir, seed)?;
    spans.close(gen_span);
    let warm_span = spans.open(parent, "warmup");
    let warm = checked_rep(&env, workload, seed, None, spans, warm_span);
    spans.close(warm_span);
    if !warm.problems.is_empty() {
        return Err(format!("warm-up failed: {}", warm.problems.join("; ")));
    }
    let reference = Reference {
        summary: warm.summary.expect("no problems means a summary"),
        digest: warm.digest.expect("no problems means a digest"),
    };
    Ok(Job {
        env,
        workload,
        seed,
        reference,
    })
}

/// The timed phase of a run.
#[derive(Debug, Clone)]
pub struct Timed {
    pub outcomes: Vec<Outcome>,
    /// Share of the timed phase the pinned CPU spent stolen by the
    /// hypervisor.
    pub steal_share: f64,
}

impl Timed {
    /// Wall time of every repetition, spawn to exit.
    pub fn walls(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.rep.wall_s).collect()
    }

    /// `host_wall_s`: the fastest repetition.
    pub fn best_wall_s(&self) -> f64 {
        proc::min(&self.walls())
    }
}

/// Runs `reps` identical repetitions. The count is fixed so that the
/// minimum is taken over as many draws whatever the speed of the code
/// under test; `seconds` only caps a run that has become much slower,
/// and never below [`MIN_REPS`]. `traced(i)` says whether repetition `i`
/// records spans.
pub fn timed_reps(
    job: &Job,
    reps: usize,
    seconds: f64,
    spans: &mut Spans,
    parent: u32,
    traced: impl Fn(usize) -> bool,
) -> Timed {
    let Job {
        env,
        workload,
        seed,
        reference,
    } = job;
    let steal_now = || env.pin.cpu().map_or(0, proc::cpu_steal_ticks);
    let steal_before = steal_now();
    let t0 = Instant::now();
    let mut outcomes = Vec::new();
    for i in 0..reps {
        if i >= MIN_REPS && t0.elapsed().as_secs_f64() >= seconds {
            eprintln!(
                "hostbench: WARNING --seconds {seconds} cut the repetitions to {i} of {reps}"
            );
            break;
        }
        spans.set_enabled(traced(i));
        let span = spans.open(parent, &format!("rep[{i}]"));
        outcomes.push(checked_rep(
            env,
            *workload,
            *seed,
            Some(reference),
            spans,
            span,
        ));
        spans.close(span);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let steal_ticks = steal_now().saturating_sub(steal_before);
    let steal_share = steal_ticks as f64 / proc::ticks_per_s() as f64 / elapsed_s;
    Timed {
        outcomes,
        steal_share,
    }
}

/// Removes the run's scratch directory.
pub fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
