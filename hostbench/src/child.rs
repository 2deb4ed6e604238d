//! One repetition: a child process, pinned, timed from spawn to exit,
//! with a sampler thread reading its `/proc/<pid>/status`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::proc::{self, Pinning};
use crate::spans::Spans;

/// The sampler's period. `VmHWM` only grows, so the peak is missed by at
/// most what the child allocates in its last 2 ms.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// What one child process cost.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User + system CPU of the child, seconds (clock-tick resolution).
    pub cpu_s: f64,
    /// Largest `VmHWM` the sampler saw, KiB.
    pub peak_rss_kib: Option<u64>,
    /// The child's own `Cpus_allowed_list`, as last sampled.
    pub cpus_allowed: Option<Vec<usize>>,
    /// Exit code 0.
    pub exit_ok: bool,
    /// Captured standard output (the artifact goes to a file, this is
    /// the markdown summary; kept for the commands that only print).
    pub stdout: String,
}

impl Rep {
    /// Stands in for a child that could not be started.
    pub fn never_ran() -> Rep {
        Rep {
            wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_kib: None,
            cpus_allowed: None,
            exit_ok: false,
            stdout: String::new(),
        }
    }

    /// The child ran on exactly the CPU `pin` names (vacuously true when
    /// the run is unpinned, which `bench.pinned` reports on its own).
    pub fn pin_held(&self, pin: &Pinning) -> bool {
        match pin {
            Pinning::Pinned { cpu } => self.cpus_allowed.as_deref() == Some(&[*cpu]),
            Pinning::Unpinned { .. } => true,
        }
    }
}

/// Runs `program args…` under `pin` and measures it. `spans` gets a
/// `spawn` and a `child_run` span under `parent` when tracing is on.
///
/// # Errors
///
/// Returns the spawn error text when the program cannot be started.
pub fn run(
    pin: &Pinning,
    program: &Path,
    args: &[String],
    spans: &mut Spans,
    parent: u32,
) -> Result<Rep, String> {
    let mut cmd = match pin {
        Pinning::Pinned { cpu } => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpu.to_string()).arg(program);
            c
        }
        Pinning::Unpinned { .. } => Command::new(program),
    };
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let ticks_per_s = proc::ticks_per_s() as f64;
    let cpu_before = proc::self_children_cpu_ticks();
    let spawn_span = spans.open(parent, "spawn");
    let t0 = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    spans.close(spawn_span);
    let run_span = spans.open(parent, "child_run");
    let status_path = format!("/proc/{}/status", child.id());
    let done = AtomicBool::new(false);
    let (output, sampled) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut hwm, mut cpus) = (None, None);
            loop {
                // Read `done` first, so one sample is always taken after
                // the child has exited or just before.
                let last = done.load(Ordering::SeqCst);
                if let Ok(status) = std::fs::read_to_string(&status_path) {
                    hwm = proc::vm_hwm_kib(&status).max(hwm);
                    cpus = proc::cpus_allowed(&status).or(cpus);
                }
                if last {
                    return (hwm, cpus);
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let output = child.wait_with_output();
        done.store(true, Ordering::SeqCst);
        (output, sampler.join().expect("sampler does not panic"))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    spans.close(run_span);
    let output = output.map_err(|e| format!("cannot wait for {}: {e}", program.display()))?;
    let cpu_ticks = proc::self_children_cpu_ticks().saturating_sub(cpu_before);
    Ok(Rep {
        wall_s,
        cpu_s: cpu_ticks as f64 / ticks_per_s,
        peak_rss_kib: sampled.0,
        cpus_allowed: sampled.1,
        exit_ok: output.status.success(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
    })
}
