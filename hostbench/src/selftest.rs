//! `hostbench --self-test`: the output checks, turned on themselves.
//! Stand-ins for `cvm` write a truncated artifact, exit 1, or write
//! different bytes, and each must be counted as failed repetitions.

use std::os::unix::fs::PermissionsExt;
use std::path::Path;

use crate::measure::{self, Env, Reference};
use crate::proc::Pinning;
use crate::spans::Spans;
use crate::workload::Workload;

/// A two-cell campaign artifact in the `cvm-faults` shape.
const GOOD: &str = r#"{"schema":"cvm-faults","cells":[{"total_ns":5,"degraded":false,"loss":{"sends":9,"gave_up":0}},{"total_ns":7,"degraded":false,"loss":{"sends":4,"gave_up":0}}],"clean":true}"#;

/// A shell script that writes `body` to its last argument (where `cvm`
/// is told to put the artifact) and exits with `code`.
fn stand_in(body: &str, code: u8) -> String {
    format!("#!/bin/sh\nfor a; do out=$a; done\nprintf '%s' '{body}' > \"$out\"\nexit {code}\n")
}

fn install(path: &Path, script: &str) -> Result<(), String> {
    std::fs::write(path, script).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o755))
        .map_err(|e| format!("cannot chmod {}: {e}", path.display()))
}

/// Runs the self-test.
///
/// # Errors
///
/// Returns which check let a bad repetition through.
pub fn run() -> Result<(), String> {
    let me = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or("executable has no directory")?
        .join("hostbench-work")
        .join(format!("selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot make {}: {e}", dir.display()))?;
    let mut env = Env {
        cvm: dir.join("fake-cvm"),
        me,
        // The stand-ins live for a millisecond, too short for the
        // sampler to see them settle on a CPU.
        pin: Pinning::Unpinned {
            why: "self-test".into(),
        },
        dir: dir.clone(),
    };
    let mut spans = Spans::new(false);
    let workload = Workload::FaultsLossy;
    let mut stand_ins = 0;
    // Each stand-in gets a file of its own: rewriting one that was just
    // executed can fail with "text file busy".
    let mut rep = |script_text: &str, reference: Option<&Reference>| {
        stand_ins += 1;
        env.cvm = dir.join(format!("fake-cvm-{stand_ins}"));
        install(&env.cvm, script_text)?;
        Ok::<_, String>(measure::checked_rep(
            &env, workload, 1, reference, &mut spans, 0,
        ))
    };

    let good = rep(&stand_in(GOOD, 0), None)?;
    if !good.problems.is_empty() {
        return Err(format!(
            "a clean repetition was flagged: {:?}",
            good.problems
        ));
    }
    let reference = Reference {
        summary: good.summary.clone().expect("clean means parsed"),
        digest: good.digest.expect("clean means digested"),
    };
    let ops = reference.summary.ops;
    let again = rep(&stand_in(GOOD, 0), Some(&reference))?;
    if again.failed_ops(ops) != 0 || !again.problems.is_empty() {
        return Err("an identical repetition was counted as failed".into());
    }

    let degraded = GOOD.replacen("\"degraded\":false", "\"degraded\":true", 1);
    let different = GOOD.replace("\"sends\":9", "\"sends\":8");
    // (what, stand-in, compared with the warm-up?, ops that must fail)
    let cases = [
        (
            "truncated artifact",
            stand_in(&GOOD[..GOOD.len() / 2], 0),
            true,
            ops,
        ),
        ("child exits 1", stand_in(GOOD, 1), true, ops),
        ("different bytes", stand_in(&different, 0), true, ops),
        ("no artifact", "#!/bin/sh\nexit 0\n".to_owned(), true, ops),
        // Judged on the artifact's own verdict alone: one cell of two.
        ("degraded cell", stand_in(&degraded, 0), false, 1),
    ];
    for (what, script_text, compare, want) in cases {
        let bad = rep(&script_text, compare.then_some(&reference))?;
        let failed = bad.failed_ops(ops);
        if failed != want || bad.problems.is_empty() {
            return Err(format!(
                "{what}: {failed} of {ops} ops counted failed, expected {want}"
            ));
        }
        println!(
            "self-test: {what}: counted {failed}/{ops} failed ({})",
            bad.problems.join("; ")
        );
    }
    measure::cleanup(&dir);
    println!("self-test: ok");
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn bad_repetitions_are_counted_as_failures() {
        super::run().expect("self-test passes");
    }
}
