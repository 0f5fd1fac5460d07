//! Host-independent counts repeat exactly across two runs with one seed.
//!
//! Each workload runs twice with `--trace 1` for one second; a run always
//! completes its count window, so the counts cover the same work whatever
//! the host's speed.

use std::process::Command;
use std::sync::Mutex;

/// Runs one benchmark process at a time: each uses both cores.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn counts(workload: &str, seed: u64) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_cg-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\":true,"),
        "{workload}: last line {last}"
    );
    let counts: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("count "))
        .map(str::to_string)
        .collect();
    assert!(
        !counts.is_empty(),
        "{workload} printed no counts:\n{stdout}"
    );
    counts
}

fn repeats(workload: &str, expected: &[&str]) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let first = counts(workload, 3);
    for name in expected {
        assert!(
            first
                .iter()
                .any(|l| l.starts_with(&format!("count {name} = "))),
            "{workload} did not count {name}: {first:?}"
        );
    }
    assert_eq!(
        first,
        counts(workload, 3),
        "{workload}: counts differ between runs"
    );
}

#[test]
fn rl_local_warm_counts_repeat() {
    repeats(
        "rl-local-warm",
        &[
            "llvm.pass_changed_frac",
            "stdb.append_records",
            "stdb.append_bytes",
        ],
    );
}

#[test]
fn rl_remote_cold_counts_repeat() {
    repeats(
        "rl-remote-cold",
        &[
            "llvm.pass_changed_frac",
            "wire.bytes_per_step",
            "pool.actions_executed",
            "evalcache.exact_hits",
            "evalcache.prefix_hits",
            "autotune.codesize_vs_oz",
        ],
    );
}
