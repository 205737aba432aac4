//! Regression tests for the `typedtd-serve` CLI: stdin closing with
//! divergent jobs still pending must not leave the process grinding —
//! `--drain-sweeps` cancels the stragglers explicitly and the exit is a
//! deterministic stats ledger — and the `--stats` ledger must carry the
//! counters CI reads from it.

use std::io::Write;
use std::process::{Command, Stdio};

/// One decidable query plus one divergent one (successor td, never-
/// derivable egd goal: the chase grows forever within the default
/// budgets' horizon).
const MIXED_INPUT: &str = "\
@universe A B C
A -> B & B -> C |= A -> C
@universe untyped A' B' C'
td [x y z] => y q1 q2 |= egd [x y1 z1 ; x y2 z2] => y1 = y2
";

/// Runs the binary with `args`, feeding `input` on stdin and closing it
/// (the EOF-mid-batch scenario), with a watchdog so a hang fails the
/// test instead of wedging the suite.
fn run_serve(args: &[&str], input: &str) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_typedtd-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn typedtd-serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write queries");
    // stdin drops here: the pipe closes mid-batch.
    let pid = child.id();
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(120));
        // SAFETY-free fallback: politely ask the OS; if the process
        // exited already this is a no-op error.
        #[cfg(unix)]
        {
            let _ = Command::new("kill").arg(pid.to_string()).status();
        }
        #[cfg(not(unix))]
        let _ = pid;
    });
    let out = child.wait_with_output().expect("wait for typedtd-serve");
    drop(watchdog); // leaked on purpose; the sleep is harmless
    out
}

#[test]
fn stdin_eof_with_divergent_jobs_drains_deterministically() {
    let out = run_serve(&["-", "--drain-sweeps", "6"], MIXED_INPUT);
    assert!(
        out.status.success(),
        "bounded drain must exit 0, got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The decidable query was answered before the drain limit…
    assert!(
        stdout.contains("implication=yes"),
        "fd transitivity must be answered: {stdout}"
    );
    // …the divergent one was cancelled and still got its verdict line.
    assert!(
        stdout.lines().any(|l| l.starts_with("#4") && l.contains("implication=unknown")),
        "cancelled divergent query must report unknown: {stdout}"
    );
    // The deterministic ledger: 2 jobs in, 1 answered, 1 cancelled.
    assert!(
        stderr.contains(
            "typedtd-serve: done submitted=2 answered=1 unknown=0 cancelled=1 expired=0"
        ),
        "shutdown ledger missing or wrong: {stderr}"
    );
}

#[test]
fn unbounded_drain_still_prints_the_ledger() {
    // Without --drain-sweeps the quick budgets run the batch to real
    // verdicts (the divergent chase exhausts, the finite-model search
    // then refutes the egd goal — answer `no`); the ledger must still
    // balance: submitted == answered + unknown + cancelled.
    let out = run_serve(&["-", "--quick"], MIXED_INPUT);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("typedtd-serve: done submitted=2 answered=2 unknown=0 cancelled=0"),
        "default-drain ledger missing or wrong: {stderr}"
    );
}

#[test]
fn stats_ledger_reports_verify_rejects_after_verified_hits() {
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/queries/smoke.tdq");
    let out = run_serve(&[smoke, "--verify-hits", "--stats"], "");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let ledger = stderr
        .lines()
        .find(|l| l.starts_with("jobs="))
        .unwrap_or_else(|| panic!("missing --stats line in stderr: {stderr}"));
    let tokens: Vec<&str> = ledger.split_whitespace().collect();
    assert!(
        tokens.contains(&"verify_rejects=0"),
        "ledger must report zero hit-verification rejects: {ledger}"
    );
}
