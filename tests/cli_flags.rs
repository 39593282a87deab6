//! `pdn` rejects flags that a command's usage line does not list, naming
//! both the flag and the command, instead of silently ignoring them.

use std::process::{Command, Output};

fn pdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdn")).args(args).output().expect("run pdn")
}

fn assert_rejected(args: &[&str], command: &str, flag: &str) {
    let out = pdn(args);
    assert!(!out.status.success(), "{args:?} should fail: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!("error: `pdn {command}` does not take --{flag}");
    assert!(stderr.contains(&want), "{args:?}: stderr lacks {want:?}:\n{stderr}");
}

#[test]
fn unknown_flags_fail_naming_the_flag_and_the_command() {
    assert_rejected(&["info", "--design", "D1", "--bogus", "1"], "info", "bogus");
    // A real flag of another command is just as unknown here.
    assert_rejected(&["factor", "--design", "D1", "--solver", "direct"], "factor", "solver");
    // The fill ordering is no longer selectable.
    assert_rejected(&["factor", "--design", "D1", "--ordering", "amd"], "factor", "ordering");
    assert_rejected(&["cache", "stats", "--max-mb", "1"], "cache stats", "max-mb");
    let report = ["report", "run.jsonl", "--strict", "true", "--bogus", "1"];
    assert_rejected(&report, "report", "bogus");
}

#[test]
fn listed_flags_and_telemetry_are_accepted() {
    let sink = std::env::temp_dir().join(format!("pdn-cli-flags-{}.jsonl", std::process::id()));
    let out = pdn(&[
        "info",
        "--design",
        "D1",
        "--scale",
        "tiny",
        "--seed",
        "2",
        "--telemetry",
        sink.to_str().expect("utf-8 temp path"),
    ]);
    let _ = std::fs::remove_file(&sink);
    assert!(out.status.success(), "info failed: {out:?}");

    let out = pdn(&["factor", "--design", "D1", "--seed", "1", "--rhs", "2"]);
    assert!(out.status.success(), "factor failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ordering amd"), "factor output:\n{stdout}");
}

#[test]
fn unknown_commands_are_still_reported_as_such() {
    let out = pdn(&["bogus", "--design", "D1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command `bogus`"), "stderr:\n{stderr}");
}
