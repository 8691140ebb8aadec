//! A malformed `reproduce` flag value is a usage error: exit code 2 and
//! a message naming the value and the flag, never a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("reproduce runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_flag_values_exit_2_without_panicking() {
    for (subcommand, flag, value) in [
        ("calibrate", "--devices", "x"),
        ("calibrate", "--requests", "1.5"),
        ("calibrate", "--seed", "-1"),
        ("calibrate", "--drift-seed", ""),
        ("locality", "--devices", "x"),
        ("locality", "--requests", "-3"),
        ("locality", "--seed", "0x10"),
        ("locality", "--drift-seed", "y"),
        ("cluster", "--batches", "x"),
        ("cluster", "--devices", "1,x"),
        ("cluster", "--seed", "-1"),
        ("cluster", "--event-devices", "16,,256"),
        ("cluster", "--requests", "1e6"),
        ("replay", "--requests", "x"),
        ("replay", "--seed", "-1"),
        ("replay", "--panics", "4294967296"),
    ] {
        let (code, stderr) = run(&[subcommand, flag, value]);
        let what = format!("reproduce {subcommand} {flag} '{value}'");
        assert_eq!(code, Some(2), "{what}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
        assert!(stderr.contains(&format!("for {flag}")), "{what}: stderr {stderr}");
    }
}

#[test]
fn a_flag_without_its_value_exits_2() {
    for subcommand in ["calibrate", "locality", "cluster", "replay"] {
        let (code, stderr) = run(&[subcommand, "--seed"]);
        assert_eq!(code, Some(2), "reproduce {subcommand} --seed: stderr {stderr}");
        assert!(stderr.contains("flag --seed needs a value"), "stderr {stderr}");
    }
}
