//! A malformed `reproduce` flag value, shape list or workload file, or
//! an argument a sub-command does not take, is a usage error: exit code
//! 2 and a message naming the bad value, line or argument, never a
//! panic.

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
        ("calibrate", "--devices", "0"),
        ("calibrate", "--requests", "0"),
        ("locality", "--devices", "0"),
        ("locality", "--requests", "0"),
        ("cluster", "--devices", "0"),
        ("cluster", "--devices", "2,0"),
        ("cluster", "--event-devices", "0"),
        ("replay", "--requests", "0"),
        // Storms that catch no panic leave no failure to replay.
        ("replay", "--panics", "0"),
        ("replay", "--panics", "1"),
        ("replay", "--panics", "2"),
        ("replay", "--panics", "5"),
    ] {
        let (code, stderr) = run(&[subcommand, flag, value]);
        let what = format!("reproduce {subcommand} {flag} '{value}'");
        assert_eq!(code, Some(2), "{what}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
        assert!(stderr.contains(&format!("for {flag}")), "{what}: stderr {stderr}");
    }
}

#[test]
fn smoke_applies_the_explicit_flags_on_top() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["cluster", "--smoke", "--requests", "2000"])
        .output()
        .expect("reproduce runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout {stdout}\nstderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let event_rows: Vec<&str> = stdout.lines().filter(|l| l.contains("event engine")).collect();
    assert_eq!(event_rows.len(), 1, "the smoke sweep has one event point: {stdout}");
    assert!(event_rows[0].contains("256 device(s):") && event_rows[0].contains(" 2000 requests"));
    assert!(stdout.contains(" 2 device(s) [") && !stdout.contains(" 4 device(s) ["), "{stdout}");
}

/// Only a run with no flags rewrites the tracked report at the repo
/// root; a flagged run writes its report under `target/experiments/`.
#[test]
fn a_flagged_run_leaves_the_tracked_report_alone() {
    let tracked = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json");
    let before = std::fs::read(&tracked).expect("BENCH_cluster.json is committed");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["cluster", "--batches", "4", "--devices", "1,2", "--event-devices", "16"])
        .args(["--requests", "200"])
        .output()
        .expect("reproduce runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout {stdout}\nstderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let after = std::fs::read(&tracked).expect("BENCH_cluster.json is still there");
    assert!(after == before, "a flagged run rewrote BENCH_cluster.json");
    assert!(stdout.contains("target/experiments/BENCH_cluster.json"), "{stdout}");
}

#[test]
fn a_flag_without_its_value_exits_2() {
    for subcommand in ["calibrate", "locality", "cluster", "replay"] {
        let (code, stderr) = run(&[subcommand, "--seed"]);
        assert_eq!(code, Some(2), "reproduce {subcommand} --seed: stderr {stderr}");
        assert!(stderr.contains("flag --seed needs a value"), "stderr {stderr}");
    }
}

#[test]
fn an_unknown_obs_flag_exits_2() {
    let (code, stderr) = run(&["obs", "--bogus"]);
    assert_eq!(code, Some(2), "reproduce obs --bogus: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "reproduce obs --bogus panicked: {stderr}");
    assert!(stderr.contains("--bogus"), "stderr {stderr}");
}

/// An argument a sub-command does not take is refused before the
/// sub-command runs, so a stray flag can never let `perf`, `serve` or
/// `chaos` run in full and rewrite its tracked report.
#[test]
fn stray_arguments_exit_2_and_leave_the_tracked_reports_alone() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let tracked =
        ["serve", "chaos", "executor"].map(|name| root.join(format!("BENCH_{name}.json")));
    let before = tracked.clone().map(|path| std::fs::read(path).expect("report is committed"));
    let bare = [
        "tables",
        "motivation",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "googlenet",
        "tlp",
        "ablate",
        "fans",
        "splitk",
        "perf",
        "serve",
        "chaos",
        "all",
    ];
    let stray_smoke = bare.map(|subcommand| vec![subcommand, "--smoke"]);
    let extra_operand = [vec!["plan", "16x32x128", "extra"], vec!["custom", "shapes.csv", "extra"]];
    for args in stray_smoke.iter().chain(&extra_operand) {
        let (code, stderr) = run(args);
        let what = format!("reproduce {}", args.join(" "));
        assert_eq!(code, Some(2), "{what}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
        let stray = args.last().expect("a stray argument");
        assert!(stderr.contains(&format!("unexpected argument '{stray}'")), "{what}: {stderr}");
    }
    for (path, before) in tracked.iter().zip(before) {
        let after = std::fs::read(path).expect("report is still there");
        assert!(after == before, "a refused run rewrote {}", path.display());
    }
}

#[test]
fn bad_shapes_and_workload_files_exit_2_without_panicking() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let two_dims = dir.join("cli_args_two_dims.csv");
    std::fs::write(&two_dims, "4,4,4\n1,2\n").expect("write workload file");
    let no_shapes = dir.join("cli_args_no_shapes.csv");
    std::fs::write(&no_shapes, "# comment only\n\n").expect("write workload file");
    let (two_dims, no_shapes) = (two_dims.to_str().unwrap(), no_shapes.to_str().unwrap());
    for (args, names) in [
        (["plan", "1x2"], "'1x2'".to_string()),
        (["plan", "4xQx8"], "'4xQx8'".to_string()),
        (["plan", "0x0x0"], "'0x0x0'".to_string()),
        (["custom", "/nonexistent"], "/nonexistent".to_string()),
        (["custom", two_dims], format!("{two_dims}:2: bad shape '1,2'")),
        (["custom", no_shapes], format!("{no_shapes} has no shapes")),
    ] {
        let (code, stderr) = run(&args);
        let what = format!("reproduce {}", args.join(" "));
        assert_eq!(code, Some(2), "{what}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
        assert!(stderr.contains(&names), "{what}: stderr {stderr}");
    }
}
