//! The binaries that parse their own flags strictly (`input_sweep`,
//! `profile_flow`) must still accept the flags every experiment binary
//! shares — `--jobs N`, `--no-cache` and `--csv` — and `input_sweep`
//! must take its input seed in the `0x…` form its header prints.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

fn stdout_of_success(exe: &str, args: &[&str]) -> String {
    let out = run(exe, args);
    assert!(
        out.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn input_sweep_accepts_the_shared_flags_and_a_hex_seed() {
    let stdout = stdout_of_success(
        env!("CARGO_BIN_EXE_input_sweep"),
        &[
            "--lanes",
            "1",
            "--no-cache",
            "--jobs",
            "1",
            "--csv",
            "--input-seed",
            "0xba7c5eed",
        ],
    );
    assert!(stdout.contains("input seed 0xba7c5eed"), "{stdout}");
    assert!(
        stdout.lines().any(|l| l
            == "Kernel,run,lanes ok,agg cycles,Mcyc/s,cohort sz,diverge,uJ min,uJ mean,uJ max"),
        "no CSV block in:\n{stdout}"
    );
    // Unknown flags, malformed seeds and missing, malformed or zero
    // lane counts are usage errors.
    for bad in [
        &["--bogus"][..],
        &["--input-seed", "0xnope"],
        &["--lanes", "0"],
        &["--lanes", "abc"],
        &["--lanes"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_input_sweep"), bad);
        assert_eq!(out.status.code(), Some(2), "input_sweep {bad:?}");
    }
}

#[test]
fn profile_flow_accepts_csv() {
    let trace = std::env::temp_dir().join(format!(
        "cmam-shared-flags-{}.trace.json",
        std::process::id()
    ));
    let stdout = stdout_of_success(
        env!("CARGO_BIN_EXE_profile_flow"),
        &[
            "--csv",
            "--no-cache",
            "--trace-out",
            trace.to_str().expect("utf8 temp path"),
        ],
    );
    assert!(
        stdout
            .lines()
            .any(|l| l == "span,count,total µs,mean µs,max µs"),
        "no CSV block in:\n{stdout}"
    );
    assert!(trace.exists(), "profile_flow wrote no trace");
    let _ = std::fs::remove_file(&trace);
}
