//! Every experiment binary parses its command line through
//! `cmam_bench::cli`: it accepts the flags every binary shares (`--jobs
//! N`, `--no-cache`, `--csv`, `--trace-out FILE`, `--metrics`, with
//! `--flag=value` for every value flag), and an unknown flag or a missing
//! or malformed value exits with status 2 before any work, printing
//! nothing on stdout. The parser's own rules are unit-tested in
//! `src/cli.rs`; these tests run the binaries themselves.

use std::process::{Command, Output};

/// Every binary of the crate; `the_table_names_every_binary` keeps the
/// list complete.
const BINARIES: [(&str, &str); 14] = [
    (
        "ablation_population",
        env!("CARGO_BIN_EXE_ablation_population"),
    ),
    ("dse_pareto", env!("CARGO_BIN_EXE_dse_pareto")),
    ("fig10_speedup", env!("CARGO_BIN_EXE_fig10_speedup")),
    ("fig11_area", env!("CARGO_BIN_EXE_fig11_area")),
    ("fig2_occupancy", env!("CARGO_BIN_EXE_fig2_occupancy")),
    ("fig5_traversal", env!("CARGO_BIN_EXE_fig5_traversal")),
    ("fig6_8_latency", env!("CARGO_BIN_EXE_fig6_8_latency")),
    ("fig9_compile_time", env!("CARGO_BIN_EXE_fig9_compile_time")),
    ("gen_suite", env!("CARGO_BIN_EXE_gen_suite")),
    ("input_sweep", env!("CARGO_BIN_EXE_input_sweep")),
    ("profile_flow", env!("CARGO_BIN_EXE_profile_flow")),
    ("smoke", env!("CARGO_BIN_EXE_smoke")),
    ("tab1_configs", env!("CARGO_BIN_EXE_tab1_configs")),
    ("tab2_energy", env!("CARGO_BIN_EXE_tab2_energy")),
];

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

/// Runs `name` with `args`, demands a usage error and returns its
/// message line.
fn usage_error(name: &str, exe: &str, args: &[&str]) -> String {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} printed on stdout");
    let mut lines = stderr.lines();
    let message = lines.next().unwrap_or_default();
    let usage = lines.next().unwrap_or_default();
    assert!(
        message.starts_with(&format!("{name}: ")),
        "{name} {args:?}: {stderr}"
    );
    assert!(
        usage.starts_with(&format!("usage: {name} ")) && usage.ends_with("[--metrics]"),
        "{name} {args:?}: {stderr}"
    );
    message[name.len() + 2..].to_owned()
}

#[test]
fn the_table_names_every_binary() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("src/bin lists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let stem = path.file_stem().expect("file name").to_string_lossy();
            stem.into_owned()
        })
        .collect();
    files.sort();
    let table: Vec<&str> = BINARIES.iter().map(|&(name, _)| name).collect();
    assert_eq!(files, table);
}

#[test]
fn every_binary_rejects_a_bad_command_line_before_any_work() {
    for (name, exe) in BINARIES {
        for (args, want) in [
            (&["--bogus"][..], "unknown flag --bogus"),
            (&["--jobs", "abc"], "--jobs needs a count, got \"abc\""),
            (&["--jobs"], "--jobs needs a value"),
            (&["--trace-out"], "--trace-out needs a value"),
            (&["--csv", "stray"], "unexpected argument \"stray\""),
            // Both `=` spellings parse, so the error is the last flag.
            (
                &[
                    "--jobs=1",
                    "--trace-out=unused.json",
                    "--no-cache",
                    "--bogus",
                ],
                "unknown flag --bogus",
            ),
        ] {
            assert_eq!(usage_error(name, exe, args), want, "{name} {args:?}");
        }
    }
}

#[test]
fn binary_specific_values_are_checked_too() {
    let dse = env!("CARGO_BIN_EXE_dse_pareto");
    for (args, want) in [
        (
            &["--space", "abc"][..],
            "--space needs a positive count, got \"abc\"",
        ),
        (
            &["--space", "0"],
            "--space needs a positive count, got \"0\"",
        ),
        (&["--max-jobs"], "--max-jobs needs a value"),
        (
            &["--space-seed", "zz"],
            "--space-seed needs an integer (decimal or 0x… hex), got \"zz\"",
        ),
        (
            &["--search", "--exhaustive"],
            "--search and --exhaustive exclude each other",
        ),
        (
            &["--profile", "nope"],
            "--profile needs mixed or one of default, ",
        ),
    ] {
        let message = usage_error("dse_pareto", dse, args);
        assert!(message.starts_with(want), "dse_pareto {args:?}: {message}");
    }
    let gen = env!("CARGO_BIN_EXE_gen_suite");
    assert_eq!(
        usage_error("gen_suite", gen, &["--kernel-seed", "0x1"]),
        "--kernel-seed needs an explicit --profile"
    );
    assert_eq!(
        usage_error("gen_suite", gen, &["--generated", "3"]),
        "unknown flag --generated"
    );
    let profile = env!("CARGO_BIN_EXE_profile_flow");
    assert_eq!(
        usage_error("profile_flow", profile, &["--config", "hom128"]),
        "unknown config \"hom128\""
    );
}

#[test]
fn dse_pareto_takes_jobs_with_an_equals_sign() {
    let stdout = stdout_of_success(
        env!("CARGO_BIN_EXE_dse_pareto"),
        &["--jobs=1", "--space", "2", "--search", "--no-cache"],
    );
    assert!(
        stdout.contains("\nsearch: "),
        "no search summary in:\n{stdout}"
    );
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

#[test]
fn profile_flow_reports_an_unwritable_trace_path_without_panicking() {
    let dir = std::env::temp_dir().join(format!("cmam-no-such-dir-{}", std::process::id()));
    let path = dir.join("t.json");
    let out = run(
        env!("CARGO_BIN_EXE_profile_flow"),
        &[
            "--kernel",
            "fir",
            "--batch-lanes",
            "0",
            "--trace-out",
            path.to_str().expect("utf8"),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("profile_flow: writing "), "{stderr}");
    assert!(!dir.exists());
}

#[test]
fn profile_flow_accepts_metrics() {
    let out = run(
        env!("CARGO_BIN_EXE_profile_flow"),
        &["--metrics", "--kernel", "fir", "--trace-out", "-"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "profile_flow --metrics: {stderr}");
    assert!(
        stderr.contains("METRICS {"),
        "no METRICS block in:\n{stderr}"
    );
}
