//! Cross-stack differential test harness over generated kernels.
//!
//! For each generated kernel × (flow, config) job the suite runs the whole
//! pipeline twice through independent implementations and demands
//! bit-for-bit agreement:
//!
//! * **mapper**: `threads = 1` vs `threads = 4` must produce the identical
//!   `(KernelMapping, MapStats)` — or the identical failure;
//! * **simulator**: the decoded fast path vs the reference executable
//!   spec, every `SimStats` counter and the final memory image;
//! * **semantics**: the simulated memory image must equal the CDFG
//!   reference interpreter's (the generated spec's `expected`).
//!
//! Any divergence prints a one-line repro command and the process exits
//! nonzero. Everything is derived from one root seed (default
//! [`cmam_bench::gen::DEFAULT_GEN_SEED`]), so a CI failure replays locally with the printed
//! command and nothing else.
//!
//! ```text
//! gen_suite [--count N] [--seed S] [--profile P|mixed]
//!           [--kernel-seed S] [--require N] [--digest] [--verbose]
//! ```
//!
//! * `--count N`      kernels to generate (default 60; ×4 jobs each)
//! * `--seed S`       root seed, decimal or 0x-hex (default 0xDA5_2019)
//! * `--profile P`    one profile for all kernels, or `mixed` (default)
//! * `--kernel-seed S`  run ONE kernel with exactly this generation seed
//!   (bypasses root-seed derivation — this is what repro lines use)
//! * `--require N`    fail unless ≥ N jobs were fully verified (CI guard)
//! * `--digest`       print per-kernel structural digests and exit — two
//!   processes' outputs diffing clean pins cross-process determinism
//! * `--verbose`      one line per job instead of one per kernel

use cmam_arch::CgraConfig;
use cmam_bench::cli::Kind::{Count, Seed, Switch};
use cmam_bench::cli::{self, Flag, PROFILE, SEED};
use cmam_bench::gen::{GenCli, DEFAULT_GEN_SEED};
use cmam_cdfg::generate::GenParams;
use cmam_core::{FlowVariant, Mapper, MapperOptions};
use cmam_isa::assemble;
use cmam_kernels::{generated_spec, kernel_seeds, KernelSpec};
use cmam_sim::{simulate_reference, DecodedProgram, SimOptions};
use std::process::ExitCode;

/// The per-kernel job matrix: the unconstrained baseline under both ends
/// of the flow spectrum, plus the full context-aware flow on the two
/// constrained Table-I configurations.
fn job_matrix() -> Vec<(FlowVariant, CgraConfig)> {
    vec![
        (FlowVariant::Basic, CgraConfig::hom64()),
        (FlowVariant::Cab, CgraConfig::hom64()),
        (FlowVariant::Cab, CgraConfig::het1()),
        (FlowVariant::Cab, CgraConfig::het2()),
    ]
}

/// Plain (unsalted) FNV-1a over a kernel's full structure — name, graph
/// and memory image via their `Debug` forms, which cover every field.
/// Stable across processes; `--digest` outputs are diffed byte-for-byte.
fn kernel_digest(spec: &KernelSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(spec.name.as_bytes());
    feed(format!("{:?}", spec.cdfg).as_bytes());
    feed(format!("{:?}", spec.mem).as_bytes());
    feed(format!("{:?}", spec.expected).as_bytes());
    h
}

fn map_with_threads(
    variant: FlowVariant,
    threads: usize,
    spec: &KernelSpec,
    config: &CgraConfig,
) -> Result<(cmam_isa::KernelMapping, cmam_core::MapStats), String> {
    let mut options: MapperOptions = variant.options();
    options.threads = threads;
    Mapper::new(options)
        .map(&spec.cdfg, config)
        .map(|r| (r.mapping, r.stats))
        .map_err(|e| e.to_string())
}

struct JobOutcome {
    verified: bool,
    maperr: bool,
    failure: Option<String>,
}

/// Runs one differential job; `failure` is `Some` on any divergence.
fn run_job(spec: &KernelSpec, variant: FlowVariant, config: &CgraConfig) -> JobOutcome {
    let fail = |what: String| JobOutcome {
        verified: false,
        maperr: false,
        failure: Some(what),
    };

    let seq = map_with_threads(variant, 1, spec, config);
    let par = map_with_threads(variant, 4, spec, config);
    if seq != par {
        return fail(format!(
            "mapper threads=1 and threads=4 diverge (seq {}, par {})",
            if seq.is_ok() { "ok" } else { "err" },
            if par.is_ok() { "ok" } else { "err" }
        ));
    }
    let (mapping, _stats) = match seq {
        Ok(m) => m,
        // Identical failure on both thread counts: an acceptable outcome
        // (a kernel can exceed a constrained config's context memory),
        // but not a verified differential job.
        Err(_) => {
            return JobOutcome {
                verified: false,
                maperr: true,
                failure: None,
            }
        }
    };

    let (binary, _report) = match assemble(&spec.cdfg, &mapping, config) {
        Ok(b) => b,
        Err(e) => return fail(format!("assemble failed on a valid mapping: {e}")),
    };
    let decoded = match DecodedProgram::decode(&binary, config) {
        Ok(d) => d,
        Err(e) => return fail(format!("decode failed on an assembled binary: {e}")),
    };

    let options = SimOptions::default();
    let mut mem_ref = spec.mem.clone();
    let stats_ref = match simulate_reference(&binary, config, &mut mem_ref, options) {
        Ok(s) => s,
        Err(e) => return fail(format!("reference sim failed: {e}")),
    };
    let mut mem_fast = spec.mem.clone();
    let stats_fast = match decoded.simulate(&mut mem_fast, options) {
        Ok(s) => s,
        Err(e) => return fail(format!("decoded sim failed: {e}")),
    };

    if stats_fast != stats_ref {
        return fail("decoded SimStats diverge from reference".to_owned());
    }
    if mem_fast != mem_ref {
        return fail("decoded memory image diverges from reference".to_owned());
    }
    if let Err((i, got, want)) = spec.check(&mem_ref) {
        return fail(format!(
            "simulated memory diverges from interpreter: mem[{i}] = {got}, want {want}"
        ));
    }

    JobOutcome {
        verified: true,
        maperr: false,
        failure: None,
    }
}

fn repro_line(profile: &str, kernel_seed: u64) -> String {
    format!(
        "cargo run --release -p cmam_bench --bin gen_suite -- \
         --profile {profile} --kernel-seed {kernel_seed:#x}"
    )
}

fn main() -> ExitCode {
    let args = cli::parse(
        "gen_suite",
        &[
            Flag("--count", Count),
            SEED,
            PROFILE,
            Flag("--kernel-seed", Seed),
            Flag("--require", Count),
            Flag("--digest", Switch),
            Flag("--verbose", Switch),
        ],
    );
    let suite = GenCli {
        generated: args.count("--count").unwrap_or(60),
        seed: args.seed(SEED.0).unwrap_or(DEFAULT_GEN_SEED),
        profile: args.text(PROFILE.0).unwrap_or("mixed").to_owned(),
    };
    let kernel_seed = args.seed("--kernel-seed");
    if kernel_seed.is_some() && suite.profile == "mixed" {
        args.fail("--kernel-seed needs an explicit --profile");
    }
    let _obs = cmam_bench::obs_session("gen_suite").with_metrics();

    // (profile label, generation seed) for every kernel of this run.
    let plan: Vec<(GenParams, u64)> = match kernel_seed {
        Some(s) => vec![(
            GenParams::profile(&suite.profile).expect("validated at parse time"),
            s,
        )],
        None => kernel_seeds(suite.seed, suite.generated)
            .into_iter()
            .enumerate()
            .map(|(k, s)| (suite.params_for(k), s))
            .collect(),
    };

    if args.on("--digest") {
        for (params, seed) in &plan {
            let spec = generated_spec(params, *seed);
            println!("{} {:016x}", spec.name, kernel_digest(&spec));
        }
        return ExitCode::SUCCESS;
    }

    let matrix = job_matrix();
    let mut jobs = 0usize;
    let mut verified = 0usize;
    let mut maperrs = 0usize;
    let mut failures = 0usize;

    for (params, seed) in &plan {
        let spec = generated_spec(params, *seed);
        let mut kernel_ok = 0usize;
        let mut kernel_maperr = 0usize;
        for (variant, config) in &matrix {
            jobs += 1;
            let outcome = run_job(&spec, *variant, config);
            if let Some(what) = outcome.failure {
                failures += 1;
                println!("FAIL {} {variant}@{}: {what}", spec.name, config.name());
                println!("  repro: {}", repro_line(&params.label, *seed));
                continue;
            }
            if outcome.verified {
                verified += 1;
                kernel_ok += 1;
            }
            if outcome.maperr {
                maperrs += 1;
                kernel_maperr += 1;
            }
            if args.on("--verbose") {
                println!(
                    "{} {variant}@{} {}",
                    spec.name,
                    config.name(),
                    if outcome.verified {
                        "verified"
                    } else {
                        "maperr"
                    }
                );
            }
        }
        if !args.on("--verbose") {
            println!(
                "{} verified={kernel_ok}/{} maperr={kernel_maperr}",
                spec.name,
                matrix.len()
            );
        }
    }

    println!(
        "gen_suite: {jobs} jobs, {verified} verified, {maperrs} maperr, {failures} FAILED \
         (seed {:#x}, count {}, profile {})",
        suite.seed,
        plan.len(),
        suite.profile
    );
    if failures > 0 {
        return ExitCode::FAILURE;
    }
    let require = args.count("--require").unwrap_or(0);
    if verified < require {
        eprintln!("gen_suite: only {verified} verified jobs, --require {require} not met");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
