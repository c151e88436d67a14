//! Input-sweep experiment: many seeded inputs through one compiled
//! kernel via the batched simulator.
//!
//! For every paper kernel (plus any `--generated` extras) the sweep
//! compiles once through the engine, decodes once, regenerates `--lanes`
//! seeded input images (`input_image(seed, lane, ..)`, the same
//! generator the batch-sim job kind fingerprints) and runs them all
//! through [`cmam_sim::DecodedProgram::simulate_batch`], reporting the
//! aggregate throughput, the cohort/divergence shape of the run and the
//! per-lane energy spread — how much the workload's energy varies with
//! its input data.
//!
//! Flags: `--lanes N` (default 256), `--input-seed S` (input-set seed,
//! decimal or `0x…` hex, default [`cmam_bench::BATCH_SEED`]), `--verify`
//! (cross-check every lane's final memory against the sequential CDFG
//! interpreter, and every lane's statistics or error in the engine's
//! batch-sim job kind against the direct run), `--generated N [--seed S]
//! [--profile P]` (widen the kernel
//! mix), plus the flags every binary shares (see [`cmam_bench::cli`]).

use cmam_bench::cli::Kind::{Positive, Seed, Switch};
use cmam_bench::cli::{self, Flag, GENERATED, PROFILE, SEED};
use cmam_bench::{emit_table, engine, mul_fraction, GenCli, BATCH_SEED};
use cmam_core::FlowVariant;
use cmam_energy::EnergyParams;
use cmam_engine::BatchSimRequest;
use cmam_sim::{DecodedProgram, LaneState};
use std::time::Instant;

/// Live `sim.batch.*` counter values (cohort shape of the runs so far).
fn batch_counters() -> (u64, u64, u64) {
    let snap = cmam_obs::metrics::registry().counter_snapshot();
    let get = |name: &str| {
        snap.iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    (
        get("sim.batch.cohorts"),
        get("sim.batch.cohort_lanes"),
        get("sim.batch.divergences"),
    )
}

fn main() {
    let args = cli::parse(
        "input_sweep",
        &[
            Flag("--lanes", Positive),
            Flag("--input-seed", Seed),
            Flag("--verify", Switch),
            GENERATED,
            SEED,
            PROFILE,
        ],
    );
    let _obs = cmam_bench::obs_session("input_sweep").with_metrics();
    let lanes = args.count("--lanes").unwrap_or(256);
    let input_seed = args.seed("--input-seed").unwrap_or(BATCH_SEED);
    let verify = args.on("--verify");
    let mut specs = cmam_kernels::all();
    specs.extend(GenCli::from_flags(&args).specs());
    let config = cmam_arch::CgraConfig::hom64();
    let variant = FlowVariant::Basic;
    println!(
        "# Input sweep: {lanes} seeded inputs per kernel on {} ({variant}), input seed {input_seed:#x}\n",
        config.name()
    );

    let params = EnergyParams::default();
    let mut rows = Vec::new();
    let mut total_agg = 0u64;
    let mut total_secs = 0.0f64;
    let mut failures = 0usize;
    for spec in &specs {
        let req = BatchSimRequest::flow(spec, variant, &config, input_seed, lanes);
        let compiled = match engine().run_one(&req.compile_request()) {
            Ok(out) => out,
            Err(e) => {
                rows.push(vec![
                    spec.name.clone(),
                    "MAPFAIL".into(),
                    e.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                failures += 1;
                continue;
            }
        };
        let decoded = DecodedProgram::decode(&compiled.binary, &config).expect("binary decodes");
        let images = req.images();
        let mut lane_state: Vec<LaneState> =
            images.iter().map(|m| LaneState::new(m.clone())).collect();

        let before = batch_counters();
        let t0 = Instant::now();
        let results = decoded.simulate_batch(&mut lane_state, req.sim);
        let secs = t0.elapsed().as_secs_f64();
        let after = batch_counters();
        let cohorts = after.0 - before.0;
        let cohort_lanes = after.1 - before.1;
        let divergences = after.2 - before.2;

        let ok = results.iter().filter(|r| r.is_ok()).count();
        let agg: u64 = results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|s| s.cycles))
            .sum();
        total_agg += agg;
        total_secs += secs;

        // Per-lane energy spread: how much the input data bends the
        // workload's energy (stalls, per-block trip counts).
        let frac = mul_fraction(&spec.cdfg);
        let energies: Vec<f64> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|s| cmam_energy::cgra_energy(&params, &config, s, frac).total())
            .collect();
        let (emin, emax) = energies
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| {
                (lo.min(e), hi.max(e))
            });
        let emean = energies.iter().sum::<f64>() / energies.len().max(1) as f64;

        if verify {
            // Every lane's final memory must match the sequential CDFG
            // interpreter on the same input image — the batched engine
            // of the sweep proves out against the semantic reference.
            for (l, (result, image)) in results.iter().zip(&images).enumerate() {
                assert!(
                    result.is_ok(),
                    "{} lane {l} failed in hardware sim",
                    spec.name
                );
                let mut expected = image.clone();
                cmam_cdfg::interp::run(&spec.cdfg, &mut expected, 100_000_000)
                    .unwrap_or_else(|e| panic!("{} lane {l}: interpreter failed: {e}", spec.name));
                assert_eq!(
                    lane_state[l].mem, expected,
                    "{} lane {l}: batched memory diverges from the interpreter",
                    spec.name
                );
            }
            // And the engine's batch-sim job kind (its lanes cut into
            // chunks) must agree with the direct run lane by lane, cached
            // or not.
            let outcome = engine().run_batch_sim(&req).expect("compiles above");
            assert_eq!(
                outcome.lanes.len(),
                lanes,
                "{}: engine lane count",
                spec.name
            );
            for (l, (engine_lane, direct)) in outcome.lanes.iter().zip(&results).enumerate() {
                assert_eq!(
                    engine_lane,
                    &direct.clone().map_err(|e| e.to_string()),
                    "{} lane {l}: engine batch-sim job disagrees with the direct sweep",
                    spec.name
                );
            }
            assert_eq!(outcome.agg_cycles, agg);
        }

        rows.push(vec![
            spec.name.clone(),
            "ok".into(),
            format!("{ok}/{lanes}"),
            agg.to_string(),
            format!("{:.1}", agg as f64 / secs / 1e6),
            format!(
                "{:.1}",
                if cohorts == 0 {
                    0.0
                } else {
                    cohort_lanes as f64 / cohorts as f64
                }
            ),
            divergences.to_string(),
            format!("{emin:.2}"),
            format!("{emean:.2}"),
            format!("{emax:.2}"),
        ]);
    }

    emit_table(
        &[
            "Kernel",
            "run",
            "lanes ok",
            "agg cycles",
            "Mcyc/s",
            "cohort sz",
            "diverge",
            "uJ min",
            "uJ mean",
            "uJ max",
        ],
        &rows,
    );
    println!(
        "\ntotals: {} aggregate cycles over {} kernel(s), {:.1}M aggregate cycles/s{}",
        total_agg,
        specs.len() - failures,
        if total_secs > 0.0 {
            total_agg as f64 / total_secs / 1e6
        } else {
            0.0
        },
        if verify {
            " (verified against the CDFG interpreter and the engine job kind)"
        } else {
            ""
        }
    );
    if failures > 0 {
        eprintln!("input_sweep: {failures} kernel(s) failed to map");
        std::process::exit(1);
    }
}
