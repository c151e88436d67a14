//! Design-space exploration (beyond the paper): explore a space of CGRA
//! configurations over the kernel mix with the full context-aware flow
//! and report the energy/latency Pareto frontier.
//!
//! Two spaces: the legacy 24-configuration validation space (default,
//! see [`cmam_engine::dse::validation_space`]) and the seeded
//! provisioning-aware generated space (`--space N [--space-seed S]`,
//! see [`cmam_engine::dse::generate_space`]) that scales to thousands
//! of configurations. Two modes: `--search` (default) runs the
//! successive-halving scheduler — exact frontier at a fraction of the
//! evaluations — and `--exhaustive` sweeps every (config, kernel) job.
//!
//! Sweeps are resumable: jobs are memoised under `target/cmam-cache/`,
//! so a killed run (`--max-jobs N` simulates one) restarted with the
//! same flags replays its schedule from the artifact store without
//! re-executing finished jobs; `--resume` prints the recovery counters.
//! `--verify` runs the search *and* the exhaustive sweep and exits
//! nonzero unless the frontiers agree member-for-member (the CI smoke).
//! `--csv` re-emits every table machine-readable, including per-config
//! provisioning fields and frontier membership.

use cmam_bench::cli::Kind::{Count, Positive, Seed, Switch};
use cmam_bench::cli::{self, Args, Flag, GENERATED, PROFILE, SEED};
use cmam_bench::{cgra_energy_of, emit_table, engine, GenCli, JobRequest, RunOutcome};
use cmam_core::FlowVariant;
use cmam_engine::dse::{generate_space, validation_space, SpaceParams};
use cmam_engine::search::{pareto_frontier, run_search, ConfigStatus, SearchOptions};
use cmam_engine::Engine;
use cmam_kernels::KernelSpec;
use std::time::Instant;

/// Provisioning columns shared by every per-config table.
fn config_fields(config: &cmam_arch::CgraConfig) -> Vec<String> {
    let (_, tile0) = config.tiles().next().expect("non-empty array");
    vec![
        config.name().to_owned(),
        format!("{}x{}", config.geometry().rows(), config.geometry().cols()),
        config.total_cm_words().to_string(),
        config.lsu_tiles().len().to_string(),
        tile0.rf_words.to_string(),
        tile0.crf_words.to_string(),
    ]
}

const CONFIG_HEADERS: [&str; 6] = ["Config", "Shape", "CM words", "LSUs", "RF", "CRF"];

/// Exhaustive sweep: every (config, kernel) job in one batch; the
/// legacy dse_pareto behaviour, now over either space.
fn run_exhaustive(engine: &Engine, specs: &[KernelSpec], space: &[cmam_arch::CgraConfig]) {
    let mut requests = Vec::new();
    for config in space {
        for spec in specs {
            requests.push(JobRequest::flow(spec, FlowVariant::Cab, config));
        }
    }
    println!(
        "sweeping {} configurations x {} kernels = {} jobs (full flow: {})\n",
        space.len(),
        specs.len(),
        requests.len(),
        FlowVariant::Cab
    );
    let t0 = Instant::now();
    let results = engine.run_batch(&requests);
    let elapsed = t0.elapsed();

    struct Point {
        mapped: usize,
        energy: f64,
        cycles: u64,
        candidates: u64,
    }
    let points: Vec<Point> = space
        .iter()
        .enumerate()
        .map(|(c, config)| {
            let mut p = Point {
                mapped: 0,
                energy: 0.0,
                cycles: 0,
                candidates: 0,
            };
            for (k, spec) in specs.iter().enumerate() {
                if let Ok(out) = &results[c * specs.len() + k] {
                    p.mapped += 1;
                    p.energy += cgra_energy_of(spec, config, out).total();
                    p.cycles += out.cycles;
                    p.candidates += out.map_stats.candidates;
                }
            }
            p
        })
        .collect();

    let feasible: Vec<(usize, f64, u64)> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.mapped == specs.len())
        .map(|(i, p)| (i, p.energy, p.cycles))
        .collect();
    let frontier = pareto_frontier(&feasible);

    let rows: Vec<Vec<String>> = space
        .iter()
        .zip(&points)
        .enumerate()
        .map(|(i, (config, p))| {
            let ok = p.mapped == specs.len();
            let mut row = config_fields(config);
            row.extend([
                format!("{}/{}", p.mapped, specs.len()),
                if ok {
                    format!("{:.4}", p.energy)
                } else {
                    "-".to_owned()
                },
                if ok {
                    p.cycles.to_string()
                } else {
                    "-".to_owned()
                },
                p.candidates.to_string(),
                if frontier.contains(&i) { "*" } else { "" }.to_owned(),
            ]);
            row
        })
        .collect();
    let mut headers: Vec<&str> = CONFIG_HEADERS.to_vec();
    headers.extend([
        "Mapped",
        "Mix energy µJ",
        "Mix cycles",
        "candidates",
        "Pareto",
    ]);
    emit_table(&headers, &rows);

    print_frontier(space, &frontier, |i| (points[i].energy, points[i].cycles));
    println!(
        "\n{} of {} configurations feasible for the full mix; {} on the frontier",
        feasible.len(),
        space.len(),
        frontier.len()
    );
    eprintln!(
        "dse (exhaustive): {} jobs in {elapsed:?} on {} workers",
        requests.len(),
        engine.workers(),
    );
}

fn print_frontier(
    space: &[cmam_arch::CgraConfig],
    frontier: &[usize],
    point: impl Fn(usize) -> (f64, u64),
) {
    println!("\n## Pareto frontier (energy- and latency-minimal mixes)\n");
    let mut sorted = frontier.to_vec();
    sorted.sort_by(|&a, &b| {
        point(a)
            .0
            .partial_cmp(&point(b).0)
            .expect("frontier energies are finite")
    });
    let rows: Vec<Vec<String>> = sorted
        .iter()
        .map(|&i| {
            let (e, c) = point(i);
            let mut row = config_fields(&space[i]);
            row.extend([format!("{e:.4}"), c.to_string()]);
            row
        })
        .collect();
    let mut headers: Vec<&str> = CONFIG_HEADERS.to_vec();
    headers.extend(["Mix energy µJ", "Mix cycles"]);
    emit_table(&headers, &rows);
}

/// Search mode: the successive-halving scheduler; exact frontier at a
/// fraction of the evaluations.
fn run_search_mode(
    engine: &Engine,
    specs: &[KernelSpec],
    space: &[cmam_arch::CgraConfig],
    args: &Args,
) {
    println!(
        "searching {} configurations x {} kernels (successive halving, full flow: {})\n",
        space.len(),
        specs.len(),
        FlowVariant::Cab
    );
    let energy = |ci: usize, ki: usize, out: &RunOutcome| {
        cgra_energy_of(&specs[ki], &space[ci], out).total()
    };
    let t0 = Instant::now();
    let result = run_search(
        engine,
        specs,
        space,
        FlowVariant::Cab,
        &energy,
        &SearchOptions {
            max_jobs: args.count("--max-jobs"),
        },
    );
    let elapsed = t0.elapsed();

    let rows: Vec<Vec<String>> = space
        .iter()
        .zip(&result.evaluated)
        .enumerate()
        .map(|(i, (config, eval))| {
            let mut row = config_fields(config);
            let (status, show_sums) = match eval.status {
                ConfigStatus::Completed => ("completed".to_owned(), true),
                ConfigStatus::Pending => ("pending".to_owned(), false),
                ConfigStatus::Dominated(k) => (format!("dominated@{k}"), false),
                ConfigStatus::Raced(k) => (format!("raced@{k}"), false),
                ConfigStatus::Infeasible(k) => (format!("infeasible:{}", specs[k].name), false),
            };
            row.extend([
                status,
                format!("{}/{}", eval.kernels_evaluated, specs.len()),
                if show_sums {
                    format!("{:.4}", eval.energy)
                } else {
                    "-".to_owned()
                },
                if show_sums {
                    eval.cycles.to_string()
                } else {
                    "-".to_owned()
                },
                if result.frontier.contains(&i) {
                    "*"
                } else {
                    ""
                }
                .to_owned(),
            ]);
            row
        })
        .collect();
    let mut headers: Vec<&str> = CONFIG_HEADERS.to_vec();
    headers.extend([
        "Status",
        "Evaluated",
        "Mix energy µJ",
        "Mix cycles",
        "Pareto",
    ]);
    emit_table(&headers, &rows);

    if result.aborted {
        println!(
            "\nsearch aborted after {} scheduled jobs (--max-jobs); rerun with the same \
             flags to resume from the artifact store",
            result.stats.jobs_scheduled
        );
    } else {
        print_frontier(space, &result.frontier, |i| {
            let e = &result.evaluated[i];
            (e.energy, e.cycles)
        });
    }

    let s = &result.stats;
    let exhaustive_jobs = space.len() * specs.len();
    println!(
        "\nsearch: {} of {} exhaustive evaluations executed ({:.1}% saved), \
         {} completed / {} dominated / {} raced / {} infeasible, {} on the frontier",
        s.engine.executed,
        exhaustive_jobs,
        (1.0 - s.engine.executed as f64 / exhaustive_jobs as f64) * 100.0,
        space.len() - s.dominated - s.raced - s.infeasible,
        s.dominated,
        s.raced,
        s.infeasible,
        result.frontier.len()
    );
    if args.on("--resume") || args.count("--max-jobs").is_some() {
        println!(
            "resume: {} of {} scheduled jobs answered from cache ({} from the artifact \
             store), {} executed",
            s.engine.memory_hits + s.engine.disk_hits,
            s.jobs_scheduled,
            s.engine.disk_hits,
            s.engine.executed
        );
    }
    eprintln!(
        "dse (search): {} jobs in {elapsed:?} on {} workers",
        s.jobs_scheduled,
        engine.workers(),
    );

    // --verify: the exhaustive sweep must agree. Search results stay
    // warm in the cache, so the sweep only pays for eliminated configs'
    // unevaluated kernels.
    if args.on("--verify") && !result.aborted {
        let mut requests = Vec::new();
        for config in space {
            for spec in specs {
                requests.push(JobRequest::flow(spec, FlowVariant::Cab, config));
            }
        }
        let results = engine.run_batch(&requests);
        let mut feasible: Vec<(usize, f64, u64)> = Vec::new();
        for (ci, config) in space.iter().enumerate() {
            let mut energy = 0.0;
            let mut cycles = 0u64;
            let mut ok = true;
            for (ki, spec) in specs.iter().enumerate() {
                match &results[ci * specs.len() + ki] {
                    Ok(out) => {
                        energy += cgra_energy_of(spec, config, out).total();
                        cycles += out.cycles;
                    }
                    Err(_) => ok = false,
                }
            }
            if ok {
                feasible.push((ci, energy, cycles));
            }
        }
        let want = pareto_frontier(&feasible);
        if want == result.frontier {
            println!(
                "\nverify: search frontier matches the exhaustive frontier ({} members)",
                want.len()
            );
        } else {
            let names = |f: &[usize]| {
                f.iter()
                    .map(|&i| space[i].name().to_owned())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            eprintln!(
                "verify FAILED:\n  search:     [{}]\n  exhaustive: [{}]",
                names(&result.frontier),
                names(&want)
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = cli::parse(
        "dse_pareto",
        &[
            Flag("--search", Switch),
            Flag("--exhaustive", Switch),
            Flag("--space", Positive),
            Flag("--space-seed", Seed),
            Flag("--verify", Switch),
            Flag("--resume", Switch),
            Flag("--max-jobs", Count),
            GENERATED,
            SEED,
            PROFILE,
        ],
    );
    if args.on("--search") && args.on("--exhaustive") {
        args.fail("--search and --exhaustive exclude each other");
    }
    let _obs = cmam_bench::obs_session("dse").with_metrics();
    println!("# DSE: energy/latency Pareto frontier over generated configurations\n");
    let mut specs = cmam_kernels::all();
    specs.extend(GenCli::from_flags(&args).specs());
    let space = match args.count("--space") {
        Some(target) => generate_space(&SpaceParams {
            target,
            seed: args
                .seed("--space-seed")
                .unwrap_or(cmam_engine::dse::DEFAULT_SPACE_SEED),
        }),
        None => validation_space(),
    };
    let engine = engine();
    if args.on("--exhaustive") {
        run_exhaustive(engine, &specs, &space);
    } else {
        run_search_mode(engine, &specs, &space, &args);
    }
}
