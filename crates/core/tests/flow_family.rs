//! Flow families: a successful map whose context-memory comparisons all
//! held answers the same kernel under every flow that prunes less
//! ([`CmRegion::covers`](cmam_core::CmRegion::covers), see
//! `cmam_core::region`), and on unbounded context memory the full flow
//! maps exactly as the weighted flow does.
//!
//! Every kernel — the seven paper kernels and one generated kernel per
//! generator profile — is mapped directly under all five flows on Table
//! I, the golden suite's TIGHT16 and TIGHT24, uniform memories of 8, 12,
//! …, 64 words and the unbounded configuration. For every map, every
//! other flow and every configuration that `covers` accepts for them
//! (only successful maps whose comparisons all held, and only weaker
//! flows, should pass), that flow's own map there must be the identical
//! `KernelMapping` with the identical `MapStats`.

use cmam_arch::CgraConfig;
use cmam_cdfg::generate::GenParams;
use cmam_core::{CertifiedMap, FlowVariant, Mapper};
use cmam_kernels::KernelSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Root seed of the generated kernels.
const KERNEL_SEED: u64 = 0xF10F;

fn uniform(words: usize, name: String) -> CgraConfig {
    CgraConfig::builder(4, 4)
        .name(name)
        .uniform_cm(words)
        .build()
        .expect("valid")
}

fn configs() -> Vec<CgraConfig> {
    let mut configs = CgraConfig::table_one();
    configs.push(uniform(16, "TIGHT16".to_owned()));
    configs.push(uniform(24, "TIGHT24".to_owned()));
    configs.extend((8..=64).step_by(4).map(|w| uniform(w, format!("U{w}"))));
    configs.push(CgraConfig::unconstrained_4x4());
    configs
}

fn kernels() -> Vec<KernelSpec> {
    let profiles = GenParams::PROFILES;
    let mut kernels = cmam_kernels::all();
    kernels.extend(
        cmam_kernels::kernel_seeds(KERNEL_SEED, profiles.len())
            .into_iter()
            .zip(profiles)
            .map(|(seed, profile)| {
                let params = GenParams::profile(profile).expect("a named profile");
                cmam_kernels::generated_spec(&params, seed)
            }),
    );
    kernels
}

/// `maps[k][f][c]`: kernel `k` under `FlowVariant::ALL[f]` on config `c`,
/// mapped on two threads.
fn map_all(kernels: &[KernelSpec], configs: &[CgraConfig]) -> Vec<Vec<Vec<CertifiedMap>>> {
    let jobs: Vec<(usize, usize, usize)> = (0..kernels.len())
        .flat_map(|k| {
            (0..FlowVariant::ALL.len())
                .flat_map(move |f| (0..configs.len()).map(move |c| (k, f, c)))
        })
        .collect();
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while let Some(&(k, f, c)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mapper = Mapper::new(FlowVariant::ALL[f].options());
                    let map = mapper.map_certified(&kernels[k].cdfg, &configs[c]);
                    done.lock().unwrap().push(((k, f, c), map));
                }
            });
        }
    });
    let mut done = done.into_inner().unwrap();
    done.sort_by_key(|(at, _)| *at);
    let mut maps = done.into_iter().map(|(_, map)| map);
    (0..kernels.len())
        .map(|_| {
            (0..FlowVariant::ALL.len())
                .map(|_| maps.by_ref().take(configs.len()).collect())
                .collect()
        })
        .collect()
}

#[test]
fn all_held_maps_answer_every_weaker_flow_they_cover() {
    let kernels = kernels();
    let configs = configs();
    let maps = map_all(&kernels, &configs);
    let unbounded = configs.len() - 1;
    let weighted = FlowVariant::ALL
        .iter()
        .position(|&f| f == FlowVariant::Weighted)
        .expect("a flow");
    let mut covered = 0;
    let mut by_job_flow = [0; 5];
    let mut mismatches = Vec::new();
    for (k, by_flow) in maps.iter().enumerate() {
        for (f, by_config) in by_flow.iter().enumerate() {
            let flow = FlowVariant::ALL[f];
            for (c, map) in by_config.iter().enumerate() {
                let succeeded = map.result.is_ok();
                for (g, job_flow) in FlowVariant::ALL.into_iter().enumerate() {
                    if g == f {
                        continue;
                    }
                    for (d, config) in configs.iter().enumerate() {
                        let (mapped, job) = (flow.options(), job_flow.options());
                        if !map.region.covers(&mapped, succeeded, &job, config) {
                            continue;
                        }
                        covered += 1;
                        by_job_flow[g] += 1;
                        let own = &maps[k][g][d];
                        if own.result != map.result || own.stats != map.stats {
                            mismatches.push(format!(
                                "{}: {flow} on {} answers {job_flow} on {}, whose own map differs",
                                kernels[k].name,
                                configs[c].name(),
                                config.name()
                            ));
                        }
                    }
                }
            }
        }
        // The full flow on unbounded memory is the weighted flow's map.
        let full = &maps[k][FlowVariant::ALL.len() - 1][unbounded];
        let own = &maps[k][weighted][unbounded];
        if full.result != own.result || full.stats != own.stats {
            mismatches.push(format!(
                "{}: the unbounded full-flow map differs from the weighted map",
                kernels[k].name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {covered} covered (map, job) pairs differ, first: {:#?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(10)]
    );
    // Basic, weighted, ACMAP, ECMAP, CAB: basic (forward traversal) and
    // CAB (no stronger flow) are never answered by another flow's map.
    assert_eq!(by_job_flow[0], 0, "{by_job_flow:?}");
    assert_eq!(by_job_flow[4], 0, "{by_job_flow:?}");
    // 28,486 pairs: 16,258 weighted, 8,152 ACMAP and 4,076 ECMAP jobs.
    assert!(
        by_job_flow[1] >= 16_000
            && by_job_flow[2] >= 8_000
            && by_job_flow[3] >= 4_000
            && covered >= 28_000,
        "only {covered} covered pairs, by job flow {by_job_flow:?}"
    );
}
