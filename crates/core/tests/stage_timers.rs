//! The mapper's per-stage wall-time counters (`mapper.stage_ns.*`): one
//! [`Mapper::map`] call advances every stage, and the stages are
//! disjoint slices of the call, so together they never exceed its wall
//! time.
//!
//! This file deliberately holds a single `#[test]`: the metrics registry
//! is process-global, so a sibling test mapping concurrently would add
//! its own stage time to the deltas.

use cmam_arch::CgraConfig;
use cmam_core::{FlowVariant, Mapper};
use std::time::Instant;

const STAGES: [&str; 5] = ["schedule", "expand", "prune", "materialise", "finalize"];

/// Current value of every stage counter, in [`STAGES`] order.
fn stage_ns() -> Vec<u64> {
    let snapshot = cmam_obs::metrics::registry().counter_snapshot();
    STAGES
        .iter()
        .map(|&stage| {
            snapshot
                .iter()
                .find(|(name, _)| name.strip_prefix("mapper.stage_ns.") == Some(stage))
                .map_or(0, |&(_, ns)| ns)
        })
        .collect()
}

#[test]
fn mapping_fir_advances_every_stage_within_the_map_wall_time() {
    let spec = cmam_kernels::all()
        .into_iter()
        .find(|s| s.name == "FIR")
        .expect("FIR kernel");
    let config = CgraConfig::het1();
    let mapper = Mapper::new(FlowVariant::Cab.options());

    let before = stage_ns();
    let start = Instant::now();
    mapper.map(&spec.cdfg, &config).expect("FIR maps on HET1");
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = stage_ns();

    let deltas: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    for (stage, &ns) in STAGES.iter().zip(&deltas) {
        assert!(ns > 0, "stage {stage} did not advance: {deltas:?}");
    }
    let total: u64 = deltas.iter().sum();
    assert!(
        total <= wall_ns,
        "stages sum to {total} ns, more than the map's {wall_ns} ns: {deltas:?}"
    );
}
