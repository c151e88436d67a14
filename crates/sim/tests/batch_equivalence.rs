//! Batch-vs-solo equivalence: [`DecodedProgram::simulate_batch`] must
//! produce, for every lane, **exactly** the `SimStats`, final memory
//! image and error a solo [`DecodedProgram::simulate`] call produces on
//! the same input — across lane counts, bank counts (including the
//! normalized `mem_banks == 0`), divergent control flow, and lanes that
//! fail mid-batch (out-of-bounds, exhausted budgets) while their
//! neighbours keep running.

use cmam_arch::CgraConfig;
use cmam_cdfg::{Cdfg, CdfgBuilder, GenParams, Opcode, SplitMix64};
use cmam_core::{FlowVariant, Mapper};
use cmam_kernels::kernel_seeds;
use cmam_sim::{DecodedProgram, LaneState, SimOptions};

/// Maps, assembles and decodes a CDFG with the basic flow on HOM64.
fn decode_basic(cdfg: &Cdfg) -> Option<(DecodedProgram, CgraConfig)> {
    let config = CgraConfig::hom64();
    let mapper = Mapper::new(FlowVariant::Basic.options());
    let result = mapper.map(cdfg, &config).ok()?;
    let (binary, _) = cmam_isa::assemble(cdfg, &result.mapping, &config).ok()?;
    let decoded = DecodedProgram::decode(&binary, &config).expect("valid binary decodes");
    Some((decoded, config))
}

/// Runs the batch over `images` and checks every lane — result (success
/// or the exact error) and final memory — against a solo run on a clone
/// of the same image. `at` names the kernel in a failure.
fn assert_batch_matches_solo(
    decoded: &DecodedProgram,
    images: &[Vec<i32>],
    options: SimOptions,
    at: &str,
) {
    let mut lanes: Vec<LaneState> = images.iter().map(|m| LaneState::new(m.clone())).collect();
    let batch = decoded.simulate_batch(&mut lanes, options);
    assert_eq!(batch.len(), images.len(), "{at}");
    for (l, image) in images.iter().enumerate() {
        let mut solo_mem = image.clone();
        let solo = decoded.simulate(&mut solo_mem, options);
        assert_eq!(batch[l], solo, "{at}, lane {l}: result diverges from solo");
        assert_eq!(
            lanes[l].mem, solo_mem,
            "{at}, lane {l}: memory diverges from solo"
        );
    }
}

/// A kernel whose running time is data-dependent: counts `mem[0]` down
/// to zero one loop iteration at a time, then stores the loop count to
/// `mem[1]`. Lanes with different `mem[0]` values take different trip
/// counts (divergence) and can straddle a `max_cycles` budget (mixed
/// `Ok` / `Err(MaxCycles)` retirement inside one batch).
fn countdown_kernel() -> Cdfg {
    let mut b = CdfgBuilder::new("countdown");
    let entry = b.block("entry");
    let body = b.block("body");
    let exit = b.block("exit");
    let n = b.symbol("n");
    let steps = b.symbol("steps");
    b.select(entry);
    let a0 = b.constant(0);
    let v = b.load_name(a0, "in");
    b.write_symbol(v, n);
    b.mov_const_to_symbol(0, steps);
    b.jump(body);
    b.select(body);
    let cur = b.use_symbol(n);
    let one = b.constant(1);
    let next = b.op(Opcode::Sub, &[cur, one]);
    b.write_symbol(next, n);
    let s = b.use_symbol(steps);
    let s2 = b.op(Opcode::Add, &[s, one]);
    b.write_symbol(s2, steps);
    let zero = b.constant(0);
    let more = b.op(Opcode::Gt, &[next, zero]);
    b.branch(more, body, exit);
    b.select(exit);
    let out = b.use_symbol(steps);
    let a1 = b.constant(1);
    b.store(a1, out, "out");
    b.ret();
    b.finish().expect("countdown cdfg is valid")
}

/// A kernel with a data-dependent address: loads `mem[mem[0]]` and
/// stores it to `mem[1]`. Lanes whose `mem[0]` points outside their
/// image fail with the solo simulator's exact `OutOfBounds` error.
fn indirect_kernel() -> Cdfg {
    let mut b = CdfgBuilder::new("indirect");
    let bb = b.block("b0");
    b.select(bb);
    let a0 = b.constant(0);
    let addr = b.load_name(a0, "m");
    let v = b.load_name(addr, "m");
    let a1 = b.constant(1);
    b.store(a1, v, "m");
    b.ret();
    b.finish().expect("indirect cdfg is valid")
}

#[test]
fn empty_batch_returns_no_results() {
    let (decoded, _) = decode_basic(&countdown_kernel()).expect("countdown maps");
    let mut lanes: Vec<LaneState> = Vec::new();
    assert!(decoded
        .simulate_batch(&mut lanes, SimOptions::default())
        .is_empty());
}

#[test]
fn paper_kernels_match_solo_on_seeded_images() {
    for spec in cmam_kernels::all() {
        let Some((decoded, _)) = decode_basic(&spec.cdfg) else {
            panic!("{} maps with the basic flow on HOM64", spec.name);
        };
        let images = cmam_kernels::lane_images(&spec, 0xBA7C_0001, 8);
        assert_batch_matches_solo(&decoded, &images, SimOptions::default(), &spec.name);
    }
}

#[test]
fn divergent_lanes_and_mid_batch_budget_errors_match_solo() {
    let (decoded, _) = decode_basic(&countdown_kernel()).expect("countdown maps");
    // Trip counts from 1 to 4000; with a budget of 2000 cycles the long
    // lanes exhaust it mid-batch while the short ones retire `Ok`.
    let images: Vec<Vec<i32>> = [1, 3, 4000, 7, 2500, 40, 1, 900]
        .iter()
        .map(|&n| vec![n, -1, 0, 0])
        .collect();
    let options = SimOptions {
        max_cycles: 2000,
        ..SimOptions::default()
    };
    let mut lanes: Vec<LaneState> = images.iter().map(|m| LaneState::new(m.clone())).collect();
    let batch = decoded.simulate_batch(&mut lanes, options);
    assert!(batch.iter().any(|r| r.is_ok()), "some lanes finish");
    assert!(
        batch.iter().any(|r| r.is_err()),
        "some lanes exhaust the budget"
    );
    assert_batch_matches_solo(&decoded, &images, options, "countdown");
}

#[test]
fn mid_batch_out_of_bounds_lanes_leave_others_unaffected() {
    let (decoded, _) = decode_basic(&indirect_kernel()).expect("indirect maps");
    // Lanes 1 and 4 point outside their own image (including a negative
    // address); the rest must finish exactly as solo runs.
    let images: Vec<Vec<i32>> = [2i32, 99, 3, 0, -5, 1]
        .iter()
        .map(|&a| vec![a, 0, 77, 88])
        .collect();
    let mut lanes: Vec<LaneState> = images.iter().map(|m| LaneState::new(m.clone())).collect();
    let batch = decoded.simulate_batch(&mut lanes, SimOptions::default());
    assert!(batch[1].is_err() && batch[4].is_err(), "bad lanes fail");
    assert_eq!(batch.iter().filter(|r| r.is_ok()).count(), 4);
    assert_batch_matches_solo(&decoded, &images, SimOptions::default(), "indirect");
}

/// Root of the generated test's case seeds.
const ROOT: u64 = 0xba7c_5eed;

/// Generated cases; each maps once and simulates every lane twice.
const CASES: usize = 12;

/// Generated cases that must reach the batch comparison. A case whose
/// kernel the basic flow does not map is skipped; at this root, none is.
const CHECKED_FLOOR: usize = 12;

#[test]
fn generated_kernels_match_solo_across_lanes_and_banks() {
    let mut checked = 0;
    for (case, case_seed) in kernel_seeds(ROOT, CASES).into_iter().enumerate() {
        let mut rng = SplitMix64::new(case_seed);
        let profile = GenParams::PROFILES[rng.below(GenParams::PROFILES.len() as u64) as usize];
        let seed = rng.below(1_000_000);
        let nlanes = 1 + rng.below(128);
        let banks = [0usize, 1, 8, 64][rng.below(4) as usize];
        let params = GenParams::profile(profile).expect("known profile");
        let kernel = cmam_cdfg::generate(&params, seed);
        // A rejected mapping is the mapper property suite's concern,
        // not this one's.
        let Some((decoded, _)) = decode_basic(&kernel.cdfg) else {
            continue;
        };
        checked += 1;
        let images: Vec<Vec<i32>> = (0..nlanes)
            .map(|l| cmam_cdfg::input_image(seed, l, kernel.mem.len(), 64))
            .collect();
        let options = SimOptions {
            mem_banks: banks,
            max_cycles: 1_000_000,
        };
        let at = format!(
            "case {case} (seed {case_seed:#x}): {} on {nlanes} lanes, {banks} banks",
            kernel.name
        );
        assert_batch_matches_solo(&decoded, &images, options, &at);
    }
    assert!(
        checked >= CHECKED_FLOOR,
        "only {checked} of {CASES} cases mapped"
    );
}
