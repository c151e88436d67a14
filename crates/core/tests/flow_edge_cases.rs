//! Mapper edge cases and flow-behaviour tests beyond the happy path.

use cmam_arch::{CgraConfig, TileId};
use cmam_cdfg::{CdfgBuilder, Opcode};
use cmam_core::{FlowVariant, MapError, Mapper, MapperOptions};

/// A single-block kernel with one store.
fn tiny() -> cmam_cdfg::Cdfg {
    let mut b = CdfgBuilder::new("tiny");
    let _ = b.block("b0");
    let c1 = b.constant(1);
    let c2 = b.constant(2);
    let v = b.op(Opcode::Add, &[c1, c2]);
    let a = b.constant(0);
    b.store(a, v, "m");
    b.ret();
    b.finish().unwrap()
}

#[test]
fn maps_on_minimal_grids() {
    // 2x2 with one LSU row still maps the tiny kernel.
    let config = CgraConfig::builder(2, 2).lsu_rows(1).build().unwrap();
    let r = Mapper::new(MapperOptions::basic())
        .map(&tiny(), &config)
        .unwrap();
    cmam_isa::assemble(&tiny(), &r.mapping, &config).unwrap();
}

#[test]
fn maps_on_larger_grids() {
    let config = CgraConfig::builder(6, 6).name("BIG").build().unwrap();
    let spec = cmam_kernels::dc::spec();
    let r = Mapper::new(MapperOptions::context_aware())
        .map(&spec.cdfg, &config)
        .unwrap();
    cmam_isa::assemble(&spec.cdfg, &r.mapping, &config).unwrap();
}

#[test]
fn different_seeds_both_produce_valid_mappings() {
    let spec = cmam_kernels::dc::spec();
    let config = CgraConfig::het2();
    for seed in [1u64, 999, 0xDEAD] {
        let mut options = FlowVariant::Cab.options();
        options.seed = seed;
        let r = Mapper::new(options).map(&spec.cdfg, &config).unwrap();
        cmam_isa::assemble(&spec.cdfg, &r.mapping, &config)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn memory_constraint_error_names_the_block() {
    let spec = cmam_kernels::nonsep::spec();
    // 8-word CMs cannot hold the 131-op body anywhere.
    let config = CgraConfig::builder(4, 4).uniform_cm(8).build().unwrap();
    let err = Mapper::new(MapperOptions::context_aware())
        .map(&spec.cdfg, &config)
        .unwrap_err();
    match err {
        MapError::MemoryConstraint { block, step } => {
            assert_eq!(block, cmam_cdfg::BlockId(2), "the body block");
            assert!(["binding", "ACMAP", "ECMAP", "finalize"].contains(&step));
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn basic_flow_ignores_memory_constraints() {
    // The context-unaware flow happily produces a mapping for a config it
    // cannot fit — the assembler then rejects it. This is exactly the
    // paper's premise.
    let spec = cmam_kernels::nonsep::spec();
    let tight = CgraConfig::builder(4, 4).uniform_cm(8).build().unwrap();
    let r = Mapper::new(MapperOptions::basic())
        .map(&spec.cdfg, &tight)
        .unwrap();
    let err = cmam_isa::assemble(&spec.cdfg, &r.mapping, &tight).unwrap_err();
    assert!(matches!(
        err,
        cmam_isa::AssembleError::ContextOverflow { .. }
    ));
}

#[test]
fn cab_respects_blacklisted_tiles() {
    // With CAB on a tight config, no tile may exceed its capacity in the
    // final mapping (stronger: the winning mapping fits exactly).
    let spec = cmam_kernels::sep::spec();
    let config = CgraConfig::het2();
    let r = Mapper::new(FlowVariant::Cab.options())
        .map(&spec.cdfg, &config)
        .unwrap();
    for i in 0..16 {
        let t = TileId(i);
        assert!(r.mapping.context_words(t) <= config.tile(t).cm_words);
    }
}

#[test]
fn stats_track_search_effort() {
    let spec = cmam_kernels::fir::spec();
    let config = CgraConfig::hom64();
    let r = Mapper::new(MapperOptions::basic())
        .map(&spec.cdfg, &config)
        .unwrap();
    assert!(r.stats.attempts > r.stats.candidates);
    assert!(r.stats.candidates > 0);
    assert!(r.stats.stochastic_pruned > 0, "population was capped");
}

#[test]
fn biggest_kernel_pays_latency_on_constrained_configs() {
    // The Figs 6-8 shape: the largest kernel still maps onto the halved
    // configurations, but pays a latency penalty relative to its HOM64
    // schedule, while smaller kernels map at parity (checked in the
    // experiment-shape integration tests).
    let spec = cmam_kernels::nonsep::spec();
    let base = Mapper::new(FlowVariant::Basic.options())
        .map(&spec.cdfg, &CgraConfig::hom64())
        .unwrap();
    let constrained = Mapper::new(FlowVariant::Ecmap.options())
        .map(&spec.cdfg, &CgraConfig::hom32())
        .unwrap();
    assert!(
        constrained.mapping.total_length() >= base.mapping.total_length(),
        "constrained {} vs base {}",
        constrained.mapping.total_length(),
        base.mapping.total_length()
    );
    let on_het1 = Mapper::new(FlowVariant::Ecmap.options()).map(&spec.cdfg, &CgraConfig::het1());
    assert!(on_het1.is_ok());
}

#[test]
fn memory_filters_fire_on_overconstrained_targets() {
    // On a uniformly tight target the ECMAP filter must actually drop
    // candidates during the search (even though the kernel ultimately
    // cannot map at all).
    let spec = cmam_kernels::fir::spec();
    let tight = CgraConfig::builder(4, 4).uniform_cm(16).build().unwrap();
    let err = Mapper::new(FlowVariant::Ecmap.options()).map(&spec.cdfg, &tight);
    assert!(
        matches!(err, Err(MapError::MemoryConstraint { .. })),
        "{err:?}"
    );
}

#[test]
fn invalid_cdfg_is_rejected_up_front() {
    let mut b = CdfgBuilder::new("bad");
    let _ = b.block("b0");
    // Unterminated block.
    let err = b.finish().unwrap_err();
    // And the mapper surfaces validation through MapError::Invalid when
    // given a hand-broken CDFG (constructed via the builder error here).
    assert!(matches!(err, cmam_cdfg::ValidateError::Unterminated(_)));
}

#[test]
fn symbol_heavy_kernel_maps_with_weighted_traversal() {
    let spec = cmam_kernels::fft::spec();
    let config = CgraConfig::hom64();
    let r = Mapper::new(FlowVariant::Weighted.options())
        .map(&spec.cdfg, &config)
        .unwrap();
    // All six symbols received homes.
    assert_eq!(r.mapping.symbol_homes.len(), 6);
    cmam_isa::assemble(&spec.cdfg, &r.mapping, &config).unwrap();
}

/// A `wide` generated kernel whose `bb1` computes symbol `g2`'s new
/// value on its home tile before the old value's last read there, while
/// the home's register file fills up until its first free slot: no copy
/// lives until a commit slot, so every survivor's first finalisation
/// fails and the block maps only by parking the value on a neighbour.
#[test]
fn a_commit_parks_on_a_neighbour_when_no_copy_outlives_the_home_register_file() {
    let params = cmam_cdfg::GenParams::profile("wide").expect("known profile");
    let spec = cmam_kernels::generated_spec(&params, 0x0f19_e5ab_5194_4538);
    let config = CgraConfig::hom64();
    let r = Mapper::new(MapperOptions::basic())
        .map(&spec.cdfg, &config)
        .expect("the parked commit maps the block");
    assert!(
        r.stats.finalize_failures > 0,
        "the first finalisation pass fails"
    );
    cmam_isa::assemble(&spec.cdfg, &r.mapping, &config).unwrap();
}
