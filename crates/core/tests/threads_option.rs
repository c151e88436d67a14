//! `MapperOptions::threads` is ignored: `Mapper::map` runs on the calling
//! thread whatever the field holds, so a map asked for four threads
//! returns the one-thread result and starts no pool worker.
//!
//! This file deliberately holds a single `#[test]`: the pool is
//! process-global, so a sibling test that starts workers would change
//! the count this one reads.

use cmam_arch::CgraConfig;
use cmam_core::{FlowVariant, MapStats, Mapper};
use cmam_isa::KernelMapping;

#[test]
fn a_four_thread_map_is_the_one_thread_map_and_starts_no_worker() {
    let spec = cmam_kernels::all()
        .into_iter()
        .find(|s| s.name == "FFT")
        .expect("FFT kernel");
    let config = CgraConfig::het2();
    let map = |threads: usize| -> Result<(KernelMapping, MapStats), String> {
        let mut options = FlowVariant::Cab.options();
        options.threads = threads;
        Mapper::new(options)
            .map(&spec.cdfg, &config)
            .map(|r| (r.mapping, r.stats))
            .map_err(|e| e.to_string())
    };

    let four = map(4);
    assert!(four.is_ok(), "FFT maps on HET2: {four:?}");
    assert_eq!(four, map(1));
    assert_eq!(
        cmam_pool::global().workers_spawned(),
        0,
        "a map started pool workers"
    );
}
