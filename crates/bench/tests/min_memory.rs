//! Pins the uniform minimum-memory scan of `fig6_8_latency --min-memory`
//! on the paper kernels: each (kernel, flow) minimum, each flow's minima
//! summed over the kernels, and the sizes above a minimum at which an
//! aware flow fails. The aware flows are not monotone in memory; the
//! failing set may shrink, but never grow.

use cmam_bench::min_memory::{summed_minima, uniform_scan};
use cmam_core::FlowVariant::{self, Acmap, Cab, Ecmap};
use cmam_engine::{Engine, EngineOptions};

/// Per kernel, the smallest uniform memory of basic, weighted, ACMAP,
/// ECMAP and CAB (ROADMAP item 2's table).
const MINIMA: [(&str, [usize; 5]); 7] = [
    ("FIR", [17, 17, 17, 17, 13]),
    ("MatM", [18, 18, 16, 16, 18]),
    ("Convolution", [21, 20, 20, 17, 20]),
    ("SepFilter", [34, 31, 30, 30, 30]),
    ("NonSepFilter", [33, 34, 32, 32, 34]),
    ("FFT", [24, 25, 24, 24, 24]),
    ("DC Filter", [6, 7, 7, 7, 7]),
];

/// Per flow, the minima summed over the seven kernels: CAB needs 146 /
/// 153 = 0.95x the basic flow's memory.
const SUMS: [usize; 5] = [153, 152, 146, 143, 146];

/// The failures above a minimum known today.
const KNOWN_BREAKS: [(&str, FlowVariant, usize); 8] = [
    ("FIR", Cab, 14),
    ("FIR", Cab, 15),
    ("FIR", Cab, 16),
    ("MatM", Acmap, 17),
    ("MatM", Ecmap, 17),
    ("Convolution", Ecmap, 19),
    ("NonSepFilter", Acmap, 33),
    ("NonSepFilter", Ecmap, 33),
];

#[test]
fn minima_are_pinned_and_breaks_never_grow() {
    let engine = Engine::new(EngineOptions {
        jobs: 2,
        cache_dir: None,
        cache_bytes: None,
    });
    let scans = uniform_scan(&engine, &cmam_kernels::all());
    assert_eq!(scans.len(), MINIMA.len() * FlowVariant::ALL.len());
    for ((kernel, minima), flows) in MINIMA.iter().zip(scans.chunks(FlowVariant::ALL.len())) {
        for ((flow, &min), scan) in FlowVariant::ALL.iter().zip(minima).zip(flows) {
            assert_eq!((scan.kernel.as_str(), scan.flow), (*kernel, *flow));
            assert_eq!(scan.min, Some(min), "{kernel} / {flow}");
            for &w in &scan.fails_above {
                assert!(
                    KNOWN_BREAKS.contains(&(kernel, *flow, w)),
                    "{kernel} / {flow} maps at {min} words but newly fails at {w}"
                );
            }
        }
    }
    assert_eq!(summed_minima(&scans), SUMS.map(Some));
}
