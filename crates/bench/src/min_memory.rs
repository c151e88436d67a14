//! The smallest uniform context memory at which each flow maps and
//! assembles a kernel: the scan behind `fig6_8_latency --min-memory`.
//!
//! Every tile of a 4x4 array with the paper's two LSU rows gets `W`
//! words, `W` in [`WORDS`]. The aware flows are not monotone in memory —
//! a flow that maps a kernel at `W` words can fail at some `W' > W` — so
//! the scan runs every `W` instead of bisecting, and reports each failure
//! above a minimum. All jobs go to the engine as one batch. Most of them
//! lie inside the memory region of an earlier map of the same kernel and
//! flow, so the engine maps only a fraction of them.

use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::{Engine, JobRequest};
use cmam_kernels::KernelSpec;
use std::ops::RangeInclusive;

/// The context-memory sizes scanned, in words per tile.
pub const WORDS: RangeInclusive<usize> = 4..=64;

/// The 4x4 array of Table I (LSUs on the first two rows, the same
/// register files) with `words` context words on every tile.
pub fn uniform_config(words: usize) -> CgraConfig {
    CgraConfig::builder(4, 4)
        .name(format!("U{words}"))
        .uniform_cm(words)
        .build()
        .expect("a 4x4 array with non-empty memories is valid")
}

/// The scan of one (kernel, flow) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// The kernel's name.
    pub kernel: String,
    /// The flow.
    pub flow: FlowVariant,
    /// The smallest `W` at which the job maps, assembles and checks;
    /// `None` when no `W` of [`WORDS`] does.
    pub min: Option<usize>,
    /// Every `W` above `min` at which the job fails.
    pub fails_above: Vec<usize>,
}

/// Scans every kernel of `specs` under every flow of
/// [`FlowVariant::ALL`] over [`WORDS`], as one batch on `engine`. Rows
/// come kernel-major, flows in `ALL` order.
pub fn uniform_scan(engine: &Engine, specs: &[KernelSpec]) -> Vec<Scan> {
    let configs: Vec<(usize, CgraConfig)> = WORDS.map(|w| (w, uniform_config(w))).collect();
    let mut requests = Vec::new();
    for spec in specs {
        for flow in FlowVariant::ALL {
            for (_, config) in &configs {
                requests.push(JobRequest::flow(spec, flow, config));
            }
        }
    }
    let results = engine.run_batch(&requests);
    let mut rows = Vec::new();
    let mut cells = results.chunks(configs.len());
    for spec in specs {
        for flow in FlowVariant::ALL {
            let cells = cells.next().expect("one chunk per (kernel, flow)");
            // (W, whether the job succeeded), smallest W first.
            let ok: Vec<(usize, bool)> = configs
                .iter()
                .zip(cells)
                .map(|((w, _), r)| (*w, r.is_ok()))
                .collect();
            let min = ok.iter().find(|c| c.1).map(|c| c.0);
            let fails_above = ok
                .iter()
                .filter(|&&(w, mapped)| !mapped && min.is_some_and(|m| w > m))
                .map(|c| c.0)
                .collect();
            rows.push(Scan {
                kernel: spec.name.clone(),
                flow,
                min,
                fails_above,
            });
        }
    }
    rows
}

/// Per flow of [`FlowVariant::ALL`], the sum of the minima of `scans`
/// (rows as [`uniform_scan`] returns them); `None` for a flow that some
/// kernel does not fit at any scanned size.
pub fn summed_minima(scans: &[Scan]) -> Vec<Option<usize>> {
    let flows = FlowVariant::ALL.len();
    (0..flows)
        .map(|f| scans.iter().skip(f).step_by(flows).map(|s| s.min).sum())
        .collect()
}
