//! Per-layer metrics of the traced run, shared by every workload. Each
//! layer is a crate; its numbers come from the benchmark's own spans
//! around calls into that crate's public API, from the always-on
//! counters the crate already keeps, and from results the engine
//! returns.

use crate::common::{counter, ratio, Outcome};
use crate::spans::LayerTimes;

/// Always-on counters the per-layer metrics difference over the traced
/// phase.
const COUNTERS: [&str; 7] = [
    "mapper.attempts",
    "mapper.candidates",
    "mapper.rollbacks",
    "mapper.escalations",
    "sim.batch.cohorts",
    "sim.batch.cohort_lanes",
    "sim.batch.divergences",
];

/// Values, or increases, of [`COUNTERS`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Counters {
        Counters(COUNTERS.map(counter))
    }

    /// Adds what every counter gained from `earlier` to `later`.
    pub fn add_increase(&mut self, earlier: &Counters, later: &Counters) {
        for (i, sum) in self.0.iter_mut().enumerate() {
            *sum += later.0[i] - earlier.0[i];
        }
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("a tracked counter");
        self.0[i]
    }
}

/// Everything the shared per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// The traced phase's spans, reduced by name.
    pub times: LayerTimes,
    /// Counter increases over the layer calls measured.
    pub counters: Counters,
    /// Engine-measured compile time of requests whose map failed, in ms.
    pub fail_map_ms: Vec<f64>,
    /// Serialized artifact sizes, in bytes.
    pub artifact_bytes: Vec<f64>,
    /// Assembled context words over the traced phase's mapped jobs.
    pub context_words: u64,
    /// Lane cycles simulated inside `sim.batch` spans.
    pub batch_cycles: u64,
    /// Solo simulations timed outside the spans (the checked lanes of a
    /// batched sweep), in µs.
    pub solo_us: Vec<f64>,
    /// Calibrated memo-hit and disk-hit probe times of the untraced
    /// passes, in µs.
    pub memo_us: Vec<f64>,
    /// See [`LayerInputs::memo_us`].
    pub disk_us: Vec<f64>,
    /// Engine-measured job phase time ÷ (workers × wall) of the untraced
    /// phase.
    pub busy_frac: f64,
    /// The program's own time for the requests the traced phase replays:
    /// each sent to a fresh engine with tracing on right before its
    /// replay, so both see the same host, in wall seconds. Layer shares
    /// and coverage divide by it.
    pub request_s: f64,
    /// Calibrated engine time of the same requests with tracing on over
    /// that with tracing off.
    pub overhead: f64,
}

/// Engine-layer spans inside a request.
const ENGINE_SPANS: [&str; 7] = [
    "engine.key",
    "engine.disk_miss",
    "engine.images",
    "engine.memo_hit",
    "engine.memo_insert",
    "engine.outcome",
    "engine.store",
];

/// Fills every per-layer metric except the `search.*` ones, which only
/// the search produces (they read 0 elsewhere until set).
pub fn fill(out: &mut Outcome, li: &LayerInputs) {
    let t = &li.times;
    let request_s = li.request_s;
    let us = |name: &str| t.durations(name).to_vec();
    let ms = |name: &str| -> Vec<f64> { t.durations(name).iter().map(|v| v / 1e3).collect() };
    let delta = |name: &str| li.counters.get(name);

    let attempts = delta("mapper.attempts");
    let candidates = delta("mapper.candidates");
    out.set_layer_pct("core.map_ms_p50", &ms("core.map"), 0.5);
    out.set("core.map_share", ratio(t.self_s("core.map"), request_s));
    out.set(
        "core.candidates_per_s",
        ratio(candidates as f64, t.total_s("core.map")),
    );
    out.set("core.attempts", attempts as f64);
    out.set("core.candidates", candidates as f64);
    out.set("core.rollbacks", delta("mapper.rollbacks") as f64);
    out.set(
        "core.accept_frac",
        ratio(candidates as f64, attempts as f64),
    );
    out.set("core.escalations", delta("mapper.escalations") as f64);
    out.set_layer_pct("core.fail_map_ms_p50", &li.fail_map_ms, 0.5);

    out.set_layer_pct("isa.assemble_us_p50", &us("isa.assemble"), 0.5);
    out.set(
        "isa.assemble_share",
        ratio(t.self_s("isa.assemble"), request_s),
    );
    out.set("isa.context_words", li.context_words as f64);

    out.set_layer_pct("sim.decode_us_p50", &us("sim.decode"), 0.5);
    let mut solo_us = us("sim.solo");
    solo_us.extend(&li.solo_us);
    out.set_layer_pct("sim.solo_us_p50", &solo_us, 0.5);
    out.set("sim.batch_share", ratio(t.self_s("sim.batch"), request_s));
    out.set(
        "sim.batch_mcycles_per_s",
        ratio(li.batch_cycles as f64 / 1e6, t.total_s("sim.batch")),
    );
    out.set(
        "sim.cohort_lanes_mean",
        ratio(
            delta("sim.batch.cohort_lanes") as f64,
            delta("sim.batch.cohorts") as f64,
        ),
    );
    out.set("sim.divergences", delta("sim.batch.divergences") as f64);

    out.set_layer_pct("engine.key_us_p50", &us("engine.key"), 0.5);
    out.set_layer_pct("engine.images_us_p50", &us("engine.images"), 0.5);
    out.set_layer_pct("engine.encode_us_p50", &us("engine.encode"), 0.5);
    out.set_layer_pct("engine.parse_us_p50", &us("engine.parse"), 0.5);
    out.set_layer_pct("engine.disk_load_us_p50", &us("engine.disk_load"), 0.5);
    let bytes = &li.artifact_bytes;
    out.set(
        "engine.artifact_bytes_mean",
        ratio(bytes.iter().sum(), bytes.len() as f64),
    );
    let engine_s: f64 = ENGINE_SPANS.iter().map(|n| t.self_s(n)).sum();
    out.set("engine.overhead_share", ratio(engine_s, request_s));
    out.set_layer_pct("engine.memo_hit_us_p90", &li.memo_us, 0.9);
    out.set_layer_pct("engine.disk_hit_us_p90", &li.disk_us, 0.9);

    for name in [
        "search.executed",
        "search.evals_frac",
        "search.promoted",
        "search.raced",
        "search.dominated",
        "search.infeasible",
    ] {
        out.set(name, 0.0);
    }
    out.set("pool.busy_frac", li.busy_frac);
    // Coverage: the layer calls under the replayed requests (each
    // request span's children) against the program's own time for the
    // same requests, which includes what no layer call covers — memo
    // lookups, pool hand-offs, fault hooks.
    let layers_s = t.total_s("request") - t.self_s("request");
    out.set("trace.coverage", ratio(layers_s, request_s));
    out.set("trace.overhead", li.overhead);
    let counts: Vec<String> = t
        .durations_us
        .iter()
        .map(|(name, d)| format!("{name}={}", d.len()))
        .collect();
    eprintln!(
        "trace: engine {request_s:.3} s, layer calls {layers_s:.3} s, replayed requests {:.3} s; \
         spans {}",
        t.total_s("request"),
        counts.join(" ")
    );
}
