//! Batched-simulate jobs: one compiled mapping swept over N seeded
//! input memory images through [`cmam_sim::DecodedProgram::simulate_batch`].
//!
//! A batch-sim job reuses the regular compile pipeline (and its caches)
//! to obtain the binary, decodes it once per engine (the decoded program
//! lives beside the compile's memo entry), regenerates the lane images
//! from `(input_seed, lane)` via [`cmam_kernels::lane_images_in`], and
//! runs them through the batched simulator in fixed lane chunks
//! (`LaneChunks`) on the engine's workers. The job key fingerprints
//! everything the result depends on — kernel, configuration, mapper
//! options, simulator options, lane count and the digest of every
//! *actual generated input image* — so a change to the image generator
//! invalidates cached sweeps even at an unchanged seed.

use crate::fingerprint::{Fingerprint, Fnv64};
use crate::job::{JobRequest, RunFailure, RunOutcome};
use cmam_arch::CgraConfig;
use cmam_core::{FlowVariant, MapperOptions};
use cmam_kernels::KernelSpec;
use cmam_sim::{DecodedProgram, LaneState, SimOptions, SimStats};
use std::ops::Range;
use std::time::{Duration, Instant};

/// One input-sweep job: a compile job plus the simulated input set.
#[derive(Debug, Clone)]
pub struct BatchSimRequest<'a> {
    /// The kernel to compile and sweep.
    pub spec: &'a KernelSpec,
    /// The target CGRA instance.
    pub config: &'a CgraConfig,
    /// All mapper knobs (a [`FlowVariant`] resolves to these).
    pub options: MapperOptions,
    /// Simulator options applied to every lane.
    pub sim: SimOptions,
    /// Root seed of the input set; lane `l` simulates the image
    /// `input_image(input_seed, l, spec.mem.len(), ..)`.
    pub input_seed: u64,
    /// Number of input images to sweep.
    pub lanes: usize,
}

impl<'a> BatchSimRequest<'a> {
    /// A sweep job for one of the paper's cumulative flow variants with
    /// default simulator options.
    pub fn flow(
        spec: &'a KernelSpec,
        variant: FlowVariant,
        config: &'a CgraConfig,
        input_seed: u64,
        lanes: usize,
    ) -> Self {
        BatchSimRequest {
            spec,
            config,
            options: variant.options(),
            sim: SimOptions::default(),
            input_seed,
            lanes,
        }
    }

    /// The compile half of the job (what [`crate::Engine::run_one`]
    /// resolves, with all its dedup and caching).
    pub fn compile_request(&self) -> JobRequest<'a> {
        JobRequest {
            spec: self.spec,
            config: self.config,
            options: self.options.clone(),
        }
    }

    /// The lane input images, regenerated deterministically from
    /// `(input_seed, lane)`.
    pub fn images(&self) -> Vec<Vec<i32>> {
        cmam_kernels::lane_images(self.spec, self.input_seed, self.lanes)
    }

    /// The content hash keying this job, given its (already generated)
    /// input images. It covers the image *contents*, not just the seed:
    /// the lane count, then each image's digest (FNV-1a over its length
    /// and every word, as [`BatchSimOutcome::mem_digests`] digests final
    /// memories), so one changed word in any lane changes the key.
    /// Images of equal length hash four at a time on interleaved chains,
    /// at the same values as one at a time.
    pub fn key_for(&self, images: &[Vec<i32>]) -> u64 {
        self.key_of_digests(&mem_digests(images))
    }

    /// [`BatchSimRequest::key_for`] over the images' digests, in lane
    /// order: the engine's sweep computes them chunk by chunk.
    pub(crate) fn key_of_digests(&self, digests: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        h.feed_str("batch-sim");
        self.spec.fingerprint(&mut h);
        self.config.fingerprint(&mut h);
        self.options.fingerprint(&mut h);
        h.feed_usize(self.sim.mem_banks);
        h.feed_u64(self.sim.max_cycles);
        h.feed_u64(self.input_seed);
        h.feed_usize(self.lanes);
        h.feed_usize(digests.len());
        for &d in digests {
            h.feed_u64(d);
        }
        h.finish()
    }

    /// The content hash keying this job in the cache.
    pub fn key(&self) -> u64 {
        self.key_for(&self.images())
    }

    /// A short human-readable label (for logs and engine stats).
    pub fn label(&self) -> String {
        format!("{}@{}x{}", self.spec.name, self.config.name(), self.lanes)
    }
}

/// What a batch-sim job produced: per-lane results plus sweep-level
/// accounting. Per-lane final memories are not retained (they can be
/// arbitrarily large across thousands of lanes); their digests are.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSimOutcome {
    /// Per-lane simulation results, in lane order. Errors are rendered
    /// (they round-trip through the artifact store).
    pub lanes: Vec<Result<SimStats, String>>,
    /// FNV-1a digest of each lane's final memory image (partial images
    /// for failed lanes, exactly as the simulator left them).
    pub mem_digests: Vec<u64>,
    /// Sum of executed cycles over all successful lanes.
    pub agg_cycles: u64,
    /// Wall-clock time of the program's first decode in this engine
    /// (cache-hit caveat as `RunOutcome` times).
    pub decode_time: Duration,
    /// Wall-clock time of the chunked batched simulation: from handing
    /// the lane chunks to the engine's workers until the last chunk's
    /// results, digests included, are back (same caveat). With several
    /// workers this is less than the chunks' summed simulation time.
    pub sim_time: Duration,
}

impl BatchSimOutcome {
    /// Number of lanes that retired successfully.
    pub fn ok_lanes(&self) -> usize {
        self.lanes.iter().filter(|r| r.is_ok()).count()
    }

    /// Aggregate simulated cycles per wall-clock second of the chunked
    /// batched run ([`BatchSimOutcome::sim_time`], so every worker's
    /// chunks count), or `None` for a zero-duration measurement.
    pub fn agg_cycles_per_sec(&self) -> Option<f64> {
        let secs = self.sim_time.as_secs_f64();
        (secs > 0.0).then(|| self.agg_cycles as f64 / secs)
    }

    /// Hash of every deterministic field (everything except wall-clock
    /// noise), for determinism tests.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.feed_usize(self.lanes.len());
        for lane in &self.lanes {
            match lane {
                Ok(s) => {
                    h.feed_u64(1);
                    h.feed_u64(s.cycles);
                    h.feed_u64(s.stall_cycles);
                    h.feed_usize(s.block_execs.len());
                    for &n in &s.block_execs {
                        h.feed_u64(n);
                    }
                    for t in &s.tiles {
                        for v in [
                            t.active_cycles,
                            t.idle_cycles,
                            t.cm_fetches,
                            t.alu_ops,
                            t.moves,
                            t.loads,
                            t.stores,
                            t.rf_reads,
                            t.neighbor_reads,
                            t.crf_reads,
                            t.rf_writes,
                        ] {
                            h.feed_u64(v);
                        }
                    }
                }
                Err(e) => {
                    h.feed_u64(0);
                    h.feed_str(e);
                }
            }
        }
        for &d in &self.mem_digests {
            h.feed_u64(d);
        }
        h.feed_u64(self.agg_cycles);
        h.finish()
    }
}

/// What a batch-sim job evaluates to: a sweep outcome, or the compile
/// pipeline's failure (a lane-level simulation error is *data*, carried
/// inside the outcome, not a job failure).
pub type BatchSimResult = Result<BatchSimOutcome, RunFailure>;

/// Digest of one memory image (FNV-1a over length and words).
fn mem_digest(mem: &[i32]) -> u64 {
    let mut h = Fnv64::new();
    h.feed_usize(mem.len());
    for &w in mem {
        h.feed_word(w);
    }
    h.finish()
}

/// [`mem_digest`] of every image, in order. FNV-1a is one dependent
/// multiply per byte, so a lone chain runs at the multiplier's latency;
/// four images of equal length are hashed on four interleaved chains,
/// which overlap. A remainder, or a group of unequal lengths, takes the
/// single-chain function.
fn mem_digests<M: AsRef<[i32]>>(images: &[M]) -> Vec<u64> {
    let mut out = Vec::with_capacity(images.len());
    let mut groups = images.chunks_exact(4);
    for group in &mut groups {
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| group[i].as_ref());
        if [b, c, d].iter().any(|m| m.len() != a.len()) {
            out.extend([a, b, c, d].map(mem_digest));
            continue;
        }
        let mut h = Fnv64::new();
        h.feed_usize(a.len());
        let [mut ha, mut hb, mut hc, mut hd] = [h.clone(), h.clone(), h.clone(), h];
        for (((&wa, &wb), &wc), &wd) in a.iter().zip(b).zip(c).zip(d) {
            ha.feed_word(wa);
            hb.feed_word(wb);
            hc.feed_word(wc);
            hd.feed_word(wd);
        }
        out.extend([ha, hb, hc, hd].map(|h| h.finish()));
    }
    out.extend(groups.remainder().iter().map(|m| mem_digest(m.as_ref())));
    out
}

/// Decodes a compiled binary for `config`, with the decode's wall time.
pub(crate) fn decode(compiled: &RunOutcome, config: &CgraConfig) -> (DecodedProgram, Duration) {
    let t0 = Instant::now();
    let decoded = DecodedProgram::decode(&compiled.binary, config)
        .expect("a binary that simulated solo decodes");
    let decode_time = t0.elapsed();
    cmam_obs::histogram!("phase.decode_us").record(decode_time.as_micros() as u64);
    (decoded, decode_time)
}

/// Fewest lanes a sweep chunk holds, unless the whole sweep is smaller.
/// Measured on a 2-vCPU host: two 128-lane chunks on two threads took
/// 0.59× the time of one 256-lane batch, while 16 lanes split 2×8 took
/// 1.25–1.33×, and chunking on one thread cost 2–7%.
const CHUNK_LANES: usize = 128;

/// How a sweep of `lanes` lanes is cut: `max(1, lanes / 128)` chunks of
/// near-equal size, in lane order (chunk `c` of `k` holds lanes
/// `lanes·c/k .. lanes·(c+1)/k`). The lane count alone sets the cut,
/// never the worker count, so every outcome and every `sim.*`/`engine.*`
/// counter is the same at any `jobs`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneChunks {
    lanes: usize,
    /// Number of chunks, at least 1.
    pub(crate) count: usize,
}

impl LaneChunks {
    pub(crate) fn new(lanes: usize) -> Self {
        LaneChunks {
            lanes,
            count: (lanes / CHUNK_LANES).max(1),
        }
    }

    /// The lanes of chunk `c`.
    pub(crate) fn get(self, c: usize) -> Range<usize> {
        self.lanes * c / self.count..self.lanes * (c + 1) / self.count
    }
}

/// A chunk's first half, run before the memo lookup: the input images
/// of its lanes and their digests (what [`BatchSimRequest::key_for`]
/// folds).
pub(crate) fn chunk_inputs(
    mem_len: usize,
    input_seed: u64,
    lanes: Range<usize>,
) -> (Vec<Vec<i32>>, Vec<u64>) {
    let images = cmam_kernels::lane_images_in(mem_len, input_seed, lanes);
    let digests = mem_digests(&images);
    (images, digests)
}

/// One chunk's share of a sweep outcome, in lane order.
#[derive(Debug, Default)]
pub(crate) struct ChunkSim {
    lanes: Vec<Result<SimStats, String>>,
    mem_digests: Vec<u64>,
    agg_cycles: u64,
}

/// A chunk's second half, run on a miss: the batched simulation of its
/// images on the decoded program, their final-memory digests, the
/// rendered lane errors and the summed cycles. Pure over `(decoded,
/// images, sim)`.
pub(crate) fn simulate_chunk(
    decoded: &DecodedProgram,
    images: Vec<Vec<i32>>,
    sim: SimOptions,
) -> ChunkSim {
    let mut lanes: Vec<LaneState> = images.into_iter().map(LaneState::new).collect();
    let results = decoded.simulate_batch(&mut lanes, sim);
    let mems: Vec<&[i32]> = lanes.iter().map(|l| l.mem.as_slice()).collect();
    ChunkSim {
        mem_digests: mem_digests(&mems),
        agg_cycles: results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|s| s.cycles))
            .sum(),
        lanes: results
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect(),
    }
}

/// The sweep outcome of the chunks' results, concatenated in chunk
/// (hence lane) order.
pub(crate) fn join_chunks(
    chunks: Vec<ChunkSim>,
    decode_time: Duration,
    sim_time: Duration,
) -> BatchSimOutcome {
    let mut chunks = chunks.into_iter();
    let mut all = chunks.next().unwrap_or_default();
    for chunk in chunks {
        all.lanes.extend(chunk.lanes);
        all.mem_digests.extend(chunk.mem_digests);
        all.agg_cycles += chunk.agg_cycles;
    }
    BatchSimOutcome {
        lanes: all.lanes,
        mem_digests: all.mem_digests,
        agg_cycles: all.agg_cycles,
        decode_time,
        sim_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_input_sets_and_job_kinds() {
        let spec = cmam_kernels::dc::spec();
        let config = CgraConfig::hom64();
        let a = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, 1, 8);
        let b = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, 1, 8);
        assert_eq!(a.key(), b.key());
        let more_lanes = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, 1, 9);
        let other_seed = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, 2, 8);
        assert_ne!(a.key(), more_lanes.key());
        assert_ne!(a.key(), other_seed.key());
        // The batch-sim key space never collides with the compile key
        // space for the same inputs.
        assert_ne!(a.key(), a.compile_request().key());
        // The key covers image *contents*: same request, doctored images.
        let mut images = a.images();
        images[0][0] ^= 1;
        assert_ne!(a.key(), a.key_for(&images));
    }

    #[test]
    fn keys_cover_every_lane_of_the_four_lane_groups_and_the_remainder() {
        let spec = cmam_kernels::fir::spec();
        let config = CgraConfig::hom64();
        let req = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, 3, 10);
        let images = req.images();
        let key = req.key_for(&images);
        // Lane 5 sits inside the second group of four, lane 9 in the
        // two-lane remainder; flip one word deep inside each.
        for (lane, word) in [(5, 100), (9, 7)] {
            let mut flipped = images.clone();
            flipped[lane][word] ^= 1 << 20;
            assert_ne!(req.key_for(&flipped), key, "lane {lane} word {word}");
        }
    }

    /// `mem_digest` spelled out byte by byte: the salted start, the
    /// length, then every word widened to a `u64`, all little-endian.
    fn bytewise_mem_digest(mem: &[i32]) -> u64 {
        let mut h = Fnv64::new();
        h.feed_bytes(&(mem.len() as u64).to_le_bytes());
        for &w in mem {
            h.feed_bytes(&(w as u32 as u64).to_le_bytes());
        }
        h.finish()
    }

    #[test]
    fn four_lane_digests_equal_one_chain_per_image() {
        let spec = cmam_kernels::fir::spec();
        let equal = cmam_kernels::lane_images(&spec, 11, 9);
        for n in 0..=9 {
            let want: Vec<u64> = equal[..n].iter().map(|m| mem_digest(m)).collect();
            assert_eq!(mem_digests(&equal[..n]), want, "{n} images");
        }
        // Mixed lengths: a first group with a short and an empty image,
        // an equal second group, and a remainder of two lengths.
        let mut mixed = equal.clone();
        mixed[1].truncate(50);
        mixed[3].clear();
        mixed.push(vec![i32::MIN, -1, 0, 1, i32::MAX]);
        let want: Vec<u64> = mixed.iter().map(|m| mem_digest(m)).collect();
        assert_eq!(mem_digests(&mixed), want);
        for m in &mixed {
            assert_eq!(mem_digest(m), bytewise_mem_digest(m));
        }
    }
}
