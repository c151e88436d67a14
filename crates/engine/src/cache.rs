//! The two-level artifact cache: an in-process memo table plus an on-disk
//! store of length-prefixed binary artifacts under `target/cmam-cache/`.
//!
//! Artifacts are keyed by the job's content hash (see
//! [`crate::fingerprint`]): any change to the kernel CDFG, the CGRA
//! configuration or the mapper options produces a new key, so entries
//! never need invalidation — stale ones are simply never addressed again.
//!
//! The format is a deliberately boring little-endian binary layout (no
//! serde, the workspace stays offline): a magic + [`FORMAT_VERSION`]
//! header, then fixed-width integers with `u32` length prefixes for every
//! string and sequence. Compared to the earlier line-oriented text format
//! this removes the escape/unescape round-trip and the per-field
//! `to_string`/`parse` churn from every store and load. Any read that
//! does not consume a well-formed artifact — wrong magic, older version,
//! truncated file, out-of-range tag — is treated as a clean cache miss
//! and the entry is rewritten.
//!
//! ## Integrity and self-healing
//!
//! Every artifact ends with a trailing FNV-64 checksum over all the
//! preceding bytes. FNV-1a's update `s' = (s ^ b) * P` is a bijection on
//! `u64` for any fixed byte `b` (the prime is odd), so *any* single-byte
//! difference provably changes the checksum — a bit-flipped integer in
//! the payload can never parse back as a plausible-but-wrong result.
//! A corrupt artifact (bad checksum, bad structure, or a real torn
//! write) is counted, deleted and recomputed — the rewrite is the
//! self-heal. [`DiskCache::new`] also sweeps stale `.tmp-*` files left
//! behind by killed processes, so a SIGKILL mid-store never leaks
//! orphans forever.
//!
//! The failure-prone paths are threaded with `cmam_fault` sites
//! (`cache.read`, `cache.write`, `cache.rename`, `cache.kill`,
//! `cache.corrupt.*`) so the chaos suite can drive every one of these
//! recovery branches deterministically; with no fault plan installed
//! each site check is a single relaxed atomic load.

use crate::batch_sim::BatchSimOutcome;
use crate::fingerprint::FORMAT_VERSION;
use crate::job::{FailStage, JobFailure, JobResult, RunOutcome};
use cmam_arch::Direction;
use cmam_cdfg::Opcode;
use cmam_isa::program::BinTerminator;
use cmam_isa::{AsmReport, CgraBinary, Instr, Operand, TileProgram};
use cmam_sim::{SimStats, TileStats};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Leading bytes of every artifact; anything else is a foreign file (for
/// example a text artifact from a pre-v3 toolchain) and therefore a miss.
const MAGIC: &[u8; 8] = b"cmamrunb";

/// Leading bytes of a batched-simulation artifact (`.bsim` files carry a
/// different payload shape, so they get their own magic).
const BATCH_MAGIC: &[u8; 8] = b"cmambsim";

/// Unsalted FNV-1a over raw bytes: the artifact integrity checksum.
/// (Unsalted on purpose — this is self-integrity of one file, not keyed
/// identity; [`crate::fingerprint::Fnv64`] handles the latter.)
fn artifact_checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends the trailing checksum to a freshly serialized artifact.
fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let sum = artifact_checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Splits off and verifies the trailing checksum; `None` (a miss) on any
/// mismatch or on inputs too short to carry one.
fn verify_seal(bytes: &[u8]) -> Option<&[u8]> {
    let split = bytes.len().checked_sub(8)?;
    let (payload, tail) = bytes.split_at(split);
    let want = u64::from_le_bytes(tail.try_into().ok()?);
    (artifact_checksum(payload) == want).then_some(payload)
}

/// On-disk artifact store. Construction never fails: if the directory
/// cannot be created the store silently degrades to a no-op (a cache must
/// never turn a working sweep into an error).
#[derive(Debug)]
pub struct DiskCache {
    dir: Option<PathBuf>,
    counter: AtomicU64,
    /// Artifact bytes persisted by this process (feeds the
    /// `engine.disk_evictable_bytes` gauge).
    bytes_written: AtomicU64,
    /// Byte budget for the whole store directory (`CMAM_CACHE_BYTES`);
    /// `None` means unbounded — the pre-budget behaviour.
    budget: Option<u64>,
    /// Approximate directory size used to decide when a write must run
    /// the (comparatively expensive) scan-and-evict pass. `u64::MAX`
    /// means "not yet measured": the first budgeted write scans the
    /// directory so artifacts surviving from earlier processes count
    /// against the budget too.
    approx_bytes: std::sync::Mutex<u64>,
}

impl DiskCache {
    /// Opens (creating if needed) the store under `dir`; `None` disables
    /// persistence entirely. A `budget` bounds the directory to that many
    /// bytes: every write that pushes the store past the budget evicts
    /// artifacts oldest-first (by modification time, then file name)
    /// until it fits again. Eviction only ever deletes whole artifacts —
    /// a surviving entry is always the exact bytes its writer stored.
    pub fn new(dir: Option<PathBuf>, budget: Option<u64>) -> Self {
        let dir = dir.filter(|d| std::fs::create_dir_all(d).is_ok());
        if let Some(d) = &dir {
            sweep_orphans(d);
        }
        DiskCache {
            dir,
            counter: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            budget,
            approx_bytes: std::sync::Mutex::new(u64::MAX),
        }
    }

    /// Whether a backing directory is active.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    fn path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key:016x}.run")))
    }

    fn batch_path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.bsim")))
    }

    /// Loads the artifact for `key`. `None` on a plain miss, a (real or
    /// injected) read error, or corruption — and a corrupt artifact is
    /// deleted on the way out, so the caller's recompute-and-store is
    /// the self-heal that replaces it with a good one.
    pub fn load(&self, key: u64) -> Option<JobResult> {
        let path = self.path_for(key)?;
        let mut bytes = std::fs::read(&path).ok()?;
        if cmam_fault::fires("cache.read", key) {
            // Injected read error: the file itself is fine, so it is a
            // plain miss — no healing, the entry stays for next time.
            return None;
        }
        cmam_fault::corrupt_artifact(key, &mut bytes);
        match parse_result(&bytes) {
            Some(result) => Some(result),
            None => {
                self.heal_corrupt(&path);
                None
            }
        }
    }

    /// Loads the batched-simulation artifact for `key`, with the same
    /// miss/corruption/self-heal contract as [`DiskCache::load`].
    pub fn load_batch(&self, key: u64) -> Option<BatchSimOutcome> {
        let path = self.batch_path_for(key)?;
        let mut bytes = std::fs::read(&path).ok()?;
        if cmam_fault::fires("cache.read", key) {
            return None;
        }
        cmam_fault::corrupt_artifact(key, &mut bytes);
        match parse_batch_outcome(&bytes) {
            Some(outcome) => Some(outcome),
            None => {
                self.heal_corrupt(&path);
                None
            }
        }
    }

    /// A readable-but-unparseable artifact: count it and delete it so
    /// the recompute path rewrites a good one in its place.
    fn heal_corrupt(&self, path: &std::path::Path) {
        cmam_obs::counter!("engine.cache.corrupt_healed").add(1);
        cmam_obs::warn!(
            "corrupt cache artifact {}: deleted for recompute",
            path.display()
        );
        let _ = std::fs::remove_file(path);
    }

    /// Persists the batched-simulation artifact for `key`, with the same
    /// best-effort write-then-rename discipline as [`DiskCache::store`].
    pub fn store_batch(&self, key: u64, outcome: &BatchSimOutcome) {
        let Some(path) = self.batch_path_for(key) else {
            return;
        };
        self.store_bytes(key, path, serialize_batch_outcome(outcome));
    }

    /// Persists the artifact for `key`. Best-effort: write errors are
    /// swallowed (the in-memory cache still holds the result). Panic
    /// quarantines are never persisted — a possibly-environmental
    /// failure must not outlive the process that suffered it.
    pub fn store(&self, key: u64, result: &JobResult) {
        if matches!(result, Err(f) if f.stage == FailStage::Panic) {
            return;
        }
        let Some(path) = self.path_for(key) else {
            return;
        };
        self.store_bytes(key, path, serialize_result(result));
    }

    fn store_bytes(&self, key: u64, path: PathBuf, bytes: Vec<u8>) {
        let Some(dir) = path.parent() else { return };
        if cmam_fault::fires("cache.write", key) {
            // Injected write error (disk full before the temp file even
            // lands): the store is skipped wholesale.
            return;
        }
        // Write-then-rename so concurrent engines never observe a torn
        // artifact; the counter keeps temp names unique within a process.
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.counter.fetch_add(1, Ordering::Relaxed)
        ));
        let nbytes = bytes.len() as u64;
        if std::fs::write(&tmp, &bytes).is_err() {
            // A partial write (disk full) must not leave orphan temp
            // files behind.
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if cmam_fault::fires("cache.kill", key) {
            // Injected SIGKILL between write and rename: the temp file
            // is deliberately left behind for the open-time sweep.
            return;
        }
        if cmam_fault::fires("cache.rename", key) || std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        // Everything in the store is evictable by definition (any entry
        // can be deleted and recomputed); the gauge tracks the bytes this
        // process has contributed.
        cmam_obs::counter!("engine.disk_writes").add(1);
        cmam_obs::counter!("engine.disk_bytes_written").add(nbytes);
        let total = self.bytes_written.fetch_add(nbytes, Ordering::Relaxed) + nbytes;
        cmam_obs::gauge!("engine.disk_evictable_bytes").raise(total as i64);
        self.enforce_budget(nbytes, &path);
    }

    /// Applies the byte budget after a successful write of `nbytes` to
    /// `just_written`. Cheap path: bump the approximate directory size
    /// and return while it stays under budget. Over budget: scan the
    /// directory, delete artifacts oldest-first (modification time, file
    /// name as the tie-break — deterministic on filesystems with coarse
    /// mtimes) until the store fits, never deleting the entry that was
    /// just written.
    fn enforce_budget(&self, nbytes: u64, just_written: &std::path::Path) {
        let Some(budget) = self.budget else { return };
        let Some(dir) = self.dir.as_ref() else { return };
        let mut approx = self
            .approx_bytes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if *approx != u64::MAX {
            *approx = approx.saturating_add(nbytes);
            if *approx <= budget {
                return;
            }
        }
        // Scan: every regular file in the store counts against the
        // budget, including temp files orphaned by a crashed process.
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                if !meta.is_file() {
                    return None;
                }
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        files.sort();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        for (_, path, len) in &files {
            if total <= budget {
                break;
            }
            if path == just_written {
                continue;
            }
            if std::fs::remove_file(path).is_ok() {
                total -= len;
                cmam_obs::counter!("engine.cache_evictions").add(1);
                cmam_obs::counter!("engine.cache_evicted_bytes").add(*len);
            }
        }
        *approx = total;
    }
}

/// Removes stale `.tmp-*` files at open. Temp names are
/// `.tmp-{pid}-{counter}`; a file is stale when its name does not parse,
/// when it was written by this very pid (anything predating this open is
/// garbage by construction — in-flight stores racing an open lose their
/// best-effort store, never their correctness), or when its writer pid
/// is provably dead (`/proc/{pid}` absent). For other-pid files on
/// systems without `/proc`, age is the tie-break: an hour-old temp file
/// has no live writer (the write→rename window is milliseconds).
fn sweep_orphans(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let own_pid = std::process::id();
    let mut swept = 0u64;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(".tmp-")) else {
            continue;
        };
        let writer_pid = rest.split('-').next().and_then(|p| p.parse::<u32>().ok());
        let stale = match writer_pid {
            None => true,
            Some(pid) if pid == own_pid => true,
            Some(pid) => {
                let proc_root = std::path::Path::new("/proc");
                if proc_root.is_dir() {
                    !proc_root.join(pid.to_string()).is_dir()
                } else {
                    entry
                        .metadata()
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|mtime| mtime.elapsed().ok())
                        .is_some_and(|age| age > Duration::from_secs(3600))
                }
            }
        };
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    if swept > 0 {
        cmam_obs::counter!("engine.cache.orphans_swept").add(swept);
        cmam_obs::warn!("swept {swept} orphan temp file(s) from {}", dir.display());
    }
}

/// Little-endian byte writer behind [`serialize_result`].
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Sequence lengths are `u32`: artifacts are per-kernel, nothing in
    /// them approaches 4 billion elements.
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("artifact sequence fits u32"));
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn duration(&mut self, d: Duration) {
        self.u64(d.as_secs());
        self.u32(d.subsec_nanos());
    }
}

/// Checked little-endian reader behind [`parse_result`]; every accessor
/// returns `None` past the end, so truncation surfaces as a miss.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i32(&mut self) -> Option<i32> {
        Some(i32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn len(&mut self) -> Option<usize> {
        Some(self.u32()? as usize)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.len()?;
        Some(std::str::from_utf8(self.take(n)?).ok()?.to_owned())
    }

    fn duration(&mut self) -> Option<Duration> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        (nanos < 1_000_000_000).then(|| Duration::new(secs, nanos))
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn write_instr(w: &mut Writer, i: &Instr) {
    match i {
        Instr::Pnop { cycles } => {
            w.u8(0);
            w.u32(*cycles);
        }
        Instr::Exec { opcode, dst, srcs } => {
            w.u8(1);
            let idx = Opcode::ALL
                .iter()
                .position(|o| o == opcode)
                .expect("every opcode is in Opcode::ALL");
            w.u8(idx as u8);
            match dst {
                Some(d) => {
                    w.u8(1);
                    w.u8(*d);
                }
                None => w.u8(0),
            }
            w.len(srcs.len());
            for s in srcs {
                match s {
                    Operand::Crf(i) => {
                        w.u8(0);
                        w.u8(*i);
                    }
                    Operand::Reg(i) => {
                        w.u8(1);
                        w.u8(*i);
                    }
                    Operand::Neighbor(d, i) => {
                        w.u8(2);
                        w.u8(match d {
                            Direction::North => 0,
                            Direction::East => 1,
                            Direction::South => 2,
                            Direction::West => 3,
                        });
                        w.u8(*i);
                    }
                }
            }
        }
    }
}

fn read_instr(r: &mut Reader<'_>) -> Option<Instr> {
    match r.u8()? {
        0 => Some(Instr::Pnop { cycles: r.u32()? }),
        1 => {
            let opcode = *Opcode::ALL.get(r.u8()? as usize)?;
            let dst = match r.u8()? {
                0 => None,
                1 => Some(r.u8()?),
                _ => return None,
            };
            let nsrcs = r.len()?;
            let mut srcs = Vec::with_capacity(nsrcs.min(8));
            for _ in 0..nsrcs {
                srcs.push(match r.u8()? {
                    0 => Operand::Crf(r.u8()?),
                    1 => Operand::Reg(r.u8()?),
                    2 => {
                        let d = match r.u8()? {
                            0 => Direction::North,
                            1 => Direction::East,
                            2 => Direction::South,
                            3 => Direction::West,
                            _ => return None,
                        };
                        Operand::Neighbor(d, r.u8()?)
                    }
                    _ => return None,
                });
            }
            Some(Instr::Exec { opcode, dst, srcs })
        }
        _ => None,
    }
}

/// Renders a job result as the on-disk binary artifact.
pub fn serialize_result(result: &JobResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u32(FORMAT_VERSION);
    match result {
        Err(f) => {
            w.u8(0);
            w.u8(match f.stage {
                FailStage::Map => 0,
                FailStage::Assemble => 1,
                FailStage::Execution => 2,
                // Serialized for completeness; `DiskCache::store` never
                // persists panic quarantines.
                FailStage::Panic => 3,
            });
            w.duration(f.compile_time);
            w.str(&f.message);
            w.u8(u8::from(f.retriable));
            w.u32(f.attempts);
        }
        Ok(o) => {
            w.u8(1);
            w.duration(o.compile_time);
            w.duration(o.assemble_time);
            w.duration(o.sim_time);
            w.u64(o.cycles);
            w.u64(o.sim.cycles);
            w.u64(o.sim.stall_cycles);
            // Dense per-block execution counts, in block order.
            w.len(o.sim.block_execs.len());
            for &n in &o.sim.block_execs {
                w.u64(n);
            }
            w.len(o.sim.tiles.len());
            for t in &o.sim.tiles {
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
                    w.u64(v);
                }
            }
            w.len(o.report.per_tile.len());
            for &(a, m, p) in &o.report.per_tile {
                w.usize(a);
                w.usize(m);
                w.usize(p);
            }
            for needs in [&o.report.registers, &o.report.constants] {
                w.len(needs.len());
                for &n in needs {
                    w.usize(n);
                }
            }
            for s in [
                o.map_stats.candidates,
                o.map_stats.attempts,
                o.map_stats.acmap_pruned,
                o.map_stats.ecmap_pruned,
                o.map_stats.stochastic_pruned,
                o.map_stats.finalize_failures,
                o.map_stats.escalations,
                o.map_stats.peak_population,
                o.map_stats.rollbacks,
            ] {
                w.u64(s);
            }
            w.str(&o.binary.name);
            w.u32(o.binary.entry);
            w.len(o.binary.block_lengths.len());
            for &l in &o.binary.block_lengths {
                w.usize(l);
            }
            w.len(o.binary.terminators.len());
            for t in &o.binary.terminators {
                match t {
                    BinTerminator::Jump(b) => {
                        w.u8(0);
                        w.u32(*b);
                    }
                    BinTerminator::Branch { taken, fallthrough } => {
                        w.u8(1);
                        w.u32(*taken);
                        w.u32(*fallthrough);
                    }
                    BinTerminator::Return => w.u8(2),
                }
            }
            w.len(o.binary.crf.len());
            for crf in &o.binary.crf {
                w.len(crf.len());
                for &c in crf {
                    w.i32(c);
                }
            }
            w.len(o.binary.tiles.len());
            for tile in &o.binary.tiles {
                w.len(tile.blocks.len());
                for block in &tile.blocks {
                    w.len(block.len());
                    for i in block {
                        write_instr(&mut w, i);
                    }
                }
            }
        }
    }
    seal(w.buf)
}

/// Parses an on-disk artifact back into a job result. `None` on any
/// malformed, truncated, checksum-failing or version-mismatched input
/// (treated as a cache miss).
pub fn parse_result(bytes: &[u8]) -> Option<JobResult> {
    let payload = verify_seal(bytes)?;
    let mut r = Reader::new(payload);
    if r.take(MAGIC.len())? != MAGIC || r.u32()? != FORMAT_VERSION {
        return None;
    }
    let result = match r.u8()? {
        0 => {
            let stage = match r.u8()? {
                0 => FailStage::Map,
                1 => FailStage::Assemble,
                2 => FailStage::Execution,
                3 => FailStage::Panic,
                _ => return None,
            };
            let compile_time = r.duration()?;
            let message = r.str()?;
            let retriable = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let attempts = r.u32()?;
            Err(JobFailure {
                stage,
                message,
                compile_time,
                retriable,
                attempts,
            })
        }
        1 => {
            let compile_time = r.duration()?;
            let assemble_time = r.duration()?;
            let sim_time = r.duration()?;
            let cycles = r.u64()?;
            let sim_cycles = r.u64()?;
            let stall_cycles = r.u64()?;
            let nblocks = r.len()?;
            let mut block_execs = Vec::with_capacity(nblocks.min(1024));
            for _ in 0..nblocks {
                block_execs.push(r.u64()?);
            }
            let ntiles = r.len()?;
            let mut tiles = Vec::with_capacity(ntiles.min(1024));
            for _ in 0..ntiles {
                tiles.push(TileStats {
                    active_cycles: r.u64()?,
                    idle_cycles: r.u64()?,
                    cm_fetches: r.u64()?,
                    alu_ops: r.u64()?,
                    moves: r.u64()?,
                    loads: r.u64()?,
                    stores: r.u64()?,
                    rf_reads: r.u64()?,
                    neighbor_reads: r.u64()?,
                    crf_reads: r.u64()?,
                    rf_writes: r.u64()?,
                });
            }
            let sim = SimStats {
                cycles: sim_cycles,
                stall_cycles,
                block_execs,
                tiles,
            };
            let nreport = r.len()?;
            let mut per_tile = Vec::with_capacity(nreport.min(1024));
            for _ in 0..nreport {
                per_tile.push((r.usize()?, r.usize()?, r.usize()?));
            }
            let mut needs = || -> Option<Vec<usize>> {
                let n = r.len()?;
                let mut v = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    v.push(r.usize()?);
                }
                Some(v)
            };
            let report = AsmReport {
                per_tile,
                registers: needs()?,
                constants: needs()?,
            };
            let map_stats = cmam_core::MapStats {
                candidates: r.u64()?,
                attempts: r.u64()?,
                acmap_pruned: r.u64()?,
                ecmap_pruned: r.u64()?,
                stochastic_pruned: r.u64()?,
                finalize_failures: r.u64()?,
                escalations: r.u64()?,
                peak_population: r.u64()?,
                rollbacks: r.u64()?,
            };
            let name = r.str()?;
            let entry = r.u32()?;
            let nlengths = r.len()?;
            let mut block_lengths = Vec::with_capacity(nlengths.min(1024));
            for _ in 0..nlengths {
                block_lengths.push(r.usize()?);
            }
            let nterms = r.len()?;
            let mut terminators = Vec::with_capacity(nterms.min(1024));
            for _ in 0..nterms {
                terminators.push(match r.u8()? {
                    0 => BinTerminator::Jump(r.u32()?),
                    1 => BinTerminator::Branch {
                        taken: r.u32()?,
                        fallthrough: r.u32()?,
                    },
                    2 => BinTerminator::Return,
                    _ => return None,
                });
            }
            let ncrf = r.len()?;
            let mut crf = Vec::with_capacity(ncrf.min(1024));
            for _ in 0..ncrf {
                let nwords = r.len()?;
                let mut words = Vec::with_capacity(nwords.min(1024));
                for _ in 0..nwords {
                    words.push(r.i32()?);
                }
                crf.push(words);
            }
            let nprogs = r.len()?;
            let mut prog_tiles = Vec::with_capacity(nprogs.min(1024));
            for _ in 0..nprogs {
                let nblocks = r.len()?;
                let mut blocks = Vec::with_capacity(nblocks.min(1024));
                for _ in 0..nblocks {
                    let ninstr = r.len()?;
                    let mut words = Vec::with_capacity(ninstr.min(1024));
                    for _ in 0..ninstr {
                        words.push(read_instr(&mut r)?);
                    }
                    blocks.push(words);
                }
                prog_tiles.push(TileProgram { blocks });
            }
            let binary = CgraBinary {
                name,
                tiles: prog_tiles,
                crf,
                block_lengths,
                terminators,
                entry,
            };
            Ok(RunOutcome {
                cycles,
                sim,
                report,
                binary,
                compile_time,
                assemble_time,
                sim_time,
                map_stats,
            })
        }
        _ => return None,
    };
    // Trailing garbage means the file is not an artifact this version
    // wrote; treat it as corrupt rather than silently ignoring bytes.
    r.at_end().then_some(result)
}

fn write_stats(w: &mut Writer, s: &SimStats) {
    w.u64(s.cycles);
    w.u64(s.stall_cycles);
    w.len(s.block_execs.len());
    for &n in &s.block_execs {
        w.u64(n);
    }
    w.len(s.tiles.len());
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
            w.u64(v);
        }
    }
}

fn read_stats(r: &mut Reader<'_>) -> Option<SimStats> {
    let cycles = r.u64()?;
    let stall_cycles = r.u64()?;
    let nblocks = r.len()?;
    let mut block_execs = Vec::with_capacity(nblocks.min(1024));
    for _ in 0..nblocks {
        block_execs.push(r.u64()?);
    }
    let ntiles = r.len()?;
    let mut tiles = Vec::with_capacity(ntiles.min(1024));
    for _ in 0..ntiles {
        tiles.push(TileStats {
            active_cycles: r.u64()?,
            idle_cycles: r.u64()?,
            cm_fetches: r.u64()?,
            alu_ops: r.u64()?,
            moves: r.u64()?,
            loads: r.u64()?,
            stores: r.u64()?,
            rf_reads: r.u64()?,
            neighbor_reads: r.u64()?,
            crf_reads: r.u64()?,
            rf_writes: r.u64()?,
        });
    }
    Some(SimStats {
        cycles,
        stall_cycles,
        block_execs,
        tiles,
    })
}

/// Renders a batched-simulation outcome as the on-disk `.bsim` artifact.
pub fn serialize_batch_outcome(o: &BatchSimOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(BATCH_MAGIC);
    w.u32(FORMAT_VERSION);
    w.duration(o.decode_time);
    w.duration(o.sim_time);
    w.u64(o.agg_cycles);
    w.len(o.lanes.len());
    for lane in &o.lanes {
        match lane {
            Err(e) => {
                w.u8(0);
                w.str(e);
            }
            Ok(s) => {
                w.u8(1);
                write_stats(&mut w, s);
            }
        }
    }
    w.len(o.mem_digests.len());
    for &d in &o.mem_digests {
        w.u64(d);
    }
    seal(w.buf)
}

/// Parses a `.bsim` artifact. `None` on any malformed, truncated,
/// checksum-failing or version-mismatched input (treated as a cache
/// miss).
pub fn parse_batch_outcome(bytes: &[u8]) -> Option<BatchSimOutcome> {
    let payload = verify_seal(bytes)?;
    let mut r = Reader::new(payload);
    if r.take(BATCH_MAGIC.len())? != BATCH_MAGIC || r.u32()? != FORMAT_VERSION {
        return None;
    }
    let decode_time = r.duration()?;
    let sim_time = r.duration()?;
    let agg_cycles = r.u64()?;
    let nlanes = r.len()?;
    let mut lanes = Vec::with_capacity(nlanes.min(65_536));
    for _ in 0..nlanes {
        lanes.push(match r.u8()? {
            0 => Err(r.str()?),
            1 => Ok(read_stats(&mut r)?),
            _ => return None,
        });
    }
    let ndigests = r.len()?;
    let mut mem_digests = Vec::with_capacity(ndigests.min(65_536));
    for _ in 0..ndigests {
        mem_digests.push(r.u64()?);
    }
    let outcome = BatchSimOutcome {
        lanes,
        mem_digests,
        agg_cycles,
        decode_time,
        sim_time,
    };
    r.at_end().then_some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{execute, JobRequest};
    use cmam_arch::CgraConfig;
    use cmam_core::FlowVariant;

    #[test]
    fn outcome_round_trips_through_binary() {
        let spec = cmam_kernels::fir::spec();
        let config = CgraConfig::hom64();
        let req = JobRequest::flow(&spec, FlowVariant::Basic, &config);
        let result = execute(&req);
        let out = result.as_ref().expect("FIR maps on HOM64");
        let parsed = parse_result(&serialize_result(&result)).expect("parses");
        let back = parsed.expect("still ok");
        assert_eq!(back.cycles, out.cycles);
        assert_eq!(back.sim, out.sim);
        assert_eq!(back.report, out.report);
        assert_eq!(back.binary, out.binary);
        assert_eq!(back.compile_time, out.compile_time);
        assert_eq!(back.assemble_time, out.assemble_time);
        assert_eq!(back.sim_time, out.sim_time);
        assert_eq!(back.content_digest(), out.content_digest());
    }

    #[test]
    fn failure_round_trips_through_binary() {
        let f = JobFailure::pipeline(
            FailStage::Assemble,
            "tile T3 needs 99 words\nbut has 16".into(),
            Duration::from_nanos(123_456_789),
        );
        let parsed = parse_result(&serialize_result(&Err(f.clone()))).expect("parses");
        let back = parsed.expect_err("still err");
        assert_eq!(back.stage, f.stage);
        assert_eq!(back.message, f.message);
        assert_eq!(back.compile_time, f.compile_time);
        assert_eq!(back.retriable, f.retriable);
        assert_eq!(back.attempts, f.attempts);
    }

    #[test]
    fn corrupt_or_versioned_input_is_a_miss() {
        // Empty, foreign and pre-v3 text artifacts are clean misses.
        assert!(parse_result(b"").is_none());
        assert!(parse_result(b"cmam-run v2\nok\ncompile_ns 12\n").is_none());
        assert!(parse_result(b"cmamrunbXXXX").is_none());
        // A version bump invalidates the artifact even with valid magic.
        let f = JobFailure::pipeline(FailStage::Map, "x".into(), Duration::ZERO);
        let mut bytes = serialize_result(&Err(f));
        assert!(parse_result(&bytes).is_some());
        let bumped = (FORMAT_VERSION + 1).to_le_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&bumped);
        // The in-place edit trips the checksum...
        assert!(parse_result(&bytes).is_none());
        // ...and even a re-sealed (checksum-valid) wrong version is a miss.
        bytes.truncate(bytes.len() - 8);
        let resealed = seal(bytes);
        assert!(parse_result(&resealed).is_none());
    }

    #[test]
    fn truncated_and_padded_artifacts_are_misses() {
        let spec = cmam_kernels::dc::spec();
        let config = CgraConfig::hom64();
        let req = JobRequest::flow(&spec, FlowVariant::Basic, &config);
        let bytes = serialize_result(&execute(&req));
        assert!(parse_result(&bytes).is_some());
        // Every strict prefix is a miss (no partial parse can succeed).
        for cut in [bytes.len() - 1, bytes.len() / 2, MAGIC.len() + 4, 3] {
            assert!(parse_result(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        // Trailing garbage is a miss, not silently ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(parse_result(&padded).is_none());
    }

    #[test]
    fn instr_binary_round_trips() {
        let instrs = [
            Instr::Pnop { cycles: 17 },
            Instr::Exec {
                opcode: Opcode::Add,
                dst: Some(3),
                srcs: vec![Operand::Reg(1), Operand::Crf(2)],
            },
            Instr::Exec {
                opcode: Opcode::Store,
                dst: None,
                srcs: vec![
                    Operand::Neighbor(Direction::West, 4),
                    Operand::Neighbor(Direction::North, 0),
                ],
            },
        ];
        for i in &instrs {
            let mut w = Writer::new();
            write_instr(&mut w, i);
            let mut r = Reader::new(&w.buf);
            assert_eq!(read_instr(&mut r).as_ref(), Some(i));
            assert!(r.at_end());
        }
    }

    #[test]
    fn batch_outcome_round_trips_through_binary() {
        let outcome = BatchSimOutcome {
            lanes: vec![
                Ok(SimStats {
                    cycles: 123,
                    stall_cycles: 4,
                    block_execs: vec![1, 7, 0],
                    tiles: vec![TileStats {
                        active_cycles: 9,
                        ..TileStats::default()
                    }],
                }),
                Err("address -3 out of bounds".into()),
            ],
            mem_digests: vec![0xDEAD, 0xBEEF],
            agg_cycles: 123,
            decode_time: Duration::from_nanos(5_000),
            sim_time: Duration::from_nanos(987_654_321),
        };
        let bytes = serialize_batch_outcome(&outcome);
        let back = parse_batch_outcome(&bytes).expect("parses");
        assert_eq!(back, outcome);
        assert_eq!(back.content_digest(), outcome.content_digest());
        // Truncations and a run-artifact magic are clean misses.
        for cut in [bytes.len() - 1, bytes.len() / 2, 4] {
            assert!(parse_batch_outcome(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        assert!(parse_batch_outcome(b"cmamrunb").is_none());
    }

    #[test]
    fn disk_cache_survives_a_missing_dir_gracefully() {
        let cache = DiskCache::new(None, None);
        assert!(!cache.enabled());
        assert!(cache.load(42).is_none());
        cache.store(
            42,
            &Err(JobFailure::pipeline(
                FailStage::Map,
                "x".into(),
                Duration::ZERO,
            )),
        );
    }

    fn sweep_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cmam-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn open_sweeps_stale_tmp_orphans_and_keeps_live_files() {
        let dir = sweep_dir("sweep");
        // Stale: unparseable name, provably-dead pid (above Linux's
        // PID_MAX_LIMIT), and this process's own leftovers (anything
        // predating the open is garbage by construction).
        std::fs::write(dir.join(".tmp-garbage"), b"x").unwrap();
        std::fs::write(dir.join(".tmp-4294967294-0"), b"x").unwrap();
        std::fs::write(dir.join(format!(".tmp-{}-7", std::process::id())), b"x").unwrap();
        // Live: pid 1 always exists under /proc, and real artifacts are
        // never touched by the sweep (however corrupt).
        std::fs::write(dir.join(".tmp-1-0"), b"x").unwrap();
        std::fs::write(dir.join("0123456789abcdef.run"), b"not an artifact").unwrap();
        let _cache = DiskCache::new(Some(dir.clone()), None);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut want = vec!["0123456789abcdef.run".to_string()];
        if std::path::Path::new("/proc").is_dir() {
            // Without /proc the liveness probe falls back to age, and a
            // freshly written file is young enough to keep either way.
            want.insert(0, ".tmp-1-0".to_string());
        } else {
            names.retain(|n| n != ".tmp-1-0");
        }
        assert_eq!(names, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_on_disk_is_deleted_then_rewritten() {
        let dir = sweep_dir("heal");
        let cache = DiskCache::new(Some(dir.clone()), None);
        let result: JobResult = Err(JobFailure::pipeline(
            FailStage::Map,
            "x".into(),
            Duration::ZERO,
        ));
        cache.store(7, &result);
        let path = dir.join(format!("{:016x}.run", 7u64));
        assert!(cache.load(7).is_some());
        // Flip one payload byte on disk: the checksum makes it a miss,
        // and the miss deletes the file so a recompute heals it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len() + 6] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(7).is_none(), "corrupt artifact must be a miss");
        assert!(!path.exists(), "corrupt artifact must be deleted");
        cache.store(7, &result);
        assert!(cache.load(7).is_some(), "the rewrite is the heal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_quarantines_are_never_persisted() {
        let dir = sweep_dir("panic");
        let cache = DiskCache::new(Some(dir.clone()), None);
        cache.store(9, &Err(JobFailure::panicked("boom".into(), 4)));
        assert!(cache.load(9).is_none());
        assert!(!dir.join(format!("{:016x}.run", 9u64)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
