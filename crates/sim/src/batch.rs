//! Batched simulation: one decoded program, many input memories.
//!
//! [`DecodedProgram::simulate_batch`] runs N independent input images
//! ("lanes") through one [`DecodedProgram`] so the per-cycle micro-op
//! walk — block dispatch, op-range lookup, idle-window skipping, slot
//! decode — executes **once per cohort** instead of once per lane, and
//! the data-dependent work (operand gathers, ALU evaluation, TCDM
//! traffic, RF commits) becomes tight inner loops over the lanes of the
//! cohort.
//!
//! Lanes never interact: each has its own memory image, register file,
//! branch flag and cycle/stall counters, laid out structure-of-arrays
//! (word-major `rf[word * nlanes + lane]` so a cohort's reads of one RF
//! word walk contiguous memory, dense per-lane counter vectors).
//! Control flow may diverge — branch flags are data-dependent — so lanes
//! execute in **cohorts keyed by basic block**: every lane waiting to
//! enter block `b` is merged into one cohort, the cohort runs the
//! block's shared cycle schedule in lock-step (bank stalls only bend a
//! lane's *counters*, never its schedule position), and the terminator
//! splits it. Split halves park on their successor blocks' waiting
//! lists, where they re-merge with any lanes already headed there — a
//! loop whose trip count varies by lane sheds its finished lanes each
//! iteration while the rest keep executing as one cohort.
//!
//! Lanes retire independently: `Return` retires a lane with `Ok(stats)`,
//! an out-of-bounds access or an exhausted cycle budget retires it with
//! the same `Err` — at the same point, with the same partially-updated
//! memory — as a solo run, and the remaining lanes continue unaffected.
//! Every lane's [`SimStats`] and final memory image is bit-identical to
//! [`DecodedProgram::simulate`] on the same input (golden- and
//! property-tested).

use crate::decode::{Arg, DecodedProgram, Slot, SlotKind, NO_DST};
use crate::machine::{SimError, SimOptions};
use crate::stats::{SimStats, TileStats};
use cmam_cdfg::Opcode;
use cmam_isa::program::BinTerminator;

/// Per-lane state of a batched run: the input memory image on the way
/// in, the final (possibly partially-updated on error) image on the way
/// out — exactly the `&mut [i32]` contract of a solo
/// [`DecodedProgram::simulate`] call, one per lane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneState {
    /// The lane's TCDM image. Lanes may have different sizes; every
    /// access is bounds-checked against its own lane's image.
    pub mem: Vec<i32>,
}

impl LaneState {
    /// Wraps an input memory image as one lane.
    pub fn new(mem: Vec<i32>) -> Self {
        LaneState { mem }
    }
}

/// Why a lane left its cohort mid-block. Kept separate from the result
/// slot so the hot loop writes a byte, not an enum with payloads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Exit {
    Running,
    Retired,
}

/// Batch-local accumulator for the `sim.batch.*` metrics; flushed to the
/// registry once per [`DecodedProgram::simulate_batch`] call so the hot
/// loop touches no atomics.
#[derive(Default)]
struct BatchMetrics {
    cohorts: u64,
    cohort_lanes: u64,
    divergences: u64,
    retired_ok: u64,
    retired_err: u64,
    agg_cycles: u64,
}

impl DecodedProgram {
    /// Simulates every lane of `lanes` through this program, as if by
    /// one [`DecodedProgram::simulate`] call per lane — same
    /// [`SimStats`], same final memory, same errors, bit for bit — but
    /// sharing the per-cycle schedule walk across all lanes currently in
    /// the same basic block.
    ///
    /// Returns one result per lane, in lane order. A failing lane
    /// (out-of-bounds access, exhausted budget) retires alone; the other
    /// lanes are unaffected.
    pub fn simulate_batch(
        &self,
        lanes: &mut [LaneState],
        options: SimOptions,
    ) -> Vec<Result<SimStats, SimError>> {
        let _span = cmam_obs::span!("simulate_batch", lanes = lanes.len() as u64);
        let options = options.normalized();
        let nlanes = lanes.len();
        let nblocks = self.block_lengths.len();
        if nlanes == 0 {
            return Vec::new();
        }

        // Structure-of-arrays lane state: word-major `[word][lane]`
        // register files (a row loop over the cohort reads one RF word
        // across all lanes — contiguous, not one cache line per lane),
        // dense per-lane counters and flags.
        let mut rf = vec![0i32; nlanes * self.rf_words];
        let mut cycles = vec![0u64; nlanes];
        let mut stalls = vec![0u64; nlanes];
        let mut block_execs = vec![0u64; nlanes * nblocks];
        let mut br = vec![false; nlanes];
        let mut results: Vec<Option<Result<SimStats, SimError>>> = vec![None; nlanes];

        // Cohort scheduler: every lane waiting to enter block `b` sits in
        // `waiting[b]`; `ready` holds the blocks with non-empty waiting
        // lists (dedup'd by `queued`). Lanes are independent, so the pop
        // order cannot affect any lane's outcome — only how well cohorts
        // merge.
        let mut waiting: Vec<Vec<u32>> = vec![Vec::new(); nblocks];
        let mut ready: Vec<u32> = Vec::new();
        let mut queued = vec![false; nblocks];
        waiting[self.entry] = (0..nlanes as u32).collect();
        ready.push(self.entry as u32);
        queued[self.entry] = true;

        // Cohort-run scratch, allocated once per call at the worst-case
        // extent (a cycle row holds at most one op per tile, so at most
        // `ntiles` queued writes / memory ops). `write_vals` and
        // `mem_addr`/`mem_val` are `[slot][lane-in-cohort]` matrices of
        // the current cycle; their row layout is static per cycle row,
        // and rows are never zeroed — every committed position is
        // written first (phase 1 rows fully, load rows per surviving
        // lane, with retired lanes masked out of the commit).
        let mut cohort: Vec<u32> = Vec::with_capacity(nlanes);
        let mut exit: Vec<Exit> = Vec::with_capacity(nlanes);
        let mut write_dst: Vec<u32> = Vec::new();
        let mut write_vals: Vec<i32> = vec![0; self.ntiles * nlanes];
        // Per memory op of the cycle: the queued-write index a load
        // commits through (`NO_DST` for stores).
        let mut mem_wi: Vec<u32> = Vec::new();
        let mut mem_addr: Vec<i32> = vec![0; self.ntiles * nlanes];
        let mut mem_val: Vec<i32> = vec![0; self.ntiles * nlanes];
        // Bank indices of the current lane's accesses this cycle
        // (written left to right, never cleared). A cycle's stall is
        // `Σ_banks (load - 1)` = the number of accesses whose bank was
        // already hit earlier in the cycle, so a left-scan for a
        // duplicate replaces the per-lane bank histogram.
        let mut lane_banks: Vec<usize> = vec![0; self.ntiles];
        let nbanks = options.mem_banks;
        let bank_mask = if nbanks.is_power_of_two() {
            Some(nbanks - 1)
        } else {
            None
        };
        // Per-lane value rows of the cycle being evaluated (single-op
        // memory addresses and store values) — computed by the tight
        // row loops, then scattered.
        let mut tmp: Vec<i32> = vec![0; nlanes];
        let mut tmp2: Vec<i32> = vec![0; nlanes];
        // Per-lane memory images as a flat slice table, so the TCDM
        // loops index `(ptr, len)` pairs directly instead of chasing a
        // `Vec` header through `lanes[l].mem` on every access.
        let mut mems: Vec<&mut [i32]> = lanes.iter_mut().map(|l| l.mem.as_mut_slice()).collect();
        // An address below this is in-bounds for *every* lane — the
        // threshold of the op-major in-bounds prescan (lanes normally
        // share one image size, so it is rarely conservative).
        let min_mem_len = mems.iter().map(|m| m.len()).min().unwrap_or(0);

        let ops = &self.ops[..];
        let op_ends = &self.op_ends[..];
        let idle_skip = &self.idle_skip[..];
        let max_cycles = options.max_cycles;
        let mut m = BatchMetrics::default();

        // Worst-case cycle charge of one run of each block: every
        // schedule cycle charges 1 (idle runs included), and a cycle
        // with `k` memory accesses can stall at most `k - 1` more. When
        // the deepest lane of a cohort still has that much budget
        // headroom, no lane can trip `MaxCycles` inside the block and
        // every per-cycle budget check is hoisted out of the run.
        let mut max_charge = vec![0u64; nblocks];
        for (b, charge) in max_charge.iter_mut().enumerate() {
            let length = self.block_lengths[b];
            let cbase = self.block_cycle_base[b];
            let mut s = if cbase == 0 {
                0
            } else {
                op_ends[cbase - 1] as usize
            };
            *charge = length as u64;
            for c in 0..length {
                let e = op_ends[cbase + c] as usize;
                let nmem = ops[s..e]
                    .iter()
                    .filter(|sl| matches!(sl.kind, SlotKind::Load | SlotKind::Store))
                    .count() as u64;
                *charge += nmem.saturating_sub(1);
                s = e;
            }
        }

        while let Some(block) = ready.pop() {
            let block = block as usize;
            queued[block] = false;
            cohort.clear();
            cohort.append(&mut waiting[block]);
            m.cohorts += 1;
            m.cohort_lanes += cohort.len() as u64;

            // Entering the block: count the execution, reset the branch
            // flag — per lane, exactly as the solo loop does.
            for &l in &cohort {
                block_execs[l as usize * nblocks + block] += 1;
                br[l as usize] = false;
            }
            exit.clear();
            exit.resize(cohort.len(), Exit::Running);

            let length = self.block_lengths[block];
            let cbase = self.block_cycle_base[block];
            let mut start = if cbase == 0 {
                0
            } else {
                op_ends[cbase - 1] as usize
            };
            // When even the deepest lane cannot exhaust its budget in
            // this run, the per-cycle charges collapse to one uniform
            // `+= length` after the loop (stalls still accrue per lane).
            let entry_max = cohort
                .iter()
                .map(|&l| cycles[l as usize])
                .max()
                .unwrap_or(0);
            let fast_budget = entry_max.saturating_add(max_charge[block]) <= max_cycles;
            let mut cycle = 0usize;
            let mut need_compact = false;
            while cycle < length {
                if need_compact {
                    compact(&mut cohort, &mut exit);
                    need_compact = false;
                    if cohort.is_empty() {
                        break;
                    }
                }
                let g = cbase + cycle;
                let end = op_ends[g] as usize;
                if start == end {
                    // Fully idle window: one schedule step covers the
                    // whole pnop run for every lane.
                    let run = idle_skip[g] as u64;
                    if !fast_budget {
                        for (pos, &l) in cohort.iter().enumerate() {
                            let l = l as usize;
                            cycles[l] += run;
                            if cycles[l] > max_cycles {
                                results[l] = Some(Err(SimError::MaxCycles(max_cycles)));
                                exit[pos] = Exit::Retired;
                                need_compact = true;
                            }
                        }
                    }
                    cycle += run as usize;
                    continue;
                }
                if !fast_budget {
                    // Active cycle: charge it and apply the budget before
                    // any effect, as the solo loop does. Violators leave
                    // *now* (compacted in place, not at the loop top —
                    // the cycle must not be re-charged to the survivors).
                    for (pos, &l) in cohort.iter().enumerate() {
                        let l = l as usize;
                        cycles[l] += 1;
                        if cycles[l] > max_cycles {
                            results[l] = Some(Err(SimError::MaxCycles(max_cycles)));
                            exit[pos] = Exit::Retired;
                            need_compact = true;
                        }
                    }
                    if need_compact {
                        compact(&mut cohort, &mut exit);
                        need_compact = false;
                        if cohort.is_empty() {
                            break;
                        }
                    }
                }
                let ncoh = cohort.len();
                let row = &ops[start..end];
                if row.len() == 1 {
                    // Single-op cycle: no same-cycle reader, no bank
                    // conflict — ALU/Mov results commit straight into
                    // the RF rows, memory ops stage addresses/values in
                    // the per-lane scratch rows.
                    let slot = &row[0];
                    match slot.kind {
                        SlotKind::Load => {
                            let addrs = &mut tmp[..ncoh];
                            row1(addrs, &cohort, &rf, nlanes, slot.args[0], |x| x);
                            for (pos, &l) in cohort.iter().enumerate() {
                                let l = l as usize;
                                let addr = addrs[pos];
                                let mem = &mut *mems[l];
                                // i32 -> usize sign-extends, so one
                                // unsigned compare covers negatives too.
                                if addr as usize >= mem.len() {
                                    results[l] = Some(Err(SimError::OutOfBounds {
                                        addr: addr as i64,
                                        size: mem.len(),
                                    }));
                                    exit[pos] = Exit::Retired;
                                    need_compact = true;
                                    continue;
                                }
                                rf[slot.dst as usize * nlanes + l] = mem[addr as usize];
                            }
                        }
                        SlotKind::Store => {
                            let addrs = &mut tmp[..ncoh];
                            row1(addrs, &cohort, &rf, nlanes, slot.args[0], |x| x);
                            let vals = &mut tmp2[..ncoh];
                            row1(vals, &cohort, &rf, nlanes, slot.args[1], |x| x);
                            for (pos, &l) in cohort.iter().enumerate() {
                                let l = l as usize;
                                let addr = addrs[pos];
                                let mem = &mut *mems[l];
                                // i32 -> usize sign-extends, so one
                                // unsigned compare covers negatives too.
                                if addr as usize >= mem.len() {
                                    results[l] = Some(Err(SimError::OutOfBounds {
                                        addr: addr as i64,
                                        size: mem.len(),
                                    }));
                                    exit[pos] = Exit::Retired;
                                    need_compact = true;
                                    continue;
                                }
                                mem[addr as usize] = vals[pos];
                            }
                        }
                        SlotKind::Br => {
                            br_row(&mut br, &cohort, &rf, nlanes, slot.args[0]);
                        }
                        SlotKind::Mov | SlotKind::Alu => {
                            if slot.dst != NO_DST {
                                alu_row_rf(&mut rf, &cohort, nlanes, slot);
                            }
                        }
                    }
                    start = end;
                    cycle += 1;
                    continue;
                }

                // Multi-op cycle. The queued-write layout of the row is
                // static: phase-1 writes (ALU/Mov) in slot order, then
                // one write per load in memory-op order — the same queue
                // order the solo loop commits in.
                write_dst.clear();
                mem_wi.clear();
                for slot in row {
                    match slot.kind {
                        SlotKind::Mov | SlotKind::Alu if slot.dst != NO_DST => {
                            write_dst.push(slot.dst)
                        }
                        _ => {}
                    }
                }
                for slot in row {
                    match slot.kind {
                        SlotKind::Load => {
                            mem_wi.push(write_dst.len() as u32);
                            write_dst.push(slot.dst);
                        }
                        SlotKind::Store => mem_wi.push(NO_DST),
                        _ => {}
                    }
                }
                let nwrites = write_dst.len();
                let nmem = mem_wi.len();
                debug_assert!(nwrites * ncoh <= write_vals.len());
                debug_assert!(nmem * ncoh <= mem_addr.len());

                // Phase 1, slot-major with a lane-inner loop: evaluate
                // against the start-of-cycle RF state. Opcode and
                // operand-pattern dispatch happen once per row (see
                // [`alu_row`]/[`row1`]); the lane loops are tight.
                let mut wi = 0usize;
                let mut mi = 0usize;
                for slot in row {
                    match slot.kind {
                        SlotKind::Load => {
                            let addrs = &mut mem_addr[mi * ncoh..(mi + 1) * ncoh];
                            row1(addrs, &cohort, &rf, nlanes, slot.args[0], |x| x);
                            mi += 1;
                        }
                        SlotKind::Store => {
                            let addrs = &mut mem_addr[mi * ncoh..(mi + 1) * ncoh];
                            row1(addrs, &cohort, &rf, nlanes, slot.args[0], |x| x);
                            let vals = &mut mem_val[mi * ncoh..(mi + 1) * ncoh];
                            row1(vals, &cohort, &rf, nlanes, slot.args[1], |x| x);
                            mi += 1;
                        }
                        SlotKind::Br => br_row(&mut br, &cohort, &rf, nlanes, slot.args[0]),
                        SlotKind::Mov | SlotKind::Alu => {
                            if slot.dst == NO_DST {
                                continue;
                            }
                            let vals = &mut write_vals[wi * ncoh..(wi + 1) * ncoh];
                            alu_row(vals, &cohort, &rf, nlanes, slot);
                            wi += 1;
                        }
                    }
                }

                // Phase 2, lane-major: TCDM accesses in memory-op order
                // with per-lane bank-conflict stalls. An out-of-bounds
                // access retires the lane mid-phase — earlier stores of
                // the same cycle stay committed and its queued RF writes
                // are discarded, exactly as the solo loop's early return
                // leaves them.
                if nmem == 1 {
                    // One access cannot conflict with itself: no bank
                    // accounting, no stall.
                    let wi0 = mem_wi[0];
                    for (pos, &l) in cohort.iter().enumerate() {
                        let l = l as usize;
                        let mem = &mut *mems[l];
                        let addr = mem_addr[pos];
                        if addr as usize >= mem.len() {
                            results[l] = Some(Err(SimError::OutOfBounds {
                                addr: addr as i64,
                                size: mem.len(),
                            }));
                            exit[pos] = Exit::Retired;
                            need_compact = true;
                            continue;
                        }
                        let i = addr as usize;
                        if wi0 == NO_DST {
                            mem[i] = mem_val[pos];
                        } else {
                            write_vals[wi0 as usize * ncoh + pos] = mem[i];
                        }
                    }
                } else if nmem > 1 {
                    // Op-major fast path: when every address of the
                    // cycle is provably in-bounds (max of each row,
                    // negatives wrap high as `u32`, checked against the
                    // smallest lane image) and banks are a power of
                    // two, stalls reduce to pairwise bank-row compares
                    // and each access row commits with its load/store
                    // dispatch hoisted out of the lane loop. Per-lane
                    // op order is preserved — every lane sees its
                    // accesses in `mi` order either way.
                    let all_in_bounds = bank_mask.is_some()
                        && (0..nmem).all(|mi| {
                            let row = &mem_addr[mi * ncoh..mi * ncoh + ncoh];
                            row.iter().all(|&a| (a as u32 as usize) < min_mem_len)
                        });
                    if all_in_bounds {
                        let mask = bank_mask.unwrap() as i32;
                        // `Σ_banks (load - 1)` = the number of accesses
                        // with an *earlier* same-bank access — an OR
                        // over the earlier rows per op, not a pair
                        // count (three same-bank hits stall 2, not 3).
                        let stall_row = &mut tmp[..ncoh];
                        stall_row.fill(0);
                        let dup_row = &mut tmp2[..ncoh];
                        for mi in 1..nmem {
                            let (earlier, rest) = mem_addr.split_at(mi * ncoh);
                            let row_mi = &rest[..ncoh];
                            dup_row.fill(0);
                            for mj in 0..mi {
                                let row_mj = &earlier[mj * ncoh..mj * ncoh + ncoh];
                                for (d, (&a, &b)) in
                                    dup_row.iter_mut().zip(row_mi.iter().zip(row_mj))
                                {
                                    *d |= (((a ^ b) & mask) == 0) as i32;
                                }
                            }
                            for (s, &d) in stall_row.iter_mut().zip(dup_row.iter()) {
                                *s += d;
                            }
                        }
                        for (pos, &l) in cohort.iter().enumerate() {
                            let extra = stall_row[pos] as u64;
                            cycles[l as usize] += extra;
                            stalls[l as usize] += extra;
                        }
                        #[allow(
                            clippy::needless_range_loop,
                            reason = "`mi` also strides the op-major address and value rows"
                        )]
                        for mi in 0..nmem {
                            let wi = mem_wi[mi];
                            let base = mi * ncoh;
                            if wi == NO_DST {
                                for (pos, &l) in cohort.iter().enumerate() {
                                    let addr = mem_addr[base + pos] as usize;
                                    mems[l as usize][addr] = mem_val[base + pos];
                                }
                            } else {
                                let vals = &mut write_vals[wi as usize * ncoh..];
                                for (pos, &l) in cohort.iter().enumerate() {
                                    let addr = mem_addr[base + pos] as usize;
                                    vals[pos] = mems[l as usize][addr];
                                }
                            }
                        }
                    } else {
                        // Lane-major slow path: a lane may fault
                        // mid-cycle (or banks are not a power of two),
                        // so each lane walks its accesses in op order,
                        // stopping at the first out-of-bounds address.
                        for (pos, &l) in cohort.iter().enumerate() {
                            let l = l as usize;
                            let mem = &mut *mems[l];
                            let mut stall = 0u64;
                            let mut failed = false;
                            for mi in 0..nmem {
                                let addr = mem_addr[mi * ncoh + pos];
                                if addr as usize >= mem.len() {
                                    results[l] = Some(Err(SimError::OutOfBounds {
                                        addr: addr as i64,
                                        size: mem.len(),
                                    }));
                                    exit[pos] = Exit::Retired;
                                    need_compact = true;
                                    failed = true;
                                    break;
                                }
                                let i = addr as usize;
                                let bank = match bank_mask {
                                    Some(mask) => i & mask,
                                    None => i % nbanks,
                                };
                                if lane_banks[..mi].contains(&bank) {
                                    stall += 1;
                                }
                                lane_banks[mi] = bank;
                                let wi = mem_wi[mi];
                                if wi == NO_DST {
                                    mem[i] = mem_val[mi * ncoh + pos];
                                } else {
                                    write_vals[wi as usize * ncoh + pos] = mem[i];
                                }
                            }
                            if failed {
                                continue;
                            }
                            cycles[l] += stall;
                            stalls[l] += stall;
                        }
                    }
                }

                // Phase 3, write-major: commit the queue in order for
                // every lane still running. Retired lanes exist this
                // cycle only when `need_compact` is set, so the common
                // case commits unguarded.
                for (wi, &dst) in write_dst.iter().enumerate() {
                    let vals = &write_vals[wi * ncoh..(wi + 1) * ncoh];
                    let bd = dst as usize * nlanes;
                    if !need_compact {
                        for (pos, &l) in cohort.iter().enumerate() {
                            rf[bd + l as usize] = vals[pos];
                        }
                    } else {
                        for (pos, &l) in cohort.iter().enumerate() {
                            if exit[pos] == Exit::Running {
                                rf[bd + l as usize] = vals[pos];
                            }
                        }
                    }
                }
                start = end;
                cycle += 1;
            }
            if need_compact {
                // Lanes may retire in the block's last cycle; they must
                // not reach the terminator.
                compact(&mut cohort, &mut exit);
            }
            if fast_budget {
                // The uniform per-cycle charges of the whole run, paid in
                // one step by every lane that survived it.
                for &l in &cohort {
                    cycles[l as usize] += length as u64;
                }
            }

            if cohort.is_empty() {
                continue;
            }
            match self.terminators[block] {
                BinTerminator::Jump(b) => enqueue(
                    &mut waiting,
                    &mut ready,
                    &mut queued,
                    b as usize,
                    &cohort,
                    |_| true,
                ),
                BinTerminator::Branch { taken, fallthrough } => {
                    let ntaken = cohort.iter().filter(|&&l| br[l as usize]).count();
                    if ntaken > 0 && ntaken < cohort.len() {
                        m.divergences += 1;
                    }
                    if ntaken > 0 {
                        enqueue(
                            &mut waiting,
                            &mut ready,
                            &mut queued,
                            taken as usize,
                            &cohort,
                            |l| br[l as usize],
                        );
                    }
                    if ntaken < cohort.len() {
                        enqueue(
                            &mut waiting,
                            &mut ready,
                            &mut queued,
                            fallthrough as usize,
                            &cohort,
                            |l| !br[l as usize],
                        );
                    }
                }
                BinTerminator::Return => {
                    for &l in &cohort {
                        let l = l as usize;
                        let mut stats = SimStats {
                            cycles: cycles[l],
                            stall_cycles: stalls[l],
                            block_execs: block_execs[l * nblocks..(l + 1) * nblocks].to_vec(),
                            tiles: vec![TileStats::default(); self.ntiles],
                        };
                        for (b, &n) in stats.block_execs.iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            let deltas = &self.stats_delta[b * self.ntiles..(b + 1) * self.ntiles];
                            for (ts, d) in stats.tiles.iter_mut().zip(deltas) {
                                ts.accumulate_scaled(d, n);
                            }
                        }
                        results[l] = Some(Ok(stats));
                    }
                }
            }
        }

        let results: Vec<Result<SimStats, SimError>> = results
            .into_iter()
            .map(|r| r.expect("every lane retires"))
            .collect();
        for r in &results {
            match r {
                Ok(s) => {
                    m.retired_ok += 1;
                    m.agg_cycles += s.cycles;
                }
                Err(_) => m.retired_err += 1,
            }
        }
        cmam_obs::counter!("sim.batch.calls").add(1);
        cmam_obs::counter!("sim.batch.lanes").add(nlanes as u64);
        cmam_obs::counter!("sim.batch.cohorts").add(m.cohorts);
        cmam_obs::counter!("sim.batch.cohort_lanes").add(m.cohort_lanes);
        cmam_obs::counter!("sim.batch.divergences").add(m.divergences);
        cmam_obs::counter!("sim.batch.retired_ok").add(m.retired_ok);
        cmam_obs::counter!("sim.batch.retired_err").add(m.retired_err);
        cmam_obs::counter!("sim.batch.cycles").add(m.agg_cycles);
        results
    }
}

/// Evaluates a one-operand row into `out[pos]` for every cohort lane.
/// The operand pattern is matched once; each arm is a tight lane loop.
#[inline(always)]
fn row1(
    out: &mut [i32],
    cohort: &[u32],
    rf: &[i32],
    stride: usize,
    a0: Arg,
    f: impl Fn(i32) -> i32,
) {
    match a0 {
        Arg::Rf(i) => {
            let bi = i as usize * stride;
            for (o, &l) in out.iter_mut().zip(cohort) {
                *o = f(rf[bi + l as usize]);
            }
        }
        Arg::Const(c) => {
            let v = f(c);
            for o in out.iter_mut() {
                *o = v;
            }
        }
    }
}

/// Evaluates a two-operand row into `out[pos]` for every cohort lane,
/// with the operand pattern dispatched once per row.
#[inline(always)]
fn row2(
    out: &mut [i32],
    cohort: &[u32],
    rf: &[i32],
    stride: usize,
    a0: Arg,
    a1: Arg,
    f: impl Fn(i32, i32) -> i32,
) {
    match (a0, a1) {
        (Arg::Rf(i), Arg::Rf(j)) => {
            let (bi, bj) = (i as usize * stride, j as usize * stride);
            for (o, &l) in out.iter_mut().zip(cohort) {
                let l = l as usize;
                *o = f(rf[bi + l], rf[bj + l]);
            }
        }
        (Arg::Rf(i), Arg::Const(c)) => {
            let bi = i as usize * stride;
            for (o, &l) in out.iter_mut().zip(cohort) {
                *o = f(rf[bi + l as usize], c);
            }
        }
        (Arg::Const(c), Arg::Rf(j)) => {
            let bj = j as usize * stride;
            for (o, &l) in out.iter_mut().zip(cohort) {
                *o = f(c, rf[bj + l as usize]);
            }
        }
        (Arg::Const(c), Arg::Const(d)) => {
            let v = f(c, d);
            for o in out.iter_mut() {
                *o = v;
            }
        }
    }
}

/// Sets the branch flag of every cohort lane from a one-operand row.
#[inline(always)]
fn br_row(br: &mut [bool], cohort: &[u32], rf: &[i32], stride: usize, a0: Arg) {
    match a0 {
        Arg::Rf(i) => {
            let bi = i as usize * stride;
            for &l in cohort {
                br[l as usize] = rf[bi + l as usize] != 0;
            }
        }
        Arg::Const(c) => {
            let v = c != 0;
            for &l in cohort {
                br[l as usize] = v;
            }
        }
    }
}

/// In-place variant of [`row1`] for single-op cycles: reads and writes
/// the RF rows directly (`rf[lane_base + dst] = f(operand)`), legal
/// because the cycle has exactly one op and therefore no same-cycle
/// reader of the destination.
#[inline(always)]
fn row1_rf(
    rf: &mut [i32],
    cohort: &[u32],
    stride: usize,
    dst: usize,
    a0: Arg,
    f: impl Fn(i32) -> i32,
) {
    let bd = dst * stride;
    match a0 {
        Arg::Rf(i) => {
            let bi = i as usize * stride;
            for &l in cohort {
                let l = l as usize;
                rf[bd + l] = f(rf[bi + l]);
            }
        }
        Arg::Const(c) => {
            let v = f(c);
            for &l in cohort {
                rf[bd + l as usize] = v;
            }
        }
    }
}

/// In-place variant of [`row2`] (see [`row1_rf`]).
#[inline(always)]
fn row2_rf(
    rf: &mut [i32],
    cohort: &[u32],
    stride: usize,
    dst: usize,
    a0: Arg,
    a1: Arg,
    f: impl Fn(i32, i32) -> i32,
) {
    let bd = dst * stride;
    match (a0, a1) {
        (Arg::Rf(i), Arg::Rf(j)) => {
            let (bi, bj) = (i as usize * stride, j as usize * stride);
            for &l in cohort {
                let l = l as usize;
                rf[bd + l] = f(rf[bi + l], rf[bj + l]);
            }
        }
        (Arg::Rf(i), Arg::Const(c)) => {
            let bi = i as usize * stride;
            for &l in cohort {
                let l = l as usize;
                rf[bd + l] = f(rf[bi + l], c);
            }
        }
        (Arg::Const(c), Arg::Rf(j)) => {
            let bj = j as usize * stride;
            for &l in cohort {
                let l = l as usize;
                rf[bd + l] = f(c, rf[bj + l]);
            }
        }
        (Arg::Const(c), Arg::Const(d)) => {
            let v = f(c, d);
            for &l in cohort {
                rf[bd + l as usize] = v;
            }
        }
    }
}

/// In-place variant of [`alu_row`] for single-op cycles: commits each
/// lane's result straight into its RF row.
fn alu_row_rf(rf: &mut [i32], cohort: &[u32], stride: usize, slot: &Slot) {
    let a = slot.args;
    let dst = slot.dst as usize;
    let bool2i = |b: bool| if b { 1 } else { 0 };
    match slot.opcode {
        Opcode::Add => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| {
            x.wrapping_add(y)
        }),
        Opcode::Sub => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| {
            x.wrapping_sub(y)
        }),
        Opcode::Mul => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| {
            x.wrapping_mul(y)
        }),
        Opcode::Shl => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| {
            x.wrapping_shl(y as u32 & 31)
        }),
        Opcode::Shr => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| {
            x.wrapping_shr(y as u32 & 31)
        }),
        Opcode::And => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| x & y),
        Opcode::Or => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| x | y),
        Opcode::Xor => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| x ^ y),
        Opcode::Min => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| x.min(y)),
        Opcode::Max => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| x.max(y)),
        Opcode::Abs => row1_rf(rf, cohort, stride, dst, a[0], |x| x.wrapping_abs()),
        Opcode::Eq => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| bool2i(x == y)),
        Opcode::Ne => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| bool2i(x != y)),
        Opcode::Lt => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| bool2i(x < y)),
        Opcode::Le => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| bool2i(x <= y)),
        Opcode::Gt => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| bool2i(x > y)),
        Opcode::Ge => row2_rf(rf, cohort, stride, dst, a[0], a[1], |x, y| bool2i(x >= y)),
        Opcode::Select => {
            for &l in cohort {
                let l = l as usize;
                let read = |a: Arg| match a {
                    Arg::Const(c) => c,
                    Arg::Rf(i) => rf[i as usize * stride + l],
                };
                let v = if read(a[0]) != 0 {
                    read(a[1])
                } else {
                    read(a[2])
                };
                rf[dst * stride + l] = v;
            }
        }
        Opcode::Mov => row1_rf(rf, cohort, stride, dst, a[0], |x| x),
        Opcode::Load | Opcode::Store | Opcode::Br => {
            unreachable!("memory/control opcodes are not ALU rows")
        }
    }
}

/// Evaluates one ALU/Mov row: the opcode is dispatched once, leaving a
/// monomorphized tight lane loop per `(opcode, operand-pattern)`
/// combination — no per-lane opcode match, arity assert or operand
/// array, unlike a per-lane `Opcode::eval` call.
fn alu_row(out: &mut [i32], cohort: &[u32], rf: &[i32], stride: usize, slot: &Slot) {
    let a = slot.args;
    let bool2i = |b: bool| if b { 1 } else { 0 };
    match slot.opcode {
        Opcode::Add => row2(out, cohort, rf, stride, a[0], a[1], |x, y| {
            x.wrapping_add(y)
        }),
        Opcode::Sub => row2(out, cohort, rf, stride, a[0], a[1], |x, y| {
            x.wrapping_sub(y)
        }),
        Opcode::Mul => row2(out, cohort, rf, stride, a[0], a[1], |x, y| {
            x.wrapping_mul(y)
        }),
        Opcode::Shl => row2(out, cohort, rf, stride, a[0], a[1], |x, y| {
            x.wrapping_shl(y as u32 & 31)
        }),
        Opcode::Shr => row2(out, cohort, rf, stride, a[0], a[1], |x, y| {
            x.wrapping_shr(y as u32 & 31)
        }),
        Opcode::And => row2(out, cohort, rf, stride, a[0], a[1], |x, y| x & y),
        Opcode::Or => row2(out, cohort, rf, stride, a[0], a[1], |x, y| x | y),
        Opcode::Xor => row2(out, cohort, rf, stride, a[0], a[1], |x, y| x ^ y),
        Opcode::Min => row2(out, cohort, rf, stride, a[0], a[1], |x, y| x.min(y)),
        Opcode::Max => row2(out, cohort, rf, stride, a[0], a[1], |x, y| x.max(y)),
        Opcode::Abs => row1(out, cohort, rf, stride, a[0], |x| x.wrapping_abs()),
        Opcode::Eq => row2(out, cohort, rf, stride, a[0], a[1], |x, y| bool2i(x == y)),
        Opcode::Ne => row2(out, cohort, rf, stride, a[0], a[1], |x, y| bool2i(x != y)),
        Opcode::Lt => row2(out, cohort, rf, stride, a[0], a[1], |x, y| bool2i(x < y)),
        Opcode::Le => row2(out, cohort, rf, stride, a[0], a[1], |x, y| bool2i(x <= y)),
        Opcode::Gt => row2(out, cohort, rf, stride, a[0], a[1], |x, y| bool2i(x > y)),
        Opcode::Ge => row2(out, cohort, rf, stride, a[0], a[1], |x, y| bool2i(x >= y)),
        Opcode::Select => {
            // Rare enough that only the opcode is hoisted; the operand
            // reads stay a per-lane match (predictable per row).
            let read = |a: Arg, l: usize| match a {
                Arg::Const(c) => c,
                Arg::Rf(i) => rf[i as usize * stride + l],
            };
            for (o, &l) in out.iter_mut().zip(cohort) {
                let l = l as usize;
                *o = if read(a[0], l) != 0 {
                    read(a[1], l)
                } else {
                    read(a[2], l)
                };
            }
        }
        Opcode::Mov => row1(out, cohort, rf, stride, a[0], |x| x),
        Opcode::Load | Opcode::Store | Opcode::Br => {
            unreachable!("memory/control opcodes are not ALU rows")
        }
    }
}

/// Drops retired lanes from the cohort, keeping `exit` positions in
/// sync (all `Running` afterwards).
fn compact(cohort: &mut Vec<u32>, exit: &mut Vec<Exit>) {
    let mut w = 0;
    for r in 0..cohort.len() {
        if exit[r] == Exit::Running {
            cohort[w] = cohort[r];
            w += 1;
        }
    }
    cohort.truncate(w);
    exit.clear();
    exit.resize(w, Exit::Running);
}

/// Parks the cohort lanes selected by `pred` on block `b`'s waiting
/// list, scheduling the block if it was not already queued.
fn enqueue(
    waiting: &mut [Vec<u32>],
    ready: &mut Vec<u32>,
    queued: &mut [bool],
    b: usize,
    cohort: &[u32],
    pred: impl Fn(u32) -> bool,
) {
    for &l in cohort {
        if pred(l) {
            waiting[b].push(l);
        }
    }
    if !waiting[b].is_empty() && !queued[b] {
        queued[b] = true;
        ready.push(b as u32);
    }
}
