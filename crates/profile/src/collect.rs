//! The online profile collector.
//!
//! Hot-path note: the collector sees every retired instruction, twice per
//! validated clone (the source program, then the gate's re-profile of the
//! clone), so no hash-map operation runs on every record:
//!
//! * a dense pc-indexed table (`PcSlot`) holds each pc's static facts
//!   (class, register slots, branch and block-end flags, access kind and
//!   width) next to its interned node, stream and branch ids;
//! * each `(pred, node)` context is interned once per block entry, behind
//!   a last-predecessor cache per node, and records index it by id;
//! * the store→load writer table is a paged shadow of the address space
//!   (`ShadowMemory`) with a direct-mapped page cache in front;
//! * each stream keeps its stride counts in a `Vec` and reuses the
//!   current stride's slot while a run continues.
//!
//! Ids are handed out on first touch, in the same order a per-record
//! interner would, so the [`WorkloadProfile`] — including the order of
//! its nodes, streams and branches — does not depend on these tables.
//! The maps left are consulted only on a miss (context ids when a node's
//! predecessor changes, stride ids when a run breaks, shadow pages when
//! the page cache misses). Their keys are values the profiler itself
//! produces, so they use the deterministic multiply-rotate
//! [`FxHashMap`]; none reaches the output unsorted.

use rustc_hash::FxHashMap;

use perfclone_isa::{Instr, InstrMeta, Program};
use perfclone_sim::{DynInstr, Observer, Simulator};

use crate::error::ProfileError;
use crate::hist::DepHistogram;
use crate::model::{
    BlockProfile, BranchProfile, ContextProfile, EdgeProfile, StreamProfile, WorkloadProfile,
};

/// Cap on distinct strides tracked per static memory instruction; a real
/// profiler bounds its tables the same way. A stride first seen once the
/// table is full is never counted.
const MAX_STRIDES: usize = 128;

/// Predecessor of the first block entered.
const ENTRY: u32 = u32::MAX;

/// Id of a node, stream, branch, context or stride slot not (yet) interned.
const NONE: u32 = u32::MAX;

/// One pc's static facts and interned ids.
#[derive(Clone, Copy, Debug)]
struct PcSlot {
    meta: InstrMeta,
    /// A control transfer or `halt`: the block ends here.
    ends_block: bool,
    is_store: bool,
    /// Access width in bytes (0 without an access).
    width: u8,
    /// Node of the block starting at this pc.
    node: u32,
    stream: u32,
    branch: u32,
}

impl PcSlot {
    fn of(instr: &Instr) -> PcSlot {
        let meta = InstrMeta::of(instr);
        let (is_store, width) = instr
            .mem_ref()
            .map_or((false, 0), |(_, width, is_store)| (is_store, width.bytes() as u8));
        PcSlot {
            meta,
            ends_block: meta.control || matches!(instr, Instr::Halt),
            is_store,
            width,
            node: NONE,
            stream: NONE,
            branch: NONE,
        }
    }
}

#[derive(Debug)]
struct NodeCollect {
    start_pc: u32,
    size: u32,
    execs: u64,
    class_counts: [u32; 10],
    mem_ops: Vec<u32>,
    branch: Option<u32>,
    collecting: bool,
    /// The predecessor of the last entry and that entry's context.
    last_pred: u32,
    last_ctx: u32,
}

impl NodeCollect {
    fn new(start_pc: u32) -> NodeCollect {
        NodeCollect {
            start_pc,
            size: 0,
            execs: 0,
            class_counts: [0; 10],
            mem_ops: Vec::new(),
            branch: None,
            collecting: true,
            last_pred: ENTRY,
            last_ctx: NONE,
        }
    }
}

#[derive(Debug)]
struct CtxCollect {
    pred: u32,
    node: u32,
    count: u64,
    reg_deps: DepHistogram,
    mem_deps: DepHistogram,
}

/// 8-byte chunks per shadow page: 4 KiB of address space.
const SHADOW_PAGE_BITS: u32 = 9;
const SHADOW_PAGE_CHUNKS: usize = 1 << SHADOW_PAGE_BITS;
/// Entries of the direct-mapped page cache.
const SHADOW_WAYS: usize = 64;

/// The 1-based position of the last store to each 8-byte chunk of the
/// address space (0: never stored). Pages are allocated on first touch,
/// loads included, so repeated loads from read-only data hit the page
/// cache instead of missing the page map.
#[derive(Debug)]
struct ShadowMemory {
    pages: Vec<Box<[u64; SHADOW_PAGE_CHUNKS]>>,
    page_ids: FxHashMap<u64, u32>,
    /// Page number cached in each way (`u64::MAX`: empty; no page has
    /// that number) and its index into `pages`.
    tags: [u64; SHADOW_WAYS],
    ways: [u32; SHADOW_WAYS],
}

impl ShadowMemory {
    fn new() -> ShadowMemory {
        ShadowMemory {
            pages: Vec::new(),
            page_ids: FxHashMap::default(),
            tags: [u64::MAX; SHADOW_WAYS],
            ways: [0; SHADOW_WAYS],
        }
    }

    /// The writer slot of 8-byte chunk `chunk` (`addr >> 3`).
    #[inline]
    fn chunk(&mut self, chunk: u64) -> &mut u64 {
        let page = chunk >> SHADOW_PAGE_BITS;
        let way = page as usize % SHADOW_WAYS;
        let id = if self.tags[way] == page { self.ways[way] } else { self.fill(page, way) };
        &mut self.pages[id as usize][chunk as usize % SHADOW_PAGE_CHUNKS]
    }

    #[cold]
    fn fill(&mut self, page: u64, way: usize) -> u32 {
        let pages = &mut self.pages;
        let id = *self.page_ids.entry(page).or_insert_with(|| {
            pages.push(Box::new([0; SHADOW_PAGE_CHUNKS]));
            (pages.len() - 1) as u32
        });
        self.tags[way] = page;
        self.ways[way] = id;
        id
    }
}

/// One tracked stride of a stream: its count and its runs.
#[derive(Debug)]
struct StrideSlot {
    stride: i64,
    count: u64,
    runs: u64,
    run_len_sum: u64,
}

#[derive(Debug)]
struct StreamCollect {
    pc: u32,
    is_store: bool,
    width: u8,
    execs: u64,
    last_addr: Option<u64>,
    min_addr: u64,
    max_addr: u64,
    strides: Vec<StrideSlot>,
    stride_ids: FxHashMap<i64, u32>,
    cur_stride: Option<i64>,
    /// Slot of `cur_stride`, or [`NONE`] when the stride is not tracked.
    cur_slot: u32,
    cur_run: u64,
    fwd_breaks: u64,
    back_breaks: u64,
    back_jump_sum: u64,
}

impl StreamCollect {
    fn new(pc: u32, is_store: bool, width: u8) -> StreamCollect {
        StreamCollect {
            pc,
            is_store,
            width,
            execs: 0,
            last_addr: None,
            min_addr: u64::MAX,
            max_addr: 0,
            strides: Vec::new(),
            stride_ids: FxHashMap::default(),
            cur_stride: None,
            cur_slot: NONE,
            cur_run: 0,
            fwd_breaks: 0,
            back_breaks: 0,
            back_jump_sum: 0,
        }
    }

    #[inline]
    fn access(&mut self, addr: u64) {
        self.execs += 1;
        self.min_addr = self.min_addr.min(addr);
        self.max_addr = self.max_addr.max(addr);
        if let Some(last) = self.last_addr {
            let stride = addr.wrapping_sub(last) as i64;
            if self.cur_stride == Some(stride) {
                // The run continues on the slot it started on. An
                // untracked stride has slot `NONE`, which `get_mut` misses.
                self.cur_run += 1;
                if let Some(s) = self.strides.get_mut(self.cur_slot as usize) {
                    s.count += 1;
                }
            } else {
                self.break_run(stride);
            }
        }
        self.last_addr = Some(addr);
    }

    /// Ends the current run and starts one at `stride`.
    fn break_run(&mut self, stride: i64) {
        // Classify the breaking jump's direction. Singleton runs are
        // excursions (e.g. the jump itself); exiting one back onto the
        // dominant stride is a resume, not a structural break, so only
        // multi-access runs classify.
        if self.cur_stride.is_some() && self.cur_run > 1 {
            if stride < 0 {
                self.back_breaks += 1;
                self.back_jump_sum += stride.unsigned_abs();
            } else {
                self.fwd_breaks += 1;
            }
        }
        self.end_run();
        let slot = self.slot_of(stride);
        if let Some(s) = self.strides.get_mut(slot as usize) {
            s.count += 1;
        }
        self.cur_stride = Some(stride);
        self.cur_slot = slot;
        self.cur_run = 1;
    }

    /// The slot tracking `stride`, admitting it while the table has room.
    fn slot_of(&mut self, stride: i64) -> u32 {
        if let Some(&slot) = self.stride_ids.get(&stride) {
            return slot;
        }
        if self.strides.len() >= MAX_STRIDES {
            return NONE;
        }
        let slot = self.strides.len() as u32;
        self.strides.push(StrideSlot { stride, count: 0, runs: 0, run_len_sum: 0 });
        self.stride_ids.insert(stride, slot);
        slot
    }

    /// Closes the current run. Only tracked strides keep run statistics:
    /// the dominant stride, the only one whose runs are reported, always
    /// is one.
    fn end_run(&mut self) {
        if self.cur_stride.take().is_some() {
            if let Some(s) = self.strides.get_mut(self.cur_slot as usize) {
                s.runs += 1;
                s.run_len_sum += self.cur_run;
            }
            self.cur_run = 0;
        }
    }

    fn finish(mut self) -> StreamProfile {
        self.end_run();
        // Total order: highest count, then smallest magnitude, then
        // positive before negative — so profiles are deterministic even
        // when stride counts tie (e.g. a length-2 ping-pong stream).
        let dominant = self
            .strides
            .iter()
            .max_by_key(|s| (s.count, std::cmp::Reverse(s.stride.unsigned_abs()), s.stride >= 0));
        let (dominant_stride, dominant_count, mean_run_len) = match dominant {
            Some(s) if s.runs > 0 => (s.stride, s.count, s.run_len_sum as f64 / s.runs as f64),
            Some(s) => (s.stride, s.count, 1.0),
            None => (0, 0, 1.0),
        };
        StreamProfile {
            pc: self.pc,
            is_store: self.is_store,
            execs: self.execs,
            dominant_stride,
            dominant_count,
            mean_run_len,
            distinct_strides: self.strides.len() as u32,
            width: self.width,
            min_addr: if self.min_addr == u64::MAX { 0 } else { self.min_addr },
            max_addr: self.max_addr,
            fwd_breaks: self.fwd_breaks,
            back_breaks: self.back_breaks,
            mean_back_jump: if self.back_breaks > 0 {
                self.back_jump_sum as f64 / self.back_breaks as f64
            } else {
                0.0
            },
        }
    }
}

#[derive(Debug)]
struct BranchCollect {
    pc: u32,
    execs: u64,
    taken: u64,
    transitions: u64,
    last_dir: Option<bool>,
    counters: Vec<u8>,
    history_hits: u64,
}

impl BranchCollect {
    fn new(pc: u32) -> BranchCollect {
        BranchCollect {
            pc,
            execs: 0,
            taken: 0,
            transitions: 0,
            last_dir: None,
            counters: vec![1; 256],
            history_hits: 0,
        }
    }
}

/// An [`Observer`] that builds a [`WorkloadProfile`] from the retired
/// instruction stream — the paper's "workload profiler" box (Figure 1).
///
/// A profiler is built for one [`Program`] and must observe only that
/// program's records: it reads each record's static facts from a table
/// indexed by pc, and a pc outside the program panics.
#[derive(Debug)]
pub struct Profiler {
    name: String,
    pos: u64,
    pcs: Vec<PcSlot>,
    nodes: Vec<NodeCollect>,
    contexts: Vec<CtxCollect>,
    ctx_ids: FxHashMap<(u32, u32), u32>,
    cur_node: Option<u32>,
    prev_node: u32,
    cur_ctx: u32,
    reg_writer: [u64; 64],
    mem_writer: ShadowMemory,
    streams: Vec<StreamCollect>,
    branches: Vec<BranchCollect>,
    global_history: u8,
}

impl Profiler {
    /// Creates a profiler for `program`.
    pub fn new(program: &Program) -> Profiler {
        Profiler {
            name: program.name().to_string(),
            pos: 0,
            pcs: program.instrs().iter().map(PcSlot::of).collect(),
            nodes: Vec::new(),
            contexts: Vec::new(),
            ctx_ids: FxHashMap::default(),
            cur_node: None,
            prev_node: ENTRY,
            cur_ctx: NONE,
            reg_writer: [0; 64],
            mem_writer: ShadowMemory::new(),
            streams: Vec::new(),
            branches: Vec::new(),
            global_history: 0,
        }
    }

    /// Enters the block starting at `pc`: interns its node and the
    /// `(predecessor, node)` context and counts both.
    fn enter_block(&mut self, pc: usize) -> u32 {
        let n = match self.pcs[pc].node {
            NONE => {
                let id = self.nodes.len() as u32;
                self.nodes.push(NodeCollect::new(pc as u32));
                self.pcs[pc].node = id;
                id
            }
            id => id,
        };
        let pred = self.prev_node;
        let node = &mut self.nodes[n as usize];
        node.execs += 1;
        let ctx = if node.last_ctx != NONE && node.last_pred == pred {
            node.last_ctx
        } else {
            let contexts = &mut self.contexts;
            let id = *self.ctx_ids.entry((pred, n)).or_insert_with(|| {
                contexts.push(CtxCollect {
                    pred,
                    node: n,
                    count: 0,
                    reg_deps: DepHistogram::new(),
                    mem_deps: DepHistogram::new(),
                });
                (contexts.len() - 1) as u32
            });
            node.last_pred = pred;
            node.last_ctx = id;
            id
        };
        self.contexts[ctx as usize].count += 1;
        self.cur_node = Some(n);
        self.cur_ctx = ctx;
        n
    }

    /// Interns the stream of the memory instruction at `pc`, first touched.
    fn intern_stream(&mut self, pc: usize) -> u32 {
        let slot = &mut self.pcs[pc];
        slot.stream = self.streams.len() as u32;
        self.streams.push(StreamCollect::new(pc as u32, slot.is_store, slot.width));
        slot.stream
    }

    /// Interns the conditional branch at `pc`, first touched.
    fn intern_branch(&mut self, pc: usize) -> u32 {
        self.pcs[pc].branch = self.branches.len() as u32;
        self.branches.push(BranchCollect::new(pc as u32));
        self.pcs[pc].branch
    }

    /// Finalizes collection into a [`WorkloadProfile`].
    pub fn finish(self) -> WorkloadProfile {
        let nodes = self
            .nodes
            .into_iter()
            .map(|n| BlockProfile {
                start_pc: n.start_pc,
                size: n.size,
                execs: n.execs,
                class_counts: n.class_counts,
                mem_ops: n.mem_ops,
                branch: n.branch,
            })
            .collect();
        let mut contexts: Vec<ContextProfile> = self
            .contexts
            .into_iter()
            .map(|c| ContextProfile {
                pred: c.pred,
                node: c.node,
                count: c.count,
                reg_deps: c.reg_deps,
                mem_deps: c.mem_deps,
            })
            .collect();
        contexts.sort_by_key(|c| (c.node, c.pred));
        // Every block entry but the first follows a real predecessor, and
        // it counts one edge and one context alike: each edge is the count
        // of its context.
        let mut edges: Vec<EdgeProfile> = contexts
            .iter()
            .filter(|c| c.pred != ENTRY)
            .map(|c| EdgeProfile { from: c.pred, to: c.node, count: c.count })
            .collect();
        edges.sort_by_key(|e| (e.from, e.to));
        let streams = self.streams.into_iter().map(StreamCollect::finish).collect();
        let branches = self
            .branches
            .into_iter()
            .map(|b| BranchProfile {
                pc: b.pc,
                execs: b.execs,
                taken: b.taken,
                transitions: b.transitions,
                history_hits: b.history_hits,
            })
            .collect();
        WorkloadProfile {
            name: self.name,
            total_instrs: self.pos,
            nodes,
            edges,
            contexts,
            streams,
            branches,
        }
    }
}

impl Observer for Profiler {
    // Inlinable across crates, so the interpreter loops of callers in
    // other crates (the fidelity gate's re-profile) inline the collector
    // rather than call it per record.
    #[inline]
    fn on_retire(&mut self, d: &DynInstr) {
        let pc = d.pc as usize;
        let node = match self.cur_node {
            Some(n) => n,
            None => self.enter_block(pc),
        };
        let slot = self.pcs[pc];
        let stream = match (slot.meta.has_mem, slot.stream) {
            (false, _) => None,
            (true, NONE) => Some(self.intern_stream(pc)),
            (true, id) => Some(id),
        };

        // Static block composition (first complete visit only).
        let n = &mut self.nodes[node as usize];
        let collecting = n.collecting;
        if collecting {
            n.size += 1;
            n.class_counts[slot.meta.class.index()] += 1;
            if let Some(sid) = stream {
                n.mem_ops.push(sid);
            }
        }

        // Dependency distances, charged to the context entered with the
        // block.
        let pos = self.pos + 1; // 1-based writer positions; 0 = none
        let ctx = &mut self.contexts[self.cur_ctx as usize];
        for &u in slot.meta.uses() {
            let w = self.reg_writer[usize::from(u)];
            if w != 0 {
                ctx.reg_deps.record(pos - w);
            }
        }
        for &def in slot.meta.defs() {
            self.reg_writer[usize::from(def)] = pos;
        }
        if let Some(m) = d.mem {
            if m.is_store {
                // Accesses are at most 8 bytes, so they span one or two
                // chunks; the bytes wrap at the top of the address space
                // as `Memory::write_bytes` wraps them.
                let first = m.addr >> 3;
                let last = m.addr.wrapping_add(u64::from(m.bytes).saturating_sub(1)) >> 3;
                *self.mem_writer.chunk(first) = pos;
                if last != first {
                    *self.mem_writer.chunk(last) = pos;
                }
            } else {
                let w = *self.mem_writer.chunk(m.addr >> 3);
                if w != 0 {
                    ctx.mem_deps.record(pos - w);
                }
            }
            // Stream stride tracking.
            if let Some(sid) = stream {
                self.streams[sid as usize].access(m.addr);
            }
        }

        // Branch direction statistics.
        if slot.meta.cond_branch {
            let bid = if slot.branch == NONE { self.intern_branch(pc) } else { slot.branch };
            if collecting {
                self.nodes[node as usize].branch = Some(bid);
            }
            let b = &mut self.branches[bid as usize];
            b.execs += 1;
            if d.taken {
                b.taken += 1;
            }
            if let Some(prev) = b.last_dir {
                if prev != d.taken {
                    b.transitions += 1;
                }
            }
            b.last_dir = Some(d.taken);
            // Global-history direction model (a sequence-structure
            // attribute, not a hardware predictor): predict each branch
            // from the last eight directions of *any* branch, capturing
            // both self-structure and inter-branch correlation (the two
            // predictability sources of paper 3.1.5); then update.
            let idx = self.global_history as usize;
            let predicted = b.counters[idx] >= 2;
            if predicted == d.taken {
                b.history_hits += 1;
            }
            let c = &mut b.counters[idx];
            *c = if d.taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
            self.global_history = self.global_history.wrapping_shl(1) | u8::from(d.taken);
        }

        // Block end.
        if slot.ends_block {
            self.nodes[node as usize].collecting = false;
            self.prev_node = node;
            self.cur_node = None;
        }

        self.pos += 1;
    }
}

/// Profiles a program for up to `limit` retired instructions — the
/// convenience entry point combining the functional simulator and the
/// [`Profiler`].
///
/// # Errors
///
/// Returns [`ProfileError::Fault`] if the program faults (escapes its text
/// section) and [`ProfileError::Empty`] if nothing retired (e.g. a zero
/// `limit` or an empty program), so no stage downstream ever sees a profile
/// without SFG nodes.
pub fn profile_program(program: &Program, limit: u64) -> Result<WorkloadProfile, ProfileError> {
    let _span = perfclone_obs::span!("profile.collect");
    let mut profiler = Profiler::new(program);
    let mut sim = Simulator::new(program);
    sim.run_with(limit, &mut profiler)?;
    let profile = profiler.finish();
    if profile.nodes.is_empty() {
        return Err(ProfileError::Empty { name: profile.name });
    }
    // Telemetry is published once per profile, never per retired
    // instruction, to keep the collector loop clean.
    perfclone_obs::count!("profile.instrs", profile.total_instrs);
    perfclone_obs::count!("profile.blocks", profile.nodes.len() as u64);
    perfclone_obs::count!("profile.edges", profile.edges.len() as u64);
    perfclone_obs::count!("profile.streams", profile.streams.len() as u64);
    perfclone_obs::count!("profile.branches", profile.branches.len() as u64);
    if perfclone_obs::enabled() {
        for n in &profile.nodes {
            perfclone_obs::record!("profile.block_size", u64::from(n.size));
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_isa::{MemWidth, ProgramBuilder, Reg, StreamDesc};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A loop with one strided load, one biased branch.
    fn strided_loop(n: i64, stride: i64) -> Program {
        let mut b = ProgramBuilder::new("strided");
        let id = b.stream(StreamDesc { base: 0x8000, stride, length: 10_000 });
        let (i, lim, x) = (r(1), r(2), r(3));
        b.li(i, 0);
        b.li(lim, n);
        let top = b.label();
        b.bind(top);
        b.ld_stream(x, id, MemWidth::B8);
        b.add(x, x, i);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        b.build()
    }

    #[test]
    fn sfg_structure_of_simple_loop() {
        let p = strided_loop(100, 16);
        let prof = profile_program(&p, 100_000).unwrap();
        // Nodes: entry block (li,li,ld,add,addi,blt), loop body (ld..blt),
        // and the halt block.
        assert_eq!(prof.nodes.len(), 3);
        let body = prof.nodes.iter().find(|n| n.start_pc == 2).expect("loop body node");
        assert_eq!(body.execs, 99);
        assert_eq!(body.size, 4);
        // Self-edge dominates.
        let self_edge = prof.edges.iter().find(|e| {
            prof.nodes[e.from as usize].start_pc == 2 && prof.nodes[e.to as usize].start_pc == 2
        });
        assert_eq!(self_edge.unwrap().count, 98);
    }

    #[test]
    fn stride_detection() {
        let p = strided_loop(200, 24);
        let prof = profile_program(&p, 100_000).unwrap();
        assert_eq!(prof.streams.len(), 1);
        let s = &prof.streams[0];
        assert_eq!(s.dominant_stride, 24);
        assert_eq!(s.execs, 200);
        assert_eq!(s.dominant_count, 199);
        assert!((prof.stride_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(s.distinct_strides, 1);
    }

    #[test]
    fn branch_statistics() {
        let p = strided_loop(100, 8);
        let prof = profile_program(&p, 100_000).unwrap();
        assert_eq!(prof.branches.len(), 1);
        let b = &prof.branches[0];
        assert_eq!(b.execs, 100);
        assert_eq!(b.taken, 99);
        // Directions: 99 taken then 1 not-taken -> one transition.
        assert_eq!(b.transitions, 1);
        assert!(b.taken_rate() > 0.98);
        assert!(b.transition_rate() < 0.02);
    }

    #[test]
    fn alternating_branch_has_high_transition_rate() {
        // Branch taken iff i is even.
        let mut b = ProgramBuilder::new("alt");
        let (i, lim, t) = (r(1), r(2), r(3));
        b.li(i, 0);
        b.li(lim, 100);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.andi(t, i, 1);
        b.bnez(t, skip);
        b.nop();
        b.bind(skip);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let prof = profile_program(&b.build(), 100_000).unwrap();
        let alt = prof.branches.iter().find(|br| br.pc == 3).unwrap();
        assert!(alt.transition_rate() > 0.95, "rate = {}", alt.transition_rate());
        assert!((alt.taken_rate() - 0.5).abs() < 0.02);
    }

    #[test]
    fn register_dependency_distances() {
        // add consumes the value produced by the instruction 1 earlier.
        let mut b = ProgramBuilder::new("dep");
        b.li(r(1), 5);
        b.addi(r(2), r(1), 1); // distance 1
        b.nop();
        b.nop();
        b.add(r(3), r(2), r(1)); // distances 3 and 4
        b.halt();
        let prof = profile_program(&b.build(), 100).unwrap();
        let mut merged = DepHistogram::new();
        for c in &prof.contexts {
            merged.merge(&c.reg_deps);
        }
        assert_eq!(merged.total(), 3);
        assert_eq!(merged.counts()[0], 1); // distance 1
        assert_eq!(merged.counts()[2], 2); // distances 3, 4 in <=4 bucket
    }

    #[test]
    fn memory_dependency_distances() {
        let mut b = ProgramBuilder::new("memdep");
        let a = b.alloc(8);
        b.li(r(1), a as i64);
        b.li(r(2), 42);
        b.sd(r(2), r(1), 0);
        b.nop();
        b.ld(r(3), r(1), 0); // store->load distance 2
        b.halt();
        let prof = profile_program(&b.build(), 100).unwrap();
        let mut merged = DepHistogram::new();
        for c in &prof.contexts {
            merged.merge(&c.mem_deps);
        }
        assert_eq!(merged.total(), 1);
        assert_eq!(merged.counts()[1], 1); // <=2 bucket
    }

    #[test]
    fn store_wrapping_the_address_space_feeds_its_loads() {
        // An 8-byte store at -4 writes the top 4 bytes and, wrapped, 0..4.
        let mut b = ProgramBuilder::new("wrap");
        b.li(r(1), -4);
        b.li(r(4), 0);
        b.sd(r(2), r(1), 0);
        b.ld(r(3), r(1), 0); // distance 1, through the store's first chunk
        b.lw(r(5), r(4), 0); // distance 2, through its wrapped chunk
        b.halt();
        let prof = profile_program(&b.build(), 100).unwrap();
        let mut merged = DepHistogram::new();
        for c in &prof.contexts {
            merged.merge(&c.mem_deps);
        }
        assert_eq!(merged.total(), 2);
        assert_eq!(merged.counts()[0], 1);
        assert_eq!(merged.counts()[1], 1);
    }

    #[test]
    fn profile_counts_all_instructions() {
        let p = strided_loop(10, 8);
        let prof = profile_program(&p, 100_000).unwrap();
        // 2 setup + 10 * 4 loop + halt
        assert_eq!(prof.total_instrs, 2 + 40 + 1);
        let execs_weighted: u64 = prof.nodes.iter().map(|n| u64::from(n.size) * n.execs).sum();
        assert_eq!(execs_weighted, prof.total_instrs);
    }

    #[test]
    fn zero_limit_yields_typed_error() {
        let p = strided_loop(10, 8);
        assert!(matches!(profile_program(&p, 0), Err(ProfileError::Empty { .. })));
    }

    #[test]
    fn faulting_program_yields_typed_error() {
        let mut b = ProgramBuilder::new("fall");
        b.nop(); // no halt: falls off the end
        let err = profile_program(&b.build(), 100).unwrap_err();
        assert!(matches!(err, ProfileError::Fault(_)));
        assert!(err.to_string().contains("faulted"));
    }

    #[test]
    fn mean_block_size_is_weighted() {
        let p = strided_loop(100, 8);
        let prof = profile_program(&p, 100_000).unwrap();
        let m = prof.mean_block_size();
        assert!(m > 3.0 && m < 7.0, "mean block size {m}");
    }
}
