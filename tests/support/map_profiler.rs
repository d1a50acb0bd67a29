//! The hash-map profile collector, kept as a test oracle for the
//! table-driven `perfclone_profile::Profiler`.
//!
//! This is the collector as it stood before profile collection became
//! table-driven: every per-retired-instruction table (node, stream and
//! branch ids, the `(pred, cur)` context map, the edge map, the per-stream
//! stride and run maps, and the store-chunk writer map) is a hash map
//! looked up per record, and every static fact is re-derived from the
//! record's `Instr`. Its one change since is the store's chunk range,
//! which wraps at the top of the address space the way
//! `Memory::write_bytes` does instead of overflowing.
//!
//! Both collectors must produce identical serialized profiles on every
//! input.

use rustc_hash::FxHashMap;

use perfclone_isa::Instr;
use perfclone_profile::{
    BlockProfile, BranchProfile, ContextProfile, DepHistogram, EdgeProfile, StreamProfile,
    WorkloadProfile,
};
use perfclone_sim::{DynInstr, Observer};

const MAX_STRIDES: usize = 128;

const ENTRY: u32 = u32::MAX;

/// The largest 8-byte chunk index (`u64::MAX >> 3`).
const LAST_CHUNK: u64 = u64::MAX >> 3;

#[derive(Debug, Default)]
struct NodeCollect {
    start_pc: u32,
    size: u32,
    execs: u64,
    class_counts: [u32; 10],
    mem_ops: Vec<u32>,
    branch: Option<u32>,
    collecting: bool,
}

#[derive(Debug, Default)]
struct CtxCollect {
    count: u64,
    reg_deps: DepHistogram,
    mem_deps: DepHistogram,
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
    stride_counts: FxHashMap<i64, u64>,
    overflow: u64,
    cur_stride: Option<i64>,
    cur_run: u64,
    run_stats: FxHashMap<i64, (u64, u64)>,
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
            stride_counts: FxHashMap::default(),
            overflow: 0,
            cur_stride: None,
            cur_run: 0,
            run_stats: FxHashMap::default(),
            fwd_breaks: 0,
            back_breaks: 0,
            back_jump_sum: 0,
        }
    }

    fn access(&mut self, addr: u64) {
        self.execs += 1;
        self.min_addr = self.min_addr.min(addr);
        self.max_addr = self.max_addr.max(addr);
        if let Some(last) = self.last_addr {
            let stride = addr.wrapping_sub(last) as i64;
            if self.stride_counts.len() < MAX_STRIDES || self.stride_counts.contains_key(&stride) {
                *self.stride_counts.entry(stride).or_insert(0) += 1;
            } else {
                self.overflow += 1;
            }
            match self.cur_stride {
                Some(s) if s == stride => self.cur_run += 1,
                _ => {
                    if self.cur_stride.is_some() && self.cur_run > 1 {
                        if stride < 0 {
                            self.back_breaks += 1;
                            self.back_jump_sum += stride.unsigned_abs();
                        } else {
                            self.fwd_breaks += 1;
                        }
                    }
                    self.end_run();
                    self.cur_stride = Some(stride);
                    self.cur_run = 1;
                }
            }
        }
        self.last_addr = Some(addr);
    }

    fn end_run(&mut self) {
        if let Some(s) = self.cur_stride.take() {
            let e = self.run_stats.entry(s).or_insert((0, 0));
            e.0 += 1;
            e.1 += self.cur_run;
            self.cur_run = 0;
        }
    }

    fn finish(mut self) -> StreamProfile {
        self.end_run();
        let (dominant_stride, dominant_count) = self
            .stride_counts
            .iter()
            .max_by_key(|(s, c)| (**c, std::cmp::Reverse(s.unsigned_abs()), **s >= 0))
            .map(|(s, c)| (*s, *c))
            .unwrap_or((0, 0));
        let mean_run_len = match self.run_stats.get(&dominant_stride) {
            Some(&(runs, len_sum)) if runs > 0 => len_sum as f64 / runs as f64,
            _ => 1.0,
        };
        StreamProfile {
            pc: self.pc,
            is_store: self.is_store,
            execs: self.execs,
            dominant_stride,
            dominant_count,
            mean_run_len,
            distinct_strides: self.stride_counts.len() as u32,
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

impl Default for BranchCollect {
    fn default() -> BranchCollect {
        BranchCollect {
            pc: 0,
            execs: 0,
            taken: 0,
            transitions: 0,
            last_dir: None,
            counters: vec![1; 256],
            history_hits: 0,
        }
    }
}

/// The hash-map collector: an [`Observer`] building the same
/// [`WorkloadProfile`] as `perfclone_profile::Profiler`.
#[derive(Debug)]
pub struct MapProfiler {
    name: String,
    pos: u64,
    node_ids: FxHashMap<u32, u32>,
    nodes: Vec<NodeCollect>,
    edges: FxHashMap<(u32, u32), u64>,
    contexts: FxHashMap<(u32, u32), CtxCollect>,
    cur_node: Option<u32>,
    prev_node: u32,
    cur_ctx: (u32, u32),
    reg_writer: [u64; 64],
    mem_writer: FxHashMap<u64, u64>,
    stream_ids: FxHashMap<u32, u32>,
    streams: Vec<StreamCollect>,
    branch_ids: FxHashMap<u32, u32>,
    branches: Vec<BranchCollect>,
    global_history: u8,
}

impl MapProfiler {
    /// Creates a collector for a program with the given name.
    pub fn new(name: impl Into<String>) -> MapProfiler {
        MapProfiler {
            name: name.into(),
            pos: 0,
            node_ids: FxHashMap::default(),
            nodes: Vec::new(),
            edges: FxHashMap::default(),
            contexts: FxHashMap::default(),
            cur_node: None,
            prev_node: ENTRY,
            cur_ctx: (ENTRY, ENTRY),
            reg_writer: [0; 64],
            mem_writer: FxHashMap::default(),
            stream_ids: FxHashMap::default(),
            streams: Vec::new(),
            branch_ids: FxHashMap::default(),
            branches: Vec::new(),
            global_history: 0,
        }
    }

    fn intern_node(&mut self, start_pc: u32) -> u32 {
        if let Some(&id) = self.node_ids.get(&start_pc) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.node_ids.insert(start_pc, id);
        self.nodes.push(NodeCollect { start_pc, collecting: true, ..NodeCollect::default() });
        id
    }

    fn intern_stream(&mut self, pc: u32, is_store: bool, width: u8) -> u32 {
        if let Some(&id) = self.stream_ids.get(&pc) {
            return id;
        }
        let id = self.streams.len() as u32;
        self.stream_ids.insert(pc, id);
        self.streams.push(StreamCollect::new(pc, is_store, width));
        id
    }

    fn intern_branch(&mut self, pc: u32) -> u32 {
        if let Some(&id) = self.branch_ids.get(&pc) {
            return id;
        }
        let id = self.branches.len() as u32;
        self.branch_ids.insert(pc, id);
        self.branches.push(BranchCollect { pc, ..BranchCollect::default() });
        id
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
        let mut edges: Vec<EdgeProfile> = self
            .edges
            .into_iter()
            .map(|((from, to), count)| EdgeProfile { from, to, count })
            .collect();
        edges.sort_by_key(|e| (e.from, e.to));
        let mut contexts: Vec<ContextProfile> = self
            .contexts
            .into_iter()
            .map(|((pred, node), c)| ContextProfile {
                pred,
                node,
                count: c.count,
                reg_deps: c.reg_deps,
                mem_deps: c.mem_deps,
            })
            .collect();
        contexts.sort_by_key(|c| (c.node, c.pred));
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

impl Observer for MapProfiler {
    fn on_retire(&mut self, d: &DynInstr) {
        let node = match self.cur_node {
            Some(n) => n,
            None => {
                let n = self.intern_node(d.pc);
                self.cur_node = Some(n);
                self.nodes[n as usize].execs += 1;
                if self.prev_node != ENTRY {
                    *self.edges.entry((self.prev_node, n)).or_insert(0) += 1;
                }
                self.cur_ctx = (self.prev_node, n);
                self.contexts.entry(self.cur_ctx).or_default().count += 1;
                n
            }
        };
        let collecting = self.nodes[node as usize].collecting;

        let mut stream_id = None;
        if let Some((_, width, is_store)) = d.instr.mem_ref() {
            stream_id = Some(self.intern_stream(d.pc, is_store, width.bytes() as u8));
        }
        if collecting {
            let n = &mut self.nodes[node as usize];
            n.size += 1;
            n.class_counts[d.instr.class().index()] += 1;
            if let Some(sid) = stream_id {
                n.mem_ops.push(sid);
            }
        }

        let pos = self.pos + 1;
        {
            let ctx = self.contexts.entry(self.cur_ctx).or_default();
            for u in d.instr.uses() {
                let w = self.reg_writer[u.flat_index()];
                if w != 0 {
                    ctx.reg_deps.record(pos - w);
                }
            }
            if let Some(m) = d.mem {
                if !m.is_store {
                    if let Some(&w) = self.mem_writer.get(&(m.addr >> 3)) {
                        ctx.mem_deps.record(pos - w);
                    }
                }
            }
        }
        for def in d.instr.defs() {
            self.reg_writer[def.flat_index()] = pos;
        }
        if let Some(m) = d.mem {
            if m.is_store {
                let first = m.addr >> 3;
                let last = m.addr.wrapping_add(u64::from(m.bytes) - 1) >> 3;
                if first <= last {
                    for chunk in first..=last {
                        self.mem_writer.insert(chunk, pos);
                    }
                } else {
                    // The bytes wrap past the top of the address space.
                    for chunk in (first..=LAST_CHUNK).chain(0..=last) {
                        self.mem_writer.insert(chunk, pos);
                    }
                }
            }
            if let Some(sid) = stream_id {
                self.streams[sid as usize].access(m.addr);
            }
        }

        if d.instr.is_cond_branch() {
            let bid = self.intern_branch(d.pc);
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
            let idx = self.global_history as usize;
            let predicted = b.counters[idx] >= 2;
            if predicted == d.taken {
                b.history_hits += 1;
            }
            let c = &mut b.counters[idx];
            *c = if d.taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
            self.global_history = self.global_history.wrapping_shl(1) | u8::from(d.taken);
        }

        let ends = d.instr.is_control() || matches!(d.instr, Instr::Halt);
        if ends {
            self.nodes[node as usize].collecting = false;
            self.prev_node = node;
            self.cur_node = None;
        }

        self.pos += 1;
    }
}
