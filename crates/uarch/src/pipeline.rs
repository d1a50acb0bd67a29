//! Trace-driven superscalar pipeline timing model (the SimpleScalar
//! `sim-outorder` analogue).
//!
//! The pipeline consumes the correct-path retired-instruction stream of the
//! functional core ([`DynInstr`]) and models fetch (I-cache + branch
//! prediction), dispatch into a ROB/LSQ, out-of-order or in-order issue over
//! a functional-unit pool, execution latencies, a two-level data-cache
//! hierarchy, and in-order commit. Branch mispredictions stall fetch from
//! the mispredicted branch until it resolves, modelling the wrong-path
//! bubble without executing wrong-path instructions.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error as StdError;
use std::fmt;

use perfclone_isa::{InstrClass, InstrMeta};
use perfclone_sim::{BatchReplay, DynInstr, MemAccess, ReplayChunk};

use crate::cache::{Cache, CacheStats};
use crate::config::{IssuePolicy, MachineConfig};
use crate::predictor::{BranchPredictor, PredictorStats};

/// Execution latency (cycles) for an instruction class, excluding memory.
fn exec_latency(class: InstrClass) -> u32 {
    match class {
        InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => 1,
        InstrClass::IntMul => 3,
        InstrClass::IntDiv => 20,
        InstrClass::FpAlu => 2,
        InstrClass::FpMul => 4,
        InstrClass::FpDiv => 12,
        InstrClass::Load | InstrClass::Store => 1, // address generation
    }
}

/// One retired record with its static facts pre-resolved — the common
/// currency of the pipeline's two front ends. The iterator front end
/// derives it per record via [`InstrMeta::of`]; the batched front end reads
/// the pre-interned per-pc table, so neither touches the instruction enum
/// on the fetch hot path.
#[derive(Clone, Copy, Debug)]
struct FetchRec {
    pc: u32,
    taken: bool,
    redirected: bool,
    cond_branch: bool,
    class: InstrClass,
    num_uses: u8,
    num_defs: u8,
    use_idx: [u8; 3],
    def_idx: [u8; 3],
    is_load: bool,
    is_store: bool,
    addr: u64,
    bytes: u8,
}

impl FetchRec {
    #[inline]
    fn new(m: &InstrMeta, pc: u32, next_pc: u32, taken: bool, mem: Option<MemAccess>) -> FetchRec {
        let (is_load, is_store, addr, bytes) = match mem {
            Some(a) => (!a.is_store, a.is_store, a.addr, a.bytes),
            None => (false, false, 0, 0),
        };
        FetchRec {
            pc,
            taken,
            redirected: next_pc != pc.wrapping_add(1),
            cond_branch: m.cond_branch,
            class: m.class,
            num_uses: m.num_uses,
            num_defs: m.num_defs,
            use_idx: m.use_idx,
            def_idx: m.def_idx,
            is_load,
            is_store,
            addr,
            bytes,
        }
    }

    #[inline]
    fn from_dyn(d: &DynInstr) -> FetchRec {
        FetchRec::new(&InstrMeta::of(&d.instr), d.pc, d.next_pc, d.taken, d.mem)
    }

    /// Flat rename-table indices of source registers, in `Instr::uses` order.
    #[inline]
    fn uses(&self) -> &[u8] {
        &self.use_idx[..usize::from(self.num_uses)]
    }

    /// Flat rename-table indices of destination registers.
    #[inline]
    fn defs(&self) -> &[u8] {
        &self.def_idx[..usize::from(self.num_defs)]
    }
}

/// Record supply for [`Pipeline::run_inner`]: pulls one [`FetchRec`] at a
/// time from whichever front end backs it.
trait RecordSource {
    fn pull(&mut self) -> Option<FetchRec>;
}

/// Record-at-a-time front end over any [`DynInstr`] iterator (interpreter
/// output, statsim synthetic traces, or the replay oracle).
struct IterSource<I>(I);

impl<I: Iterator<Item = DynInstr>> RecordSource for IterSource<I> {
    #[inline]
    fn pull(&mut self) -> Option<FetchRec> {
        self.0.next().map(|d| FetchRec::from_dyn(&d))
    }
}

/// Batched front end: drains a [`BatchReplay`] chunk-by-chunk, re-entering
/// the decoder once per [`ReplayChunk`](perfclone_sim::ReplayChunk) instead
/// of once per record. Publishes `replay.batch.*` counters when dropped.
struct BatchSource<'a> {
    replay: BatchReplay<'a>,
    chunk: Box<ReplayChunk>,
    pos: usize,
    chunks: u64,
    records: u64,
}

impl<'a> BatchSource<'a> {
    fn new(replay: BatchReplay<'a>) -> BatchSource<'a> {
        BatchSource { replay, chunk: Box::new(ReplayChunk::new()), pos: 0, chunks: 0, records: 0 }
    }
}

impl RecordSource for BatchSource<'_> {
    #[inline]
    fn pull(&mut self) -> Option<FetchRec> {
        if self.pos == self.chunk.len() {
            let n = self.replay.fill(&mut self.chunk);
            // A drained fill resets the chunk to empty; reset the cursor
            // with it so re-polling (the run loop peeks every cycle while
            // the window drains) keeps hitting this refill path.
            self.pos = 0;
            if n == 0 {
                return None;
            }
            self.chunks += 1;
            self.records += n as u64;
        }
        let i = self.pos;
        self.pos += 1;
        let pc = self.chunk.pc(i);
        let m = &self.replay.meta()[pc as usize];
        Some(FetchRec::new(m, pc, self.chunk.next_pc(i), self.chunk.taken(i), self.chunk.mem(i)))
    }
}

impl Drop for BatchSource<'_> {
    fn drop(&mut self) {
        if self.chunks > 0 {
            perfclone_obs::count!("replay.batch.chunks", self.chunks);
            perfclone_obs::count!("replay.batch.records", self.records);
        }
    }
}

/// One-slot lookahead on top of a [`RecordSource`], giving fetch the
/// peek/consume protocol without `Peekable`'s per-record iterator dispatch.
struct Feed<S: RecordSource> {
    src: S,
    look: Option<FetchRec>,
}

impl<S: RecordSource> Feed<S> {
    fn new(src: S) -> Feed<S> {
        Feed { src, look: None }
    }

    #[inline]
    fn peek(&mut self) -> Option<&FetchRec> {
        if self.look.is_none() {
            self.look = self.src.pull();
        }
        self.look.as_ref()
    }

    #[inline]
    fn take(&mut self) -> Option<FetchRec> {
        self.look.take().or_else(|| self.src.pull())
    }
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    seq: u64,
    class: InstrClass,
    /// Finished executing; commit may retire it.
    done: bool,
    /// For a load: one past the sequence number of the youngest older
    /// overlapping store in the ROB at dispatch, or 0 when there is none.
    /// Stores commit in order, so the load forwards iff that store is
    /// still in the ROB when the load issues (`fwd_end > front_seq`).
    fwd_end: u64,
    is_store: bool,
    is_load: bool,
    addr: u64,
    bytes: u8,
    mispredicted: bool,
    num_uses: u8,
    num_defs: u8,
}

impl RobEntry {
    /// Slab filler for [`Window`]; never observed by the model.
    const EMPTY: RobEntry = RobEntry {
        seq: 0,
        class: InstrClass::IntAlu,
        done: false,
        fwd_end: 0,
        is_store: false,
        is_load: false,
        addr: 0,
        bytes: 0,
        mispredicted: false,
        num_uses: 0,
        num_defs: 0,
    };
}

/// A store in the ROB, as a dispatching load checks it: the store queue
/// holds these oldest first, so the check walks stores only, not the ROB.
#[derive(Clone, Copy, Debug)]
struct StoreRef {
    seq: u64,
    addr: u64,
    bytes: u64,
}

/// Whether the byte ranges `[a, a + a_len)` and `[b, b + b_len)` overlap,
/// each wrapping at the top of the address space as the functional
/// simulator's memory wraps it.
#[inline]
fn overlaps(a: u64, a_len: u64, b: u64, b_len: u64) -> bool {
    b.wrapping_sub(a) < a_len || a.wrapping_sub(b) < b_len
}

/// Fixed-capacity power-of-two ring holding the in-flight window. The
/// capacity covers the configured ROB plus fetch queue, so pushes guarded
/// by those limits can never overflow; indexing is a mask and an add with
/// none of `VecDeque`'s wrap/bounds branching. Sequence numbers start at 0
/// and every fetched entry is pushed once, in order, so an entry's slot is
/// its sequence number masked to the capacity.
#[derive(Debug)]
struct Window {
    slab: Box<[RobEntry]>,
    mask: usize,
    head: usize,
    len: usize,
}

impl Window {
    fn new(min_cap: usize) -> Window {
        let cap = (min_cap + 1).next_power_of_two();
        Window {
            slab: vec![RobEntry::EMPTY; cap].into_boxed_slice(),
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slab[self.head])
    }

    #[inline]
    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len <= self.mask, "window sized for ROB + fetch queue");
        let i = (self.head + self.len) & self.mask;
        self.slab[i] = e;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.slab[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(e)
    }

    #[inline]
    fn at(&self, i: usize) -> &RobEntry {
        debug_assert!(i < self.len);
        &self.slab[(self.head + i) & self.mask]
    }

    /// The slot holding sequence number `seq`.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        seq as usize & self.mask
    }
}

/// Event-driven readiness over window slots. An entry subscribes to each
/// producer that has not finished by setting its bit in that producer's
/// consumer mask, and counts the producers it waits on: at rename, the
/// last writers of its source registers; at dispatch, for a load, every
/// older overlapping store. When a producer finishes,
/// [`finish`](WakeSets::finish) walks its mask and decrements each
/// consumer's count; a consumer reaching zero sets its bit in the ready
/// set, which issue walks oldest-first with `trailing_zeros`. Per-cycle
/// issue cost is O(ready + woken), not O(window).
#[derive(Debug)]
struct WakeSets {
    /// `u64` words per slot bitset: `cap / 64`, at least one.
    words: usize,
    /// Dispatched, unissued entries with no unfinished producer.
    ready: Box<[u64]>,
    /// Bits set in `ready`, so issue skips the walk when it is empty.
    ready_len: u32,
    /// `words` words per producer slot: the consumer slots waiting on it.
    consumers: Box<[u64]>,
    /// Unfinished producers per consumer slot.
    pending: Box<[u32]>,
}

impl WakeSets {
    fn new(cap: usize) -> WakeSets {
        let words = cap.div_ceil(64);
        WakeSets {
            words,
            ready: vec![0; words].into_boxed_slice(),
            ready_len: 0,
            consumers: vec![0; cap * words].into_boxed_slice(),
            pending: vec![0; cap].into_boxed_slice(),
        }
    }

    /// Subscribes consumer slot `c` to producer slot `p` if `live`,
    /// returning 1 when that added a subscription and 0 otherwise, so no
    /// producer is counted twice. Branch-free: which producers are still
    /// live is data-dependent and predicts poorly.
    #[inline]
    fn subscribe(&mut self, p: usize, c: usize, live: bool) -> u32 {
        let word = &mut self.consumers[p * self.words + c / 64];
        let bit = u64::from(live) << (c % 64);
        let fresh = bit & !*word;
        *word |= bit;
        u32::from(fresh != 0)
    }

    /// Starts slot `c`'s count at rename: its unfinished register
    /// producers plus a dispatch token, so that it cannot become ready
    /// while it is still in the fetch queue.
    #[inline]
    fn hold(&mut self, c: usize, producers: u32) {
        self.pending[c] = producers + 1;
    }

    /// Dispatches slot `c`: adds the `stores` it waits on and drops the
    /// dispatch token.
    #[inline]
    fn release(&mut self, c: usize, stores: u32) {
        let pending = self.pending[c] + stores - 1;
        self.pending[c] = pending;
        self.set_ready_if(c, pending == 0);
    }

    #[inline]
    fn is_ready(&self, c: usize) -> bool {
        self.ready[c / 64] & (1 << (c % 64)) != 0
    }

    /// Sets slot `c`'s ready bit if `ready`, without branching on it.
    #[inline]
    fn set_ready_if(&mut self, c: usize, ready: bool) {
        self.ready[c / 64] |= u64::from(ready) << (c % 64);
        self.ready_len += u32::from(ready);
    }

    #[inline]
    fn clear_ready(&mut self, c: usize) {
        self.ready[c / 64] &= !(1 << (c % 64));
        self.ready_len -= 1;
    }

    /// Producer slot `p` finished: counts down each of its consumers.
    #[inline]
    fn finish(&mut self, p: usize) {
        for k in 0..self.words {
            let i = p * self.words + k;
            let mut mask = self.consumers[i];
            if mask == 0 {
                continue;
            }
            self.consumers[i] = 0;
            while mask != 0 {
                let c = k * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.pending[c] -= 1;
                self.set_ready_if(c, self.pending[c] == 0);
            }
        }
    }
}

/// Functional units still free in the current issue cycle.
struct FreeUnits {
    int_alu: u32,
    int_mul: u32,
    fp_alu: u32,
    fp_mul: u32,
    mem_ports: u32,
}

/// Per-structure activity counts for the power model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Activity {
    /// Instructions fetched.
    pub fetches: u64,
    /// Instructions dispatched into the window.
    pub dispatches: u64,
    /// Instructions issued to functional units.
    pub issues: u64,
    /// Instructions committed.
    pub commits: u64,
    /// Integer ALU operations executed (incl. branches).
    pub int_alu_ops: u64,
    /// Integer multiply/divide operations executed.
    pub int_mul_ops: u64,
    /// FP ALU operations executed.
    pub fp_alu_ops: u64,
    /// FP multiply/divide operations executed.
    pub fp_mul_ops: u64,
    /// Architectural register file reads.
    pub regfile_reads: u64,
    /// Architectural register file writes.
    pub regfile_writes: u64,
    /// Sum over cycles of ROB occupancy (for mean occupancy).
    pub rob_occupancy_sum: u64,
    /// Sum over cycles of LSQ occupancy.
    pub lsq_occupancy_sum: u64,
    /// Cycles the fetch stage was stalled on a branch misprediction.
    pub mispredict_stall_cycles: u64,
    /// Cycles the fetch stage was stalled on an I-cache miss.
    pub icache_stall_cycles: u64,
}

/// Results of one pipeline run. Every field is an exact integer count,
/// so `==` is the bit-identity the replay-equivalence tests rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineReport {
    /// Total simulation cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub instrs: u64,
    /// L1 I-cache statistics.
    pub l1i: CacheStats,
    /// L1 D-cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Branch predictor statistics.
    pub bpred: PredictorStats,
    /// Structure activity counts.
    pub activity: Activity,
}

impl PipelineReport {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// L1-D misses per committed instruction.
    pub fn l1d_mpi(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.l1d.misses as f64 / self.instrs as f64
        }
    }
}

/// Errors surfaced by a budgeted pipeline run.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// The run reached its cycle budget before the trace drained — the
    /// runaway guard for pathological inputs. Carries the partial report
    /// accumulated up to the budget, so callers can still inspect how far
    /// the run got.
    BudgetExhausted {
        /// The cycle budget that was exhausted.
        max_cycles: u64,
        /// Statistics accumulated before the budget tripped.
        report: Box<PipelineReport>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::BudgetExhausted { max_cycles, report } => write!(
                f,
                "pipeline did not drain within the {max_cycles}-cycle budget \
                 ({} instructions committed)",
                report.instrs
            ),
        }
    }
}

impl StdError for PipelineError {}

/// The pipeline simulator. Construct with a [`MachineConfig`], then feed a
/// trace with [`run`](Pipeline::run).
#[derive(Debug)]
pub struct Pipeline {
    config: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    bpred: BranchPredictor,
    cycle: u64,
    /// The in-flight window: entries `[0, rob_len)` are the ROB, entries
    /// `[rob_len, len)` are the fetch queue. Instructions flow strictly
    /// FIFO from fetch through dispatch to commit, so one ring with a
    /// partition index models both queues and dispatch moves the
    /// partition instead of copying entries between deques.
    rob: Window,
    /// Number of entries at the front of [`rob`](Pipeline::rob) that have
    /// been dispatched into the reorder buffer.
    rob_len: usize,
    lsq_count: u32,
    next_seq: u64,
    fetch_blocked_on: Option<u64>,
    icache_ready_at: u64,
    last_fetch_line: u64,
    /// `log2(l1i.line_bytes)` — line sizes are asserted powers of two, so
    /// the per-record line computation in fetch is a shift, not a divide.
    l1i_line_shift: u32,
    /// `l2.line_bytes / mem_bus_bytes`, the memory burst transfer cycles,
    /// hoisted out of the per-miss latency computation.
    mem_burst_cycles: u32,
    int_div_busy_until: u64,
    fp_div_busy_until: u64,
    last_writer: [Option<u64>; 64],
    activity: Activity,
    committed: u64,
    /// Earliest `done_at` among Executing entries (`u64::MAX` when none):
    /// lets [`writeback`](Pipeline::writeback) skip work on cycles where
    /// nothing can possibly finish.
    next_done_at: u64,
    /// Pending completions as `(done_at, seq)`, pushed at issue time: an
    /// Executing entry cannot leave the ROB (commit requires Done), so
    /// [`writeback`](Pipeline::writeback) promotes exactly the heap
    /// entries with `done_at <= cycle` instead of scanning the window.
    done_heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Consumer masks, pending counts and the ready set over window slots.
    wake: WakeSets,
    /// The store queue: stores in the ROB, oldest first.
    stores: VecDeque<StoreRef>,
}

impl Pipeline {
    /// Creates a pipeline with cold caches and predictor.
    pub fn new(config: MachineConfig) -> Pipeline {
        let rob = Window::new((config.rob_size + config.fetch_queue) as usize);
        let wake = WakeSets::new(rob.slab.len());
        Pipeline {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            bpred: BranchPredictor::new(config.predictor),
            cycle: 0,
            rob,
            rob_len: 0,
            lsq_count: 0,
            next_seq: 0,
            fetch_blocked_on: None,
            icache_ready_at: 0,
            last_fetch_line: u64::MAX,
            l1i_line_shift: config.l1i.line_bytes.trailing_zeros(),
            mem_burst_cycles: config.l2.line_bytes / config.mem_bus_bytes,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            last_writer: [None; 64],
            activity: Activity::default(),
            committed: 0,
            next_done_at: u64::MAX,
            done_heap: BinaryHeap::with_capacity(config.rob_size as usize + 1),
            wake,
            stores: VecDeque::with_capacity(config.lsq_size as usize),
        }
    }

    /// Runs the pipeline over a correct-path trace until every instruction
    /// has committed, returning the report.
    pub fn run<I: IntoIterator<Item = DynInstr>>(self, trace: I) -> PipelineReport {
        self.run_inner(Feed::new(IterSource(trace.into_iter())), u64::MAX).0
    }

    /// Runs the pipeline over a batched trace decoder until every
    /// instruction has committed. Consumes the trace chunk-by-chunk —
    /// avoiding per-record iterator dispatch and per-record `Instr`
    /// inspection — but models the *same* record stream as
    /// [`run`](Pipeline::run) over the replay oracle, bit-identically
    /// (property-tested in the workspace replay suites).
    pub fn run_batched(self, replay: BatchReplay<'_>) -> PipelineReport {
        self.run_inner(Feed::new(BatchSource::new(replay)), u64::MAX).0
    }

    /// [`run_batched`](Pipeline::run_batched) with a cycle budget, mirroring
    /// [`run_budgeted`](Pipeline::run_budgeted).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BudgetExhausted`] when the budget trips.
    pub fn run_batched_budgeted(
        self,
        replay: BatchReplay<'_>,
        max_cycles: u64,
    ) -> Result<PipelineReport, PipelineError> {
        let (report, exhausted) = self.run_inner(Feed::new(BatchSource::new(replay)), max_cycles);
        if exhausted {
            Err(PipelineError::BudgetExhausted { max_cycles, report: Box::new(report) })
        } else {
            Ok(report)
        }
    }

    /// [`run`](Pipeline::run) with a cycle budget: if the trace has not
    /// drained within `max_cycles`, returns
    /// [`PipelineError::BudgetExhausted`] carrying the partial report —
    /// the runaway guard for pathological (e.g. synthesized) inputs.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BudgetExhausted`] when the budget trips.
    pub fn run_budgeted<I: IntoIterator<Item = DynInstr>>(
        self,
        trace: I,
        max_cycles: u64,
    ) -> Result<PipelineReport, PipelineError> {
        let (report, exhausted) =
            self.run_inner(Feed::new(IterSource(trace.into_iter())), max_cycles);
        if exhausted {
            Err(PipelineError::BudgetExhausted { max_cycles, report: Box::new(report) })
        } else {
            Ok(report)
        }
    }

    fn run_inner<S: RecordSource>(
        mut self,
        mut trace: Feed<S>,
        max_cycles: u64,
    ) -> (PipelineReport, bool) {
        let mut exhausted = false;
        loop {
            let trace_empty = trace.peek().is_none();
            if trace_empty && self.rob.is_empty() {
                break;
            }
            if self.cycle >= max_cycles {
                exhausted = true;
                break;
            }
            self.cycle += 1;
            let committed = self.committed;
            let issues = self.activity.issues;
            let dispatches = self.activity.dispatches;
            let fetches = self.activity.fetches;
            let wrote_back = self.next_done_at <= self.cycle;
            self.commit();
            self.writeback();
            self.issue();
            self.dispatch();
            self.fetch(&mut trace);
            self.activity.rob_occupancy_sum += self.rob_len as u64;
            self.activity.lsq_occupancy_sum += u64::from(self.lsq_count);
            // Stall skip: on a quiescent cycle (no stage moved anything),
            // the model's state is frozen until the next event — the
            // earliest in-flight completion (which also unblocks commit,
            // dependents, and a mispredict-blocked fetch), the I-cache
            // line arrival, or a divider becoming free. Every one of
            // those times is tracked exactly, so jumping there and
            // accumulating the per-cycle statistics in bulk is
            // bit-identical to stepping cycle by cycle.
            let quiescent = !wrote_back
                && committed == self.committed
                && issues == self.activity.issues
                && dispatches == self.activity.dispatches
                && fetches == self.activity.fetches;
            if quiescent {
                let mut ev = u64::MAX;
                if self.next_done_at > self.cycle {
                    ev = ev.min(self.next_done_at);
                }
                if self.fetch_blocked_on.is_none() && self.icache_ready_at > self.cycle {
                    ev = ev.min(self.icache_ready_at);
                }
                // A ready div/mul may be gated only on the divider. When
                // none is, the extra event merely shortens the skip.
                if self.int_div_busy_until > self.cycle {
                    ev = ev.min(self.int_div_busy_until);
                }
                if self.fp_div_busy_until > self.cycle {
                    ev = ev.min(self.fp_div_busy_until);
                }
                if ev != u64::MAX && ev > self.cycle + 1 {
                    // Land one cycle short of the event so the normal loop
                    // body executes the event cycle itself; never skip past
                    // the budget (its last cycle must run, then trip).
                    let target = (ev - 1).min(max_cycles);
                    let k = target.saturating_sub(self.cycle);
                    self.cycle = target;
                    self.activity.rob_occupancy_sum += k * self.rob_len as u64;
                    self.activity.lsq_occupancy_sum += k * u64::from(self.lsq_count);
                    // Replicate fetch's per-cycle stall accounting for the
                    // skipped cycles (its branch conditions are constant
                    // across them: no writeback ran, so the block holds,
                    // and the line-arrival time is beyond the target).
                    if self.fetch_blocked_on.is_some() {
                        self.activity.mispredict_stall_cycles += k;
                    } else if self.icache_ready_at > target {
                        self.activity.icache_stall_cycles += k;
                    }
                }
            }
            // Defensive bound: a liveness bug would otherwise spin forever.
            debug_assert!(
                self.cycle < 1_000 + 2_000 * (self.committed + 100),
                "pipeline livelock at cycle {}",
                self.cycle
            );
        }
        let report = PipelineReport {
            cycles: self.cycle,
            instrs: self.committed,
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            bpred: self.bpred.stats(),
            activity: self.activity,
        };
        (report, exhausted)
    }

    /// Walks the data hierarchy for one access, returning its latency.
    fn data_latency(&mut self, addr: u64, is_write: bool) -> u32 {
        let r1 = self.l1d.access(addr, is_write);
        if r1.hit {
            return 1;
        }
        let r2 = self.l2.access(addr, false);
        if r1.writeback {
            // L1 victim write-back consumes an L2 write access.
            self.l2.access(addr, true);
        }
        if r2.hit {
            1 + self.config.l2_latency
        } else {
            1 + self.config.l2_latency + self.config.mem_latency + self.mem_burst_cycles
        }
    }

    fn commit(&mut self) {
        for _ in 0..self.config.commit_width {
            if self.rob_len == 0 {
                break; // window front is a fetch-queue entry (or empty)
            }
            match self.rob.front() {
                Some(e) if e.done => {}
                _ => break,
            }
            let Some(e) = self.rob.pop_front() else { break };
            self.rob_len -= 1;
            if e.is_store {
                // Stores write the D-cache at commit; latency is absorbed
                // by the write buffer.
                let r1 = self.l1d.access(e.addr, true);
                if !r1.hit {
                    self.l2.access(e.addr, false);
                    if r1.writeback {
                        self.l2.access(e.addr, true);
                    }
                }
                self.stores.pop_front();
            }
            if e.is_store || e.is_load {
                self.lsq_count -= 1;
            }
            self.activity.commits += 1;
            self.activity.regfile_writes += u64::from(e.num_defs);
            self.committed += 1;
        }
    }

    fn writeback(&mut self) {
        let cycle = self.cycle;
        if self.next_done_at > cycle {
            return; // nothing can finish this cycle
        }
        // Promote exactly the completions due by now. Promotion order
        // within a cycle is immaterial: each entry's effects (Done state,
        // consumer wakeups, mispredict bookkeeping) are independent of the
        // others'.
        while let Some(&Reverse((done_at, seq))) = self.done_heap.peek() {
            if done_at > cycle {
                break;
            }
            self.done_heap.pop();
            let slot = self.rob.slot(seq);
            let e = &mut self.rob.slab[slot];
            debug_assert_eq!(e.seq, seq, "Executing entries stay in the ROB");
            e.done = true;
            if e.mispredicted && self.fetch_blocked_on == Some(seq) {
                self.fetch_blocked_on = None;
            }
            self.wake.finish(slot);
        }
        self.next_done_at = self.done_heap.peek().map_or(u64::MAX, |&Reverse((d, _))| d);
    }

    /// Sequence number of the window's oldest entry: the window holds the
    /// contiguous range `[front_seq, next_seq)`.
    #[inline]
    fn front_seq(&self) -> u64 {
        self.next_seq - self.rob.len() as u64
    }

    /// `true` when the producer with sequence number `w` has finished
    /// execution (or already committed). Every older entry is either
    /// committed (below `front_seq`) or in the window, so the answer is
    /// one slot lookup.
    #[inline]
    fn producer_done(&self, front_seq: u64, w: u64) -> bool {
        (w < front_seq) | self.rob.slab[self.rob.slot(w)].done
    }

    /// Issues ready entries oldest-first under the per-class unit budgets.
    fn issue(&mut self) {
        if self.wake.ready_len == 0 {
            return;
        }
        let front_seq = self.front_seq();
        let c = &self.config;
        // Every issue takes one unit, so issue also ends when all are busy.
        let units = [c.int_alu, c.int_mul, c.fp_alu, c.fp_mul, c.mem_ports];
        let mut budget = c.issue_width.min(units.into_iter().fold(0, u32::saturating_add));
        if budget == 0 {
            return;
        }
        let mut free = FreeUnits {
            int_alu: c.int_alu,
            int_mul: c.int_mul,
            fp_alu: c.fp_alu,
            fp_mul: c.fp_mul,
            mem_ports: c.mem_ports,
        };
        if c.issue_policy == IssuePolicy::InOrder {
            // Issue proceeds in program order from sequence number 0, so
            // the oldest unissued entry is the one numbered by the issue
            // count. Its slot's ready bit is clear unless it is dispatched
            // and its producers have finished.
            while budget > 0 {
                let slot = self.rob.slot(self.activity.issues);
                if !self.wake.is_ready(slot) || !self.try_issue(slot, front_seq, &mut free) {
                    return;
                }
                budget -= 1;
            }
            return;
        }
        // Out of order: walk the ready set in ring order from the head
        // slot. The head word's bits at and above the head come first,
        // then the following words, then the head word's low bits: the
        // slots that wrapped around the ring, which hold the youngest
        // entries.
        let words = self.wake.words; // a power of two, as the capacity is
        let (head_word, head_bit) = (self.rob.head / 64, self.rob.head % 64);
        for k in 0..=words {
            let w = (head_word + k) & (words - 1);
            let mut bits = self.wake.ready[w];
            if k == 0 {
                bits &= u64::MAX << head_bit;
            } else if k == words {
                bits &= (1 << head_bit) - 1;
            }
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.try_issue(slot, front_seq, &mut free) {
                    budget -= 1;
                    if budget == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Issues the ready entry in `slot` if its functional unit (and, for a
    /// multiply or divide, its divider) is free; returns whether it did.
    fn try_issue(&mut self, slot: usize, front_seq: u64, free: &mut FreeUnits) -> bool {
        let cycle = self.cycle;
        let e = &self.rob.slab[slot];
        let (seq, class, is_load, fwd_end, addr) = (e.seq, e.class, e.is_load, e.fwd_end, e.addr);
        let num_uses = e.num_uses;
        let (unit, divider) = match class {
            InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => (&mut free.int_alu, 0),
            InstrClass::IntMul | InstrClass::IntDiv => (&mut free.int_mul, self.int_div_busy_until),
            InstrClass::FpAlu => (&mut free.fp_alu, 0),
            InstrClass::FpMul | InstrClass::FpDiv => (&mut free.fp_mul, self.fp_div_busy_until),
            InstrClass::Load | InstrClass::Store => (&mut free.mem_ports, 0),
        };
        if *unit == 0 || divider > cycle {
            return false;
        }
        *unit -= 1;
        self.wake.clear_ready(slot);
        let lat = if !is_load {
            exec_latency(class)
        } else if fwd_end > front_seq {
            2 // agen + forward from a store still in the ROB
        } else {
            1 + self.data_latency(addr, false)
        };
        let done_at = cycle + u64::from(lat);
        self.next_done_at = self.next_done_at.min(done_at);
        self.done_heap.push(Reverse((done_at, seq)));
        self.activity.issues += 1;
        self.activity.regfile_reads += u64::from(num_uses);
        match class {
            InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => {
                self.activity.int_alu_ops += 1;
            }
            InstrClass::IntMul => self.activity.int_mul_ops += 1,
            InstrClass::IntDiv => {
                self.int_div_busy_until = done_at;
                self.activity.int_mul_ops += 1;
            }
            InstrClass::FpAlu => self.activity.fp_alu_ops += 1,
            InstrClass::FpMul => self.activity.fp_mul_ops += 1,
            InstrClass::FpDiv => {
                self.fp_div_busy_until = done_at;
                self.activity.fp_mul_ops += 1;
            }
            InstrClass::Load | InstrClass::Store => {}
        }
        true
    }

    fn dispatch(&mut self) {
        for _ in 0..self.config.decode_width {
            if self.rob_len == self.rob.len() {
                break; // fetch-queue partition is empty
            }
            if self.rob_len >= self.config.rob_size as usize {
                break;
            }
            let e = self.rob.at(self.rob_len);
            let (seq, is_load, is_store, addr) = (e.seq, e.is_load, e.is_store, e.addr);
            let bytes = u64::from(e.bytes);
            let is_mem = is_load || is_store;
            if is_mem && self.lsq_count >= self.config.lsq_size {
                break;
            }
            // Admit the entry by moving the partition: no data moves.
            self.rob_len += 1;
            if is_mem {
                self.lsq_count += 1;
            }
            let slot = self.rob.slot(seq);
            let mut stores = 0;
            if is_load {
                // A load waits for every older overlapping store to finish,
                // and forwards from the youngest if it is still in the ROB
                // when the load issues.
                let front_seq = self.front_seq();
                let mut fwd_end = 0;
                for st in self.stores.iter().rev() {
                    if overlaps(addr, bytes, st.addr, st.bytes) {
                        fwd_end = fwd_end.max(st.seq + 1);
                        let live = !self.producer_done(front_seq, st.seq);
                        stores += self.wake.subscribe(self.rob.slot(st.seq), slot, live);
                    }
                }
                self.rob.slab[slot].fwd_end = fwd_end;
            }
            if is_store {
                self.stores.push_back(StoreRef { seq, addr, bytes });
            }
            self.wake.release(slot, stores);
            self.activity.dispatches += 1;
        }
    }

    fn fetch<S: RecordSource>(&mut self, trace: &mut Feed<S>) {
        if self.fetch_blocked_on.is_some() {
            // Blocked until the mispredicted branch resolves; writeback
            // clears the block.
            self.activity.mispredict_stall_cycles += 1;
            return;
        }
        if self.icache_ready_at > self.cycle {
            self.activity.icache_stall_cycles += 1;
            return;
        }
        let mut budget = self.config.fetch_width;
        while budget > 0 && self.rob.len() - self.rob_len < self.config.fetch_queue as usize {
            let Some(&d) = trace.peek() else { break };
            // I-cache access, one per new line.
            let addr = perfclone_isa::Program::instr_addr(d.pc);
            let line = addr >> self.l1i_line_shift;
            if line != self.last_fetch_line {
                let r = self.l1i.access(addr, false);
                self.last_fetch_line = line;
                if !r.hit {
                    let r2 = self.l2.access(addr, false);
                    let lat = if r2.hit {
                        self.config.l2_latency
                    } else {
                        self.config.l2_latency + self.config.mem_latency + self.mem_burst_cycles
                    };
                    self.icache_ready_at = self.cycle + u64::from(lat);
                    return; // instruction fetched once the line arrives
                }
            }
            let Some(d) = trace.take() else { break };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.activity.fetches += 1;

            // Rename: subscribe to the last writer of each source
            // register that has not finished. A register read twice
            // subscribes once.
            let slot = self.rob.slot(seq);
            let front_seq = seq - self.rob.len() as u64; // not yet pushed
            let mut producers = 0;
            for &u in d.uses() {
                if let Some(w) = self.last_writer[usize::from(u)] {
                    let live = !self.producer_done(front_seq, w);
                    producers += self.wake.subscribe(self.rob.slot(w), slot, live);
                }
            }
            self.wake.hold(slot, producers);
            let mut entry = RobEntry {
                seq,
                class: d.class,
                done: false,
                fwd_end: 0,
                is_store: d.is_store,
                is_load: d.is_load,
                addr: d.addr,
                bytes: d.bytes,
                mispredicted: false,
                num_uses: d.num_uses,
                num_defs: d.num_defs,
            };
            // Record this instruction as the latest writer of its defs.
            for &def in d.defs() {
                self.last_writer[usize::from(def)] = Some(seq);
            }
            budget -= 1;

            let mut stop = false;
            if d.cond_branch {
                let pred = self.bpred.predict_and_update(d.pc, d.taken);
                if pred != d.taken {
                    entry.mispredicted = true;
                    self.fetch_blocked_on = Some(seq);
                    stop = true;
                } else if d.taken {
                    stop = true; // taken-branch fetch break
                }
            } else if d.redirected {
                stop = true; // jumps break the fetch group
            }
            self.rob.push_back(entry);
            if stop {
                self.last_fetch_line = u64::MAX;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::base_config;
    use perfclone_isa::{ProgramBuilder, Reg};
    use perfclone_sim::Simulator;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn run_program(p: &perfclone_isa::Program, config: MachineConfig) -> PipelineReport {
        Pipeline::new(config).run(Simulator::trace(p, u64::MAX))
    }

    /// An independent-ALU-op loop: ILP limited only by width.
    fn alu_loop(n: i64) -> perfclone_isa::Program {
        let mut b = ProgramBuilder::new("alu");
        let (i, lim) = (r(1), r(2));
        b.li(i, 0);
        b.li(lim, n);
        let top = b.label();
        b.bind(top);
        b.addi(r(3), r(3), 1);
        b.addi(r(4), r(4), 1);
        b.addi(r(5), r(5), 1);
        b.addi(r(6), r(6), 1);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        b.build()
    }

    #[test]
    fn commits_every_instruction() {
        let p = alu_loop(100);
        let rep = run_program(&p, base_config());
        assert_eq!(rep.instrs, 2 + 600 + 1);
        assert!(rep.cycles > 0);
    }

    #[test]
    fn ipc_bounded_by_issue_width() {
        let p = alu_loop(500);
        let rep = run_program(&p, base_config());
        assert!(rep.ipc() <= 1.0 + 1e-9, "ipc = {}", rep.ipc());
        assert!(rep.ipc() > 0.5, "ipc = {}", rep.ipc());
    }

    #[test]
    fn doubling_width_speeds_up_parallel_code() {
        let p = alu_loop(500);
        let base = run_program(&p, base_config());
        let wide = run_program(&p, crate::config::change_double_width());
        assert!(wide.ipc() > 1.2 * base.ipc(), "base {} wide {}", base.ipc(), wide.ipc());
        assert!(wide.ipc() <= 2.0 + 1e-9);
    }

    #[test]
    fn serial_dependence_chain_limits_ipc() {
        // A chain of dependent multiplies: IPC ~ 1/3 (mul latency 3).
        let mut b = ProgramBuilder::new("chain");
        let (i, lim) = (r(1), r(2));
        b.li(i, 0);
        b.li(lim, 300);
        b.li(r(3), 1);
        let top = b.label();
        b.bind(top);
        b.mul(r(3), r(3), r(3));
        b.mul(r(3), r(3), r(3));
        b.mul(r(3), r(3), r(3));
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let p = b.build();
        let rep = run_program(&p, base_config());
        assert!(rep.ipc() < 0.6, "ipc = {}", rep.ipc());
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // A data-dependent unpredictable branch vs an always-taken one.
        let build = |pattern_random: bool| {
            let mut b = ProgramBuilder::new("br");
            let (i, lim, x, t) = (r(1), r(2), r(3), r(4));
            b.li(i, 0);
            b.li(lim, 2_000);
            b.li(x, 0x9e3779b9);
            let top = b.label();
            let skip = b.label();
            b.bind(top);
            if pattern_random {
                // xorshift for a pseudo-random direction
                b.srli(t, x, 13);
                b.xor(x, x, t);
                b.slli(t, x, 7);
                b.xor(x, x, t);
                b.andi(t, x, 1);
            } else {
                b.li(t, 0);
            }
            b.bnez(t, skip);
            b.nop();
            b.bind(skip);
            b.addi(i, i, 1);
            b.blt(i, lim, top);
            b.halt();
            b.build()
        };
        let predictable = run_program(&build(false), base_config());
        let random = run_program(&build(true), base_config());
        assert!(random.bpred.mispredict_rate() > 0.15);
        assert!(predictable.bpred.mispredict_rate() < 0.05);
        // Per-instruction cost must be visibly higher with random branches.
        let cpi_p = 1.0 / predictable.ipc();
        let cpi_r = 1.0 / random.ipc();
        assert!(cpi_r > cpi_p, "cpi_r {cpi_r} cpi_p {cpi_p}");
    }

    #[test]
    fn cache_misses_cost_cycles() {
        // Stream far beyond L2 vs a tiny resident loop.
        let build = |stride: i64, len: u32| {
            let mut b = ProgramBuilder::new("mem");
            let id = b.stream(perfclone_isa::StreamDesc { base: 0x10_0000, stride, length: len });
            let (i, lim) = (r(1), r(2));
            b.li(i, 0);
            b.li(lim, 3_000);
            let top = b.label();
            b.bind(top);
            b.ld_stream(r(3), id, perfclone_isa::MemWidth::B8);
            b.addi(i, i, 1);
            b.blt(i, lim, top);
            b.halt();
            b.build()
        };
        let resident = run_program(&build(8, 4), base_config());
        let streaming = run_program(&build(64, 1 << 20), base_config());
        assert!(streaming.l1d_mpi() > 0.2, "mpi {}", streaming.l1d_mpi());
        assert!(resident.l1d_mpi() < 0.01, "mpi {}", resident.l1d_mpi());
        assert!(streaming.ipc() < 0.5 * resident.ipc());
    }

    #[test]
    fn in_order_is_not_faster_than_out_of_order() {
        let p = alu_loop(400);
        let ooo = run_program(&p, base_config());
        let ino = run_program(&p, crate::config::change_in_order());
        assert!(ino.ipc() <= ooo.ipc() + 1e-9);
    }

    #[test]
    fn store_load_forwarding_preserves_order() {
        // store then immediately load the same address, repeatedly.
        let mut b = ProgramBuilder::new("fwd");
        let a = b.alloc(8);
        let (i, lim, p_r, v) = (r(1), r(2), r(3), r(4));
        b.li(i, 0);
        b.li(lim, 500);
        b.li(p_r, a as i64);
        let top = b.label();
        b.bind(top);
        b.sd(i, p_r, 0);
        b.ld(v, p_r, 0);
        b.add(v, v, i);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let p = b.build();
        let rep = run_program(&p, base_config());
        assert_eq!(rep.instrs, 3 + 500 * 5 + 1);
        // Forwarded loads should not all miss in the cache.
        assert!(rep.l1d_mpi() < 0.05);
    }

    #[test]
    fn store_wrapping_the_address_space_overlaps_its_loads() {
        // An 8-byte store and load 4 bytes below the top of the address
        // space, so both ranges wrap to 0, next to the same program 4
        // bytes below 8 GiB: the low 32 address bits match, so the load
        // must forward and the two must time alike.
        let program = |at: i64| {
            let mut b = ProgramBuilder::new("wrap");
            b.li(r(1), at);
            b.li(r(2), 7);
            b.sd(r(2), r(1), 0);
            b.ld(r(3), r(1), 0);
            b.halt();
            b.build()
        };
        let wrapped = run_program(&program(-4), base_config());
        assert_eq!(wrapped, run_program(&program(0x1_ffff_fffc), base_config()));
        // The wrapped bytes 0..4 overlap a load there; the top 4 do not.
        assert!(overlaps(u64::MAX - 3, 8, 0, 4));
        assert!(!overlaps(u64::MAX - 3, 4, 0, 4));
        assert!(!overlaps(0, 4, 4, 4));
    }

    #[test]
    fn budgeted_run_errors_with_partial_report() {
        let p = alu_loop(500);
        let err = Pipeline::new(base_config())
            .run_budgeted(Simulator::trace(&p, u64::MAX), 50)
            .unwrap_err();
        let PipelineError::BudgetExhausted { max_cycles, report } = err;
        assert_eq!(max_cycles, 50);
        assert!(report.cycles <= 50);
        assert!(report.instrs < 2 + 3000 + 1);
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_when_budget_suffices() {
        let p = alu_loop(100);
        let full = run_program(&p, base_config());
        let budgeted = Pipeline::new(base_config())
            .run_budgeted(Simulator::trace(&p, u64::MAX), u64::MAX)
            .unwrap();
        assert_eq!(budgeted.instrs, full.instrs);
        assert_eq!(budgeted.cycles, full.cycles);
    }

    /// A mixed workload exercising loads, stores, forwarding, branches,
    /// and jumps — the record shapes the batched front end must carry.
    fn mixed_program() -> perfclone_isa::Program {
        let mut b = ProgramBuilder::new("mixed");
        let a = b.alloc(64);
        let (i, lim, p_r, v, t) = (r(1), r(2), r(3), r(4), r(5));
        b.li(i, 0);
        b.li(lim, 400);
        b.li(p_r, a as i64);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.sd(i, p_r, 0);
        b.ld(v, p_r, 0);
        b.srli(t, v, 1);
        b.andi(t, t, 1);
        b.bnez(t, skip);
        b.mul(v, v, v);
        b.bind(skip);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        b.build()
    }

    #[test]
    fn batched_run_is_bit_identical_to_iterator_run() {
        use perfclone_isa::InstrMetaTable;
        use perfclone_sim::PackedTrace;
        let p = mixed_program();
        let packed = PackedTrace::capture(&p, u64::MAX);
        let meta = InstrMetaTable::new(&p);
        let mut configs = vec![base_config()];
        configs.extend(crate::config::design_changes());
        for config in configs {
            let oracle = Pipeline::new(config).run(packed.replay(&p));
            let batched = Pipeline::new(config).run_batched(packed.replay_batched(&p, &meta));
            assert_eq!(oracle, batched, "batched report diverged for {config:?}");
        }
    }

    #[test]
    fn batched_budgeted_matches_iterator_budgeted() {
        use perfclone_isa::InstrMetaTable;
        use perfclone_sim::PackedTrace;
        let p = mixed_program();
        let packed = PackedTrace::capture(&p, u64::MAX);
        let meta = InstrMetaTable::new(&p);
        // Ample budget: both succeed with identical reports.
        let full = Pipeline::new(base_config()).run_budgeted(packed.replay(&p), u64::MAX).unwrap();
        let batched = Pipeline::new(base_config())
            .run_batched_budgeted(packed.replay_batched(&p, &meta), u64::MAX)
            .unwrap();
        assert_eq!(full, batched);
        // Tripped budget: both exhaust with identical partial reports.
        let iter_err =
            Pipeline::new(base_config()).run_budgeted(packed.replay(&p), 60).unwrap_err();
        let batch_err = Pipeline::new(base_config())
            .run_batched_budgeted(packed.replay_batched(&p, &meta), 60)
            .unwrap_err();
        let PipelineError::BudgetExhausted { report: a, .. } = iter_err;
        let PipelineError::BudgetExhausted { report: b, .. } = batch_err;
        assert_eq!(a, b, "partial reports at the budget must match");
    }

    #[test]
    fn activity_counters_are_consistent() {
        let p = alu_loop(100);
        let rep = run_program(&p, base_config());
        assert_eq!(rep.activity.commits, rep.instrs);
        assert_eq!(rep.activity.fetches, rep.instrs);
        assert_eq!(rep.activity.dispatches, rep.instrs);
        assert_eq!(rep.activity.issues, rep.instrs);
        assert!(rep.activity.rob_occupancy_sum > 0);
    }
}
