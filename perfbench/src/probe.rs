//! The traced mode's recorder: spans timed around calls into the
//! workspace's public functions, kept in memory until the run ends, plus
//! per-layer sums of time and work.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Time and work accumulated under one layer key.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sum {
    /// Host nanoseconds.
    pub ns: f64,
    /// Calls recorded.
    pub calls: u64,
    /// Work done, in the key's unit (instructions, cycles, bytes, ...).
    pub units: f64,
}

impl Sum {
    /// Nanoseconds per unit of work (0 when no work was recorded).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units > 0.0 {
            self.ns / self.units
        } else {
            0.0
        }
    }

    /// Nanoseconds per call (0 when nothing was called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls > 0 {
            self.ns / self.calls as f64
        } else {
            0.0
        }
    }
}

/// One simulated cell of a traced sweep, as measured from outside.
#[derive(Clone, Copy, Debug)]
pub struct CellProbe {
    /// Index of the program whose trace the cell replayed.
    pub program: usize,
    /// The cell's reorder-buffer size.
    pub rob: u32,
    /// `Pipeline::new`.
    pub new_ns: u64,
    /// `Pipeline::run_batched`, decode included.
    pub run_ns: u64,
    /// `estimate_power`.
    pub power_ns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated committed instructions.
    pub instrs: u64,
    /// Simulated L1-D misses.
    pub l1d_misses: u64,
    /// Simulated L2 misses.
    pub l2_misses: u64,
    /// Simulated branch mispredictions.
    pub bp_mispredicts: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans, layer sums and cell probes for one traced run.
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
    sums: Mutex<BTreeMap<String, Sum>>,
    cells: Mutex<Vec<CellProbe>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            sums: Mutex::new(BTreeMap::new()),
            cells: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` under a span named `name`, returning its value and the
    /// nanoseconds it took.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let value = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.t0).as_nanos() as u64;
        let span = SpanRec { name, tid: tid(), start_ns, dur_ns };
        self.spans.lock().expect("span list poisoned by a panicking worker").push(span);
        (value, dur_ns)
    }

    /// Adds one call of `ns` nanoseconds doing `units` of work to `key`.
    pub fn add(&self, key: &str, ns: f64, units: f64) {
        let mut sums = self.sums.lock().expect("layer sums poisoned by a panicking worker");
        let sum = sums.entry(key.to_string()).or_default();
        sum.ns += ns;
        sum.calls += 1;
        sum.units += units;
    }

    /// Replaces the sum under `key`.
    pub fn set(&self, key: &str, sum: Sum) {
        self.sums
            .lock()
            .expect("layer sums poisoned by a panicking worker")
            .insert(key.to_string(), sum);
    }

    /// [`time`](Recorder::time) followed by [`add`](Recorder::add) under
    /// the span's name, with the work computed from the result.
    pub fn layer<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        units: impl Fn(&T) -> f64,
    ) -> T {
        let (value, ns) = self.time(name, f);
        self.add(name, ns as f64, units(&value));
        value
    }

    /// The sum recorded under `key` (all zero when nothing was).
    pub fn sum(&self, key: &str) -> Sum {
        self.sums
            .lock()
            .expect("layer sums poisoned by a panicking worker")
            .get(key)
            .copied()
            .unwrap_or_default()
    }

    /// Records one traced cell.
    pub fn cell(&self, probe: CellProbe) {
        self.cells.lock().expect("cell list poisoned by a panicking worker").push(probe);
    }

    /// Every traced cell, in completion order.
    pub fn cells(&self) -> Vec<CellProbe> {
        self.cells.lock().expect("cell list poisoned by a panicking worker").clone()
    }

    /// The spans in Chrome Trace Event format (complete `X` events),
    /// loadable in Perfetto.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.lock().expect("span list poisoned by a panicking worker");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// [`Recorder::layer`] when tracing, a plain call otherwise.
pub fn probed<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    f: impl FnOnce() -> T,
    units: impl Fn(&T) -> f64,
) -> T {
    match rec {
        Some(rec) => rec.layer(name, f, units),
        None => f(),
    }
}
