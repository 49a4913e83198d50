//! Measurement probes that sit *outside* the program under test: a
//! counting global allocator, timing decorators over the public
//! `Operator`, `ScheduleGen` and `Transport`/`Endpoint` traits, and an
//! in-memory span recorder written out when the run ends.
//!
//! Fine-grained calls (kernel, schedule, residual, send, try_recv) are
//! aggregated as a count plus total nanoseconds and allocations; only
//! the benchmark's own boundaries (`solve`, `batch`, `service.submit`,
//! `service.drain`, `report.render`) become spans.

use asynciter_models::schedule::{ScheduleGen, StepBuf};
use asynciter_opt::traits::Operator;
use asynciter_runtime::transport::{BlockMessage, Endpoint, MpscTransport, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------------

/// The system allocator plus a per-thread count of allocations
/// (allocs, zeroed allocs and reallocs). Per-thread counting lets a
/// decorator attribute exactly the allocations made inside the call it
/// wraps, even while other threads allocate.
pub struct CountingAlloc;

thread_local! {
    // Const-initialised: touching it never allocates, so the allocator
    // cannot recurse into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` fails only during thread-local teardown; those
    // allocations are not attributed to any layer.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// thread-local counter increment, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

// ---------------------------------------------------------------------------
// Aggregating meters
// ---------------------------------------------------------------------------

/// Totals of one kind of call: how many, how long, how many items
/// (components, steps) they covered, and how many heap allocations they
/// made on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
    pub items: u64,
    pub allocs: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.items += o.items;
        self.allocs += o.allocs;
    }
}

/// A thread-safe [`Tally`] accumulator (operators must be `Sync`).
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    ns: AtomicU64,
    items: AtomicU64,
    allocs: AtomicU64,
}

impl Meter {
    /// Runs `f`, charging its time and allocations to this meter.
    #[inline]
    pub fn time<R>(&self, items: u64, f: impl FnOnce() -> R) -> R {
        let a0 = thread_allocs();
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = thread_allocs() - a0;
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        self.items.fetch_add(items, Relaxed);
        self.allocs.fetch_add(allocs, Relaxed);
        r
    }

    /// Returns the totals so far and resets them.
    pub fn take(&self) -> Tally {
        Tally {
            calls: self.calls.swap(0, Relaxed),
            ns: self.ns.swap(0, Relaxed),
            items: self.items.swap(0, Relaxed),
            allocs: self.allocs.swap(0, Relaxed),
        }
    }
}

/// Operator-side meters: kernel (`update_active*`, `apply*`) and
/// residual (`residual_inf*`) calls.
#[derive(Debug, Default)]
pub struct OpMeters {
    pub kernel: Meter,
    pub residual: Meter,
}

/// Timing decorator over any [`Operator`]: forwards every method,
/// charging kernel and residual evaluations to [`OpMeters`].
/// `component` is forwarded untimed (the engines measured here evaluate
/// through `update_active_with`).
pub struct TimedOperator<'a> {
    pub inner: &'a dyn Operator,
    pub meters: &'a OpMeters,
}

impl Operator for TimedOperator<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn component(&self, i: usize, x: &[f64]) -> f64 {
        self.inner.component(i, x)
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        let n = out.len() as u64;
        self.meters.kernel.time(n, || self.inner.apply(x, out));
    }

    fn update_active(&self, x: &[f64], active: &[usize], out: &mut [f64]) {
        self.meters.kernel.time(active.len() as u64, || {
            self.inner.update_active(x, active, out)
        });
    }

    fn residual_inf(&self, x: &[f64]) -> f64 {
        self.meters.residual.time(1, || self.inner.residual_inf(x))
    }

    fn scratch_len(&self) -> usize {
        self.inner.scratch_len()
    }

    fn update_active_with(
        &self,
        x: &[f64],
        active: &[usize],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.meters.kernel.time(active.len() as u64, || {
            self.inner.update_active_with(x, active, out, scratch)
        });
    }

    fn apply_with(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let n = out.len() as u64;
        self.meters
            .kernel
            .time(n, || self.inner.apply_with(x, out, scratch));
    }

    fn residual_inf_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        self.meters
            .residual
            .time(1, || self.inner.residual_inf_with(x, scratch))
    }
}

/// Timing decorator over any [`ScheduleGen`].
pub struct TimedSchedule<'a> {
    pub inner: Box<dyn ScheduleGen + 'a>,
    pub meter: &'a Meter,
}

impl ScheduleGen for TimedSchedule<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        let inner = &mut self.inner;
        self.meter.time(1, || inner.step(j, buf));
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

// ---------------------------------------------------------------------------
// Transport probe
// ---------------------------------------------------------------------------

/// Longest drain burst tracked exactly; longer bursts share the last
/// bucket's count but still update the maximum.
const BURST_BUCKETS: usize = 4096;

/// What one endpoint saw: send and receive timings, poll hits/misses
/// and the histogram of drain bursts (consecutive `try_recv` hits
/// before a miss).
#[derive(Debug, Clone)]
pub struct LinkTally {
    pub sends: u64,
    pub send_ns: u64,
    pub polls: u64,
    pub hits: u64,
    pub recv_ns: u64,
    pub burst_max: u64,
    pub bursts: Vec<u64>,
}

impl Default for LinkTally {
    fn default() -> Self {
        Self {
            sends: 0,
            send_ns: 0,
            polls: 0,
            hits: 0,
            recv_ns: 0,
            burst_max: 0,
            bursts: vec![0; BURST_BUCKETS + 1],
        }
    }
}

impl LinkTally {
    fn end_burst(&mut self, len: u64) {
        if len > 0 {
            self.burst_max = self.burst_max.max(len);
            self.bursts[(len as usize).min(BURST_BUCKETS)] += 1;
        }
    }

    pub fn add(&mut self, o: &LinkTally) {
        self.sends += o.sends;
        self.send_ns += o.send_ns;
        self.polls += o.polls;
        self.hits += o.hits;
        self.recv_ns += o.recv_ns;
        self.burst_max = self.burst_max.max(o.burst_max);
        for (a, b) in self.bursts.iter_mut().zip(&o.bursts) {
            *a += b;
        }
    }

    /// The `q`-quantile drain burst length (nearest rank).
    pub fn burst_quantile(&self, q: f64) -> u64 {
        let total: u64 = self.bursts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (len, &count) in self.bursts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return len as u64;
            }
        }
        BURST_BUCKETS as u64
    }
}

/// A [`Transport`] that hands out [`MpscTransport`] endpoints wrapped
/// in timing probes; each endpoint merges its [`LinkTally`] into the
/// shared sink when its worker drops it.
#[derive(Default)]
pub struct TimedTransport {
    pub sink: Arc<Mutex<LinkTally>>,
}

impl Transport for TimedTransport {
    fn connect(&mut self, workers: usize) -> Vec<Box<dyn Endpoint>> {
        MpscTransport
            .connect(workers)
            .into_iter()
            .map(|inner| {
                Box::new(TimedEndpoint {
                    inner,
                    tally: LinkTally::default(),
                    burst: 0,
                    sink: Arc::clone(&self.sink),
                }) as Box<dyn Endpoint>
            })
            .collect()
    }
}

struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    tally: LinkTally,
    burst: u64,
    sink: Arc<Mutex<LinkTally>>,
}

impl Endpoint for TimedEndpoint {
    fn send(&mut self, dest: usize, msg: BlockMessage) {
        let t0 = Instant::now();
        self.inner.send(dest, msg);
        self.tally.send_ns += t0.elapsed().as_nanos() as u64;
        self.tally.sends += 1;
    }

    fn try_recv(&mut self) -> Option<BlockMessage> {
        let t0 = Instant::now();
        let got = self.inner.try_recv();
        self.tally.recv_ns += t0.elapsed().as_nanos() as u64;
        self.tally.polls += 1;
        if got.is_some() {
            self.tally.hits += 1;
            self.burst += 1;
        } else {
            self.tally.end_burst(self.burst);
            self.burst = 0;
        }
        got
    }
}

impl Drop for TimedEndpoint {
    fn drop(&mut self) {
        self.tally.end_burst(self.burst);
        // A poisoned sink means another worker panicked; that panic is
        // reported by the engine's join, so the tally is simply lost.
        if let Ok(mut sink) = self.sink.lock() {
            sink.add(&self.tally);
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One span at a benchmark boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Solve id (solve spans) or batch id (service spans).
    pub id: u64,
}

/// In-memory span store; written out once, when the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx` and returns its duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Renders every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (k, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"idx\":{k},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                if k + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
