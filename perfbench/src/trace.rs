//! Span recording for the traced run, and the timing decorators that wrap
//! the program's public traits from outside.
//!
//! A span records its name, start, end, the span that caused it (the span
//! open on the same thread when it began) and an operation id shared by
//! everything one job, system or level run does. Spans live in memory and
//! are written out once, when the benchmark ends.
//!
//! Calls that happen millions of times per second — bus accesses, phy
//! transactions, engine advances — are *fine calls*: they are timed and
//! counted, and their time is charged to the enclosing span as child time,
//! but they are not recorded one by one. A layer's self time is its span's
//! duration minus the time its child spans and fine calls cover.
//!
//! When tracing is off every entry point is a single relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Individual span records kept in memory; beyond this only the per-name
/// totals grow.
const MAX_SPANS: usize = 200_000;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One closed span.
#[derive(Debug)]
struct SpanRecord {
    id: u64,
    parent: u64,
    op: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// Per-name aggregate over every span or fine call of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
    totals: Mutex<BTreeMap<String, Totals>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
        totals: Mutex::new(BTreeMap::new()),
    })
}

struct Frame {
    id: u64,
    parent: u64,
    op: u64,
    name: String,
    start_ns: u64,
    child_ns: u64,
    fine: Vec<(&'static str, Totals)>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    if on {
        let _ = recorder();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` belonging to operation `op`.
pub fn span<T>(name: &str, op: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |f| f.id);
        s.push(Frame {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            child_ns: 0,
            fine: Vec::new(),
        });
    });
    let out = f();
    let end_ns = now_ns();
    let frame = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.pop().expect("span stack underflow");
        if let Some(parent) = s.last_mut() {
            parent.child_ns += end_ns - frame.start_ns;
        }
        frame
    });
    close(frame, end_ns);
    out
}

fn close(frame: Frame, end_ns: u64) {
    let r = recorder();
    let dur = end_ns - frame.start_ns;
    {
        let mut totals = r.totals.lock().expect("trace totals");
        let t = totals.entry(frame.name.clone()).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        for (name, fine) in &frame.fine {
            let t = totals.entry((*name).to_string()).or_default();
            t.count += fine.count;
            t.total_ns += fine.total_ns;
            t.self_ns += fine.self_ns;
        }
    }
    let mut spans = r.spans.lock().expect("trace spans");
    if spans.len() < MAX_SPANS {
        spans.push(SpanRecord {
            id: frame.id,
            parent: frame.parent,
            op: frame.op,
            name: frame.name,
            start_ns: frame.start_ns,
            end_ns,
            child_ns: frame.child_ns,
        });
    } else {
        r.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Times one fine call named `name` and charges it to the open span.
#[inline]
pub fn fine<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(frame) = s.last_mut() {
            frame.child_ns += ns;
            match frame.fine.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    t.count += 1;
                    t.total_ns += ns;
                    t.self_ns += ns;
                }
                None => frame.fine.push((
                    name,
                    Totals {
                        count: 1,
                        total_ns: ns,
                        self_ns: ns,
                    },
                )),
            }
        } else {
            let mut totals = recorder().totals.lock().expect("trace totals");
            let t = totals.entry(name.to_string()).or_default();
            t.count += 1;
            t.total_ns += ns;
            t.self_ns += ns;
        }
    });
    out
}

/// The aggregate for `name` so far.
pub fn totals(name: &str) -> Totals {
    recorder()
        .totals
        .lock()
        .expect("trace totals")
        .get(name)
        .copied()
        .unwrap_or_default()
}

/// Writes every recorded span and the per-name totals as JSON.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    let r = recorder();
    let spans = r.spans.lock().expect("trace spans");
    let totals = r.totals.lock().expect("trace totals");
    let mut out = String::with_capacity(spans.len() * 96 + 4096);
    out.push_str("{\"totals\":{");
    for (i, (name, t)) in totals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    let _ = write!(
        out,
        "}},\"dropped_spans\":{},\"spans\":[",
        r.dropped.load(Ordering::Relaxed)
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            (s.end_ns - s.start_ns).saturating_sub(s.child_ns)
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

// ---------------------------------------------------------------------------
// Decorators over the program's public traits.
// ---------------------------------------------------------------------------

use codesign::rtl::bus::{fifo_regs, BusPhy, BusSlave};
use codesign::rtl::state::{StateReader, StateWriter};
use codesign::rtl::RtlError;
use codesign::serve::{JobError, JobRunner, Request, RunOutcome};
use codesign::sim::engine::SimEngine;
use codesign::sim::error::SimError;
use std::cell::Cell;
use std::rc::Rc;

/// Device-side bus counters, shared with the benchmark after the device
/// moves into the bus.
#[derive(Debug, Default)]
pub struct SlaveCounters {
    pub reads: Cell<u64>,
    pub writes: Cell<u64>,
    /// Reads of the FIFO occupancy register (CPU polling).
    pub count_reads: Cell<u64>,
    /// Writes of the FIFO data register (payload).
    pub data_writes: Cell<u64>,
}

/// A [`BusSlave`] that times and counts every access of the device it
/// wraps. Typed lookups (`SystemBus::device`) see through it.
#[derive(Debug)]
pub struct TimedSlave {
    inner: Box<dyn BusSlave>,
    counters: Rc<SlaveCounters>,
}

impl TimedSlave {
    pub fn new(inner: Box<dyn BusSlave>, counters: Rc<SlaveCounters>) -> Self {
        TimedSlave { inner, counters }
    }
}

impl BusSlave for TimedSlave {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn read(&mut self, offset: u32) -> u32 {
        let c = &self.counters;
        c.reads.set(c.reads.get() + 1);
        if offset == fifo_regs::COUNT {
            c.count_reads.set(c.count_reads.get() + 1);
        }
        fine("rtl.bus", || self.inner.read(offset))
    }
    fn write(&mut self, offset: u32, value: u32) {
        let c = &self.counters;
        c.writes.set(c.writes.get() + 1);
        if offset == fifo_regs::DATA {
            c.data_writes.set(c.data_writes.get() + 1);
        }
        fine("rtl.bus", || self.inner.write(offset, value));
    }
    fn tick(&mut self) {
        self.inner.tick();
    }
    fn irq_pending(&self) -> bool {
        self.inner.irq_pending()
    }
    fn wait_states(&self) -> u64 {
        self.inner.wait_states()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
    }
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.inner.restore_state(r)
    }
}

/// A [`BusPhy`] that times every pin-level transaction it forwards.
#[derive(Debug)]
pub struct TimedPhy {
    inner: Box<dyn BusPhy>,
}

impl TimedPhy {
    pub fn new(inner: Box<dyn BusPhy>) -> Self {
        TimedPhy { inner }
    }
}

impl BusPhy for TimedPhy {
    fn transaction(&mut self, addr: u32, write: bool, value: u32, wait_states: u64) -> u64 {
        fine("rtl.phy", || {
            self.inner.transaction(addr, write, value, wait_states)
        })
    }
    fn events(&self) -> u64 {
        self.inner.events()
    }
    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
    }
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.inner.restore_state(r)
    }
}

/// A [`SimEngine`] whose `advance_to` calls are timed under `label`.
/// Downcasts (`as_any`) see the wrapped engine, so fingerprints and
/// typed lookups are unchanged.
#[derive(Debug)]
pub struct TimedEngine {
    inner: Box<dyn SimEngine>,
    label: &'static str,
}

impl TimedEngine {
    pub fn new(inner: Box<dyn SimEngine>, label: &'static str) -> Self {
        TimedEngine { inner, label }
    }
}

impl SimEngine for TimedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn local_time(&self) -> u64 {
        self.inner.local_time()
    }
    fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
        fine(self.label, || self.inner.advance_to(t))
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn next_event_hint(&self) -> Option<u64> {
        self.inner.next_event_hint()
    }
    fn diagnostics(&self) -> String {
        self.inner.diagnostics()
    }
    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }
    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
    }
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SimError> {
        self.inner.restore_state(r)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

/// Runner-side time of one served job, summed over its slices.
#[derive(Debug, Default)]
pub struct RunnerLog {
    /// Job id -> (class, runner nanoseconds so far).
    pub by_id: Mutex<BTreeMap<String, (String, u64)>>,
}

/// A [`JobRunner`] that times every dispatch (slices included) of the
/// runner it wraps, inside a `serve.run:<class>` span.
#[derive(Debug)]
pub struct TimedRunner<R> {
    inner: R,
    log: std::sync::Arc<RunnerLog>,
}

impl<R> TimedRunner<R> {
    pub fn new(inner: R, log: std::sync::Arc<RunnerLog>) -> Self {
        TimedRunner { inner, log }
    }
}

/// The class a job is reported under: its kind, with sliced (preemptable)
/// cosim jobs apart from plain ones.
fn job_class(request: &Request) -> String {
    if request.kind == "cosim" && request.deadline_ms.is_some() {
        "cosim_sliced".to_string()
    } else {
        request.kind.clone()
    }
}

impl<R: JobRunner> TimedRunner<R> {
    fn timed<T>(&self, request: &Request, f: impl FnOnce() -> T) -> T {
        let class = job_class(request);
        let op = crate::util::fnv(request.id.as_bytes());
        let t0 = Instant::now();
        let out = span(&format!("serve.run:{class}"), op, f);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut log = self.log.by_id.lock().expect("runner log");
        log.entry(request.id.clone()).or_insert((class, 0)).1 += ns;
        out
    }
}

impl<R: JobRunner> JobRunner for TimedRunner<R> {
    fn run(&self, request: &Request, attempt: u32) -> Result<String, JobError> {
        self.timed(request, || self.inner.run(request, attempt))
    }
    fn run_slice(
        &self,
        request: &Request,
        attempt: u32,
        resume: Option<&[u8]>,
    ) -> Result<RunOutcome, JobError> {
        self.timed(request, || self.inner.run_slice(request, attempt, resume))
    }
}
