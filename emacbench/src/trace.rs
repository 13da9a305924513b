//! The traced run: wrappers around the library's public trait seams.
//!
//! Nothing here reaches inside the program. [`TracedFactory`] wraps a
//! [`ScenarioFactory`]; the algorithms it hands out wrap every
//! `Box<dyn Protocol>` of the built system, and the adversaries it hands
//! out wrap `Box<dyn Adversary>`. [`TracedSink`], [`TracedMapSink`] and
//! [`TracedWrite`] wrap the result sinks and the durable file under them.
//!
//! Every wrapped call is counted exactly. Timestamps are taken on one call
//! in [`STRIDE`] per wrapper (the first, then every `STRIDE`-th), because
//! a clock pair around every `act` would cost more than the 150–450 ns
//! round it measures; a layer's time is the sampled time scaled by
//! `calls / sampled`, minus the measured cost of the clock pair itself.
//!
//! A scenario (campaign row) or a seed-ensemble batch (frontier probe) is
//! one *unit*: it opens at `ScenarioFactory::algorithm` and closes when the
//! last wrapper of its simulator is dropped. Units run entirely on one
//! worker thread, so the open unit lives in a thread-local and wrappers
//! fold their counts into it when they drop. Closed units become
//! [`UnitSpan`]s in a process-wide list that the benchmark writes out
//! when it ends; a traced sink's `accept` then marks the worker's last
//! unit with its row index and hand-off wait.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use emac_core::campaign::{ResultSink, ScenarioFactory, ScenarioRun, ScenarioSpec};
use emac_core::frontier::{MapRow, MapSink};
use emac_core::Algorithm;
use emac_sim::{
    Action, Adversary, AlgorithmClass, BuiltAlgorithm, Effects, EnqueueOrigin, Feedback,
    IndexedQueue, Injection, OnSchedule, Protocol, ProtocolCtx, QueuedPacket, Round, SystemView,
    Wake,
};

/// One call in `STRIDE` (per wrapper) is timed; every call is counted.
pub const STRIDE: u64 = 32;

static CLOCK_PAIR_NS: AtomicU64 = AtomicU64::new(0);

/// Measure the cost of an `Instant::now()` pair (the median of 4096), which
/// every sampled duration has subtracted. Call once before tracing.
pub fn calibrate_clock() -> u64 {
    let mut v: Vec<u64> = (0..4096)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    let ns = v[v.len() / 2];
    CLOCK_PAIR_NS.store(ns, Ordering::Relaxed);
    ns
}

/// Exact call count plus a strided time sample of one wrapped method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Summed duration of the timed calls, clock cost removed, ns.
    pub sampled_ns: u64,
}

impl CallStats {
    #[inline]
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let due = self.calls.is_multiple_of(STRIDE);
        self.calls += 1;
        if !due {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.sampled += 1;
        self.sampled_ns += ns.saturating_sub(CLOCK_PAIR_NS.load(Ordering::Relaxed));
        out
    }

    fn add(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Estimated total time over all calls, ns.
    pub fn est_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns as f64 * self.calls as f64 / self.sampled as f64
        }
    }
}

/// Counts of one unit's wrapped calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitCounts {
    /// `Protocol::act`.
    pub act: CallStats,
    /// `Protocol::on_feedback`.
    pub feedback: CallStats,
    /// `Protocol::on_enqueued`.
    pub enqueued: CallStats,
    /// `Adversary::plan_into` — one per injecting round, so also the
    /// round count of a probe.
    pub plan: CallStats,
    /// Injections the adversary planned.
    pub injections: u64,
}

impl UnitCounts {
    /// Add `o` into `self`.
    pub fn add(&mut self, o: &UnitCounts) {
        self.act.add(&o.act);
        self.feedback.add(&o.feedback);
        self.enqueued.add(&o.enqueued);
        self.plan.add(&o.plan);
        self.injections += o.injections;
    }

    /// Estimated time in protocol callbacks, ns.
    pub fn protocol_ns(&self) -> f64 {
        self.act.est_ns() + self.feedback.est_ns() + self.enqueued.est_ns()
    }
}

/// A finished unit (a campaign row or one seed-ensemble batch of a probe).
#[derive(Clone, Debug)]
pub struct UnitSpan {
    /// Sequence number within the process.
    pub id: u64,
    /// The worker thread that ran the unit (a process-wide sequence number).
    pub thread: u64,
    /// Spec index, when a traced sink received the row.
    pub row: Option<usize>,
    /// Scenario identity without the seed: consecutive batches of one
    /// escalating probe share it (and their first seed).
    pub key: String,
    /// Seed of the unit's first lane.
    pub first_seed: u64,
    /// Simulators built in the unit (ensemble lanes; 1 for a row).
    pub lanes: usize,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// `ScenarioFactory::algorithm` to the first `plan_into`, ns.
    pub build_ns: u64,
    /// Start to the drop of the last wrapper, ns.
    pub busy_ns: u64,
    /// Time in `ScenarioFactory::adversary` (schedule analysis), ns.
    pub adversary_build_ns: u64,
    /// End of the unit to the start of its `ResultSink::accept`, ns.
    pub handoff_ns: Option<u64>,
    /// Wrapped-call counts.
    pub counts: UnitCounts,
}

impl UnitSpan {
    /// The span as one JSON line: the unit with its layer children.
    pub fn to_json(&self) -> String {
        let adv = self.counts.plan.est_ns() + self.adversary_build_ns as f64;
        let proto = self.counts.protocol_ns();
        format!(
            "{{\"id\":{},\"thread\":{},\"row\":{},\"key\":\"{}\",\"first_seed\":{},\"lanes\":{},\"start_ns\":{},\
             \"busy_ns\":{},\"handoff_ns\":{},\"children\":[\
             {{\"layer\":\"engine.build\",\"ns\":{}}},\
             {{\"layer\":\"protocol\",\"ns\":{:.0},\"act\":{},\"feedback\":{},\"enqueued\":{}}},\
             {{\"layer\":\"adversary\",\"ns\":{:.0},\"plan\":{},\"injections\":{}}}]}}",
            self.id,
            self.thread,
            self.row.map_or("null".to_string(), |r| r.to_string()),
            self.key,
            self.first_seed,
            self.lanes,
            self.start_ns,
            self.busy_ns,
            self.handoff_ns.map_or("null".to_string(), |h| h.to_string()),
            self.build_ns,
            proto,
            self.counts.act.calls,
            self.counts.feedback.calls,
            self.counts.enqueued.calls,
            adv,
            self.counts.plan.calls,
            self.counts.injections,
        )
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn spans() -> &'static Mutex<Vec<UnitSpan>> {
    static SPANS: OnceLock<Mutex<Vec<UnitSpan>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Take every span finished so far.
pub fn take_spans() -> Vec<UnitSpan> {
    std::mem::take(&mut *spans().lock().expect("span list poisoned"))
}

/// The unit open on this thread.
struct OpenUnit {
    thread: u64,
    key: String,
    first_seed: u64,
    lanes: usize,
    started: Instant,
    first_plan: Option<Instant>,
    ended: Instant,
    live: usize,
    adversary_build_ns: u64,
    counts: UnitCounts,
}

impl OpenUnit {
    fn into_span(self) -> UnitSpan {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        UnitSpan {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            thread: self.thread,
            row: None,
            key: self.key,
            first_seed: self.first_seed,
            lanes: self.lanes,
            start_ns: ns_between(epoch(), self.started),
            build_ns: ns_between(self.started, self.first_plan.unwrap_or(self.ended)),
            busy_ns: ns_between(self.started, self.ended),
            adversary_build_ns: self.adversary_build_ns,
            handoff_ns: None,
            counts: self.counts,
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

thread_local! {
    /// The unit being built or run on this thread.
    static CURRENT: RefCell<Option<OpenUnit>> = const { RefCell::new(None) };
    /// The id and end of the unit this thread closed last, for the sink's
    /// `accept` that follows it.
    static LAST_CLOSED: RefCell<Option<(u64, Instant)>> = const { RefCell::new(None) };
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

fn with_unit(f: impl FnOnce(&mut OpenUnit)) {
    CURRENT.with(|slot| {
        if let Some(unit) = slot.borrow_mut().as_mut() {
            f(unit);
        }
    });
}

fn push_span(span: UnitSpan) {
    spans().lock().expect("span list poisoned").push(span);
}

/// A wrapper of the open unit dropped at `now` with `counts`: fold them in,
/// and close the unit when it was the last one alive.
fn wrapper_dropped(now: Instant, counts: &UnitCounts) {
    let closed = CURRENT.with(|slot| {
        let mut slot = slot.borrow_mut();
        let unit = slot.as_mut()?;
        unit.counts.add(counts);
        unit.live = unit.live.saturating_sub(1);
        unit.ended = now;
        if unit.live > 0 {
            return None;
        }
        slot.take()
    });
    if let Some(unit) = closed {
        let span = unit.into_span();
        LAST_CLOSED.with(|last| *last.borrow_mut() = Some((span.id, now)));
        push_span(span);
    }
}

fn scenario_key(spec: &ScenarioSpec) -> String {
    format!(
        "{}/{}/n={}/k={}/rho={}/beta={}",
        spec.algorithm, spec.adversary, spec.n, spec.k, spec.rho, spec.beta
    )
}

/// A [`ScenarioFactory`] whose algorithms and adversaries are traced.
pub struct TracedFactory<'a, F> {
    inner: &'a F,
}

impl<'a, F: ScenarioFactory> TracedFactory<'a, F> {
    /// Trace everything `inner` builds.
    pub fn new(inner: &'a F) -> Self {
        Self { inner }
    }
}

impl<F: ScenarioFactory> ScenarioFactory for TracedFactory<'_, F> {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        let now = Instant::now();
        let thread = THREAD.with(|t| *t);
        CURRENT.with(|slot| {
            let mut slot = slot.borrow_mut();
            match slot.as_mut() {
                // Another lane of the batch being built.
                Some(unit) if unit.live > 0 => unit.lanes += 1,
                _ => {
                    // A unit whose construction failed before anything
                    // was built closes here.
                    if let Some(prev) = slot.take() {
                        push_span(prev.into_span());
                    }
                    *slot = Some(OpenUnit {
                        thread,
                        key: scenario_key(spec),
                        first_seed: spec.seed,
                        lanes: 1,
                        started: now,
                        first_plan: None,
                        ended: now,
                        live: 0,
                        adversary_build_ns: 0,
                        counts: UnitCounts::default(),
                    });
                }
            }
        });
        Ok(Box::new(TracedAlgorithm(self.inner.algorithm(spec)?)))
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        let t = Instant::now();
        let inner = self.inner.adversary(spec, schedule)?;
        let ns = t.elapsed().as_nanos() as u64;
        with_unit(|u| {
            u.adversary_build_ns += ns;
            u.live += 1;
        });
        Ok(Box::new(TracedAdversary { inner, plan: CallStats::default(), injections: 0 }))
    }
}

struct TracedAlgorithm(Box<dyn Algorithm>);

impl Algorithm for TracedAlgorithm {
    fn name(&self) -> String {
        self.0.name()
    }

    fn class(&self) -> AlgorithmClass {
        self.0.class()
    }

    fn required_cap(&self, n: usize) -> usize {
        self.0.required_cap(n)
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        let mut built = self.0.build(n);
        with_unit(|u| u.live += built.protocols.len());
        built.protocols = std::mem::take(&mut built.protocols)
            .into_iter()
            .map(|inner| Box::new(TracedProtocol { inner, counts: UnitCounts::default() }) as _)
            .collect();
        built
    }
}

struct TracedProtocol {
    inner: Box<dyn Protocol>,
    counts: UnitCounts,
}

impl Protocol for TracedProtocol {
    fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
        self.inner.first_wake(ctx)
    }

    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        let inner = &mut self.inner;
        self.counts.act.time(|| inner.act(ctx, queue))
    }

    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake {
        let inner = &mut self.inner;
        self.counts.feedback.time(|| inner.on_feedback(ctx, queue, fb, effects))
    }

    fn on_enqueued(&mut self, ctx: &ProtocolCtx, qp: &QueuedPacket, origin: EnqueueOrigin) {
        let inner = &mut self.inner;
        self.counts.enqueued.time(|| inner.on_enqueued(ctx, qp, origin))
    }
}

impl Drop for TracedProtocol {
    fn drop(&mut self) {
        wrapper_dropped(Instant::now(), &self.counts);
    }
}

struct TracedAdversary {
    inner: Box<dyn Adversary>,
    plan: CallStats,
    injections: u64,
}

impl Adversary for TracedAdversary {
    fn plan_into(
        &mut self,
        round: Round,
        budget: usize,
        view: &SystemView<'_>,
        out: &mut Vec<Injection>,
    ) {
        if self.plan.calls == 0 {
            let now = Instant::now();
            with_unit(|u| {
                u.first_plan.get_or_insert(now);
            });
        }
        let inner = &mut self.inner;
        self.plan.time(|| inner.plan_into(round, budget, view, out));
        self.injections += out.len() as u64;
    }
}

impl Drop for TracedAdversary {
    fn drop(&mut self) {
        let counts =
            UnitCounts { plan: self.plan, injections: self.injections, ..Default::default() };
        wrapper_dropped(Instant::now(), &counts);
    }
}

/// Time spent in, and calls of, a wrapped sink or writer.
#[derive(Clone, Debug, Default)]
pub struct IoStats {
    /// `ResultSink::accept` / `MapSink::accept` durations, ns.
    pub accept_ns: Vec<u64>,
    /// `sync` + `finish` durations of the sink, ns.
    pub sync_ns: u64,
    /// Bytes written through the durable file.
    pub bytes: u64,
    /// Time in the durable file's `write` calls, ns.
    pub write_ns: u64,
    /// Durations of the durable file's `flush` calls (each one fsyncs), ns.
    pub fsync_ns: Vec<u64>,
}

/// Shared handle on [`IoStats`].
pub type IoHandle = Arc<Mutex<IoStats>>;

fn io(handle: &IoHandle) -> std::sync::MutexGuard<'_, IoStats> {
    handle.lock().expect("io stats poisoned")
}

/// A `Write` wrapper around the durable file: counts bytes, times writes,
/// and counts and times flushes (a `DurableFile` flush is an fsync).
pub struct TracedWrite<W> {
    inner: W,
    stats: IoHandle,
}

impl<W: Write> TracedWrite<W> {
    /// Wrap `inner`, reporting into `stats`.
    pub fn new(inner: W, stats: IoHandle) -> Self {
        Self { inner, stats }
    }
}

impl<W: Write> Write for TracedWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf)?;
        let mut s = io(&self.stats);
        s.write_ns += t.elapsed().as_nanos() as u64;
        s.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let out = self.inner.flush();
        io(&self.stats).fsync_ns.push(t.elapsed().as_nanos() as u64);
        out
    }
}

/// A [`ResultSink`] wrapper: closes the worker thread's unit as row
/// `index` (recording how long it waited in the ordered hand-off) and
/// times `accept` and `sync`.
pub struct TracedSink<S> {
    inner: S,
    stats: IoHandle,
}

impl<S: ResultSink> TracedSink<S> {
    /// Wrap `inner`, reporting into `stats`.
    pub fn new(inner: S, stats: IoHandle) -> Self {
        Self { inner, stats }
    }
}

impl<S: ResultSink> ResultSink for TracedSink<S> {
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        let t = Instant::now();
        // The row this worker just finished is the unit it closed last.
        if let Some((id, ended)) = LAST_CLOSED.with(|last| last.borrow_mut().take()) {
            let mut list = spans().lock().expect("span list poisoned");
            if let Some(span) = list.iter_mut().rev().find(|s| s.id == id) {
                span.row = Some(index);
                span.handoff_ns = Some(ns_between(ended, t));
            }
        }
        let out = self.inner.accept(index, run);
        io(&self.stats).accept_ns.push(t.elapsed().as_nanos() as u64);
        out
    }

    fn sync(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let out = self.inner.sync();
        io(&self.stats).sync_ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn finish(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let out = self.inner.finish();
        io(&self.stats).sync_ns += t.elapsed().as_nanos() as u64;
        out
    }
}

/// A [`MapSink`] wrapper timing `accept`, `sync` and `finish`.
pub struct TracedMapSink<'a> {
    inner: &'a mut dyn MapSink,
    stats: IoHandle,
}

impl<'a> TracedMapSink<'a> {
    /// Wrap `inner`, reporting into `stats`.
    pub fn new(inner: &'a mut dyn MapSink, stats: IoHandle) -> Self {
        Self { inner, stats }
    }
}

impl MapSink for TracedMapSink<'_> {
    fn accept(&mut self, row: &MapRow) -> Result<(), String> {
        let t = Instant::now();
        let out = self.inner.accept(row);
        io(&self.stats).accept_ns.push(t.elapsed().as_nanos() as u64);
        out
    }

    fn sync(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let out = self.inner.sync();
        io(&self.stats).sync_ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn finish(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let out = self.inner.finish();
        io(&self.stats).sync_ns += t.elapsed().as_nanos() as u64;
        out
    }
}
