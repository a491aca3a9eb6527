//! The flight recorder: head-sampled span collection into bounded
//! per-node rings, plus thread-local installation and task-local context
//! propagation.
//!
//! Hot-path discipline (PR 1 slab rules): when no tracer is installed or
//! sampling is off, every hook site costs one thread-local `Cell` read
//! and returns `None` — no allocation, no RNG draw, no borrow. When
//! tracing is on but the current request was not head-sampled, a hook
//! additionally consults the task-context map and still allocates
//! nothing. Span ids come from a dedicated [`SimRng`] stream so traces
//! are byte-reproducible across runs.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use simcore::{SimRng, SimTime, TaskId};

use crate::span::{SpanKind, SpanRecord, TraceCtx, MAX_ATTRS};

/// Default per-node ring capacity (spans kept per node before the oldest
/// are overwritten).
pub const DEFAULT_RING_CAP: usize = 4096;

/// One node's bounded span ring. Slots are allocated once, then reused.
struct NodeRing {
    slots: Vec<SpanRecord>,
    /// Index of the oldest record once the ring is full.
    head: usize,
    /// Total records ever pushed (so overwrites are observable).
    pushed: u64,
}

impl NodeRing {
    fn new() -> NodeRing {
        NodeRing {
            slots: Vec::new(),
            head: 0,
            pushed: 0,
        }
    }

    fn push(&mut self, rec: SpanRecord, cap: usize) {
        self.pushed += 1;
        if self.slots.len() < cap {
            self.slots.push(rec);
        } else {
            self.slots[self.head] = rec;
            self.head = (self.head + 1) % cap;
        }
    }

    /// Records oldest-first.
    fn collect_into(&self, out: &mut Vec<SpanRecord>) {
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
    }
}

struct TracerInner {
    rng: SimRng,
    sample_every: Cell<u64>,
    ring_cap: usize,
    rings: RefCell<Vec<NodeRing>>,
    node_names: RefCell<Vec<String>>,
    /// Requests seen by [`start_trace`] (sampled or not).
    traces_seen: Cell<u64>,
    traces_sampled: Cell<u64>,
    /// Per-task stacks of active contexts. Keyed by the executor task so
    /// interleaved tasks never observe each other's context.
    ctx: RefCell<HashMap<Option<TaskId>, Vec<TraceCtx>>>,
}

impl TracerInner {
    fn fresh_id(&self) -> u64 {
        loop {
            let v = self.rng.next_u64();
            if v != 0 {
                return v;
            }
        }
    }

    fn push_ctx(&self, task: Option<TaskId>, ctx: TraceCtx) {
        self.ctx.borrow_mut().entry(task).or_default().push(ctx);
    }

    /// Remove the context naming `span_id` from `task`'s stack (top in the
    /// common LIFO case; searched so out-of-order guard drops stay safe).
    fn pop_ctx(&self, task: Option<TaskId>, span_id: u64) {
        let mut map = self.ctx.borrow_mut();
        if let Some(stack) = map.get_mut(&task) {
            if let Some(i) = stack.iter().rposition(|c| c.span_id == span_id) {
                stack.remove(i);
            }
            if stack.is_empty() {
                map.remove(&task);
            }
        }
    }

    fn current_ctx(&self) -> Option<TraceCtx> {
        let task = simcore::current_task();
        self.ctx.borrow().get(&task).and_then(|s| s.last()).copied()
    }

    fn record(&self, rec: SpanRecord) {
        let mut rings = self.rings.borrow_mut();
        let idx = rec.node as usize;
        if rings.len() <= idx {
            rings.resize_with(idx + 1, NodeRing::new);
        }
        rings[idx].push(rec, self.ring_cap);
    }
}

/// A deterministic sim-time tracer. Clone-cheap handle; install it on the
/// current thread with [`Tracer::install`] so the instrumentation hooks
/// throughout the stack can reach it.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Tracer {
    /// Create a tracer. `seed` feeds the id generator; `sample_every`
    /// head-samples one request trace in `N` (`0` disables sampling
    /// entirely, `1` traces every request).
    pub fn new(seed: u64, sample_every: u64) -> Tracer {
        Tracer::with_capacity(seed, sample_every, DEFAULT_RING_CAP)
    }

    /// [`Tracer::new`] with an explicit per-node ring capacity.
    pub fn with_capacity(seed: u64, sample_every: u64, ring_cap: usize) -> Tracer {
        assert!(ring_cap > 0, "ring capacity must be positive");
        Tracer {
            inner: Rc::new(TracerInner {
                rng: SimRng::new(seed ^ 0x7E1E_3E7E_0C0F_FEE5),
                sample_every: Cell::new(sample_every),
                ring_cap,
                rings: RefCell::new(Vec::new()),
                node_names: RefCell::new(Vec::new()),
                traces_seen: Cell::new(0),
                traces_sampled: Cell::new(0),
                ctx: RefCell::new(HashMap::new()),
            }),
        }
    }

    /// Install on the current thread; hooks are live until the guard
    /// drops (the previous tracer, if any, is restored).
    pub fn install(&self) -> InstallGuard {
        let prev = TRACER.with(|t| t.borrow_mut().replace(self.inner.clone()));
        ACTIVE.with(|a| a.set(self.inner.sample_every.get() != 0));
        InstallGuard { prev }
    }

    /// Change the head-sampling rate (`0` = off). Turning sampling off on
    /// the installed tracer drops every hook back to the one-`Cell`-read
    /// fast path.
    pub fn set_sample_every(&self, n: u64) {
        self.inner.sample_every.set(n);
        let installed = TRACER.with(|t| {
            t.borrow()
                .as_ref()
                .is_some_and(|i| Rc::ptr_eq(i, &self.inner))
        });
        if installed {
            ACTIVE.with(|a| a.set(n != 0));
        }
    }

    /// Name a node for the trace export (Perfetto process names).
    pub fn set_node_name(&self, node: u32, name: impl Into<String>) {
        let mut names = self.inner.node_names.borrow_mut();
        let idx = node as usize;
        if names.len() <= idx {
            names.resize(idx + 1, String::new());
        }
        names[idx] = name.into();
    }

    /// Node names indexed by node id (empty string = unnamed).
    pub fn node_names(&self) -> Vec<String> {
        self.inner.node_names.borrow().clone()
    }

    /// All recorded spans, ordered by `(start, span_id)` so the output is
    /// independent of ring/node iteration details.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for ring in self.inner.rings.borrow().iter() {
            ring.collect_into(&mut out);
        }
        out.sort_by_key(|r| (r.start, r.span_id));
        out
    }

    /// Requests observed / requests sampled by [`start_trace`].
    pub fn sampling_stats(&self) -> (u64, u64) {
        (
            self.inner.traces_seen.get(),
            self.inner.traces_sampled.get(),
        )
    }

    /// Discard all recorded spans (ring slots are kept allocated).
    pub fn clear(&self) {
        for ring in self.inner.rings.borrow_mut().iter_mut() {
            ring.slots.clear();
            ring.head = 0;
        }
    }
}

/// Restores the previously-installed tracer on drop.
pub struct InstallGuard {
    prev: Option<Rc<TracerInner>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| {
            a.set(prev.as_ref().is_some_and(|p| p.sample_every.get() != 0));
        });
        TRACER.with(|t| *t.borrow_mut() = prev);
    }
}

thread_local! {
    /// Fast gate: true iff a tracer is installed on this thread AND its
    /// sampling is on. Checked before anything else on every hook, so an
    /// installed-but-off tracer costs exactly as much as no tracer.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Rc<TracerInner>>> = const { RefCell::new(None) };
}

/// Whether a tracer is installed on this thread with sampling on (one
/// `Cell` read).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

fn with_tracer<R>(f: impl FnOnce(&Rc<TracerInner>) -> Option<R>) -> Option<R> {
    TRACER.with(|t| t.borrow().as_ref().and_then(f))
}

/// An in-flight span. Ends (and is written to the flight recorder) when
/// dropped, or explicitly via [`SpanGuard::end`]. May be moved into a
/// spawned task to end there (e.g. a packet-delivery pipeline).
pub struct SpanGuard {
    tracer: Rc<TracerInner>,
    rec: SpanRecord,
    /// Task whose context stack holds this span's ctx (if pushed).
    ctx_task: Option<Option<TaskId>>,
    finished: bool,
}

impl SpanGuard {
    /// This span's context, for handing to children (wire or task).
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.rec.trace_id,
            span_id: self.rec.span_id,
        }
    }

    /// Attach a typed attribute. Silently ignored past [`MAX_ATTRS`].
    pub fn attr(&mut self, key: &'static str, value: u64) {
        let n = self.rec.n_attrs as usize;
        if n < MAX_ATTRS {
            self.rec.attrs[n] = (key, value);
            self.rec.n_attrs += 1;
        }
    }

    /// End the span now.
    pub fn end(mut self) {
        self.finish();
    }

    /// End the span at `at`, for work done ahead of the clock (the fabric
    /// settles arrivals before the run loop reaches their instants).
    pub fn end_at(mut self, at: SimTime) {
        self.finish_at(at);
    }

    fn finish(&mut self) {
        self.finish_at(simcore::try_now().unwrap_or(self.rec.start));
    }

    fn finish_at(&mut self, end: SimTime) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.rec.end = end;
        if let Some(task) = self.ctx_task {
            self.tracer.pop_ctx(task, self.rec.span_id);
        }
        self.tracer.record(self.rec);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

fn new_span(
    tracer: &Rc<TracerInner>,
    kind: SpanKind,
    name: &'static str,
    node: u32,
    trace_id: u64,
    parent_id: u64,
    push_ctx: bool,
) -> SpanGuard {
    let span_id = tracer.fresh_id();
    let start = simcore::try_now().unwrap_or(SimTime::ZERO);
    let ctx_task = if push_ctx {
        let task = simcore::current_task();
        tracer.push_ctx(task, TraceCtx { trace_id, span_id });
        Some(task)
    } else {
        None
    };
    SpanGuard {
        tracer: tracer.clone(),
        rec: SpanRecord {
            trace_id,
            span_id,
            parent_id,
            kind,
            name,
            node,
            start,
            end: start,
            attrs: [("", 0); MAX_ATTRS],
            n_attrs: 0,
        },
        ctx_task,
        finished: false,
    }
}

/// Begin a new trace at an application request boundary, subject to head
/// sampling. Returns `None` when no tracer is installed, sampling is off,
/// or this request was not selected.
pub fn start_trace(name: &'static str, node: u32) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    with_tracer(|t| {
        let n = t.traces_seen.get();
        t.traces_seen.set(n + 1);
        let every = t.sample_every.get();
        if every == 0 || n % every != 0 {
            return None;
        }
        t.traces_sampled.set(t.traces_sampled.get() + 1);
        let trace_id = t.fresh_id();
        Some(new_span(
            t,
            SpanKind::Request,
            name,
            node,
            trace_id,
            0,
            true,
        ))
    })
}

/// Start a child span of the current task's context, making it the new
/// context (children started in this task nest under it). `None` when
/// untraced.
pub fn span(kind: SpanKind, name: &'static str, node: u32) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    with_tracer(|t| {
        let parent = t.current_ctx()?;
        Some(new_span(
            t,
            kind,
            name,
            node,
            parent.trace_id,
            parent.span_id,
            true,
        ))
    })
}

/// Like [`span`], but does not become the task's current context — for
/// leaf work whose guard outlives the caller's scope (packet pipelines)
/// or that never parents children.
pub fn leaf_span(kind: SpanKind, name: &'static str, node: u32) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    with_tracer(|t| {
        let parent = t.current_ctx()?;
        Some(new_span(
            t,
            kind,
            name,
            node,
            parent.trace_id,
            parent.span_id,
            false,
        ))
    })
}

/// Start a child span under an explicit parent context (the remote side
/// of a wire hop), making it the current task's context.
pub fn span_with_parent(
    kind: SpanKind,
    name: &'static str,
    node: u32,
    parent: TraceCtx,
) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    with_tracer(|t| {
        Some(new_span(
            t,
            kind,
            name,
            node,
            parent.trace_id,
            parent.span_id,
            true,
        ))
    })
}

/// Record an instant event under the current task's context.
pub fn event(kind: SpanKind, name: &'static str, node: u32, attrs: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    with_tracer(|t| {
        let parent = t.current_ctx()?;
        event_inner(t, kind, name, node, parent, attrs);
        Some(())
    });
}

/// Record an instant event under an explicit parent context (for code
/// running in helper tasks that carry no context of their own, e.g. the
/// retransmission watchdog).
pub fn event_with_parent(
    kind: SpanKind,
    name: &'static str,
    node: u32,
    parent: TraceCtx,
    attrs: &[(&'static str, u64)],
) {
    if !enabled() {
        return;
    }
    with_tracer(|t| {
        event_inner(t, kind, name, node, parent, attrs);
        Some(())
    });
}

/// Record a standalone single-span trace with no parent — for autonomous
/// server-side activity (e.g. lease reclamation by the expiry sweeper)
/// that belongs to no client request. Requires sampling to be switched on
/// (`sample_every != 0`) but is not head-sampled: such events are rare
/// and always of interest when tracing at all.
pub fn root_event(kind: SpanKind, name: &'static str, node: u32, attrs: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    with_tracer(|t| {
        if t.sample_every.get() == 0 {
            return None;
        }
        let trace_id = t.fresh_id();
        event_inner(
            t,
            kind,
            name,
            node,
            TraceCtx {
                trace_id,
                span_id: 0,
            },
            attrs,
        );
        Some(())
    });
}

fn event_inner(
    t: &Rc<TracerInner>,
    kind: SpanKind,
    name: &'static str,
    node: u32,
    parent: TraceCtx,
    attrs: &[(&'static str, u64)],
) {
    let mut guard = new_span(t, kind, name, node, parent.trace_id, parent.span_id, false);
    for &(k, v) in attrs.iter().take(MAX_ATTRS) {
        guard.attr(k, v);
    }
    guard.end();
}

/// The current task's trace context, if traced (what goes on the wire).
pub fn current_ctx() -> Option<TraceCtx> {
    if !enabled() {
        return None;
    }
    with_tracer(|t| t.current_ctx())
}

/// Make `ctx` the current task's context until the guard drops — manual
/// propagation into spawned helper tasks (fire-and-forget releases).
pub fn set_ctx(ctx: TraceCtx) -> Option<CtxGuard> {
    if !enabled() {
        return None;
    }
    with_tracer(|t| {
        let task = simcore::current_task();
        t.push_ctx(task, ctx);
        Some(CtxGuard {
            tracer: t.clone(),
            task,
            span_id: ctx.span_id,
        })
    })
}

/// Pops the context pushed by [`set_ctx`] on drop.
pub struct CtxGuard {
    tracer: Rc<TracerInner>,
    task: Option<TaskId>,
    span_id: u64,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        self.tracer.pop_ctx(self.task, self.span_id);
    }
}
