//! A deterministic, single-threaded, virtual-time async executor.
//!
//! [`Sim`] owns a virtual clock and a task queue. Tasks are ordinary Rust
//! futures (not required to be `Send`) that suspend on virtual-time timers
//! ([`sleep`]) and on the synchronization primitives in [`crate::sync`].
//! Time only advances when every runnable task is blocked, at which point the
//! clock jumps to the earliest pending event — the classic discrete-event
//! simulation loop. Besides timers, an event is whatever a registered
//! [`Source`] has due: a component that keeps its own queue of deadlines
//! (simnet's fabric) and does its work synchronously, with no task to poll.
//!
//! Determinism: at each instant the due sources fire first (in registration
//! order), then that instant's timers in `(deadline, registration-sequence)`
//! order, then the runnable tasks in FIFO wake order; there is no real-time
//! or OS-thread nondeterminism anywhere. Two runs of the same simulation
//! produce bit-identical results. A firing source is told the horizon, the
//! earliest instant anything else could act, and may do its own work due
//! before then in the same call, each piece at its own instant.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

use crate::time::SimTime;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Task identifier, unique within one [`Sim`].
///
/// Encodes a slot index plus a generation: slots are recycled after a task
/// completes, but the generation is bumped on every free, so identifiers held
/// by stale wakers or ready-queue entries can never reach a *different* task
/// that happens to reuse the slot. (The generation wraps at `u32::MAX`; a
/// collision would need the same slot to be recycled 2^32 times while a stale
/// waker for its first tenant is still live, which no simulation here
/// approaches.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId {
    idx: u32,
    gen: u32,
}

/// A pending timer. Ordered by `(deadline, registration sequence)`; carries
/// the registering task's waker so firing is a plain `wake()` with no task
/// lookup.
struct TimerEntry {
    at: SimTime,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for TimerEntry {}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An event source the run loop consults besides its timers.
///
/// At each instant the run loop asks every source for [`Source::next_at`]
/// once; the clock advances to the earliest of those and of the timers, and
/// each source due by then is [`fired`](Source::fire) before any timer of
/// that instant. A source with nothing due (`None`) is not an event: it
/// never keeps [`Sim::run`] from returning.
pub trait Source {
    /// The earliest instant this source has work at, if any.
    fn next_at(&self) -> Option<SimTime>;
    /// Do the work due at `now`. Called from the run loop, outside any task
    /// poll; it may wake and spawn tasks and change what `next_at` says.
    ///
    /// `until` is the earliest instant at which anything else could act:
    /// the next timer, another source's next instant or the run's limit,
    /// and `now` while a task is ready. Nothing runs before it, so a source
    /// may also do work it has due in `(now, until)`, each piece at its own
    /// instant, as long as that work wakes, spawns and calls out to nothing.
    fn fire(&self, now: SimTime, until: SimTime);
}

/// A registered source and the instant it last reported.
struct SourceEntry {
    source: Rc<dyn Source>,
    next: Option<SimTime>,
}

struct Task {
    /// `None` while the future is out being polled.
    future: Option<LocalFuture>,
    /// Whether the task is already in the ready queue (dedup).
    queued: bool,
    /// The task's waker, created once at spawn. Handing it to a poll is a
    /// refcount bump; the seed executor allocated a fresh `Rc` per poll.
    waker: Waker,
}

/// One slab slot: a generation counter plus the task occupying it (if any).
struct Slot {
    gen: u32,
    task: Option<Task>,
}

struct State {
    now: SimTime,
    seq: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    ready: VecDeque<TaskId>,
    /// Task slab indexed by `TaskId::idx`.
    slots: Vec<Slot>,
    /// Indices of vacant slots, reused LIFO.
    free: Vec<u32>,
    /// Number of occupied slots (`live_tasks`).
    live: usize,
    /// Scratch buffer for draining same-instant timer batches; kept here so
    /// its capacity is reused across batches instead of reallocated.
    fired_scratch: Vec<Waker>,
    running: bool,
    polls: u64,
}

pub(crate) struct Inner {
    state: RefCell<State>,
    /// Kept outside `state` so a firing source can wake and spawn tasks,
    /// and outside any borrow while it fires so it can register another.
    sources: RefCell<Vec<SourceEntry>>,
    /// The task whose future is currently being polled (if any). Kept
    /// outside `state` so it stays readable while the poll holds the
    /// future out of the slab.
    current: Cell<Option<TaskId>>,
}

impl Inner {
    fn schedule(&self, id: TaskId) {
        let mut st = self.state.borrow_mut();
        let Some(slot) = st.slots.get_mut(id.idx as usize) else {
            return;
        };
        if slot.gen != id.gen {
            return; // Stale wake: the slot has been recycled.
        }
        if let Some(task) = slot.task.as_mut() {
            if !task.queued {
                task.queued = true;
                st.ready.push_back(id);
            }
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.state.borrow().now
    }

    pub(crate) fn add_timer(&self, at: SimTime, waker: Waker) {
        let mut st = self.state.borrow_mut();
        let seq = st.seq;
        st.seq += 1;
        st.timers.push(Reverse(TimerEntry { at, seq, waker }));
    }

    fn spawn_boxed(self: &Rc<Self>, future: LocalFuture) -> TaskId {
        let mut st = self.state.borrow_mut();
        let idx = match st.free.pop() {
            Some(idx) => idx,
            None => {
                assert!(st.slots.len() < u32::MAX as usize, "task slab exhausted");
                st.slots.push(Slot { gen: 0, task: None });
                (st.slots.len() - 1) as u32
            }
        };
        let id = TaskId {
            idx,
            gen: st.slots[idx as usize].gen,
        };
        let waker = make_waker(self, id);
        st.slots[idx as usize].task = Some(Task {
            future: Some(future),
            queued: true,
            waker,
        });
        st.live += 1;
        st.ready.push_back(id);
        id
    }
}

// ---------------------------------------------------------------------------
// Waker plumbing.
//
// The executor is strictly single-threaded, so the waker is backed by an `Rc`
// rather than an `Arc`. This is sound for this crate because no future ever
// moves a `Waker` across threads: every primitive in `simcore` (and every
// crate built on it) is `!Send` by construction.
// ---------------------------------------------------------------------------

struct WakerData {
    inner: Weak<Inner>,
    task: TaskId,
}

impl WakerData {
    fn wake(&self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.schedule(self.task);
        }
    }
}

const VTABLE: RawWakerVTable = RawWakerVTable::new(clone_raw, wake_raw, wake_by_ref_raw, drop_raw);

unsafe fn clone_raw(data: *const ()) -> RawWaker {
    Rc::increment_strong_count(data as *const WakerData);
    RawWaker::new(data, &VTABLE)
}

unsafe fn wake_raw(data: *const ()) {
    let rc = Rc::from_raw(data as *const WakerData);
    rc.wake();
}

unsafe fn wake_by_ref_raw(data: *const ()) {
    let d = &*(data as *const WakerData);
    d.wake();
}

unsafe fn drop_raw(data: *const ()) {
    drop(Rc::from_raw(data as *const WakerData));
}

fn make_waker(inner: &Rc<Inner>, task: TaskId) -> Waker {
    let data = Rc::new(WakerData {
        inner: Rc::downgrade(inner),
        task,
    });
    let raw = RawWaker::new(Rc::into_raw(data) as *const (), &VTABLE);
    // SAFETY: the vtable functions uphold the RawWaker contract for an
    // Rc-backed waker that is never sent across threads (see module note).
    unsafe { Waker::from_raw(raw) }
}

// ---------------------------------------------------------------------------
// Current-simulation thread local.
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Vec<Rc<Inner>>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn current_inner() -> Rc<Inner> {
    CURRENT.with(|c| {
        c.borrow()
            .last()
            .cloned()
            .expect("simcore: not inside a Sim run loop (no current simulation)")
    })
}

struct EnterGuard;

impl EnterGuard {
    fn new(inner: Rc<Inner>) -> EnterGuard {
        CURRENT.with(|c| c.borrow_mut().push(inner));
        EnterGuard
    }
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

// ---------------------------------------------------------------------------
// Public executor API.
// ---------------------------------------------------------------------------

/// The simulation executor: a virtual clock plus a cooperative task scheduler.
///
/// Cloning a `Sim` is cheap and yields another handle onto the same
/// simulation.
///
/// ```
/// use simcore::{Sim, sleep, now};
/// use std::time::Duration;
///
/// let sim = Sim::new();
/// let out = sim.block_on(async {
///     sleep(Duration::from_micros(3)).await;
///     now().nanos()
/// });
/// assert_eq!(out, 3_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a new simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Sim {
        Sim {
            inner: Rc::new(Inner {
                state: RefCell::new(State {
                    now: SimTime::ZERO,
                    seq: 0,
                    timers: BinaryHeap::new(),
                    ready: VecDeque::new(),
                    slots: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                    fired_scratch: Vec::new(),
                    running: false,
                    polls: 0,
                }),
                sources: RefCell::new(Vec::new()),
                current: Cell::new(None),
            }),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// Total number of future polls performed (a determinism fingerprint).
    pub fn poll_count(&self) -> u64 {
        self.inner.state.borrow().polls
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.state.borrow().live
    }

    /// Number of timers armed and not yet fired. A dropped [`sleep`] stays
    /// counted until its deadline passes (timers are never cancelled).
    pub fn pending_timers(&self) -> usize {
        self.inner.state.borrow().timers.len()
    }

    /// Register `source`: from the next instant the run loop looks on, its
    /// due work is an event like a timer.
    pub fn add_source(&self, source: Rc<dyn Source>) {
        self.inner
            .sources
            .borrow_mut()
            .push(SourceEntry { source, next: None });
    }

    /// Spawn a task nobody joins: no join slot is allocated and the
    /// future's output is dropped when it completes.
    pub fn spawn_detached<F>(&self, future: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.inner.spawn_boxed(Box::pin(future));
    }

    /// Spawn a task onto the simulation, returning a handle to its output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let slot: Rc<RefCell<JoinState<F::Output>>> = Rc::new(RefCell::new(JoinState::default()));
        let slot2 = slot.clone();
        self.spawn_detached(async move {
            let value = future.await;
            let mut s = slot2.borrow_mut();
            s.value = Some(value);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        });
        JoinHandle { slot }
    }

    /// Run the simulation until no task is runnable, no timer is pending and
    /// no source has anything due.
    ///
    /// Returns the final virtual time. Tasks that are permanently blocked
    /// (e.g. service loops waiting on channels) simply remain blocked; use
    /// [`Sim::live_tasks`] to inspect them.
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::MAX);
        self.now()
    }

    /// Run the simulation, processing every event up to and including
    /// `limit`, then set the clock to `limit` (if it got that far).
    ///
    /// Boundary semantics (pinned by `simcore/tests/run_boundary.rs`):
    /// events scheduled *exactly at* `limit` fire within this call, the
    /// clock always lands on `limit` afterwards (even if no event reached
    /// it), and re-entering the run loop from inside a task panics.
    pub fn run_until(&self, limit: SimTime) {
        let _guard = self.enter();
        loop {
            // Drain all currently-runnable tasks at the current instant.
            while self.step_one() {}

            // Advance to the next event, if within the limit.
            let source_at = self.poll_sources();
            let mut st = self.inner.state.borrow_mut();
            let timer_at = st.timers.peek().map(|Reverse(e)| e.at);
            let next_at = source_at.into_iter().chain(timer_at).min();
            let Some(at) = next_at.filter(|&at| at <= limit) else {
                break;
            };
            st.now = st.now.max(at);
            let now = st.now;
            if source_at.is_some_and(|due| due <= now) {
                drop(st);
                self.fire_sources(now, limit);
                st = self.inner.state.borrow_mut();
            }
            // Fire every timer scheduled for exactly `now`, reusing the
            // scratch buffer's capacity across batches. The buffer is moved
            // out so `schedule` (via wake) can re-borrow state.
            let mut fired = std::mem::take(&mut st.fired_scratch);
            while let Some(Reverse(e)) = st.timers.peek() {
                if e.at > now {
                    break;
                }
                let Reverse(e) = st.timers.pop().expect("peeked");
                fired.push(e.waker);
            }
            drop(st);
            for w in fired.drain(..) {
                w.wake();
            }
            self.inner.state.borrow_mut().fired_scratch = fired;
        }
        if limit != SimTime::MAX {
            let mut st = self.inner.state.borrow_mut();
            st.now = st.now.max(limit);
        }
    }

    /// Ask every source when it is next due, once, and keep the answer for
    /// [`Sim::fire_sources`]. Returns the earliest.
    fn poll_sources(&self) -> Option<SimTime> {
        let mut sources = self.inner.sources.borrow_mut();
        let mut earliest = None;
        for entry in sources.iter_mut() {
            entry.next = entry.source.next_at();
            earliest = earliest.into_iter().chain(entry.next).min();
        }
        earliest
    }

    /// Fire, in registration order, every source that said it is due by
    /// `now`. No borrow is held while one fires.
    fn fire_sources(&self, now: SimTime, limit: SimTime) {
        let mut i = 0;
        loop {
            let due = match self.inner.sources.borrow().get(i) {
                None => return,
                Some(entry) => entry
                    .next
                    .filter(|&at| at <= now)
                    .map(|_| entry.source.clone()),
            };
            if let Some(source) = due {
                source.fire(now, self.horizon(now, limit, i));
            }
            i += 1;
        }
    }

    /// The earliest instant at which anything but source `i` could act:
    /// `now` while a task is ready, else the next timer, another source's
    /// next instant (asked afresh: one that fired at `now` may have moved
    /// it) or `limit`, whichever comes first.
    fn horizon(&self, now: SimTime, limit: SimTime, i: usize) -> SimTime {
        let st = self.inner.state.borrow();
        if !st.ready.is_empty() {
            return now;
        }
        let timer = st.timers.peek().map(|Reverse(e)| e.at);
        drop(st);
        let sources = self.inner.sources.borrow();
        let others = sources.iter().enumerate().filter(|&(j, _)| j != i);
        let others = others.filter_map(|(_, e)| e.source.next_at());
        timer
            .into_iter()
            .chain(others)
            .fold(limit, SimTime::min)
            .max(now)
    }

    /// Run for `d` of virtual time past the current instant.
    pub fn run_for(&self, d: Duration) {
        let limit = self.now() + d;
        self.run_until(limit);
    }

    /// The virtual time of the earliest pending event: the current instant
    /// if any task is runnable, else the earliest pending timer or due
    /// source, else `None` (the simulation is quiescent — permanently
    /// blocked service tasks may still be [`Sim::live_tasks`]). Stale
    /// ready-queue entries for completed tasks are conservatively reported
    /// as runnable (the subsequent run simply skips them).
    pub fn next_event_time(&self) -> Option<SimTime> {
        let st = self.inner.state.borrow();
        if !st.ready.is_empty() {
            return Some(st.now);
        }
        let timer = st.timers.peek().map(|Reverse(e)| e.at);
        drop(st);
        let sources = self.inner.sources.borrow();
        let source = sources.iter().filter_map(|e| e.source.next_at()).min();
        timer.into_iter().chain(source).min()
    }

    /// Run `f` with this simulation installed as the thread's current
    /// simulation, without running any task. Lets setup code outside a task
    /// call context-dependent free functions ([`spawn`], [`now`], library
    /// constructors that spawn service loops) before the run loop starts.
    ///
    /// Unlike [`Sim::run_until`], `scope` may be entered while a run loop
    /// of *another* simulation is on the stack (it nests), but not while
    /// this simulation itself is running (ordinary task code already has
    /// the context).
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let _tls = EnterGuard::new(self.inner.clone());
        f()
    }

    /// Spawn `future`, run the simulation until it completes, and return its
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs out of events before the future
    /// completes (i.e. the future deadlocked on something that will never
    /// wake it).
    pub fn block_on<F>(&self, future: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(future);
        self.run();
        handle
            .try_take()
            .expect("simcore: block_on future never completed (deadlock in simulation)")
    }

    fn enter(&self) -> RunGuard {
        {
            let mut st = self.inner.state.borrow_mut();
            assert!(!st.running, "simcore: Sim::run re-entered");
            st.running = true;
        }
        RunGuard {
            _tls: EnterGuard::new(self.inner.clone()),
            inner: self.inner.clone(),
        }
    }

    /// Poll one ready task. Returns false if the ready queue is empty.
    fn step_one(&self) -> bool {
        let (id, mut fut, waker) = {
            let mut st = self.inner.state.borrow_mut();
            let id = loop {
                match st.ready.pop_front() {
                    Some(id) => {
                        let Some(slot) = st.slots.get_mut(id.idx as usize) else {
                            continue;
                        };
                        if slot.gen != id.gen {
                            continue; // Stale entry: slot recycled since queueing.
                        }
                        let Some(task) = slot.task.as_mut() else {
                            continue; // Stale entry: task completed.
                        };
                        task.queued = false;
                        if task.future.is_some() {
                            break id;
                        }
                        // Future is momentarily out being polled; requeue.
                        task.queued = true;
                        st.ready.push_back(id);
                        continue;
                    }
                    None => return false,
                }
            };
            let task = st.slots[id.idx as usize]
                .task
                .as_mut()
                .expect("task just matched");
            let fut = task.future.take().expect("task future present");
            // Refcount bump on the cached waker, not a fresh allocation.
            let waker = task.waker.clone();
            st.polls += 1;
            (id, fut, waker)
        };

        let mut cx = Context::from_waker(&waker);
        // Published so `current_task()` can identify the polling task; a
        // nested `Sim` run inside a poll saves and restores it.
        let prev = self.inner.current.replace(Some(id));
        let poll = fut.as_mut().poll(&mut cx);
        self.inner.current.set(prev);

        let mut st = self.inner.state.borrow_mut();
        match poll {
            Poll::Ready(()) => {
                let slot = &mut st.slots[id.idx as usize];
                slot.task = None;
                slot.gen = slot.gen.wrapping_add(1);
                st.free.push(id.idx);
                st.live -= 1;
            }
            Poll::Pending => {
                let slot = &mut st.slots[id.idx as usize];
                if slot.gen == id.gen {
                    if let Some(task) = slot.task.as_mut() {
                        task.future = Some(fut);
                    }
                }
            }
        }
        true
    }
}

/// Composite guard: clears both the TLS stack and the `running` flag.
struct RunGuard {
    _tls: EnterGuard,
    inner: Rc<Inner>,
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        self.inner.state.borrow_mut().running = false;
    }
}

// ---------------------------------------------------------------------------
// JoinHandle.
// ---------------------------------------------------------------------------

struct JoinState<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

impl<T> Default for JoinState<T> {
    fn default() -> Self {
        JoinState {
            value: None,
            waker: None,
        }
    }
}

/// Handle to a spawned task's output. Await it inside the simulation, or use
/// [`JoinHandle::try_take`] after the run loop returns.
pub struct JoinHandle<T> {
    slot: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the task's output if it has completed.
    pub fn try_take(&self) -> Option<T> {
        self.slot.borrow_mut().value.take()
    }

    /// Whether the task has completed (output may already be taken).
    pub fn is_finished(&self) -> bool {
        let s = self.slot.borrow();
        s.value.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.slot.borrow_mut();
        if let Some(v) = s.value.take() {
            Poll::Ready(v)
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Free functions usable inside simulation tasks.
// ---------------------------------------------------------------------------

/// Current virtual time. Must be called from inside a simulation task (or
/// while a `Sim` run loop is on the stack).
pub fn now() -> SimTime {
    current_inner().now()
}

/// Current virtual time, or `None` when no simulation run loop is on the
/// stack. Unlike [`now`], never panics — for instrumentation that may run
/// during teardown.
pub fn try_now() -> Option<SimTime> {
    CURRENT.with(|c| c.borrow().last().map(|inner| inner.now()))
}

/// The simulation whose run loop (or [`Sim::scope`]) is on the stack, or
/// `None` outside any. Lets passive instrumentation read the executor's own
/// gauges ([`Sim::live_tasks`], [`Sim::pending_timers`]) without holding a
/// handle that would keep the simulation alive.
pub fn try_current() -> Option<Sim> {
    CURRENT.with(|c| {
        c.borrow().last().map(|inner| Sim {
            inner: inner.clone(),
        })
    })
}

/// Identity of the task currently being polled, or `None` when called
/// outside a task poll (including outside any simulation). Unlike
/// [`now`], this never panics, so instrumentation layers can call it
/// unconditionally.
pub fn current_task() -> Option<TaskId> {
    CURRENT.with(|c| c.borrow().last().and_then(|inner| inner.current.get()))
}

/// Spawn a task onto the current simulation.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let sim = Sim {
        inner: current_inner(),
    };
    sim.spawn(future)
}

/// Register `source` with the current simulation (see [`Sim::add_source`]).
pub fn add_source(source: Rc<dyn Source>) {
    Sim {
        inner: current_inner(),
    }
    .add_source(source)
}

/// Spawn a task nobody joins onto the current simulation (see
/// [`Sim::spawn_detached`]).
pub fn spawn_detached<F>(future: F)
where
    F: Future<Output = ()> + 'static,
{
    let sim = Sim {
        inner: current_inner(),
    };
    sim.spawn_detached(future)
}

/// Sleep until the virtual clock reaches `deadline`.
pub fn sleep_until(deadline: SimTime) -> Sleep {
    Sleep {
        deadline,
        registered: false,
    }
}

/// Sleep for `d` of virtual time.
pub fn sleep(d: Duration) -> Sleep {
    Sleep {
        deadline: now() + d,
        registered: false,
    }
}

/// Future returned by [`sleep`] / [`sleep_until`].
pub struct Sleep {
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let inner = current_inner();
        if inner.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            // Arm the timer with the polling task's waker: firing it later is
            // a direct wake with no thread-local lookup or task-table probe.
            inner.add_timer(self.deadline, cx.waker().clone());
            self.registered = true;
        }
        Poll::Pending
    }
}

/// Yield to other runnable tasks once, without advancing the clock.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn block_on_returns_value() {
        let sim = Sim::new();
        assert_eq!(sim.block_on(async { 42 }), 42);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new();
        let t = sim.block_on(async {
            sleep(Duration::from_micros(5)).await;
            sleep(Duration::from_micros(7)).await;
            now()
        });
        assert_eq!(t, SimTime::from_micros(12));
        assert_eq!(sim.now(), SimTime::from_micros(12));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let sim = Sim::new();
        let order: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for (idx, delay) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let order = order.clone();
            sim.spawn(async move {
                sleep(Duration::from_nanos(delay)).await;
                order.borrow_mut().push((idx, now().nanos()));
            });
        }
        sim.run();
        assert_eq!(&*order.borrow(), &[(1, 10), (2, 20), (0, 30)]);
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for idx in 0..5u32 {
            let order = order.clone();
            sim.spawn(async move {
                sleep(Duration::from_nanos(100)).await;
                order.borrow_mut().push(idx);
            });
        }
        sim.run();
        assert_eq!(&*order.borrow(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let sim = Sim::new();
        let fired = Rc::new(Cell::new(false));
        let f2 = fired.clone();
        sim.spawn(async move {
            sleep(Duration::from_micros(10)).await;
            f2.set(true);
        });
        sim.run_until(SimTime::from_micros(5));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_micros(5));
        sim.run_until(SimTime::from_micros(20));
        assert!(fired.get());
        assert_eq!(sim.now(), SimTime::from_micros(20));
    }

    #[test]
    fn spawn_from_inside_task() {
        let sim = Sim::new();
        let v = sim.block_on(async {
            let h = spawn(async {
                sleep(Duration::from_nanos(5)).await;
                7
            });
            h.await + 1
        });
        assert_eq!(v, 8);
    }

    #[test]
    fn join_handle_try_take() {
        let sim = Sim::new();
        let h = sim.spawn(async { "done" });
        assert!(!h.is_finished());
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some("done"));
        assert_eq!(h.try_take(), None);
    }

    #[test]
    fn yield_now_interleaves_without_time() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            yield_now().await;
            l1.borrow_mut().push("a2");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
            yield_now().await;
            l2.borrow_mut().push("b2");
        });
        sim.run();
        assert_eq!(&*log.borrow(), &["a1", "b1", "a2", "b2"]);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn determinism_fingerprint_is_stable() {
        fn run_once() -> (u64, u64) {
            let sim = Sim::new();
            for i in 0..20u64 {
                sim.spawn(async move {
                    for j in 0..5u64 {
                        sleep(Duration::from_nanos(i * 13 + j * 7 + 1)).await;
                    }
                });
            }
            sim.run();
            (sim.poll_count(), sim.now().nanos())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn live_tasks_reports_blocked_services() {
        let sim = Sim::new();
        // A service that waits forever on a timerless future.
        sim.spawn(async {
            std::future::pending::<()>().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    #[should_panic(expected = "never completed")]
    fn block_on_deadlock_panics() {
        let sim = Sim::new();
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn current_task_identifies_the_polling_task() {
        assert_eq!(current_task(), None, "outside any simulation");
        let sim = Sim::new();
        let ids: Rc<RefCell<Vec<Option<TaskId>>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let ids = ids.clone();
            sim.spawn(async move {
                let before = current_task();
                sleep(Duration::from_nanos(1)).await;
                assert_eq!(current_task(), before, "stable across suspension");
                ids.borrow_mut().push(before);
            });
        }
        sim.run();
        let ids = ids.borrow();
        assert_eq!(ids.len(), 2);
        assert!(ids[0].is_some() && ids[1].is_some());
        assert_ne!(ids[0], ids[1], "distinct tasks get distinct identities");
        assert_eq!(current_task(), None, "cleared after the run loop");
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let t = sim.block_on(async {
            sleep(Duration::ZERO).await;
            now()
        });
        assert_eq!(t, SimTime::ZERO);
    }
}
