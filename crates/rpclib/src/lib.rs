//! # rpclib — an eRPC-style datacenter RPC library on the simulated fabric
//!
//! Reimplements the structure of eRPC (Kalia et al., NSDI'19), the paper's
//! baseline and the control channel under DmRPC:
//!
//! * **datagram transport** — packets ride raw (simulated) UDP; reliability
//!   is client-driven: the client retransmits the whole request after an RTO
//!   until the response arrives (eRPC's "re-transmissions only at clients").
//!   A call in flight is one entry in its endpoint's retransmission table,
//!   served by one timer per endpoint; the entry and the request's packets
//!   go the moment the call ends;
//! * **MTU fragmentation** — messages are split into MTU-sized fragments and
//!   reassembled on the receiver ([`wire`]);
//! * **asynchronous nested handlers** — a handler is an async function that
//!   may itself issue RPCs, which is how microservice chains are built;
//! * **session slots with implicit acks** — every call occupies one of the
//!   caller's per-destination slots, named in the low bits of `req_num`
//!   ([`wire::req_num`]); the server keeps one entry per `(client, slot)`
//!   holding the latest request's state and, once answered, its response
//!   packets. A higher `req_num` on a slot acknowledges and replaces the
//!   previous one, an equal one is a duplicate (answered from the kept
//!   response, never re-executed), a lower one is stale and dropped — so a
//!   one-packet RPC is two datagrams and execution is at-most-once exactly;
//! * **multi-op framing** — batching layers pack several logical ops into
//!   one message body via the shared zero-copy framing in [`multiframe`];
//! * **messages with a head** — what is sent, handled and returned is a
//!   [`Message`]: a small head the layer above writes its prefix into, in
//!   front of a shared body no layer copies (eRPC's msgbuf). A plain
//!   `Bytes` is a message that is all body.
//!
//! Cost model hooks: an optional [`CpuPool`] charges per-request dispatch
//! CPU, and an optional [`NodeMemory`] accounts DMA memory traffic for every
//! payload byte sent and received — this is what makes *pass-by-value*
//! forwarding visibly expensive on data-mover nodes (paper Fig. 6b).

#![warn(missing_docs)]

mod message;
pub mod multiframe;
pub mod wire;

pub use message::{flattened, Message};

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use memsim::NodeMemory;
use simcore::sync::{oneshot, Notify};
use simcore::{Counter, CpuPool, FastMap, Histogram, SimRng, SimTime};
use simnet::{Addr, Network, NodeId, Payload};
use telemetry::{SpanKind, TraceCtx};
use wire::{fragment, slot_of, Header, Kind, Packet, Reassembly};

/// Wrap a wire packet as a two-segment datagram payload (refcount bumps, no
/// byte copies).
fn packet_payload(p: &Packet) -> Payload {
    Payload::two(p.head.clone(), p.body.clone())
}

/// Errors surfaced to RPC callers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RpcError {
    /// No response after exhausting the retry limit or the retry budget.
    Timeout {
        /// Total transmissions performed (1 initial + retransmissions)
        /// before giving up — diagnosability for chaos reports.
        attempts: u32,
    },
    /// The request cannot be framed at this endpoint's MTU
    /// ([`wire::max_msg_len`]); nothing was sent.
    TooLarge {
        /// Length of the message.
        len: usize,
        /// The longest message this endpoint frames.
        max: usize,
    },
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout { attempts } => {
                write!(f, "rpc timeout after {attempts} attempts")
            }
            RpcError::TooLarge { len, max } => {
                write!(f, "{len}-byte message exceeds the framing limit of {max}")
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// RPC layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct RpcConfig {
    /// Payload bytes per packet (eRPC uses large MTUs on lossless fabrics).
    pub mtu: usize,
    /// Base retransmission timeout.
    pub rto: Duration,
    /// Additional RTO per request fragment, so multi-packet messages whose
    /// transmission time exceeds the base RTO are not spuriously
    /// retransmitted (effective RTO = `rto + rto_per_packet * num_pkts`).
    pub rto_per_packet: Duration,
    /// Retransmissions before giving up with [`RpcError::Timeout`].
    pub max_retries: u32,
    /// Ceiling for the exponentially backed-off RTO: each retransmission
    /// doubles the wait, capped at `max(rto_max, effective base RTO)`.
    /// Backoff only changes timing *after* the first RTO expiry, so
    /// fault-free runs are unaffected.
    pub rto_max: Duration,
    /// Random jitter applied to every retransmission wait: the wait is
    /// scaled by a factor uniform in `[1, 1 + retry_jitter)`. `0.0`
    /// (default) draws no random numbers, preserving existing schedules.
    /// Jitter desynchronizes retry storms after a partition heals.
    pub retry_jitter: f64,
    /// Cap on the total virtual time spent retrying one call, measured
    /// from the first transmission. When the budget expires the call fails
    /// with [`RpcError::Timeout`] even if `max_retries` is not exhausted.
    /// `None` (default) disables the budget.
    pub retry_budget: Option<Duration>,
    /// Per-request server-side dispatch CPU cost (charged on the node's
    /// [`CpuPool`] when one is attached).
    pub per_rpc_cpu: Duration,
    /// Additional dispatch CPU per KiB of request payload — the
    /// serialization/copy work a single-threaded service spends on
    /// pass-by-value arguments (~1 us for a 4 KiB argument by default).
    pub per_kb_cpu: Duration,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            mtu: 4096,
            // eRPC's default RTO is in the milliseconds; retransmission is
            // for loss recovery, not load shedding — keep it well above any
            // queueing delay a loaded closed-loop run can produce.
            rto: Duration::from_millis(20),
            rto_per_packet: Duration::from_micros(20),
            max_retries: 10,
            rto_max: Duration::from_millis(160),
            retry_jitter: 0.0,
            retry_budget: None,
            per_rpc_cpu: Duration::from_nanos(400),
            per_kb_cpu: Duration::from_nanos(400),
        }
    }
}

/// Exponential backoff with optional multiplicative jitter — the policy
/// behind the retransmission table, exposed so higher layers (e.g. the
/// DM client's `Busy`-retry loop) reuse the exact same wait schedule
/// instead of inventing a second one.
///
/// Each [`Backoff::next_wait`] returns the current interval (jittered by
/// `1 + U[0,1) × jitter` when a jitter fraction and RNG are supplied) and
/// then doubles the base, saturating at `cap`.
#[derive(Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
    jitter: f64,
    rng: Option<SimRng>,
}

impl Backoff {
    /// Deterministic (jitter-free) backoff starting at `base`, doubling
    /// up to `cap` (raised to `base` if smaller).
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff {
            next: base,
            cap: cap.max(base),
            jitter: 0.0,
            rng: None,
        }
    }

    /// Backoff whose waits are multiplied by `1 + U[0,1) × jitter`. The
    /// RNG is only consulted when `jitter > 0`, so a zero-jitter policy
    /// draws nothing and stays schedule-identical to [`Backoff::new`].
    pub fn with_jitter(base: Duration, cap: Duration, jitter: f64, rng: SimRng) -> Backoff {
        Backoff {
            next: base,
            cap: cap.max(base),
            jitter,
            rng: Some(rng),
        }
    }

    /// The wait before the next retry attempt; advances the schedule.
    pub fn next_wait(&mut self) -> Duration {
        let wait = match (&self.rng, self.jitter > 0.0) {
            (Some(rng), true) => self.next.mul_f64(1.0 + rng.gen_f64() * self.jitter),
            _ => self.next,
        };
        self.next = (self.next * 2).min(self.cap);
        wait
    }
}

/// Context handed to request handlers.
pub struct CallCtx {
    /// The local RPC object (for nested calls).
    pub rpc: Rc<Rpc>,
    /// The caller's address.
    pub src: Addr,
    /// Request type the caller used.
    pub req_type: u8,
    /// Full request payload.
    pub payload: Message,
}

/// Boxed handler future.
pub type HandlerFuture = Pin<Box<dyn Future<Output = Message>>>;
/// A registered request handler.
pub type Handler = Rc<dyn Fn(CallCtx) -> HandlerFuture>;

/// A call's entry in the retransmission table: `(due, arming order,
/// req_num)`. Calls due at the same instant go in the order they were
/// armed — the executor's own rule for timers.
type RtoKey = (SimTime, u64, u64);

/// One call in flight: the response being reassembled plus everything its
/// retransmission needs. Gone the moment the call ends.
struct Pending {
    reassembly: Option<Reassembly>,
    done: Option<oneshot::Sender<Result<Message, RpcError>>>,
    dst: Addr,
    pkts: Vec<Packet>,
    /// Transmissions so far (1 = the initial one).
    attempts: u32,
    backoff: Backoff,
    /// `retry_budget` as an instant, when configured.
    deadline: Option<SimTime>,
    trace: Option<TraceCtx>,
    /// This call's entry in [`Rpc::rto`]: when its next retransmission
    /// (or its timeout) is due.
    rto_key: RtoKey,
}

/// Client half of a session: this endpoint's state towards one peer.
struct Session {
    /// Idle slots, most recently freed last: reusing that one first keeps
    /// the live set dense, so the slots a burst grew sit idle at the bottom
    /// and the peer holds at most one answered response for each.
    free: Vec<u32>,
    /// Slots ever issued = peak concurrency towards the peer.
    issued: u32,
}

impl Session {
    fn take_slot(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.issued += 1;
            self.issued - 1
        })
    }
}

/// Returns a call's slot to its session and forgets its pending entry
/// however the call ends: answered, timed out, or its future dropped.
struct SlotLease<'a> {
    rpc: &'a Rpc,
    dst: Addr,
    req_num: u64,
}

impl Drop for SlotLease<'_> {
    fn drop(&mut self) {
        self.rpc.forget(self.req_num);
        if let Some(session) = self.rpc.sessions.borrow_mut().get_mut(&self.dst) {
            session.free.push(slot_of(self.req_num));
        }
    }
}

/// Server half of a session slot: the latest request a client issued on it.
struct ServedSlot {
    req_num: u64,
    state: SlotState,
}

enum SlotState {
    /// Fragments still arriving.
    Receiving(Reassembly),
    /// Handler running; duplicates are ignored until it answers.
    Executing,
    /// Answered: duplicates are served these packets until a higher
    /// `req_num` on the slot acknowledges them.
    Done(Rc<Vec<Packet>>),
}

/// How many server-side slots are in each state (see [`Rpc::served_slots`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServedSlots {
    /// Requests with fragments still missing (each holds a `Reassembly`).
    pub receiving: usize,
    /// Requests whose handler is running.
    pub executing: usize,
    /// Answered requests whose response packets are retained.
    pub done: usize,
}

/// Counters exposed for tests and reports.
#[derive(Clone, Default)]
pub struct RpcStats {
    /// Completed outgoing calls.
    pub calls_completed: Counter,
    /// Request retransmissions performed.
    pub retransmits: Counter,
    /// Requests whose handler ran on this node.
    pub requests_handled: Counter,
    /// Calls that ended in timeout.
    pub timeouts: Counter,
    /// Complete requests dropped: no handler is registered for their type.
    pub requests_unserved: Counter,
    /// Handler replies too long to frame ([`wire::max_msg_len`]), answered
    /// with an empty message instead.
    pub replies_unframeable: Counter,
}

/// One RPC endpoint: client and server in a single object (services issue
/// nested calls from inside handlers).
pub struct Rpc {
    net: Network,
    addr: Addr,
    config: RpcConfig,
    cpu: Option<CpuPool>,
    mem: Option<NodeMemory>,
    handlers: RefCell<FastMap<u8, Handler>>,
    next_req: Cell<u64>,
    pending: RefCell<FastMap<u64, Pending>>,
    /// The retransmission table: one entry per pending call, served
    /// earliest first by the endpoint's one RTO task.
    rto: RefCell<BTreeSet<RtoKey>>,
    /// Entries ever made in `rto`: the next one's arming order.
    rto_entered: Cell<u64>,
    /// The instant the RTO task's timer is set for; `None` while it is
    /// parked on `rto_wake` with nothing in flight.
    rto_armed: Cell<Option<SimTime>>,
    /// Wakes the RTO task when a call arms a `due` earlier than its timer.
    rto_wake: Notify,
    /// The latest `due` ever entered into the table. With nothing in flight
    /// the RTO task keeps its one timer until this instant has passed, so a
    /// run quiesces exactly when it did with a watchdog per call (some
    /// artifacts divide by time-to-quiescence).
    rto_horizon: Cell<SimTime>,
    sessions: RefCell<FastMap<Addr, Session>>,
    served: RefCell<FastMap<(Addr, u32), ServedSlot>>,
    stats: RpcStats,
    handler_times: RefCell<FastMap<u8, Histogram>>,
    /// Crash modeling: an offline endpoint neither receives nor transmits.
    offline: Cell<bool>,
    /// Private stream for retry jitter, seeded from the endpoint address so
    /// it never perturbs the fabric's RNG (and is only drawn from when
    /// `retry_jitter > 0`).
    retry_rng: SimRng,
}

/// Builder for [`Rpc`].
pub struct RpcBuilder {
    net: Network,
    node: NodeId,
    port: u16,
    config: RpcConfig,
    cpu: Option<CpuPool>,
    mem: Option<NodeMemory>,
}

impl RpcBuilder {
    /// Start building an RPC endpoint bound to `node:port`.
    pub fn new(net: &Network, node: NodeId, port: u16) -> RpcBuilder {
        RpcBuilder {
            net: net.clone(),
            node,
            port,
            config: RpcConfig::default(),
            cpu: None,
            mem: None,
        }
    }

    /// Override the configuration.
    pub fn config(mut self, config: RpcConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach a CPU pool charged per handled request.
    pub fn cpu(mut self, cpu: CpuPool) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Attach a node memory model: DMA traffic is accounted for every
    /// payload byte sent or received by this endpoint.
    pub fn mem(mut self, mem: NodeMemory) -> Self {
        self.mem = Some(mem);
        self
    }

    /// Bind the endpoint and start its dispatch and retransmission loops.
    ///
    /// Must be called from inside the simulation (it spawns both tasks).
    pub fn build(self) -> Rc<Rpc> {
        let endpoint = self.net.bind(self.node, self.port);
        let rpc = Rc::new(Rpc {
            net: self.net,
            addr: endpoint.addr(),
            config: self.config,
            cpu: self.cpu,
            mem: self.mem,
            handlers: RefCell::default(),
            next_req: Cell::new(1),
            pending: RefCell::default(),
            rto: RefCell::new(BTreeSet::new()),
            rto_entered: Cell::new(0),
            rto_armed: Cell::new(None),
            rto_wake: Notify::new(),
            rto_horizon: Cell::new(SimTime::ZERO),
            sessions: RefCell::default(),
            served: RefCell::default(),
            stats: RpcStats::default(),
            handler_times: RefCell::default(),
            offline: Cell::new(false),
            retry_rng: SimRng::new(
                ((endpoint.addr().node.0 as u64) << 16) ^ endpoint.addr().port as u64,
            ),
        });
        let loop_rpc = rpc.clone();
        simcore::spawn_detached(async move {
            let mut ep = endpoint;
            loop {
                let dgram = ep.recv().await;
                loop_rpc.handle_packet(dgram);
            }
        });
        simcore::spawn_detached(rpc.clone().rto_loop());
        rpc
    }
}

impl Rpc {
    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Stats counters.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// Per-`req_type` handler service-time histogram (ns), recorded from
    /// dispatch (post-CPU-queue) to response send. Powers per-tier latency
    /// breakdowns in the examples and benches.
    pub fn handler_time(&self, req_type: u8) -> Option<Histogram> {
        self.handler_times.borrow().get(&req_type).cloned()
    }

    /// Configuration in effect.
    pub fn config(&self) -> &RpcConfig {
        &self.config
    }

    /// Calls in flight from this endpoint: each holds its request packets
    /// and one retransmission-table entry, and nothing outlives it. Passive.
    pub fn inflight_calls(&self) -> usize {
        debug_assert_eq!(self.pending.borrow().len(), self.rto.borrow().len());
        self.pending.borrow().len()
    }

    /// Census of the server-side slot table: what this endpoint still
    /// holds on behalf of its callers. Passive.
    pub fn served_slots(&self) -> ServedSlots {
        let mut census = ServedSlots::default();
        for slot in self.served.borrow().values() {
            match slot.state {
                SlotState::Receiving(_) => census.receiving += 1,
                SlotState::Executing => census.executing += 1,
                SlotState::Done(_) => census.done += 1,
            }
        }
        census
    }

    /// Drop every registered handler and everything kept for callers.
    /// Handlers close over application state (which usually closes back
    /// over this `Rpc`), so explicit teardown is what breaks the `Rc` cycle
    /// when a simulated deployment is discarded. A handler already running
    /// keeps its slot: its caller is still waiting for the reply.
    pub fn shutdown(&self) {
        self.handlers.borrow_mut().clear();
        self.served
            .borrow_mut()
            .retain(|_, slot| matches!(slot.state, SlotState::Executing));
    }

    /// Crash modeling for chaos tests: while offline, this endpoint drops
    /// every incoming datagram and suppresses every outgoing one, exactly
    /// like a powered-off host whose peers see only silence. Local state
    /// (handlers, sessions, served slots) is retained, so `set_offline(false)`
    /// models a fail-stop crash followed by a restart that recovers state.
    pub fn set_offline(&self, offline: bool) {
        self.offline.set(offline);
    }

    /// Whether this endpoint is currently offline.
    pub fn is_offline(&self) -> bool {
        self.offline.get()
    }

    /// All outgoing traffic funnels through here so crash modeling can
    /// suppress it in one place.
    fn transmit(&self, dst: Addr, payload: Payload) {
        if self.offline.get() {
            return;
        }
        self.net.send_datagram(self.addr, dst, payload);
    }

    /// Register the handler for `req_type`, replacing any previous one. A
    /// handler returns a [`Message`] or anything that becomes one (`Bytes`).
    pub fn register<F, Fut, R>(&self, req_type: u8, f: F)
    where
        F: Fn(CallCtx) -> Fut + 'static,
        Fut: Future<Output = R> + 'static,
        R: Into<Message>,
    {
        // The handler's future is built inside the boxed one, on its first
        // poll: made outside, its whole state would be moved in twice.
        let f = Rc::new(f);
        self.handlers.borrow_mut().insert(
            req_type,
            Rc::new(move |ctx| {
                let f = f.clone();
                Box::pin(async move { f(ctx).await.into() })
            }),
        );
    }

    /// Issue a request and await the response. A request longer than
    /// [`wire::max_msg_len`] at this endpoint's MTU is refused before
    /// anything is sent.
    pub async fn call(
        self: &Rc<Self>,
        dst: Addr,
        req_type: u8,
        payload: impl Into<Message>,
    ) -> Result<Message, RpcError> {
        let payload: Message = payload.into();
        let max = wire::max_msg_len(self.config.mtu);
        if payload.len() > max {
            return Err(RpcError::TooLarge {
                len: payload.len(),
                max,
            });
        }
        let seq = self.next_req.get();
        self.next_req.set(seq + 1);
        let req_num = wire::req_num(seq, self.with_session(dst, Session::take_slot));
        let _lease = SlotLease {
            rpc: self,
            dst,
            req_num,
        };
        // Traced calls carry their context in the header extension so the
        // server parents its handling span under this one; unsampled calls
        // stay byte-identical on the wire.
        let mut call_span = telemetry::span(SpanKind::ClientCall, "rpc.call", self.addr.node.0);
        if let Some(s) = call_span.as_mut() {
            s.attr("req_type", req_type as u64);
            s.attr("req_bytes", payload.len() as u64);
        }
        let trace = call_span.as_ref().map(|s| s.ctx());
        if let Some(mem) = &self.mem {
            mem.account(payload.len() as u64); // tx DMA
        }
        let pkts = fragment(
            Kind::Request,
            req_type,
            req_num,
            payload,
            self.config.mtu,
            trace,
        );
        for p in &pkts {
            self.transmit(dst, packet_payload(p));
        }
        // Client-driven retransmission: exponential backoff with optional
        // jitter, bounded by both a retry count and (optionally) a total
        // retry-time budget. The endpoint's RTO task acts on `due`.
        let now = simcore::now();
        let base = self.config.rto + self.config.rto_per_packet * (pkts.len() as u32);
        let cap = self.config.rto_max.max(base);
        // retry_rng clones share one stream: draws happen in arming order.
        let mut backoff =
            Backoff::with_jitter(base, cap, self.config.retry_jitter, self.retry_rng.clone());
        let rto_key = self.arm(now + backoff.next_wait(), req_num);
        let (done_tx, done_rx) = oneshot::channel();
        self.pending.borrow_mut().insert(
            req_num,
            Pending {
                reassembly: None,
                done: Some(done_tx),
                dst,
                pkts,
                attempts: 1,
                backoff,
                deadline: self.config.retry_budget.map(|b| now + b),
                trace,
                rto_key,
            },
        );

        let result = done_rx.await.expect("pending entry never dropped silently");
        if let Ok(resp) = &result {
            if let Some(mem) = &self.mem {
                mem.account(resp.len() as u64); // rx DMA
            }
            self.stats.calls_completed.incr();
        }
        result
    }

    /// Enter `req_num` into the retransmission table, waking the RTO task
    /// if this is due before whatever its timer is set for. Deadlines are
    /// not monotone in issue order (a 1-packet call's RTO is shorter than a
    /// 65-packet call's), so a later call can be due first.
    fn arm(&self, due: SimTime, req_num: u64) -> RtoKey {
        if self.rto_armed.get().is_none_or(|armed| due < armed) {
            self.rto_armed.set(Some(due));
            self.rto_wake.notify_one();
        }
        self.enter(due, req_num)
    }

    /// Make `req_num`'s entry in the table.
    fn enter(&self, due: SimTime, req_num: u64) -> RtoKey {
        let key = (due, self.rto_entered.get(), req_num);
        self.rto_entered.set(key.1 + 1);
        self.rto.borrow_mut().insert(key);
        self.rto_horizon.set(self.rto_horizon.get().max(due));
        key
    }

    /// Drop everything held for a call: its pending entry (packets
    /// included) and its retransmission-table entry.
    fn forget(&self, req_num: u64) -> Option<Pending> {
        let p = self.pending.borrow_mut().remove(&req_num)?;
        self.rto.borrow_mut().remove(&p.rto_key);
        Some(p)
    }

    /// The endpoint's one retransmission task: sleeps until the earliest
    /// `due`, is woken early only by [`Rpc::arm`], and parks with no timer
    /// once nothing is in flight and `rto_horizon` has passed (so the
    /// simulation can quiesce). An entry removed before its `due` costs
    /// nothing but a wakeup that finds nothing to do.
    async fn rto_loop(self: Rc<Self>) {
        loop {
            let now = simcore::now();
            self.fire_due(now);
            let earliest = self.rto.borrow().first().map(|&(due, ..)| due);
            let next = earliest.or(Some(self.rto_horizon.get()).filter(|&h| h > now));
            self.rto_armed.set(next);
            match next {
                None => self.rto_wake.notified().await,
                Some(due) => {
                    let _ = simcore::timeout(due - now, self.rto_wake.notified()).await;
                }
            }
        }
    }

    /// Retransmit, or time out, every call whose `due` has come.
    fn fire_due(&self, now: SimTime) {
        loop {
            let req_num = match self.rto.borrow().first() {
                Some(&(due, _, req_num)) if due <= now => req_num,
                _ => return,
            };
            let mut pending = self.pending.borrow_mut();
            let p = pending.get_mut(&req_num).expect("rto entry has a call");
            let budget_spent = p.deadline.is_some_and(|d| now >= d);
            if p.attempts > self.config.max_retries || budget_spent {
                drop(pending);
                let mut p = self.forget(req_num).expect("checked above");
                if let Some(done) = p.done.take() {
                    let _ = done.send(Err(RpcError::Timeout {
                        attempts: p.attempts,
                    }));
                }
                self.stats.timeouts.incr();
                continue;
            }
            p.attempts += 1;
            self.stats.retransmits.incr();
            if let Some(ctx) = p.trace {
                telemetry::event_with_parent(
                    SpanKind::Retry,
                    "rpc.retransmit",
                    self.addr.node.0,
                    ctx,
                    &[("attempt", p.attempts as u64)],
                );
            }
            for pkt in &p.pkts {
                self.transmit(p.dst, packet_payload(pkt));
            }
            self.rto.borrow_mut().remove(&p.rto_key);
            p.rto_key = self.enter(now + p.backoff.next_wait(), req_num);
        }
    }

    fn with_session<R>(&self, dst: Addr, f: impl FnOnce(&mut Session) -> R) -> R {
        let mut sessions = self.sessions.borrow_mut();
        f(sessions.entry(dst).or_insert_with(|| Session {
            free: Vec::new(),
            issued: 0,
        }))
    }

    fn handle_packet(self: &Rc<Self>, dgram: simnet::Datagram) {
        if self.offline.get() {
            return; // crashed hosts hear nothing
        }
        let Some((hdr, frag)) = Header::decode_split(&dgram.payload.head, &dgram.payload.body)
        else {
            return;
        };
        match hdr.kind {
            Kind::Request => self.handle_request_pkt(dgram.src, hdr, frag),
            Kind::Response => self.handle_response_pkt(hdr, frag),
        }
    }

    fn handle_request_pkt(self: &Rc<Self>, src: Addr, hdr: Header, frag: Message) {
        let key = (src, slot_of(hdr.req_num));
        let fresh = |hdr: &Header, frag| ServedSlot {
            req_num: hdr.req_num,
            state: SlotState::Receiving(Reassembly::new(hdr, frag)),
        };
        let mut served = self.served.borrow_mut();
        let slot = match served.entry(key) {
            Entry::Vacant(v) => v.insert(fresh(&hdr, frag)),
            Entry::Occupied(o) => {
                let slot = o.into_mut();
                match hdr.req_num.cmp(&slot.req_num) {
                    // The caller has moved this slot on: a late duplicate.
                    Ordering::Less => return,
                    // The caller reused the slot, so it is done with the
                    // previous request: its response (or its unfinished
                    // reassembly, or its claim on a running handler's
                    // reply) goes.
                    Ordering::Greater => *slot = fresh(&hdr, frag),
                    Ordering::Equal => match &mut slot.state {
                        SlotState::Receiving(r) => {
                            r.offer(&hdr, frag);
                        }
                        SlotState::Executing => return,
                        SlotState::Done(pkts) => {
                            let pkts = pkts.clone();
                            drop(served);
                            for p in pkts.iter() {
                                self.transmit(src, packet_payload(p));
                            }
                            return;
                        }
                    },
                }
                slot
            }
        };
        let payload = match std::mem::replace(&mut slot.state, SlotState::Executing) {
            SlotState::Receiving(r) if r.is_complete() => r.assemble(),
            still_receiving => {
                slot.state = still_receiving;
                return;
            }
        };
        drop(served);
        if let Some(mem) = &self.mem {
            mem.account(payload.len() as u64); // rx DMA
        }
        let rpc = self.clone();
        simcore::spawn_detached(async move {
            // Continue the caller's trace on this node: the handling span
            // parents everything the handler does (nested calls included).
            let mut srv_span = hdr.trace.and_then(|ctx| {
                telemetry::span_with_parent(
                    SpanKind::ServerHandle,
                    "rpc.handle",
                    rpc.addr.node.0,
                    ctx,
                )
            });
            if let Some(s) = srv_span.as_mut() {
                s.attr("req_type", hdr.req_type as u64);
                s.attr("req_bytes", payload.len() as u64);
            }
            if let Some(cpu) = &rpc.cpu {
                let ser = telemetry::span(SpanKind::Serialize, "rpc.dispatch_cpu", rpc.addr.node.0);
                let kib = (payload.len() as u64).div_ceil(1024) as u32;
                cpu.execute(rpc.config.per_rpc_cpu + rpc.config.per_kb_cpu * kib)
                    .await;
                drop(ser);
            }
            let Some(handler) = rpc.handlers.borrow().get(&hdr.req_type).cloned() else {
                // Outside input, or late after `shutdown`: dropped and counted.
                rpc.stats.requests_unserved.incr();
                return;
            };
            let h_start = simcore::now();
            let mut resp = handler(CallCtx {
                rpc: rpc.clone(),
                src,
                req_type: hdr.req_type,
                payload,
            })
            .await;
            rpc.handler_times
                .borrow_mut()
                .entry(hdr.req_type)
                .or_default()
                .record((simcore::now() - h_start).as_nanos() as u64);
            rpc.stats.requests_handled.incr();
            let mut served = rpc.served.borrow_mut();
            let Some(slot) = served
                .get_mut(&key)
                .filter(|slot| slot.req_num == hdr.req_num)
            else {
                // The caller gave up and reused the slot while the handler
                // ran: nobody wants this reply.
                return;
            };
            if resp.len() > wire::max_msg_len(rpc.config.mtu) {
                // Nothing this long can be framed: the caller gets an empty
                // reply (no protocol here reads one as success), not silence.
                rpc.stats.replies_unframeable.incr();
                resp = Message::default();
            }
            if let Some(mem) = &rpc.mem {
                mem.account(resp.len() as u64); // tx DMA
            }
            let pkts = Rc::new(fragment(
                Kind::Response,
                hdr.req_type,
                hdr.req_num,
                resp,
                rpc.config.mtu,
                None, // responses never carry the trace extension
            ));
            slot.state = SlotState::Done(pkts.clone());
            drop(served);
            for p in pkts.iter() {
                rpc.transmit(src, packet_payload(p));
            }
        });
    }

    fn handle_response_pkt(&self, hdr: Header, frag: Message) {
        let mut pending = self.pending.borrow_mut();
        let Some(p) = pending.get_mut(&hdr.req_num) else {
            return; // stale duplicate after completion
        };
        let complete = match &mut p.reassembly {
            Some(r) => r.offer(&hdr, frag),
            None => {
                let r = Reassembly::new(&hdr, frag);
                let c = r.is_complete();
                p.reassembly = Some(r);
                c
            }
        };
        if complete {
            drop(pending);
            let mut p = self.forget(hdr.req_num).expect("present");
            let body = p.reassembly.take().expect("reassembly set").assemble();
            if let Some(done) = p.done.take() {
                let _ = done.send(Ok(body));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use memsim::ModelParams;
    use simcore::Sim;
    use simnet::{FabricConfig, NicConfig};

    fn setup(n: usize) -> (Sim, Network, Vec<NodeId>) {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 7);
        let nodes = (0..n)
            .map(|i| net.add_node(format!("n{i}"), NicConfig::default()))
            .collect();
        (sim, net, nodes)
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(b.next_wait(), Duration::from_millis(10));
        assert_eq!(b.next_wait(), Duration::from_millis(20));
        assert_eq!(b.next_wait(), Duration::from_millis(35));
        assert_eq!(b.next_wait(), Duration::from_millis(35), "saturates at cap");
        // A cap below base is raised to base.
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(1));
        assert_eq!(b.next_wait(), Duration::from_millis(10));
        assert_eq!(b.next_wait(), Duration::from_millis(10));
    }

    #[test]
    fn backoff_jitter_bounds_and_determinism() {
        let mk = || {
            Backoff::with_jitter(
                Duration::from_millis(10),
                Duration::from_millis(160),
                0.5,
                SimRng::new(7),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..6 {
            let (wa, wb) = (a.next_wait(), b.next_wait());
            assert_eq!(wa, wb, "same seed, same schedule (draw {i})");
            let base = Duration::from_millis(10 * (1 << i.min(4)));
            assert!(wa >= base && wa < base.mul_f64(1.5), "draw {i}: {wa:?}");
        }
        // Zero jitter never consults the RNG: the shared stream is
        // untouched after several waits.
        let rng = SimRng::new(3);
        let mut z = Backoff::with_jitter(
            Duration::from_millis(5),
            Duration::from_millis(20),
            0.0,
            rng.clone(),
        );
        assert_eq!(z.next_wait(), Duration::from_millis(5));
        assert_eq!(z.next_wait(), Duration::from_millis(10));
        assert_eq!(
            rng.next_u64(),
            SimRng::new(3).next_u64(),
            "no RNG draw at jitter=0"
        );
    }

    #[test]
    fn echo_roundtrip() {
        let (sim, net, nodes) = setup(2);
        let t = sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10).build();
            server.register(1, |ctx| async move { ctx.payload });
            let client = RpcBuilder::new(&net, nodes[0], 10).build();
            let resp = client
                .call(server.addr(), 1, Bytes::from_static(b"ping"))
                .await
                .unwrap();
            assert_eq!(resp, b"ping"[..]);
            simcore::now()
        });
        // Small RPC should complete in a few microseconds, like eRPC.
        assert!(t.nanos() < 5_000, "echo took {t}");
    }

    #[test]
    fn large_message_fragmentation() {
        let (sim, net, nodes) = setup(2);
        sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10).build();
            server.register(1, |ctx| async move {
                // Reverse the payload to prove the server saw all bytes.
                let mut v = ctx.payload.into_bytes().to_vec();
                v.reverse();
                Bytes::from(v)
            });
            let client = RpcBuilder::new(&net, nodes[0], 10).build();
            let req: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
            let mut expect = req.clone();
            expect.reverse();
            let resp = client
                .call(server.addr(), 1, Bytes::from(req))
                .await
                .unwrap();
            assert_eq!(resp, expect[..]);
        });
    }

    #[test]
    fn nested_calls_three_hops() {
        let (sim, net, nodes) = setup(3);
        sim.block_on(async move {
            let c_addr;
            {
                let c = RpcBuilder::new(&net, nodes[2], 10).build();
                c_addr = c.addr();
                c.register(1, |ctx| async move {
                    let mut v = ctx.payload.into_bytes().to_vec();
                    v.push(b'c');
                    Bytes::from(v)
                });
            }
            let b = RpcBuilder::new(&net, nodes[1], 10).build();
            let b_addr = b.addr();
            b.register(1, move |ctx| async move {
                let mut v = ctx.payload.into_bytes().to_vec();
                v.push(b'b');
                ctx.rpc.call(c_addr, 1, Bytes::from(v)).await.unwrap()
            });
            let a = RpcBuilder::new(&net, nodes[0], 10).build();
            let resp = a.call(b_addr, 1, Bytes::from_static(b"a")).await.unwrap();
            assert_eq!(resp, b"abc"[..]);
        });
    }

    #[test]
    fn many_concurrent_calls() {
        let (sim, net, nodes) = setup(2);
        let counts = sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10).build();
            server.register(1, |ctx| async move {
                simcore::sleep(Duration::from_micros(1)).await;
                ctx.payload
            });
            let client = RpcBuilder::new(&net, nodes[0], 10).build();
            let mut handles = Vec::new();
            for i in 0..100u32 {
                let client = client.clone();
                let dst = server.addr();
                handles.push(simcore::spawn(async move {
                    let resp = client
                        .call(dst, 1, Bytes::from(i.to_le_bytes().to_vec()))
                        .await
                        .unwrap();
                    u32::from_le_bytes(resp.into_bytes()[..4].try_into().unwrap())
                }));
            }
            let mut got = Vec::new();
            for h in handles {
                got.push(h.await);
            }
            got
        });
        assert_eq!(counts, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn retransmission_recovers_from_loss() {
        let (sim, net, nodes) = setup(2);
        net.set_loss_probability(0.05);
        let net2 = net.clone();
        let stats = sim.block_on(async move {
            let server = RpcBuilder::new(&net2, nodes[1], 10).build();
            server.register(1, |ctx| async move { ctx.payload });
            let client = RpcBuilder::new(&net2, nodes[0], 10).build();
            for i in 0..200u32 {
                let payload = Bytes::from(vec![i as u8; 10_000]);
                let resp = client
                    .call(server.addr(), 1, payload.clone())
                    .await
                    .unwrap();
                assert_eq!(resp, payload, "call {i}");
            }
            client.stats().clone()
        });
        assert_eq!(stats.calls_completed.get(), 200);
        assert!(stats.retransmits.get() > 0, "loss must cause retransmits");
        assert!(net.dropped_loss() > 0);
    }

    #[test]
    fn timeout_on_unreachable_server() {
        let (sim, net, nodes) = setup(2);
        let r = sim.block_on(async move {
            let client = RpcBuilder::new(&net, nodes[0], 10)
                .config(RpcConfig {
                    rto: Duration::from_micros(10),
                    max_retries: 2,
                    ..Default::default()
                })
                .build();
            client
                .call(
                    Addr {
                        node: nodes[1],
                        port: 99,
                    },
                    1,
                    Bytes::from_static(b"x"),
                )
                .await
        });
        // max_retries = 2: the initial transmission plus two retransmissions.
        assert_eq!(r, Err(RpcError::Timeout { attempts: 3 }));
    }

    #[test]
    fn memory_traffic_accounted_on_both_sides() {
        let (sim, net, nodes) = setup(2);
        let params = ModelParams::new();
        let mem_c = NodeMemory::with_defaults("c", params.clone());
        let mem_s = NodeMemory::with_defaults("s", params);
        let (mc, ms) = (mem_c.clone(), mem_s.clone());
        sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10).mem(ms).build();
            server.register(1, |_| async move { Bytes::from(vec![0u8; 100]) });
            let client = RpcBuilder::new(&net, nodes[0], 10).mem(mc).build();
            client
                .call(server.addr(), 1, Bytes::from(vec![0u8; 1000]))
                .await
                .unwrap();
        });
        // Client: 1000B tx + 100B rx; server: 1000B rx + 100B tx.
        assert_eq!(mem_c.traffic_bytes(), 1100);
        assert_eq!(mem_s.traffic_bytes(), 1100);
    }

    #[test]
    fn cpu_pool_bounds_server_throughput() {
        let (sim, net, nodes) = setup(2);
        let cpu = CpuPool::new(1);
        let cpu2 = cpu.clone();
        let elapsed = sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10)
                .config(RpcConfig {
                    per_rpc_cpu: Duration::from_micros(10),
                    ..Default::default()
                })
                .cpu(cpu2)
                .build();
            server.register(1, |ctx| async move { ctx.payload });
            let client = RpcBuilder::new(&net, nodes[0], 10).build();
            let start = simcore::now();
            let mut handles = Vec::new();
            for _ in 0..10 {
                let client = client.clone();
                let dst = server.addr();
                handles.push(simcore::spawn(async move {
                    client.call(dst, 1, Bytes::from_static(b"x")).await.unwrap();
                }));
            }
            for h in handles {
                h.await;
            }
            simcore::now() - start
        });
        // 10 requests serialized on 1 core at 10us each >= 100us.
        assert!(elapsed >= Duration::from_micros(100), "elapsed {elapsed:?}");
    }

    #[test]
    fn handler_time_histograms_recorded() {
        let (sim, net, nodes) = setup(2);
        sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10).build();
            server.register(1, |ctx| async move {
                simcore::sleep(Duration::from_micros(7)).await;
                ctx.payload
            });
            let client = RpcBuilder::new(&net, nodes[0], 10).build();
            for _ in 0..10 {
                client
                    .call(server.addr(), 1, Bytes::from_static(b"x"))
                    .await
                    .unwrap();
            }
            let h = server.handler_time(1).expect("recorded");
            assert_eq!(h.count(), 10);
            assert!((h.mean() - 7_000.0).abs() < 100.0, "mean {}", h.mean());
            assert!(server.handler_time(2).is_none());
        });
    }

    #[test]
    fn deterministic_run_fingerprint() {
        fn once() -> (u64, u64) {
            let (sim, net, nodes) = setup(2);
            net.set_loss_probability(0.02);
            sim.block_on(async move {
                let server = RpcBuilder::new(&net, nodes[1], 10).build();
                server.register(1, |ctx| async move { ctx.payload });
                let client = RpcBuilder::new(&net, nodes[0], 10).build();
                for _ in 0..50 {
                    client
                        .call(server.addr(), 1, Bytes::from(vec![7u8; 5000]))
                        .await
                        .unwrap();
                }
            });
            (sim.poll_count(), sim.now().nanos())
        }
        assert_eq!(once(), once());
    }

    #[test]
    fn exponential_backoff_spreads_retransmits() {
        let (sim, net, nodes) = setup(2);
        let (r, elapsed) = sim.block_on(async move {
            let client = RpcBuilder::new(&net, nodes[0], 10)
                .config(RpcConfig {
                    rto: Duration::from_micros(10),
                    rto_per_packet: Duration::ZERO,
                    rto_max: Duration::from_micros(80),
                    max_retries: 4,
                    ..Default::default()
                })
                .build();
            let start = simcore::now();
            let r = client
                .call(
                    Addr {
                        node: nodes[1],
                        port: 99,
                    },
                    1,
                    Bytes::from_static(b"x"),
                )
                .await;
            (r, simcore::now() - start)
        });
        assert_eq!(r, Err(RpcError::Timeout { attempts: 5 }));
        // Doubling waits 10+20+40+80+80 = 230us; a fixed RTO would fail at
        // 50us. Allow slack for transmission time.
        assert!(elapsed >= Duration::from_micros(230), "elapsed {elapsed:?}");
        assert!(elapsed < Duration::from_micros(300), "elapsed {elapsed:?}");
    }

    #[test]
    fn retry_budget_caps_total_retry_time() {
        let (sim, net, nodes) = setup(2);
        let (r, elapsed) = sim.block_on(async move {
            let client = RpcBuilder::new(&net, nodes[0], 10)
                .config(RpcConfig {
                    rto: Duration::from_micros(50),
                    rto_per_packet: Duration::ZERO,
                    rto_max: Duration::from_micros(50),
                    max_retries: 1_000_000, // budget, not count, must stop us
                    retry_budget: Some(Duration::from_micros(300)),
                    ..Default::default()
                })
                .build();
            let start = simcore::now();
            let r = client
                .call(
                    Addr {
                        node: nodes[1],
                        port: 99,
                    },
                    1,
                    Bytes::from_static(b"x"),
                )
                .await;
            (r, simcore::now() - start)
        });
        assert!(matches!(r, Err(RpcError::Timeout { attempts }) if attempts >= 2));
        // Fails at the first wakeup past the 300us budget (here 350us).
        assert!(elapsed >= Duration::from_micros(300), "elapsed {elapsed:?}");
        assert!(elapsed <= Duration::from_micros(400), "elapsed {elapsed:?}");
    }

    #[test]
    fn retry_jitter_is_deterministic_per_seed() {
        fn once() -> (u64, u64, u64) {
            let (sim, net, nodes) = setup(2);
            net.set_loss_probability(0.1);
            let stats = sim.block_on(async move {
                let server = RpcBuilder::new(&net, nodes[1], 10).build();
                server.register(1, |ctx| async move { ctx.payload });
                let client = RpcBuilder::new(&net, nodes[0], 10)
                    .config(RpcConfig {
                        rto: Duration::from_micros(100),
                        retry_jitter: 0.5,
                        ..Default::default()
                    })
                    .build();
                for _ in 0..50 {
                    client
                        .call(server.addr(), 1, Bytes::from(vec![3u8; 3000]))
                        .await
                        .unwrap();
                }
                client.stats().clone()
            });
            (sim.poll_count(), sim.now().nanos(), stats.retransmits.get())
        }
        let a = once();
        assert!(a.2 > 0, "loss must force jittered retransmits");
        assert_eq!(a, once());
    }

    #[test]
    fn offline_endpoint_drops_all_traffic_until_restart() {
        let (sim, net, nodes) = setup(2);
        sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10).build();
            server.register(1, |ctx| async move { ctx.payload });
            let client = RpcBuilder::new(&net, nodes[0], 10)
                .config(RpcConfig {
                    rto: Duration::from_micros(20),
                    rto_per_packet: Duration::ZERO,
                    max_retries: 3,
                    ..Default::default()
                })
                .build();
            server.set_offline(true);
            assert!(server.is_offline());
            let r = client
                .call(server.addr(), 1, Bytes::from_static(b"dead"))
                .await;
            assert!(matches!(r, Err(RpcError::Timeout { .. })));
            assert_eq!(server.stats().requests_handled.get(), 0);
            // Restart: same endpoint serves again without rebinding.
            server.set_offline(false);
            let r = client
                .call(server.addr(), 1, Bytes::from_static(b"alive"))
                .await
                .unwrap();
            assert_eq!(r, b"alive"[..]);
        });
    }

    #[test]
    fn distinct_req_types_dispatch_to_distinct_handlers() {
        let (sim, net, nodes) = setup(2);
        sim.block_on(async move {
            let server = RpcBuilder::new(&net, nodes[1], 10).build();
            server.register(1, |_| async { Bytes::from_static(b"one") });
            server.register(2, |_| async { Bytes::from_static(b"two") });
            let client = RpcBuilder::new(&net, nodes[0], 10).build();
            let r1 = client.call(server.addr(), 1, Bytes::new()).await.unwrap();
            let r2 = client.call(server.addr(), 2, Bytes::new()).await.unwrap();
            assert_eq!(r1, b"one"[..]);
            assert_eq!(r2, b"two"[..]);
            // A type nobody serves: dropped once however often it is resent.
            assert!(client.call(server.addr(), 3, Bytes::new()).await.is_err());
            assert_eq!(server.stats().requests_unserved.get(), 1);
        });
    }
}
