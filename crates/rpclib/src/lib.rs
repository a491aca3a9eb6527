//! # rpclib — an eRPC-style datacenter RPC library on the simulated fabric
//!
//! Reimplements the structure of eRPC (Kalia et al., NSDI'19), the paper's
//! baseline and the control channel under DmRPC:
//!
//! * **datagram transport** — packets ride raw (simulated) UDP; the client
//!   retransmits the whole request after an RTO until the response arrives
//!   (eRPC's "re-transmissions only at clients"). A call in flight is one
//!   entry in its endpoint's retransmission table, served by the endpoint's
//!   one timer, and gone with its packets the moment the call ends;
//! * **MTU fragmentation** — messages are split into MTU-sized fragments and
//!   reassembled on the receiver ([`wire`]);
//! * **asynchronous nested handlers** — a handler is an async function that
//!   may itself issue RPCs, which is how microservice chains are built;
//! * **session slots with implicit acks** — every call occupies one of the
//!   caller's per-destination slots, named in the low bits of `req_num`
//!   ([`wire::req_num`]); the server keeps one entry per `(client, slot)`,
//!   and [`slots`] holds the rules by which a handler runs at most once and
//!   a one-packet RPC is two datagrams;
//! * **messages with a head** — what is sent, handled and returned is a
//!   [`Message`]: a small head the layer above writes its prefix into, in
//!   front of a shared body no layer copies (eRPC's msgbuf). A plain
//!   `Bytes` is a message that is all body;
//! * **two transmit classes** — a message marked [`Message::bulk`] and
//!   longer than [`RTT_PKTS`] packets goes out in the fabric's bulk class,
//!   so the sender's short messages do not queue behind it (Homa's
//!   RTTbytes rule).
//!
//! Cost model hooks: an optional [`CpuPool`] charges per-request dispatch
//! CPU, and an optional [`NodeMemory`] accounts DMA memory traffic for every
//! payload byte sent and received — this is what makes *pass-by-value*
//! forwarding visibly expensive on data-mover nodes (paper Fig. 6b).

#![warn(missing_docs)]

mod message;
pub mod slots;
pub mod wire;

pub use message::{flattened, Message};
pub use slots::ServedSlots;

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use memsim::NodeMemory;
use simcore::sync::{oneshot, Notify};
use simcore::{Counter, CpuPool, FastMap, Histogram, SimRng, SimTime};
use simnet::{Addr, Network, NodeId, Packets, Segmented};
use slots::{Arrived, Call, Served};
use telemetry::{SpanKind, TraceCtx};
use wire::{slot_of, Header, Kind, Packet};

/// Homa's RTTbytes at the default configuration, in packets: one round
/// trip of a one-packet RPC is 2 × (105 ns NIC + 500 ns switch + 105 ns
/// NIC) + 400 ns of dispatch CPU ≈ 1.82 µs, which is ≈ 22.7 KB at 100 Gb/s,
/// or 6 packets of 4 KiB. A message marked [`Message::bulk`] that is longer
/// than this goes out in the bulk class; a shorter one fits in one round
/// trip and gains nothing from yielding.
pub const RTT_PKTS: usize = 6;

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
    /// Base retransmission timeout (the schedule: [`slots::Call::send`]).
    pub rto: Duration,
    /// Additional RTO per request fragment, so a long request is not resent
    /// while it is still being transmitted.
    pub rto_per_packet: Duration,
    /// Retransmissions before giving up with [`RpcError::Timeout`].
    pub max_retries: u32,
    /// Cap on the wait between retransmissions, which doubles from the base
    /// RTO (raised to it if lower); fault-free runs never wait twice.
    pub rto_max: Duration,
    /// Each wait is scaled by a draw uniform in `[1, 1 + retry_jitter)`, to
    /// desynchronize retry storms; 0 (default) draws nothing.
    pub retry_jitter: f64,
    /// Cap on the time one call may retry, from its first transmission;
    /// `None` (default) sets none.
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

/// A reply a server entry keeps: its packets and their class.
type Kept = (Segmented, bool);

/// A call's entry in the retransmission table: `(due, arming order,
/// req_num)`. Calls due at the same instant go in the order they were
/// armed — the executor's own rule for timers.
type RtoKey = (SimTime, u64, u64);

/// One call in flight: its slot state plus everything its retransmission
/// needs. Gone the moment the call ends.
struct Pending {
    call: Call,
    done: oneshot::Sender<Result<Message, RpcError>>,
    pkts: Segmented,
    /// Sent in the bulk class, retransmissions too.
    bulk: bool,
    trace: Option<TraceCtx>,
    /// This call's entry in [`Rpc::rto`]: when its next retransmission
    /// (or its timeout) is due.
    rto_key: RtoKey,
}

/// Client half of a session: this endpoint's state towards one peer.
#[derive(Default)]
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

/// `(endpoint, peer, req_num)` of a call: returns its slot to its session
/// and forgets its pending entry however the call ends (answered, timed
/// out, or its future dropped).
struct SlotLease<'a>(&'a Rpc, Addr, u64);

impl Drop for SlotLease<'_> {
    fn drop(&mut self) {
        let SlotLease(rpc, dst, req_num) = *self;
        rpc.forget(req_num);
        if let Some(session) = rpc.sessions.borrow_mut().get_mut(&dst) {
            session.free.push(slot_of(req_num));
        }
    }
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
    /// Server entries reclaimed after receiving nothing for
    /// [`RpcConfig::reclaim_age`].
    pub receiving_reclaimed: Counter,
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
    /// parked on `rto_wake` with nothing to do.
    rto_armed: Cell<Option<SimTime>>,
    /// Wakes the RTO task when something is due earlier than its timer.
    rto_wake: Notify,
    sessions: RefCell<FastMap<Addr, Session>>,
    /// Each caller slot's entry.
    served: RefCell<FastMap<(Addr, u32), Served<Kept>>>,
    /// When the RTO task next runs [`Rpc::sweep`]; `None` while no entry
    /// is receiving.
    sweep_at: Cell<Option<SimTime>>,
    stats: RpcStats,
    handler_times: RefCell<FastMap<u8, Histogram>>,
    /// Crash modeling: an offline endpoint neither receives nor transmits.
    offline: Cell<bool>,
    /// Private stream for retry jitter, seeded from the endpoint address so
    /// it never perturbs the fabric's RNG (and is only drawn from when
    /// `retry_jitter > 0`).
    retry_rng: SimRng,
}

/// Builder for [`Rpc`]: the endpoint, not yet bound to its port.
pub struct RpcBuilder(Rpc);

impl RpcBuilder {
    /// Start building an RPC endpoint bound to `node:port`.
    pub fn new(net: &Network, node: NodeId, port: u16) -> RpcBuilder {
        RpcBuilder(Rpc {
            net: net.clone(),
            addr: Addr { node, port },
            config: RpcConfig::default(),
            cpu: None,
            mem: None,
            handlers: RefCell::default(),
            next_req: Cell::new(1),
            pending: RefCell::default(),
            rto: RefCell::new(BTreeSet::new()),
            rto_entered: Cell::new(0),
            rto_armed: Cell::new(None),
            rto_wake: Notify::new(),
            sessions: RefCell::default(),
            served: RefCell::default(),
            sweep_at: Cell::new(None),
            stats: RpcStats::default(),
            handler_times: RefCell::default(),
            offline: Cell::new(false),
            retry_rng: SimRng::new(((node.0 as u64) << 16) ^ port as u64),
        })
    }

    /// Override the configuration.
    pub fn config(mut self, config: RpcConfig) -> Self {
        self.0.config = config;
        self
    }

    /// Attach a CPU pool charged per handled request.
    pub fn cpu(mut self, cpu: CpuPool) -> Self {
        self.0.cpu = Some(cpu);
        self
    }

    /// Attach a node memory model: DMA traffic is accounted for every
    /// payload byte sent or received by this endpoint.
    pub fn mem(mut self, mem: NodeMemory) -> Self {
        self.0.mem = Some(mem);
        self
    }

    /// Bind the endpoint's port to its packet handler and start its
    /// retransmission task.
    ///
    /// Must be called from inside the simulation (it spawns that task).
    pub fn build(self) -> Rc<Rpc> {
        let rpc = Rc::new(self.0);
        let addr = rpc.addr;
        // Weak: the fabric keeps the port's function, and the endpoint
        // keeps the fabric.
        let weak = Rc::downgrade(&rpc);
        rpc.net.bind_fn(addr.node, addr.port, move |src, packets| {
            if let Some(rpc) = weak.upgrade() {
                rpc.receive(src, packets);
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
        for e in self.served.borrow().values() {
            e.count(&mut census);
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
        self.served.borrow_mut().retain(|_, e| e.executing());
    }

    /// Crash modeling for chaos tests: while offline, this endpoint drops
    /// every message handed over to it (one whose last packet comes in
    /// after a restart is heard whole) and suppresses every outgoing one,
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

    /// `msg` framed as one segmented message, and whether its packets go
    /// out in the bulk class.
    fn frame(
        &self,
        kind: Kind,
        req_type: u8,
        req_num: u64,
        msg: Message,
        trace: Option<TraceCtx>,
    ) -> (Segmented, bool) {
        let marked = msg.is_bulk();
        let pkts = wire::segment(kind, req_type, req_num, msg, self.config.mtu, trace);
        let bulk = marked && pkts.len() > RTT_PKTS;
        (pkts, bulk)
    }

    /// All outgoing traffic funnels through here so crash modeling can
    /// suppress it in one place: one message, in its class.
    fn transmit(&self, dst: Addr, pkts: &Segmented, bulk: bool) {
        if !self.offline.get() {
            self.net.send_message(self.addr, dst, pkts.clone(), bulk);
        }
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
        let (len, max) = (payload.len(), wire::max_msg_len(self.config.mtu));
        if len > max {
            return Err(RpcError::TooLarge { len, max });
        }
        let seq = self.next_req.get();
        self.next_req.set(seq + 1);
        let slot = self
            .sessions
            .borrow_mut()
            .entry(dst)
            .or_default()
            .take_slot();
        let req_num = wire::req_num(seq, slot);
        let _lease = SlotLease(self, dst, req_num);
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
        let (pkts, bulk) = self.frame(Kind::Request, req_type, req_num, payload, trace);
        self.transmit(dst, &pkts, bulk);
        // Client-driven retransmission ([`Call`]): the endpoint's RTO task
        // acts on `due`; jitter draws happen in arming order.
        let now = simcore::now();
        let (call, due) = Call::send(dst, pkts.len(), now, &self.config, &self.retry_rng);
        self.wake_by(due);
        let rto_key = self.enter(due, req_num);
        let (done, done_rx) = oneshot::channel();
        self.pending.borrow_mut().insert(
            req_num,
            Pending {
                call,
                done,
                pkts,
                bulk,
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

    /// Wake the RTO task if `due` is before whatever its timer is set for.
    /// Deadlines are not monotone in issue order (a 1-packet call's RTO is
    /// shorter than a 65-packet call's), so a later call can be due first.
    fn wake_by(&self, due: SimTime) {
        if self.rto_armed.get().is_none_or(|armed| due < armed) {
            self.rto_armed.set(Some(due));
            self.rto_wake.notify_one();
        }
    }

    /// Make `req_num`'s entry in the table.
    fn enter(&self, due: SimTime, req_num: u64) -> RtoKey {
        let key = (due, self.rto_entered.get(), req_num);
        self.rto_entered.set(key.1 + 1);
        self.rto.borrow_mut().insert(key);
        key
    }

    /// Drop everything held for a call: its pending entry (packets
    /// included) and its retransmission-table entry.
    fn forget(&self, req_num: u64) -> Option<Pending> {
        let p = self.pending.borrow_mut().remove(&req_num)?;
        self.rto.borrow_mut().remove(&p.rto_key);
        Some(p)
    }

    /// The endpoint's one timer task: sleeps until the earliest `due` or
    /// sweep, is woken early only by [`Rpc::wake_by`], and parks with no
    /// timer while nothing is in flight or receiving (so the simulation can
    /// quiesce). An entry removed before its `due` costs a wakeup.
    async fn rto_loop(self: Rc<Self>) {
        loop {
            let now = simcore::now();
            self.fire_due(now);
            if self.sweep_at.get().is_some_and(|at| at <= now) {
                self.sweep(now);
            }
            let due = self.rto.borrow().first().map(|&(due, ..)| due);
            let next = due.into_iter().chain(self.sweep_at.get()).min();
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
            let (attempt, due) = match p.call.rto(now, &self.config, &self.retry_rng) {
                Ok(next) => next,
                Err(timeout) => {
                    drop(pending);
                    let p = self.forget(req_num).expect("checked above");
                    let _ = p.done.send(Err(timeout));
                    self.stats.timeouts.incr();
                    continue;
                }
            };
            self.stats.retransmits.incr();
            if let Some(ctx) = p.trace {
                telemetry::event_with_parent(
                    SpanKind::Retry,
                    "rpc.retransmit",
                    self.addr.node.0,
                    ctx,
                    &[("attempt", attempt as u64)],
                );
            }
            self.transmit(p.call.dst(), &p.pkts, p.bulk);
            self.rto.borrow_mut().remove(&p.rto_key);
            p.rto_key = self.enter(due, req_num);
        }
    }

    /// Reclaim every entry that heard nothing for [`RpcConfig::reclaim_age`];
    /// the next sweep is due when the longest-quiet one left would be.
    fn sweep(&self, now: SimTime) {
        let age = self.config.reclaim_age();
        let mut next = None;
        self.served.borrow_mut().retain(|_, e| {
            let kept = e.reclaim(now, age);
            kept.inspect(|_| self.stats.receiving_reclaimed.incr());
            next = next.into_iter().chain(e.heard().map(|at| at + age)).min();
            kept.unwrap_or(true)
        });
        self.sweep_at.set(next);
    }

    /// The port's receive function. A segmented message whose headers all
    /// parse as one message's is taken whole ([`wire::whole`]); anything
    /// else — the survivors of a message that lost a packet, a raw
    /// datagram, a header that does not parse — packet by packet, those of
    /// one request sharing one slot lookup.
    fn receive(self: &Rc<Self>, src: Addr, packets: &Packets) {
        if self.offline.get() {
            return; // crashed hosts hear nothing
        }
        let decode = |p: Packet| Header::decode_split(&p.head, &p.body);
        let n = packets.len();
        if let Packets::Segmented(seg) = packets {
            if let Some((hdr, msg)) = wire::whole(seg) {
                let arrived = Arrived(Some(msg), packets.iter().filter_map(decode), n);
                match hdr.kind {
                    Kind::Request => self.handle_request(src, hdr, arrived),
                    Kind::Response => self.handle_response(src, hdr, arrived),
                }
                return;
            }
        }
        let mut frags = packets.iter().filter_map(decode).peekable();
        while let Some((hdr, frag)) = frags.next() {
            let same = |(h, _): &(Header, Message)| (h.kind, h.req_num) == (hdr.kind, hdr.req_num);
            let rest = std::iter::from_fn(|| frags.next_if(same));
            let arrived = Arrived(None, std::iter::once((hdr, frag)).chain(rest), n);
            match hdr.kind {
                Kind::Request => self.handle_request(src, hdr, arrived),
                Kind::Response => self.handle_response(src, hdr, arrived),
            }
        }
    }

    /// Take in what arrived of the request `hdr` heads; a reply kept for
    /// it goes back to `src` at once.
    fn handle_request<I: Iterator<Item = (Header, Message)>>(
        self: &Rc<Self>,
        src: Addr,
        hdr: Header,
        arrived: Arrived<I>,
    ) {
        let now = simcore::now();
        let mut served = self.served.borrow_mut();
        let key = (src, slot_of(hdr.req_num));
        let entry = served
            .entry(key)
            .or_insert_with(|| Served::new(hdr.req_num));
        let resend = |(pkts, bulk): &Kept| self.transmit(src, pkts, *bulk);
        let payload = entry.request(hdr.req_num, arrived, now, resend);
        if entry.heard().is_some() && self.sweep_at.get().is_none() {
            let at = now + self.config.reclaim_age();
            self.sweep_at.set(Some(at));
            self.wake_by(at);
        }
        drop(served);
        if let Some(payload) = payload {
            self.execute(src, hdr, payload);
        }
    }

    /// Run the handler of the complete request `hdr` heads, then answer it.
    fn execute(self: &Rc<Self>, src: Addr, hdr: Header, payload: Message) {
        let key = (src, slot_of(hdr.req_num));
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
                // Outside input, or late after `shutdown`: dropped and
                // counted, and its duplicates with it.
                rpc.stats.requests_unserved.incr();
                if let Some(entry) = rpc.served.borrow_mut().get_mut(&key) {
                    entry.refuse(hdr.req_num);
                }
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
            let reply = || {
                if resp.len() > wire::max_msg_len(rpc.config.mtu) {
                    // Nothing this long can be framed: the caller gets an
                    // empty reply (no protocol here reads one as success),
                    // not silence.
                    rpc.stats.replies_unframeable.incr();
                    resp = Message::default();
                }
                if let Some(mem) = &rpc.mem {
                    mem.account(resp.len() as u64); // tx DMA
                }
                // Responses never carry the trace extension.
                rpc.frame(Kind::Response, hdr.req_type, hdr.req_num, resp, None)
            };
            let mut served = rpc.served.borrow_mut();
            let entry = served.get_mut(&key);
            if let Some((pkts, bulk)) = entry.and_then(|e| e.answer(hdr.req_num, reply)) {
                rpc.transmit(src, pkts, *bulk);
            }
        });
    }

    /// Take in what arrived from `src` of the response `hdr` heads.
    fn handle_response<I: Iterator<Item = (Header, Message)>>(
        &self,
        src: Addr,
        hdr: Header,
        arrived: Arrived<I>,
    ) {
        let mut pending = self.pending.borrow_mut();
        let call = pending.get_mut(&hdr.req_num).map(|p| &mut p.call);
        // None: a stale duplicate after completion, or not complete yet.
        let Some(reply) = call.and_then(|c| c.response(src, arrived)) else {
            return;
        };
        drop(pending);
        let p = self.forget(hdr.req_num).expect("present");
        let _ = p.done.send(Ok(reply));
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
    fn rtt_pkts_is_one_small_round_trip_of_bytes_at_the_defaults() {
        let (nic, fabric, rpc) = (
            NicConfig::default(),
            FabricConfig::default(),
            RpcConfig::default(),
        );
        // A one-packet request or reply: header only, plus framing.
        let wire = (wire::HEADER_BYTES as u64 + simnet::WIRE_HEADER_BYTES) as f64;
        let nic_s = nic.per_packet_overhead.as_secs_f64() + wire / nic.bytes_per_sec();
        let one_way = 2.0 * nic_s + fabric.switch_latency.as_secs_f64();
        let rtt = 2.0 * one_way + rpc.per_rpc_cpu.as_secs_f64();
        assert!((1.81e-6..1.83e-6).contains(&rtt), "rtt {rtt}");
        let rtt_bytes = rtt * nic.bytes_per_sec();
        assert_eq!((rtt_bytes / rpc.mtu as f64).ceil() as usize, RTT_PKTS);
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
