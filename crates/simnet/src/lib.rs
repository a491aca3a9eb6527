//! # simnet — simulated datacenter network fabric
//!
//! Models the paper's testbed network: servers with 100 GbE NICs attached to
//! a top-of-rack switch. The model is intentionally simple and faithful to
//! what drives the paper's results:
//!
//! * each NIC transmit (and receive) path is a FIFO rate server — sending a
//!   datagram occupies the sender's NIC for `wire_size / line_rate` plus a
//!   fixed per-packet overhead (DMA + driver/DPDK processing);
//! * the fabric adds a fixed switch + propagation latency per hop;
//! * optional i.i.d. packet loss exercises the RPC reliability layer.
//!
//! Datagrams carry real [`bytes::Bytes`] payloads: data integrity is
//! end-to-end testable, while *time* is charged by the cost model.
//!
//! A datagram in flight is a queue entry, not a task: [`Network::send_datagram`]
//! books the sender's NIC and parks the datagram in the fabric, whose one
//! long-lived *delivery pump* judges it at its arrival instant, books the
//! receiver's NIC and hands it to the bound port — no spawn, and one bare
//! timer ([`simcore::wake_at`]) per instant something happens in the
//! fabric, not three per datagram (DESIGN.md §5).
//!
//! This substitutes for the paper's DPDK/UDP data plane (see DESIGN.md §2).

#![warn(missing_docs)]

mod faults;

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use bytes::Bytes;
use simcore::sync::mpsc;
use simcore::{Counter, FastMap, RateResource, SimRng, SimTime};
use telemetry::{SpanGuard, SpanKind};

pub use faults::GilbertElliott;
use faults::{FaultPlane, Verdict};

/// Ethernet + IP + UDP framing overhead added to every datagram on the wire.
pub const WIRE_HEADER_BYTES: u64 = 42;

/// Identifies a server in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// A (node, port) pair — the address of one bound endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Addr {
    /// Destination node.
    pub node: NodeId,
    /// Destination port on that node.
    pub port: u16,
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}:{}", self.node.0, self.port)
    }
}

/// A datagram payload as a two-segment gather list — a small protocol-header
/// buffer plus a (typically refcounted, shared) body slice. This mirrors a
/// NIC scatter/gather descriptor: protocol stacks can prepend a header to a
/// large application buffer without copying the buffer. Wire time is charged
/// on the *sum* of the segment lengths, so splitting a payload never changes
/// modeled bytes-on-wire.
///
/// Plain single-buffer sends convert implicitly ([`From<Bytes>`]), carrying
/// the buffer in `head` with an empty `body`.
#[derive(Clone, Debug, Default)]
pub struct Payload {
    /// First segment (protocol header, or the whole payload).
    pub head: Bytes,
    /// Second segment (application data; empty for single-buffer sends).
    pub body: Bytes,
}

impl Payload {
    /// Build a two-segment payload.
    pub fn two(head: Bytes, body: Bytes) -> Payload {
        Payload { head, body }
    }

    /// Total payload length across both segments.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Whether both segments are empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty()
    }

    /// A contiguous view of the payload: zero-copy when one segment is
    /// empty, otherwise one concatenating copy.
    pub fn contiguous(&self) -> Bytes {
        if self.body.is_empty() {
            return self.head.clone();
        }
        if self.head.is_empty() {
            return self.body.clone();
        }
        let mut whole = Vec::with_capacity(self.len());
        whole.extend_from_slice(&self.head);
        whole.extend_from_slice(&self.body);
        Bytes::from(whole)
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        Payload {
            head: b,
            body: Bytes::new(),
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Bytes::from(v).into()
    }
}

impl From<&'static [u8]> for Payload {
    fn from(s: &'static [u8]) -> Payload {
        Bytes::from_static(s).into()
    }
}

/// One delivered datagram.
#[derive(Clone, Debug)]
pub struct Datagram {
    /// Sender address (for replies).
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Payload segments (wire framing is accounted separately).
    pub payload: Payload,
}

/// Per-NIC configuration.
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    /// Line rate in bits per second (paper testbed: 100 Gb/s ConnectX-5).
    pub bandwidth_bits_per_sec: f64,
    /// Fixed per-packet cost (DMA setup, driver processing).
    pub per_packet_overhead: Duration,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            bandwidth_bits_per_sec: 100e9,
            per_packet_overhead: Duration::from_nanos(100),
        }
    }
}

impl NicConfig {
    /// Line rate in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_bits_per_sec / 8.0
    }
}

/// Fabric-wide configuration (one ToR switch).
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// One-way switch + propagation latency per hop.
    pub switch_latency: Duration,
    /// Independent per-packet drop probability (0 = lossless).
    pub loss_probability: f64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            switch_latency: Duration::from_nanos(500),
            loss_probability: 0.0,
        }
    }
}

/// A datagram between `send` and its delivery or drop. It stays in one
/// [`Parked`] slot the whole way; the queues it waits in hold its slot
/// number only.
struct InFlight {
    dgram: Datagram,
    wire_size: u64,
    /// The hop span, opened in the sender's context; it ends when the slot
    /// is freed (last copy delivered, or the drop). Boxed because a span
    /// record is ~200 B and an untraced run never has one.
    hop: Option<Box<SpanGuard>>,
    /// Copies still to hand over; 0 until the fault verdict is drawn.
    copies: u32,
    /// When the receive NIC was last booked for it.
    booked_at: SimTime,
}

impl InFlight {
    /// The fault plane dropped it: say so on the hop span, which ends here.
    fn dropped(mut self) {
        if let Some(s) = self.hop.as_mut() {
            s.attr("dropped", 1);
        }
    }
}

/// Slot store for the datagrams in flight. Slots are reused LIFO, so it
/// grows to the most that were ever in flight at once.
#[derive(Default)]
struct Parked {
    slots: Vec<Option<InFlight>>,
    free: Vec<u32>,
}

impl Parked {
    fn insert(&mut self, flight: InFlight) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(flight);
                slot
            }
            None => {
                self.slots.push(Some(flight));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get_mut(&mut self, slot: u32) -> &mut InFlight {
        self.slots[slot as usize].as_mut().expect("queued slot")
    }

    fn remove(&mut self, slot: u32) -> InFlight {
        self.free.push(slot);
        self.slots[slot as usize].take().expect("queued slot")
    }
}

/// Where the fabric's delivery pump is in its life.
#[derive(Default)]
enum PumpState {
    /// Nothing has been sent yet (a `Network` is usually built outside a
    /// simulation, where the pump cannot be spawned).
    #[default]
    Unspawned,
    /// Spawned by the first `send`, not yet polled: there is no waker to
    /// arm a timer on until its first poll, later in the same instant.
    Spawned,
    /// Parked between events, with its timers armed on this waker.
    Parked(Waker),
}

/// `(due instant, tie-break, slot)`: the 24 bytes a queued datagram costs
/// per queue.
type QueueKey = (SimTime, u64, u32);

/// Pop the head of `queue` if it is due.
fn pop_due(queue: &mut BinaryHeap<Reverse<QueueKey>>, now: SimTime) -> Option<QueueKey> {
    let Reverse((at, ..)) = queue.peek()?;
    if *at > now {
        return None;
    }
    queue.pop().map(|Reverse(key)| key)
}

/// Every datagram in flight, and the two queues that order them. Both are
/// fabric-wide so that one instant's work is done in one order whatever
/// nodes it touches: the order in which one task per datagram would have
/// been polled (DESIGN.md §5).
#[derive(Default)]
struct Flights {
    pump: PumpState,
    /// Bodies, from `send` to hand-over.
    parked: Parked,
    /// On the wire or the switch: `(arrival, send order, slot)`. Datagrams
    /// arriving in the same nanosecond are served — and their fault
    /// verdicts drawn — in send order.
    arrivals: BinaryHeap<Reverse<QueueKey>>,
    /// Waiting for or inside a receive NIC: `(rx_done, booking order,
    /// slot)`.
    deliveries: BinaryHeap<Reverse<QueueKey>>,
    /// Datagrams handed to `send` so far.
    sent: u64,
    /// Receive-NIC bookings made so far.
    booked: u64,
    /// The earliest instant the pump has a timer for: the head of the
    /// queues as of its last poll, or an earlier arrival `send` has queued
    /// since. A timer superseded by an earlier one is not cancelled
    /// (`simcore` timers never are); its entry is still due when it fires.
    armed: Option<SimTime>,
}

impl Flights {
    /// Book the destination's receive NIC for the datagram in `slot` and
    /// queue it for hand-over when the NIC is done with it.
    fn book_rx(&mut self, nodes: &mut [NodeState], slot: u32, now: SimTime) {
        let flight = self.parked.get_mut(slot);
        let node = &mut nodes[flight.dgram.dst.node.0 as usize];
        let rx_done = node.rx.reserve(flight.wire_size);
        flight.booked_at = now;
        node.rx_queue += 1;
        node.rx_queue_peak = node.rx_queue_peak.max(node.rx_queue);
        self.deliveries.push(Reverse((rx_done, self.booked, slot)));
        self.booked += 1;
    }
}

struct NodeState {
    name: String,
    tx: RateResource,
    rx: RateResource,
    ports: FastMap<u16, mpsc::Sender<Datagram>>,
    next_ephemeral: u16,
    /// Datagrams waiting for or inside the receive NIC right now.
    rx_queue: u64,
    /// Largest `rx_queue` since the last `reset_stats`.
    rx_queue_peak: u64,
}

/// The fabric's delivery pump: a task that never finishes, spawned by the
/// first datagram sent and parked between events. All its work is
/// [`Network::pump`].
struct Pump(Network);

impl Future for Pump {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.0.pump(cx.waker());
        Poll::Pending
    }
}

struct NetInner {
    nodes: RefCell<Vec<NodeState>>,
    fabric: RefCell<FabricConfig>,
    faults: RefCell<FaultPlane>,
    flights: RefCell<Flights>,
    rng: SimRng,
    delivered: Counter,
    dropped_loss: Counter,
    dropped_partition: Counter,
    duplicated: Counter,
    reordered: Counter,
    dropped_unbound: Counter,
}

/// Handle onto the simulated fabric. Cloning shares the same network.
///
/// A fabric may be built and wired up outside any simulation, but it
/// carries traffic in one: its delivery pump is spawned where the first
/// datagram is sent and lives in that simulation from then on.
#[derive(Clone)]
pub struct Network {
    inner: Rc<NetInner>,
}

impl Network {
    /// Create a fabric with the given configuration and RNG seed (the seed
    /// only matters when `loss_probability > 0`).
    pub fn new(fabric: FabricConfig, seed: u64) -> Network {
        Network {
            inner: Rc::new(NetInner {
                nodes: RefCell::new(Vec::new()),
                fabric: RefCell::new(fabric),
                faults: RefCell::new(FaultPlane::default()),
                flights: RefCell::default(),
                rng: SimRng::new(seed),
                delivered: Counter::new(),
                dropped_loss: Counter::new(),
                dropped_partition: Counter::new(),
                duplicated: Counter::new(),
                reordered: Counter::new(),
                dropped_unbound: Counter::new(),
            }),
        }
    }

    /// Add a server with the given NIC. Returns its [`NodeId`].
    pub fn add_node(&self, name: impl Into<String>, nic: NicConfig) -> NodeId {
        let mut nodes = self.inner.nodes.borrow_mut();
        let id = NodeId(nodes.len() as u32);
        let name = name.into();
        nodes.push(NodeState {
            tx: RateResource::new(
                format!("{name}.nic.tx"),
                nic.bytes_per_sec(),
                nic.per_packet_overhead,
            ),
            rx: RateResource::new(
                format!("{name}.nic.rx"),
                nic.bytes_per_sec(),
                nic.per_packet_overhead,
            ),
            name,
            ports: FastMap::default(),
            next_ephemeral: 49152,
            rx_queue: 0,
            rx_queue_peak: 0,
        });
        id
    }

    /// Name of a node.
    pub fn node_name(&self, node: NodeId) -> String {
        self.inner.nodes.borrow()[node.0 as usize].name.clone()
    }

    /// Number of nodes in the fabric.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// Bind a specific port on a node.
    ///
    /// # Panics
    /// Panics if the port is already bound.
    pub fn bind(&self, node: NodeId, port: u16) -> Endpoint {
        let (tx, rx) = mpsc::channel();
        {
            let mut nodes = self.inner.nodes.borrow_mut();
            let st = &mut nodes[node.0 as usize];
            let prev = st.ports.insert(port, tx);
            assert!(prev.is_none(), "port {port} already bound on {}", st.name);
        }
        Endpoint {
            net: self.clone(),
            addr: Addr { node, port },
            rx,
        }
    }

    /// Bind an ephemeral port on a node.
    pub fn bind_ephemeral(&self, node: NodeId) -> Endpoint {
        let port = {
            let mut nodes = self.inner.nodes.borrow_mut();
            let st = &mut nodes[node.0 as usize];
            loop {
                let p = st.next_ephemeral;
                st.next_ephemeral = st.next_ephemeral.wrapping_add(1).max(49152);
                if !st.ports.contains_key(&p) {
                    break p;
                }
            }
        };
        self.bind(node, port)
    }

    /// Set the fabric-wide per-packet loss probability (for reliability
    /// tests). Per-link overrides ([`Network::set_link_loss`]) take
    /// precedence on their links.
    pub fn set_loss_probability(&self, p: f64) {
        self.inner.fabric.borrow_mut().loss_probability = p;
    }

    /// Set (or with `None`, clear) a fixed i.i.d. loss probability on the
    /// directed link `src -> dst`, overriding the fabric-wide default.
    pub fn set_link_loss(&self, src: NodeId, dst: NodeId, p: Option<f64>) {
        self.inner.faults.borrow_mut().set_loss(src, dst, p);
    }

    /// Install (or with `None`, clear) a Gilbert–Elliott bursty-loss model
    /// on the directed link `src -> dst`. The chain starts in the good
    /// state and advances once per packet.
    pub fn set_link_gilbert(&self, src: NodeId, dst: NodeId, cfg: Option<GilbertElliott>) {
        self.inner.faults.borrow_mut().set_gilbert(src, dst, cfg);
    }

    /// Duplicate packets on `src -> dst` with probability `p` (0 clears).
    pub fn set_link_duplicate(&self, src: NodeId, dst: NodeId, p: f64) {
        self.inner.faults.borrow_mut().set_duplicate(src, dst, p);
    }

    /// With probability `p`, hold a packet on `src -> dst` for an extra
    /// uniform delay in `(0, max_delay]` so it is reordered relative to
    /// its neighbors (`p = 0` clears).
    pub fn set_link_reorder(&self, src: NodeId, dst: NodeId, p: f64, max_delay: Duration) {
        self.inner
            .faults
            .borrow_mut()
            .set_reorder(src, dst, p, max_delay);
    }

    /// Remove every fault (loss model, duplication, reordering, partition)
    /// from the directed link `src -> dst`.
    pub fn clear_link_faults(&self, src: NodeId, dst: NodeId) {
        self.inner.faults.borrow_mut().clear_link(src, dst);
    }

    /// Remove all per-link faults and partitions (the fabric-wide
    /// `loss_probability` is left untouched).
    pub fn clear_faults(&self) {
        self.inner.faults.borrow_mut().clear_all();
    }

    /// Partition nodes `a` and `b` (both directions) for `window` of
    /// virtual time starting now: every packet between them is dropped
    /// until the window expires. Windows extend, never shrink. Must be
    /// called from within a simulation context.
    pub fn partition_for(&self, a: NodeId, b: NodeId, window: Duration) {
        let until = simcore::now() + window;
        let mut f = self.inner.faults.borrow_mut();
        f.partition_until(a, b, until);
        f.partition_until(b, a, until);
    }

    /// Remove any partition between `a` and `b` (both directions) before
    /// its window expires.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut f = self.inner.faults.borrow_mut();
        f.heal(a, b);
        f.heal(b, a);
    }

    /// Whether packets from `a` to `b` are currently inside a partition
    /// window. Must be called from within a simulation context.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.inner
            .faults
            .borrow()
            .is_partitioned(a, b, simcore::now())
    }

    /// Datagrams delivered end-to-end.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.get()
    }

    /// Datagrams dropped by simulated loss (fixed or bursty).
    pub fn dropped_loss(&self) -> u64 {
        self.inner.dropped_loss.get()
    }

    /// Datagrams dropped inside a partition window.
    pub fn dropped_partition(&self) -> u64 {
        self.inner.dropped_partition.get()
    }

    /// Datagrams duplicated by fault injection (counted once per extra
    /// copy).
    pub fn duplicated(&self) -> u64 {
        self.inner.duplicated.get()
    }

    /// Datagrams held for an extra reordering delay.
    pub fn reordered(&self) -> u64 {
        self.inner.reordered.get()
    }

    /// Datagrams dropped because no endpoint was bound at the destination.
    pub fn dropped_unbound(&self) -> u64 {
        self.inner.dropped_unbound.get()
    }

    /// Bytes transmitted by a node's NIC (payload + wire headers).
    pub fn node_tx_bytes(&self, node: NodeId) -> u64 {
        self.inner.nodes.borrow()[node.0 as usize].tx.bytes()
    }

    /// Bytes received by a node's NIC (payload + wire headers).
    pub fn node_rx_bytes(&self, node: NodeId) -> u64 {
        self.inner.nodes.borrow()[node.0 as usize].rx.bytes()
    }

    /// Packets transmitted by a node's NIC.
    pub fn node_tx_packets(&self, node: NodeId) -> u64 {
        self.inner.nodes.borrow()[node.0 as usize].tx.ops()
    }

    /// Packets received by a node's NIC.
    pub fn node_rx_packets(&self, node: NodeId) -> u64 {
        self.inner.nodes.borrow()[node.0 as usize].rx.ops()
    }

    /// NIC transmit busy time for a node (for utilization reports).
    pub fn node_tx_busy(&self, node: NodeId) -> Duration {
        self.inner.nodes.borrow()[node.0 as usize].tx.busy_time()
    }

    /// NIC receive busy time for a node.
    pub fn node_rx_busy(&self, node: NodeId) -> Duration {
        self.inner.nodes.borrow()[node.0 as usize].rx.busy_time()
    }

    /// Most datagrams that were waiting for or inside a node's receive NIC
    /// at once since the last [`Network::reset_stats`]: the queue depth
    /// behind that NIC's `rx` busy time.
    pub fn node_rx_queue_peak(&self, node: NodeId) -> u64 {
        self.inner.nodes.borrow()[node.0 as usize].rx_queue_peak
    }

    /// Reset all NIC byte/op counters and every delivery/drop counter —
    /// including the fault-injection counters — so scoped chaos phases
    /// start from a clean slate (between warmup and measurement).
    pub fn reset_stats(&self) {
        for st in self.inner.nodes.borrow_mut().iter_mut() {
            st.tx.reset_stats();
            st.rx.reset_stats();
            st.rx_queue_peak = st.rx_queue;
        }
        self.inner.delivered.reset();
        self.inner.dropped_loss.reset();
        self.inner.dropped_partition.reset();
        self.inner.duplicated.reset();
        self.inner.reordered.reset();
        self.inner.dropped_unbound.reset();
    }

    /// Transmit a datagram from `src` to `dst` without holding the bound
    /// [`Endpoint`] (protocol stacks whose dispatch loop owns the endpoint
    /// use this for their transmit path).
    pub fn send_datagram(&self, src: Addr, dst: Addr, payload: impl Into<Payload>) {
        self.send(Datagram {
            src,
            dst,
            payload: payload.into(),
        });
    }

    /// Internal: transmit a datagram. Reserves the sender's NIC immediately
    /// (preserving per-sender FIFO order), parks the datagram and makes
    /// sure the pump wakes by its arrival instant.
    fn send(&self, dgram: Datagram) {
        let wire_size = dgram.payload.len() as u64 + WIRE_HEADER_BYTES;
        // Captured in the sender's task (where any trace context lives) and
        // parked with the datagram, so one hop span covers tx NIC
        // occupancy, switch latency, and rx NIC occupancy. Untraced sends
        // cost one thread-local flag read.
        let mut hop = telemetry::leaf_span(SpanKind::NetHop, "net.hop", dgram.src.node.0);
        if let Some(s) = hop.as_mut() {
            s.attr("wire_bytes", wire_size);
            s.attr("dst_node", dgram.dst.node.0 as u64);
        }
        let tx_done = self.inner.nodes.borrow()[dgram.src.node.0 as usize]
            .tx
            .reserve(wire_size);
        let arrival = tx_done + self.inner.fabric.borrow().switch_latency;
        let mut fl = self.inner.flights.borrow_mut();
        let slot = fl.parked.insert(InFlight {
            dgram,
            wire_size,
            hop: hop.map(Box::new),
            copies: 0,
            booked_at: SimTime::ZERO,
        });
        let order = fl.sent;
        fl.sent += 1;
        fl.arrivals.push(Reverse((arrival, order, slot)));
        match &fl.pump {
            PumpState::Parked(waker) if fl.armed.is_none_or(|at| arrival < at) => {
                simcore::wake_at(arrival, waker);
                fl.armed = Some(arrival);
            }
            PumpState::Parked(_) | PumpState::Spawned => {}
            PumpState::Unspawned => {
                fl.pump = PumpState::Spawned;
                simcore::spawn_detached(Pump(self.clone()));
            }
        }
    }

    /// One poll of the delivery pump: hand over what has cleared a receive
    /// NIC, judge what has reached its node and book that NIC for the
    /// survivors, then arm one timer for the earliest thing still queued.
    fn pump(&self, waker: &Waker) {
        let now = simcore::now();
        let (latency, loss_p) = {
            let f = self.inner.fabric.borrow();
            (f.switch_latency, f.loss_probability)
        };
        let mut faults = self.inner.faults.borrow_mut();
        // The fault plane is consulted only when some fault is configured
        // or the fabric-wide loss knob is on: fault-free traffic draws no
        // random numbers and stays bit-identical.
        let faulty = !faults.is_empty() || loss_p > 0.0;
        let mut nodes = self.inner.nodes.borrow_mut();
        let mut fl = self.inner.flights.borrow_mut();
        let fl = &mut *fl;
        if !matches!(fl.pump, PumpState::Parked(_)) {
            fl.pump = PumpState::Parked(waker.clone());
        }

        // Duplicates that take their NIC again behind this instant's
        // arrivals (see below).
        let mut owed = Vec::new();
        while let Some((_, _, slot)) = pop_due(&mut fl.deliveries, now) {
            let flight = fl.parked.get_mut(slot);
            flight.copies -= 1;
            nodes[flight.dgram.dst.node.0 as usize].rx_queue -= 1;
            // The last copy frees the slot; its hop span ends at the bottom
            // of the loop, once the datagram has been handed over.
            let (dgram, _hop) = if flight.copies == 0 {
                let done = fl.parked.remove(slot);
                (done.dgram, done.hop)
            } else {
                // A duplicate's next copy takes the NIC when this one
                // leaves it. Same-instant work goes in the order it was
                // scheduled: the copy when its NIC was last booked, an
                // arrival when it left its sender's NIC.
                let copy = flight.dgram.clone();
                if flight.booked_at + latency < now {
                    self.inner.duplicated.incr();
                    fl.book_rx(&mut nodes, slot, now);
                } else {
                    owed.push(slot);
                }
                (copy, None)
            };
            match nodes[dgram.dst.node.0 as usize].ports.get(&dgram.dst.port) {
                Some(port) if port.send(dgram).is_ok() => self.inner.delivered.incr(),
                _ => self.inner.dropped_unbound.incr(),
            }
        }

        while let Some((_, order, slot)) = pop_due(&mut fl.arrivals, now) {
            let flight = fl.parked.get_mut(slot);
            // One verdict per datagram, drawn the first time it gets here.
            if flight.copies == 0 {
                let verdict = if faulty {
                    let (src, dst) = (flight.dgram.src.node, flight.dgram.dst.node);
                    faults.verdict(src, dst, now, loss_p, &self.inner.rng)
                } else {
                    Verdict::Deliver {
                        copies: 1,
                        extra_delay: None,
                    }
                };
                match verdict {
                    Verdict::DropLoss => {
                        self.inner.dropped_loss.incr();
                        fl.parked.remove(slot).dropped();
                        continue;
                    }
                    Verdict::DropPartition => {
                        self.inner.dropped_partition.incr();
                        fl.parked.remove(slot).dropped();
                        continue;
                    }
                    Verdict::Deliver {
                        copies,
                        extra_delay,
                    } => {
                        flight.copies = copies;
                        if let Some(held) = extra_delay {
                            // Held back: it gets here again later, judged.
                            self.inner.reordered.incr();
                            fl.arrivals.push(Reverse((now + held, order, slot)));
                            continue;
                        }
                    }
                }
            }
            fl.book_rx(&mut nodes, slot, now);
        }

        for slot in owed {
            self.inner.duplicated.incr();
            fl.book_rx(&mut nodes, slot, now);
        }

        // Everything queued is due later than now, so this never wakes the
        // pump in the instant it is running in.
        fl.armed = [fl.arrivals.peek(), fl.deliveries.peek()]
            .into_iter()
            .flatten()
            .map(|Reverse((at, ..))| *at)
            .min();
        if let Some(next) = fl.armed {
            simcore::wake_at(next, waker);
        }
    }

    fn unbind(&self, addr: Addr) {
        let mut nodes = self.inner.nodes.borrow_mut();
        if let Some(st) = nodes.get_mut(addr.node.0 as usize) {
            st.ports.remove(&addr.port);
        }
    }
}

/// A bound datagram socket on a node.
pub struct Endpoint {
    net: Network,
    addr: Addr,
    rx: mpsc::Receiver<Datagram>,
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The network this endpoint belongs to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Send `payload` to `dst` (fire-and-forget, unreliable datagram).
    pub fn send_to(&self, dst: Addr, payload: impl Into<Payload>) {
        self.net.send(Datagram {
            src: self.addr,
            dst,
            payload: payload.into(),
        });
    }

    /// Receive the next datagram (never resolves while the endpoint has no
    /// traffic; the endpoint stays bound for the lifetime of `self`).
    pub async fn recv(&mut self) -> Datagram {
        self.rx
            .recv()
            .await
            .expect("endpoint channel closed while bound")
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<Datagram> {
        self.rx.try_recv()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.net.unbind(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    fn gbe100() -> NicConfig {
        NicConfig::default()
    }

    #[test]
    fn one_way_delivery_latency() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 10);
        let mut eb = net.bind(b, 20);
        let t = sim.block_on(async move {
            ea.send_to(eb.addr(), Bytes::from_static(b"hello"));
            let d = eb.recv().await;
            assert_eq!(&d.payload.contiguous()[..], b"hello");
            assert_eq!(d.src, ea.addr());
            simcore::now().nanos()
        });
        // wire = 5 + 42 = 47B at 12.5GB/s = 3.76 -> 4ns; +100ns overhead each
        // side; +500ns switch: 104 + 500 + 104 = 708ns.
        assert_eq!(t, 708);
        assert_eq!(net.delivered(), 1);
    }

    #[test]
    fn serialization_dominates_for_large_payloads() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let mut eb = net.bind(b, 1);
        let t = sim.block_on(async move {
            ea.send_to(eb.addr(), Bytes::from(vec![0u8; 125_000]));
            eb.recv().await;
            simcore::now().nanos()
        });
        // 125042B at 12.5GB/s ~ 10_004ns per side + overheads + switch.
        assert!((20_500..21_500).contains(&t), "t = {t}");
    }

    #[test]
    fn per_sender_fifo_order() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let mut eb = net.bind(b, 1);
        let got = sim.block_on(async move {
            for i in 0..10u8 {
                ea.send_to(eb.addr(), Bytes::from(vec![i]));
            }
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(eb.recv().await.payload.contiguous()[0]);
            }
            got
        });
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn nic_bandwidth_shared_between_flows() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let c = net.add_node("c", gbe100());
        let ea = net.bind(a, 1);
        let mut eb = net.bind(b, 1);
        let mut ec = net.bind(c, 1);
        let t = sim.block_on(async move {
            // Two 125KB payloads from the same sender to different receivers
            // must serialize on the sender NIC (~10us each).
            ea.send_to(eb.addr(), Bytes::from(vec![0u8; 125_000]));
            ea.send_to(ec.addr(), Bytes::from(vec![0u8; 125_000]));
            eb.recv().await;
            ec.recv().await;
            simcore::now().nanos()
        });
        assert!(t > 30_000, "second flow delayed by first: t = {t}");
    }

    #[test]
    fn unbound_port_drops() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        sim.block_on(async move {
            ea.send_to(Addr { node: b, port: 99 }, Bytes::from_static(b"x"));
            simcore::sleep(Duration::from_micros(10)).await;
        });
        assert_eq!(net.delivered(), 0);
        assert_eq!(net.dropped_unbound(), 1);
    }

    #[test]
    fn loss_drops_expected_fraction() {
        let sim = Sim::new();
        let net = Network::new(
            FabricConfig {
                loss_probability: 0.3,
                ..Default::default()
            },
            42,
        );
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let _eb = net.bind(b, 1);
        sim.block_on(async move {
            for _ in 0..1000 {
                ea.send_to(Addr { node: b, port: 1 }, Bytes::from_static(b"p"));
            }
            simcore::sleep(Duration::from_millis(10)).await;
        });
        let lost = net.dropped_loss();
        assert!((200..400).contains(&lost), "lost = {lost}");
        assert_eq!(net.delivered() + lost, 1000);
    }

    #[test]
    fn tx_rx_byte_accounting() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let mut eb = net.bind(b, 1);
        sim.block_on(async move {
            ea.send_to(eb.addr(), Bytes::from(vec![0u8; 1000]));
            eb.recv().await;
        });
        assert_eq!(net.node_tx_bytes(a), 1000 + WIRE_HEADER_BYTES);
        assert_eq!(net.node_rx_bytes(b), 1000 + WIRE_HEADER_BYTES);
        net.reset_stats();
        assert_eq!(net.node_tx_bytes(a), 0);
    }

    #[test]
    fn rx_queue_peak_is_the_deepest_the_receive_fifo_got() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let c = net.add_node("c", gbe100());
        let (ea, ec) = (net.bind(a, 1), net.bind(c, 1));
        let mut eb = net.bind(b, 1);
        sim.block_on(async move {
            // Two senders at line rate into one NIC: pair k arrives when
            // the NIC has finished k datagrams, so k + 2 are queued after
            // it — 11 after the tenth pair.
            for _ in 0..10 {
                ea.send_to(eb.addr(), Bytes::from(vec![0u8; 1000]));
                ec.send_to(eb.addr(), Bytes::from(vec![0u8; 1000]));
            }
            for _ in 0..20 {
                eb.recv().await;
            }
        });
        assert_eq!(net.node_rx_queue_peak(b), 11);
        assert_eq!(net.node_rx_queue_peak(a), 0);
        net.reset_stats();
        assert_eq!(net.node_rx_queue_peak(b), 0);
    }

    #[test]
    fn ephemeral_ports_unique() {
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let e1 = net.bind_ephemeral(a);
        let e2 = net.bind_ephemeral(a);
        assert_ne!(e1.addr().port, e2.addr().port);
    }

    #[test]
    fn endpoint_drop_unbinds_port() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        {
            let _e = net.bind(b, 7);
        }
        let ea = net.bind(a, 1);
        sim.block_on(async move {
            ea.send_to(Addr { node: b, port: 7 }, Bytes::from_static(b"x"));
            simcore::sleep(Duration::from_micros(10)).await;
        });
        assert_eq!(net.dropped_unbound(), 1);
        // Port can be re-bound after drop.
        let _e2 = net.bind(b, 7);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let _e1 = net.bind(a, 5);
        let _e2 = net.bind(a, 5);
    }

    #[test]
    fn per_link_loss_scopes_to_one_link() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 7);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let c = net.add_node("c", gbe100());
        let ea = net.bind(a, 1);
        let _eb = net.bind(b, 1);
        let _ec = net.bind(c, 1);
        net.set_link_loss(a, b, Some(1.0));
        sim.block_on(async move {
            for _ in 0..100 {
                ea.send_to(Addr { node: b, port: 1 }, Bytes::from_static(b"x"));
                ea.send_to(Addr { node: c, port: 1 }, Bytes::from_static(b"x"));
            }
            simcore::sleep(Duration::from_millis(1)).await;
        });
        // Every a->b packet dies; every a->c packet survives.
        assert_eq!(net.dropped_loss(), 100);
        assert_eq!(net.delivered(), 100);
        net.set_link_loss(a, b, None);
        assert!(
            net.inner.faults.borrow().is_empty(),
            "cleared faults leave the plane empty: no verdict, no RNG draw"
        );
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 7);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let mut eb = net.bind(b, 1);
        let net2 = net.clone();
        sim.block_on(async move {
            net2.partition_for(a, b, Duration::from_micros(50));
            assert!(net2.is_partitioned(a, b));
            assert!(net2.is_partitioned(b, a));
            ea.send_to(eb.addr(), Bytes::from_static(b"dead"));
            simcore::sleep(Duration::from_micros(100)).await;
            assert!(!net2.is_partitioned(a, b));
            ea.send_to(eb.addr(), Bytes::from_static(b"alive"));
            let d = eb.recv().await;
            assert_eq!(&d.payload.contiguous()[..], b"alive");
        });
        assert_eq!(net.dropped_partition(), 1);
        assert_eq!(net.delivered(), 1);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 7);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let mut eb = net.bind(b, 1);
        net.set_link_duplicate(a, b, 1.0);
        let got = sim.block_on(async move {
            for i in 0..5u8 {
                ea.send_to(eb.addr(), Bytes::from(vec![i]));
            }
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(eb.recv().await.payload.contiguous()[0]);
            }
            got
        });
        // Copies contend with later packets at the rx NIC, so arrival order
        // interleaves; each payload must simply arrive exactly twice.
        let mut sorted = got;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        assert_eq!(net.duplicated(), 5);
        assert_eq!(net.delivered(), 10);
    }

    #[test]
    fn reorder_overtakes_fifo() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 7);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let mut eb = net.bind(b, 1);
        // Every packet is held for a large random delay: with 20 packets the
        // arrival order almost surely differs from the send order.
        net.set_link_reorder(a, b, 1.0, Duration::from_micros(100));
        let got = sim.block_on(async move {
            for i in 0..20u8 {
                ea.send_to(eb.addr(), Bytes::from(vec![i]));
            }
            let mut got = Vec::new();
            for _ in 0..20 {
                got.push(eb.recv().await.payload.contiguous()[0]);
            }
            got
        });
        assert_eq!(net.reordered(), 20);
        let sorted: Vec<u8> = (0..20).collect();
        assert_ne!(got, sorted, "reordering changed arrival order");
        let mut resorted = got.clone();
        resorted.sort_unstable();
        assert_eq!(resorted, sorted, "no packet lost or duplicated");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty_and_deterministic() {
        let run = |seed: u64| -> (u64, u64) {
            let sim = Sim::new();
            let net = Network::new(FabricConfig::default(), seed);
            let a = net.add_node("a", gbe100());
            let b = net.add_node("b", gbe100());
            let ea = net.bind(a, 1);
            let _eb = net.bind(b, 1);
            net.set_link_gilbert(a, b, Some(GilbertElliott::bursty()));
            sim.block_on(async move {
                for _ in 0..2000 {
                    ea.send_to(Addr { node: b, port: 1 }, Bytes::from_static(b"x"));
                }
                simcore::sleep(Duration::from_millis(10)).await;
            });
            (net.dropped_loss(), net.delivered())
        };
        let (lost, delivered) = run(42);
        assert_eq!(lost + delivered, 2000);
        // Stationary bad-state share = 0.02/(0.02+0.25) ~ 7.4%, so the mean
        // loss rate is ~5.3%: far above loss_good, far below loss_bad.
        assert!((20..400).contains(&lost), "lost = {lost}");
        // Same seed replays the exact same schedule.
        assert_eq!(run(42), (lost, delivered));
        assert_ne!(run(43), (lost, delivered));
    }

    #[test]
    fn reset_stats_clears_fault_counters() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 7);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let ea = net.bind(a, 1);
        let _eb = net.bind(b, 1);
        net.set_link_loss(a, b, Some(1.0));
        net.set_link_duplicate(a, b, 1.0);
        let net2 = net.clone();
        sim.block_on(async move {
            net2.partition_for(a, b, Duration::from_secs(1));
            for _ in 0..10 {
                ea.send_to(Addr { node: b, port: 1 }, Bytes::from_static(b"x"));
            }
            simcore::sleep(Duration::from_micros(50)).await;
        });
        assert_eq!(net.dropped_partition(), 10);
        net.reset_stats();
        assert_eq!(net.dropped_loss(), 0);
        assert_eq!(net.dropped_partition(), 0);
        assert_eq!(net.duplicated(), 0);
        assert_eq!(net.reordered(), 0);
        assert_eq!(net.delivered(), 0);
    }
}
