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
//! The fabric carries messages: [`Network::send_message`] parks one slot
//! holding the sender's packets — one [`Segmented`] buffer, or a list (a
//! datagram is a list of one) — and books the sender's NIC for each
//! packet. The fabric is an event
//! source of the executor ([`simcore::Source`]). On a fault-free fabric a
//! plain message is a *train*, one event at its last packet's arrival,
//! when the receiver's NIC is booked for every packet that reached it by
//! then; under faults each packet is judged at its own arrival. When that
//! NIC is done with the message's last packet the fabric calls the receive
//! function the port is bound to ([`Network::bind_fn`]) once, with the
//! survivors — no task, no timer, no wake per packet (DESIGN.md §5).
//!
//! Each transmit NIC serves two classes. A plain packet takes the NIC the
//! moment it is sent. A *bulk* one takes it only while fewer than
//! [`BULK_AHEAD`] of its node's bulk packets are between the NIC and the
//! switch, and otherwise waits in the node's bulk FIFO; the fabric lets the
//! next one go each time a bulk packet reaches the switch. Small messages
//! sent behind a long bulk message therefore queue behind at most
//! `BULK_AHEAD` of its packets (Homa's RTTbytes rule).
//!
//! This substitutes for the paper's DPDK/UDP data plane (see DESIGN.md §2).

#![warn(missing_docs)]

mod faults;

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use simcore::sync::mpsc;
use simcore::{Counter, FastMap, RateResource, SimRng, SimTime};
use telemetry::{SpanGuard, SpanKind};

pub use faults::GilbertElliott;
use faults::{FaultPlane, Verdict};

/// Ethernet + IP + UDP framing overhead added to every datagram on the wire.
pub const WIRE_HEADER_BYTES: u64 = 42;

/// Bulk datagrams one node may have between its transmit NIC and the
/// switch at once. A place is handed on 500 ns (the switch latency) after
/// its packet left the NIC, while the three full packets behind it still
/// hold the NIC for 3 × 433 ns, so a bulk message alone on its NIC leaves
/// at the instants a plain one would.
pub const BULK_AHEAD: u32 = 4;

/// Identifies a server in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// A (node, port) pair — the address of one bound endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
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

/// A message kept in two buffers, not one per packet (eRPC's msgbuf):
/// packet `i` is a `hdr_len`-byte header followed by bytes
/// `[i × mtu, (i + 1) × mtu)` of `head ‖ body`. `block` holds every
/// packet's header, each followed by that packet's share of the head;
/// `body` is shared, never copied. A packet's length is arithmetic, and its
/// bytes are sliced only by [`Segmented::packet`], when it travels alone.
#[derive(Clone, Debug)]
pub struct Segmented {
    block: Bytes,
    body: Bytes,
    head_len: usize,
    hdr_len: usize,
    mtu: usize,
    num_pkts: usize,
}

impl Segmented {
    /// A message whose `head_len`-byte head is interleaved with its
    /// packets' headers in `block`, in front of `body`.
    ///
    /// # Panics
    /// Panics if `mtu` is 0 or `block` is not `hdr_len` bytes per packet
    /// plus the head.
    pub fn new(
        block: Bytes,
        head_len: usize,
        body: Bytes,
        hdr_len: usize,
        mtu: usize,
    ) -> Segmented {
        assert!(mtu > 0, "mtu must be positive");
        let num_pkts = (head_len + body.len()).div_ceil(mtu).max(1);
        assert_eq!(
            block.len(),
            num_pkts * hdr_len + head_len,
            "a header per packet, then the head"
        );
        Segmented {
            block,
            body,
            head_len,
            hdr_len,
            mtu,
            num_pkts,
        }
    }

    /// Packets in the message (at least one).
    pub fn len(&self) -> usize {
        self.num_pkts
    }

    /// Always `false`: a message has a packet.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Every header, each followed by its packet's share of the head.
    pub fn block(&self) -> &Bytes {
        &self.block
    }

    /// The body.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Bytes of the head (in `block`, behind the headers).
    pub fn head_len(&self) -> usize {
        self.head_len
    }

    /// Bytes of each packet's header.
    pub fn hdr_len(&self) -> usize {
        self.hdr_len
    }

    /// Bytes of `head ‖ body` a packet carries, the last one fewer.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Where packet `i`'s range of `head ‖ body` starts.
    fn cut(&self, i: usize) -> usize {
        (i * self.mtu).min(self.head_len + self.body.len())
    }

    /// Where packet `i`'s header starts in `block`.
    pub fn header_at(&self, i: usize) -> usize {
        i * self.hdr_len + self.cut(i).min(self.head_len)
    }

    /// Payload bytes of packet `i`.
    pub fn packet_len(&self, i: usize) -> usize {
        self.hdr_len + self.cut(i + 1) - self.cut(i)
    }

    /// Packet `i` on its own: its header and share of the head, then its
    /// slice of the body.
    pub fn packet(&self, i: usize) -> Payload {
        let (h, lo, hi) = (self.head_len, self.cut(i), self.cut(i + 1));
        Payload {
            head: self
                .block
                .slice(self.header_at(i)..(i + 1) * self.hdr_len + hi.min(h)),
            body: self.body.slice(lo.saturating_sub(h)..hi.saturating_sub(h)),
        }
    }
}

/// The packets of one message, as [`Network::send_message`] takes them and
/// a receive function is handed them.
#[derive(Clone, Debug)]
pub enum Packets {
    /// Each packet in buffers of its own (a datagram is a list of one).
    List(Rc<[Payload]>),
    /// One segmented message, handed over as such only whole: if a packet
    /// of it was lost, duplicated or held back, the survivors come as a
    /// list.
    Segmented(Segmented),
}

impl Packets {
    /// Number of packets.
    pub fn len(&self) -> usize {
        match self {
            Packets::List(list) => list.len(),
            Packets::Segmented(seg) => seg.len(),
        }
    }

    /// Whether there is no packet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes of packet `i`.
    pub fn packet_len(&self, i: usize) -> usize {
        match self {
            Packets::List(list) => list[i].len(),
            Packets::Segmented(seg) => seg.packet_len(i),
        }
    }

    /// Packet `i`, sharing the message's buffers.
    pub fn packet(&self, i: usize) -> Payload {
        match self {
            Packets::List(list) => list[i].clone(),
            Packets::Segmented(seg) => seg.packet(i),
        }
    }

    /// Every packet, in order.
    pub fn iter(&self) -> impl Iterator<Item = Payload> + '_ {
        (0..self.len()).map(|i| self.packet(i))
    }

    /// Payload bytes of every packet together.
    fn payload_bytes(&self) -> usize {
        match self {
            Packets::List(list) => list.iter().map(Payload::len).sum(),
            Packets::Segmented(seg) => seg.block.len() + seg.body.len(),
        }
    }
}

impl From<Payload> for Packets {
    fn from(packet: Payload) -> Packets {
        Packets::List(Rc::new([packet]))
    }
}

impl From<Rc<[Payload]>> for Packets {
    fn from(list: Rc<[Payload]>) -> Packets {
        Packets::List(list)
    }
}

impl From<Segmented> for Packets {
    fn from(seg: Segmented) -> Packets {
        Packets::Segmented(seg)
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

/// A booking's place in fabric-wide order: its instant, then its turn in
/// that instant. A packet that reaches the switch takes the turn
/// [`ARRIVING`] + its send order; a duplicate's next copy, booked at a
/// hand-over, takes one below every arrival of its instant or one above
/// them all (`NetInner::settle`).
type Turn = (SimTime, u64);

/// The turns of the packets that arrive in an instant, above those of the
/// copies booked ahead of them.
const ARRIVING: u64 = 1 << 62;

/// The turns of the copies booked behind an instant's arrivals.
const BEHIND: u64 = 1 << 63;

/// A message between `send` and its hand-over: its packets, shared with the
/// sender and never copied, stay in one [`Parked`] slot the whole way; the
/// queues they wait in hold `(slot, packet)` only.
struct InFlight {
    src: Addr,
    dst: Addr,
    packets: Packets,
    /// The hop span, opened in the sender's context; it ends when the slot
    /// is freed (after the hand-over, or once no packet is left). Boxed
    /// because a span record is ~200 B and an untraced run never has one.
    hop: Option<Box<SpanGuard>>,
    /// Sent in the bulk class: each packet holds one of its node's
    /// `BULK_AHEAD` places until it reaches the switch.
    bulk: bool,
    /// Sent as a train: a plain message on a fault-free fabric, every
    /// packet of it judged at send. One of many packets goes on its
    /// receive NIC at send; one of one when it arrives.
    train: bool,
    /// Packets that have not reached the switch (been judged) yet.
    unjudged: u32,
    /// Packets not handed over with the rest: dropped, or split off to go
    /// alone. Empty, so never allocated, on a fault-free fabric.
    gone: Vec<u32>,
    /// Hand-overs still owed: 1, or 2 for a duplicated datagram.
    copies: u32,
    /// `(rx done, turn)` of the last booking of the receive NIC for it.
    last_rx: Option<(SimTime, Turn)>,
}

impl InFlight {
    fn wire_size(&self, idx: u32) -> u64 {
        self.packets.packet_len(idx as usize) as u64 + WIRE_HEADER_BYTES
    }

    /// The packets it hands over: all but those gone, which are in index
    /// order (a message's packets are judged in the order they were sent).
    fn survivors(&self) -> Packets {
        if self.gone.is_empty() {
            return self.packets.clone();
        }
        let kept = (0..self.packets.len() as u32).filter(|i| self.gone.binary_search(i).is_err());
        Packets::List(kept.map(|i| self.packets.packet(i as usize)).collect())
    }
}

/// Slot store for the messages in flight. Slots are reused LIFO, so it
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

/// `(due instant, tie-break, slot, packet)`: the 24 bytes a queued arrival
/// costs.
type QueueKey = (SimTime, u64, u32, u32);

/// `(rx done, turn of that booking, slot)`: a message waiting to be
/// handed over.
type DeliveryKey = (SimTime, Turn, u32);

/// Pop the head of `queue` if it is `due` by `now`.
fn pop_due<K: Ord>(
    queue: &mut BinaryHeap<Reverse<K>>,
    now: SimTime,
    due: impl Fn(&K) -> SimTime,
) -> Option<K> {
    if due(&queue.peek()?.0) > now {
        return None;
    }
    queue.pop().map(|Reverse(key)| key)
}

/// A run of one message's packets admitted to a receive NIC and not yet
/// booked on it: packets `idx..end` of the message in `slot`, the first
/// reaching the NIC at `at` in `turn`. They left the sender's NIC back to
/// back, so each next one arrives one transmit service later, in the next
/// turn. A packet judged alone (under faults, in the bulk class, held
/// back, or a duplicate's copy) is a train of one. Ordered by its next
/// packet's `(at, turn)`, which no other train shares.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Train {
    at: SimTime,
    turn: u64,
    slot: u32,
    idx: u32,
    end: u32,
}

/// Every message in flight, and the two queues that order them. Both are
/// fabric-wide so that one instant's work is done in one order whatever
/// nodes it touches: the order in which one task per datagram would have
/// been polled (DESIGN.md §5).
#[derive(Default)]
struct Flights {
    /// Bodies, from `send` to hand-over.
    parked: Parked,
    /// Trains reaching the switch: `(arrival, send order, slot, packet)`.
    /// Trains arriving in the same nanosecond are served — and their fault
    /// verdicts drawn — in send order. A train of many packets is here
    /// once, at its last packet; of a plain message sent under faults only
    /// the first packet not yet arrived is.
    arrivals: BinaryHeap<Reverse<QueueKey>>,
    /// Messages whose last packet is waiting for or inside a receive NIC.
    deliveries: BinaryHeap<Reverse<DeliveryKey>>,
    /// Packets handed to `send` so far.
    sent: u64,
    /// Entries ever put on `arrivals`.
    queued: u64,
    /// Duplicate copies booked so far: their turns.
    copies_booked: u64,
    /// Every packet that reaches the switch by this instant is booked on
    /// its receive NIC, or would be if a stat were read: nothing can send
    /// to arrive before it any more.
    settled: SimTime,
}

impl Flights {
    /// Queue an arrival.
    fn queue(&mut self, key: QueueKey) {
        self.arrivals.push(Reverse(key));
        self.queued += 1;
    }

    /// Book `node`'s transmit NIC at `now` for packet `idx` of the bulk
    /// message in `slot` and queue it to reach the switch `latency` after
    /// the NIC is done with it.
    fn depart(&mut self, node: &NodeState, slot: u32, idx: u32, latency: Duration, now: SimTime) {
        let wire_size = self.parked.get_mut(slot).wire_size(idx);
        let arrival = node.tx.book(now, wire_size) + latency;
        self.queue((arrival, self.sent, slot, idx));
        self.sent += 1;
    }

    /// The instant a NIC's stats are read at: the clock's, or outside a
    /// simulation the last one the fabric settled.
    fn read_at(&self) -> SimTime {
        simcore::try_now().map_or(self.settled, |now| now.max(self.settled))
    }

    /// Book `dst`'s receive NIC for every packet of its trains up to
    /// `upto`, in `(arrival, turn)` order: the train whose next packet
    /// comes first books a run of its packets, up to where another's next
    /// packet comes, and so on.
    fn book_nic(&mut self, nodes: &mut [NodeState], dst: usize, upto: Turn) {
        loop {
            let nic = &mut nodes[dst].rx;
            match nic.trains.peek() {
                Some(Reverse(head)) if (head.at, head.turn) <= upto => {}
                _ => return,
            }
            let Reverse(mut train) = nic.trains.pop().expect("peeked");
            let other = nic
                .trains
                .peek()
                .map_or((SimTime::MAX, u64::MAX), |Reverse(t)| (t.at, t.turn));
            let flight = self.parked.get_mut(train.slot);
            let (tx, nic) = tx_and_rx(nodes, flight.src.node.0 as usize, dst);
            let mut size = flight.wire_size(train.idx);
            let mut last;
            loop {
                // The full packets of a segmented message arrive one tx
                // service apart; where the NIC serves them as fast, the
                // run of them up to the bound is booked at once.
                let step = nic.res.service(size);
                let full = match &flight.packets {
                    Packets::Segmented(_) if tx.service(size) == step => train.end - 1 - train.idx,
                    _ => 0,
                };
                let bound = upto.min(other);
                let run = if full < 2 {
                    1
                } else {
                    run_len((train.at, train.turn), step, bound).min(full as u64)
                };
                let done = nic.book_run(train.at, size, run, step);
                let at = train.at + step * (run - 1) as u32;
                last = (done, (at, train.turn + run - 1));
                train.idx += run as u32;
                if train.idx == train.end {
                    break;
                }
                size = flight.wire_size(train.idx);
                train.at = at + tx.service(size);
                train.turn += run;
                if (train.at, train.turn) > bound {
                    nic.trains.push(Reverse(train));
                    break;
                }
            }
            flight.last_rx = Some(last);
        }
    }

    /// Admit packet `idx` of the message in `slot`, arriving at `at` in
    /// `turn`, as a train of one, book its NIC up to it and close the slot.
    fn take(
        &mut self,
        nodes: &mut [NodeState],
        slot: u32,
        idx: u32,
        (at, turn): Turn,
        now: SimTime,
    ) {
        let flight = self.parked.get_mut(slot);
        let nic = &mut nodes[flight.dst.node.0 as usize].rx;
        if nic.trains.is_empty() {
            // Alone on its NIC: nothing can come before it.
            let size = flight.wire_size(idx);
            let done = nic.book_run(at, size, 1, nic.res.service(size));
            flight.last_rx = Some((done, (at, turn)));
        } else {
            let end = idx + 1;
            nic.trains.push(Reverse(Train {
                at,
                turn,
                slot,
                idx,
                end,
            }));
            let dst = flight.dst.node.0 as usize;
            self.book_nic(nodes, dst, (at, turn));
        }
        self.close(slot, now);
    }

    /// Packet `idx` of the message in `slot` was dropped.
    fn lose(&mut self, slot: u32, idx: u32, now: SimTime) {
        let flight = self.parked.get_mut(slot);
        if let Some(s) = flight.hop.as_mut() {
            s.attr("dropped", 1);
        }
        flight.gone.push(idx);
        self.close(slot, now);
    }

    /// Take packet `idx` out of the message in `slot` to be handed over
    /// `copies` times alone, in the slot returned (a datagram's own).
    fn split_off(&mut self, slot: u32, idx: u32, copies: u32, now: SimTime) -> u32 {
        let flight = self.parked.get_mut(slot);
        if flight.packets.len() == 1 {
            flight.copies = copies;
            return slot;
        }
        flight.gone.push(idx);
        let lone = InFlight {
            packets: Packets::List(Rc::new([flight.packets.packet(idx as usize)])),
            hop: None,
            train: false,
            unjudged: 0,
            gone: Vec::new(),
            copies,
            last_rx: None,
            ..*flight
        };
        self.close(slot, now);
        self.parked.insert(lone)
    }

    /// Once every packet in `slot` is judged, queue the hand-over for when
    /// the last one booked is through (or now), or free the slot if none is.
    fn close(&mut self, slot: u32, now: SimTime) {
        let flight = self.parked.get_mut(slot);
        if flight.unjudged > 0 {
            return;
        }
        match flight.last_rx {
            Some((rx_done, turn)) => {
                let key = (rx_done.max(now), turn, slot);
                self.deliveries.push(Reverse(key));
            }
            // Its hop span ends at `now`, which may be ahead of the clock.
            None => {
                if let Some(hop) = self.parked.remove(slot).hop {
                    hop.end_at(now);
                }
            }
        }
    }

    /// A fault was configured at `at`: from then on every packet is judged
    /// when it reaches the switch, so what is left of each train goes back
    /// to one arrival at a time, from its first packet after `at`.
    fn judge_trains(&mut self, nodes: &mut [NodeState], at: SimTime) {
        let mut left = Vec::new();
        for dst in 0..nodes.len() {
            self.book_nic(nodes, dst, (at, u64::MAX));
            let parked = &mut self.parked;
            nodes[dst].rx.trains.retain(|Reverse(t)| {
                let train = parked.get_mut(t.slot).train;
                if train {
                    left.push(*t);
                }
                !train
            });
        }
        // A train of one is on no NIC before it arrives: only judged.
        for flight in self.parked.slots.iter_mut().flatten() {
            if flight.train && flight.packets.len() == 1 && flight.last_rx.is_none() {
                flight.train = false;
                flight.unjudged = 1;
            }
        }
        if left.is_empty() {
            return;
        }
        let gone: Vec<u32> = left.iter().map(|t| t.slot).collect();
        self.arrivals
            .retain(|Reverse((.., slot, _))| !gone.contains(slot));
        for t in left {
            let flight = self.parked.get_mut(t.slot);
            flight.train = false;
            flight.unjudged = t.end - t.idx;
            self.queue((t.at, t.turn - ARRIVING, t.slot, t.idx));
        }
    }
}

/// How many packets of a run, the first keyed `first` and each next one
/// `step` later in the next turn, come no later than `bound`.
fn run_len((at, turn): Turn, step: Duration, (until, last): Turn) -> u64 {
    if until == SimTime::MAX {
        return u64::MAX;
    }
    let step = step.as_nanos() as u64;
    if step == 0 {
        return 1;
    }
    // Those arriving before `until`, and the one arriving at it if its
    // turn is not past `last`.
    let before = (until.nanos() - at.nanos()).div_ceil(step).max(1);
    let tie = at.nanos() + before * step == until.nanos() && turn + before <= last;
    before + tie as u64
}

/// The sender's transmit NIC and the receiver's receive side.
fn tx_and_rx(nodes: &mut [NodeState], src: usize, dst: usize) -> (&RateResource, &mut RxNic) {
    if src == dst {
        let node = &mut nodes[dst];
        return (&node.tx, &mut node.rx);
    }
    let (lo, hi) = nodes.split_at_mut(src.max(dst));
    match src < dst {
        true => (&lo[src].tx, &mut hi[0].rx),
        false => (&hi[0].tx, &mut lo[dst].rx),
    }
}

/// A node's receive NIC: a FIFO booked in `(arrival, turn)` order, lazily
/// — when a train's last packet arrives, or its stats are read.
struct RxNic {
    res: RateResource,
    /// When the NIC is done with each packet booked into it, in booking
    /// order (which is done order): those still ahead are its queue.
    due: VecDeque<SimTime>,
    /// Largest receive queue since the last `reset_stats`.
    peak: u64,
    /// Trains admitted and not yet booked through, by their next packet.
    trains: BinaryHeap<Reverse<Train>>,
}

impl RxNic {
    /// Book the NIC for `run` packets of `size` wire bytes, the first
    /// reaching it at `at` and each next one `step`, its service, later.
    /// Returns when the NIC is done with the last.
    fn book_run(&mut self, at: SimTime, size: u64, run: u64, step: Duration) -> SimTime {
        let start = self.res.book_run(at, size, run);
        let step = step.as_nanos() as u64;
        let done = |j: u64| SimTime::from_nanos(start.nanos() + (j + 1) * step);
        // Each packet waits as long as the first. Once the queue is down to
        // the run's own packets and one leaves per arrival, its depth holds
        // until the run ends: the last `due.len()` of them are its queue.
        let mut ahead = self.due.len();
        for j in 0..run {
            let now = SimTime::from_nanos(at.nanos() + j * step);
            let mut left = 0;
            while self.due.front().is_some_and(|&d| d <= now) {
                self.due.pop_front();
                match ahead {
                    0 => left += 1,
                    _ => ahead -= 1,
                }
            }
            self.due.push_back(done(j));
            self.peak = self.peak.max(self.due.len() as u64);
            if left > 0 && j + 1 < run {
                let depth = self.due.len() as u64;
                self.due.clear();
                self.due.extend((run - depth..run).map(done));
                break;
            }
        }
        done(run - 1)
    }

    /// Packets waiting for or inside the NIC at `now`.
    fn queue(&mut self, now: SimTime) -> u64 {
        while self.due.front().is_some_and(|&done| done <= now) {
            self.due.pop_front();
        }
        self.due.len() as u64
    }
}

struct NodeState {
    name: String,
    tx: RateResource,
    rx: RxNic,
    ports: FastMap<u16, Receive>,
    /// Bulk packets between the transmit NIC and the switch right now (at
    /// most [`BULK_AHEAD`]).
    bulk_ahead: u32,
    /// Bulk packets waiting for one of those places, in send order.
    bulk_queue: VecDeque<(u32, u32)>,
    /// Largest `bulk_queue` length since the last `reset_stats`.
    bulk_queue_peak: u64,
}

impl NodeState {
    /// A bulk packet of this node reached the switch: its place goes to
    /// the next one waiting, which departs now.
    fn bulk_arrived(&mut self, fl: &mut Flights, latency: Duration, now: SimTime) {
        self.bulk_ahead -= 1;
        if let Some((slot, idx)) = self.bulk_queue.pop_front() {
            self.bulk_ahead += 1;
            fl.depart(self, slot, idx, latency, now);
        }
    }
}

/// What a bound port does with each hand-over: the sender's address and
/// the packets handed over.
type Receive = Rc<dyn Fn(Addr, &Packets)>;

/// A message handed over in this instant, with the function of the port
/// it goes to and its hop span, which ends once the function has run.
type HandOver = (Receive, Addr, Packets, Option<Box<SpanGuard>>);

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
    /// Whether the fabric is a source of the simulation it carries traffic
    /// in yet: it becomes one at its first `send`.
    registered: Cell<bool>,
    /// Scratch for one instant's hand-overs, kept for its capacity.
    handing: RefCell<Vec<HandOver>>,
}

/// Handle onto the simulated fabric. Cloning shares the same network.
///
/// A fabric may be built and wired up outside any simulation, but it
/// carries traffic in one: it registers as that simulation's event source
/// where the first datagram is sent, and stays one from then on.
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
                registered: Cell::new(false),
                handing: RefCell::default(),
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
            rx: RxNic {
                res: RateResource::new(
                    format!("{name}.nic.rx"),
                    nic.bytes_per_sec(),
                    nic.per_packet_overhead,
                ),
                due: VecDeque::new(),
                peak: 0,
                trains: BinaryHeap::new(),
            },
            name,
            ports: FastMap::default(),
            bulk_ahead: 0,
            bulk_queue: VecDeque::new(),
            bulk_queue_peak: 0,
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

    /// Bind a port on a node to `receive`, which the fabric calls with the
    /// sender's address and the packets of each message that survived, at
    /// the instant that node's receive NIC is done with the last of them (a
    /// packet duplicated or held back on the way comes alone, at its own
    /// instant), outside any task; it may send. A segmented message comes
    /// as sent only if every packet of it survived. Only an [`Endpoint`]
    /// ever unbinds a port.
    ///
    /// # Panics
    /// Panics if the port is already bound.
    pub fn bind_fn(&self, node: NodeId, port: u16, receive: impl Fn(Addr, &Packets) + 'static) {
        let mut nodes = self.inner.nodes.borrow_mut();
        let st = &mut nodes[node.0 as usize];
        let prev = st.ports.insert(port, Rc::new(receive));
        assert!(prev.is_none(), "port {port} already bound on {}", st.name);
    }

    /// Bind a port on a node to an [`Endpoint`]: a receive function that
    /// queues each packet handed over as a datagram for
    /// [`Endpoint::recv`]. The port is unbound when the endpoint drops.
    ///
    /// # Panics
    /// Panics if the port is already bound.
    pub fn bind(&self, node: NodeId, port: u16) -> Endpoint {
        let (tx, rx) = mpsc::channel();
        let addr = Addr { node, port };
        self.bind_fn(node, port, move |src, packets| {
            for payload in packets.iter() {
                let _ = tx.send(Datagram {
                    src,
                    dst: addr,
                    payload,
                });
            }
        });
        Endpoint {
            net: self.clone(),
            addr,
            rx,
        }
    }

    /// Set the fabric-wide per-packet loss probability (for reliability
    /// tests). Per-link overrides ([`Network::set_link_loss`]) take
    /// precedence on their links.
    pub fn set_loss_probability(&self, p: f64) {
        self.set_fault(|net| net.fabric.borrow_mut().loss_probability = p);
    }

    /// Set (or with `None`, clear) a fixed i.i.d. loss probability on the
    /// directed link `src -> dst`, overriding the fabric-wide default.
    pub fn set_link_loss(&self, src: NodeId, dst: NodeId, p: Option<f64>) {
        self.set_fault(|net| net.faults.borrow_mut().set_loss(src, dst, p));
    }

    /// Install (or with `None`, clear) a Gilbert–Elliott bursty-loss model
    /// on the directed link `src -> dst`. The chain starts in the good
    /// state and advances once per packet.
    pub fn set_link_gilbert(&self, src: NodeId, dst: NodeId, cfg: Option<GilbertElliott>) {
        self.set_fault(|net| net.faults.borrow_mut().set_gilbert(src, dst, cfg));
    }

    /// Duplicate packets on `src -> dst` with probability `p` (0 clears).
    pub fn set_link_duplicate(&self, src: NodeId, dst: NodeId, p: f64) {
        self.set_fault(|net| net.faults.borrow_mut().set_duplicate(src, dst, p));
    }

    /// With probability `p`, hold a packet on `src -> dst` for an extra
    /// uniform delay in `(0, max_delay]` so it is reordered relative to
    /// its neighbors (`p = 0` clears).
    pub fn set_link_reorder(&self, src: NodeId, dst: NodeId, p: f64, max_delay: Duration) {
        self.set_fault(|net| net.faults.borrow_mut().set_reorder(src, dst, p, max_delay));
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
        self.set_fault(|net| {
            let mut f = net.faults.borrow_mut();
            f.partition_until(a, b, until);
            f.partition_until(b, a, until);
        });
    }

    /// Configure a fault. Once a fault-free fabric has one, every packet
    /// that reaches the switch is judged: the trains still on the wire go
    /// back to one arrival at a time.
    fn set_fault(&self, set: impl FnOnce(&NetInner)) {
        let was = self.inner.faulty();
        set(&self.inner);
        if was || !self.inner.faulty() {
            return;
        }
        let mut nodes = self.inner.nodes.borrow_mut();
        let mut fl = self.inner.flights.borrow_mut();
        let now = fl.read_at();
        fl.judge_trains(&mut nodes, now);
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

    /// Packets delivered end-to-end.
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
        self.read_rx(node, |nic| nic.res.bytes())
    }

    /// Packets transmitted by a node's NIC.
    pub fn node_tx_packets(&self, node: NodeId) -> u64 {
        self.inner.nodes.borrow()[node.0 as usize].tx.ops()
    }

    /// Packets received by a node's NIC.
    pub fn node_rx_packets(&self, node: NodeId) -> u64 {
        self.read_rx(node, |nic| nic.res.ops())
    }

    /// NIC transmit busy time for a node (for utilization reports).
    pub fn node_tx_busy(&self, node: NodeId) -> Duration {
        self.inner.nodes.borrow()[node.0 as usize].tx.busy_time()
    }

    /// NIC receive busy time for a node.
    pub fn node_rx_busy(&self, node: NodeId) -> Duration {
        self.read_rx(node, |nic| nic.res.busy_time())
    }

    /// Most packets that were waiting for or inside a node's receive NIC
    /// at once since the last [`Network::reset_stats`]: the queue depth
    /// behind that NIC's `rx` busy time.
    pub fn node_rx_queue_peak(&self, node: NodeId) -> u64 {
        self.read_rx(node, |nic| nic.peak)
    }

    /// Time datagrams waited for a node's transmit NIC to free up, summed
    /// (a bulk datagram's wait in its node's bulk FIFO is not included).
    pub fn node_tx_wait(&self, node: NodeId) -> Duration {
        self.inner.nodes.borrow()[node.0 as usize].tx.wait_time()
    }

    /// Time datagrams waited for a node's receive NIC to free up, summed.
    pub fn node_rx_wait(&self, node: NodeId) -> Duration {
        self.read_rx(node, |nic| nic.res.wait_time())
    }

    /// Read a node's receive NIC once it is booked for every packet that
    /// reached it by the instant it is read at (the clock's; outside a
    /// simulation, the last instant the fabric settled).
    fn read_rx<R>(&self, node: NodeId, read: impl FnOnce(&RxNic) -> R) -> R {
        let mut nodes = self.inner.nodes.borrow_mut();
        let mut fl = self.inner.flights.borrow_mut();
        let at = fl.read_at();
        fl.book_nic(&mut nodes, node.0 as usize, (at, u64::MAX));
        read(&nodes[node.0 as usize].rx)
    }

    /// Most bulk packets that waited in a node's bulk FIFO at once since
    /// the last [`Network::reset_stats`].
    pub fn node_bulk_queue_peak(&self, node: NodeId) -> u64 {
        self.inner.nodes.borrow()[node.0 as usize].bulk_queue_peak
    }

    /// Messages sent and not yet handed over or dropped, fabric-wide (a
    /// packet split off to go alone counts as one more): bulk ones still
    /// waiting for their NIC included.
    pub fn in_flight(&self) -> usize {
        let fl = self.inner.flights.borrow();
        fl.parked.slots.len() - fl.parked.free.len()
    }

    /// Entries the fabric has put on its arrival queue so far: one per
    /// train, so one per plain message on a fault-free fabric, and one per
    /// packet under faults or in the bulk class.
    pub fn arrival_entries(&self) -> u64 {
        self.inner.flights.borrow().queued
    }

    /// Reset all NIC byte/op counters and every delivery/drop counter —
    /// including the fault-injection counters — so scoped chaos phases
    /// start from a clean slate (between warmup and measurement).
    pub fn reset_stats(&self) {
        let mut nodes = self.inner.nodes.borrow_mut();
        let mut fl = self.inner.flights.borrow_mut();
        let now = fl.read_at();
        for n in 0..nodes.len() {
            fl.book_nic(&mut nodes, n, (now, u64::MAX));
            let st = &mut nodes[n];
            st.tx.reset_stats();
            st.rx.res.reset_stats();
            st.rx.peak = st.rx.queue(now);
            st.bulk_queue_peak = st.bulk_queue.len() as u64;
        }
        self.inner.delivered.reset();
        self.inner.dropped_loss.reset();
        self.inner.dropped_partition.reset();
        self.inner.duplicated.reset();
        self.inner.reordered.reset();
        self.inner.dropped_unbound.reset();
    }

    /// Transmit a datagram from `src` to `dst` without holding an
    /// [`Endpoint`]: a one-packet [`Network::send_message`].
    pub fn send_datagram(&self, src: Addr, dst: Addr, payload: impl Into<Payload>) {
        let packet: Payload = payload.into();
        self.send_message(src, dst, packet, false);
    }

    /// Transmit the packets of one message from `src` to `dst`, shared, not
    /// copied. Each packet books the sender's NIC, the switch, its own fault
    /// verdict and the receiver's NIC as a datagram would; the port's
    /// receive function gets the survivors together. In the bulk class a
    /// packet takes the NIC only while fewer than [`BULK_AHEAD`] of its
    /// node's bulk packets are between its NIC and the switch, and
    /// otherwise waits in the node's bulk FIFO, so later plain packets
    /// overtake it.
    ///
    /// # Panics
    /// Panics if `packets` is empty.
    pub fn send_message(&self, src: Addr, dst: Addr, packets: impl Into<Packets>, bulk: bool) {
        let packets = packets.into();
        assert!(!packets.is_empty(), "a message has at least one packet");
        // Captured in the sender's task (where any trace context lives) and
        // parked with the message, so one hop span covers tx NIC occupancy,
        // switch latency, and rx NIC occupancy. Untraced sends cost one
        // thread-local flag read.
        let mut hop = telemetry::leaf_span(SpanKind::NetHop, "net.hop", src.node.0);
        if let Some(s) = hop.as_mut() {
            let framing = packets.len() as u64 * WIRE_HEADER_BYTES;
            s.attr("wire_bytes", packets.payload_bytes() as u64 + framing);
            s.attr("dst_node", dst.node.0 as u64);
        }
        let latency = self.inner.fabric.borrow().switch_latency;
        let faulty = self.inner.faulty();
        let mut nodes = self.inner.nodes.borrow_mut();
        let mut fl = self.inner.flights.borrow_mut();
        let n = packets.len() as u32;
        let train = !bulk && !faulty;
        let slot = fl.parked.insert(InFlight {
            src,
            dst,
            packets,
            hop: hop.map(Box::new),
            bulk,
            train,
            unjudged: if train { 0 } else { n },
            gone: Vec::new(),
            copies: 1,
            last_rx: None,
        });
        if !self.inner.registered.replace(true) {
            simcore::add_source(self.inner.clone());
        }
        let now = simcore::now();
        let node = &mut nodes[src.node.0 as usize];
        if !bulk {
            // Back to back on the NIC, so each packet reaches the switch one
            // service time after the one before it.
            let flight = fl.parked.get_mut(slot);
            let (mut first, mut last) = (None, now);
            for idx in 0..n {
                last = node.tx.book(now, flight.wire_size(idx)) + latency;
                first.get_or_insert(last);
            }
            let (first, order) = (first.expect("a packet"), fl.sent);
            fl.sent += n as u64;
            if faulty {
                // Each packet is judged at its arrival: only the first is
                // queued now, and each queues the next when it gets there.
                fl.queue((first, order, slot, 0));
                return;
            }
            // A train: queued once, at its last packet, and if it has
            // more, on its receive NIC from now on (DESIGN.md §5).
            if n > 1 {
                nodes[dst.node.0 as usize].rx.trains.push(Reverse(Train {
                    at: first,
                    turn: ARRIVING + order,
                    slot,
                    idx: 0,
                    end: n,
                }));
            }
            fl.queue((last, order + n as u64 - 1, slot, n - 1));
            return;
        }
        for idx in 0..n {
            if node.bulk_ahead == BULK_AHEAD {
                // The packets ahead are in flight: the fabric lets this
                // one go when the first of them reaches the switch.
                node.bulk_queue.push_back((slot, idx));
                continue;
            }
            node.bulk_ahead += 1;
            fl.depart(node, slot, idx, latency, now);
        }
        node.bulk_queue_peak = node.bulk_queue_peak.max(node.bulk_queue.len() as u64);
    }

    fn unbind(&self, addr: Addr) {
        let mut nodes = self.inner.nodes.borrow_mut();
        if let Some(st) = nodes.get_mut(addr.node.0 as usize) {
            st.ports.remove(&addr.port);
        }
    }
}

impl simcore::Source for NetInner {
    fn next_at(&self) -> Option<SimTime> {
        let fl = self.flights.borrow();
        let arrival = fl.arrivals.peek().map(|Reverse(key)| key.0);
        let delivery = fl.deliveries.peek().map(|Reverse(key)| key.0);
        arrival.into_iter().chain(delivery).min()
    }

    /// One instant of the fabric: hand over what has cleared a receive NIC,
    /// judge what has reached its node and book that NIC for the survivors
    /// (and, if nothing was handed over, do the same for later arrivals
    /// before `until`). Only then, with every borrow released, call the
    /// receive functions of the hand-overs in their order, so that each may
    /// send.
    fn fire(&self, now: SimTime, until: SimTime) {
        let mut handing = std::mem::take(&mut *self.handing.borrow_mut());
        self.settle(now, until, &mut handing);
        for (receive, src, packets, hop) in handing.drain(..) {
            receive(src, &packets);
            drop(hop);
        }
        *self.handing.borrow_mut() = handing;
    }
}

impl NetInner {
    /// Whether a packet that reaches the switch now is judged: some fault
    /// is configured or the fabric-wide loss knob is on. Fault-free traffic
    /// draws no random numbers and stays bit-identical.
    fn faulty(&self) -> bool {
        !self.faults.borrow().is_empty() || self.fabric.borrow().loss_probability > 0.0
    }

    /// The state half of [`simcore::Source::fire`]: every hand-over due at
    /// `now` goes into `handing`, then every arrival is judged and booked.
    ///
    /// If nothing is handed over, no receive function runs at `now`, so
    /// nothing acts before `until`: later arrivals are judged and booked
    /// too, each at its own instant, as firings there would. That stops
    /// short of `until` and of the next hand-over, whose receive function
    /// may send and whose duplicates book ahead of its instant's arrivals.
    fn settle(&self, now: SimTime, until: SimTime, handing: &mut Vec<HandOver>) {
        let latency = self.fabric.borrow().switch_latency;
        let mut nodes = self.nodes.borrow_mut();
        let mut fl = self.flights.borrow_mut();
        let fl = &mut *fl;
        fl.settled = fl.settled.max(now);

        // Duplicates that take their NIC again behind this instant's
        // arrivals (see below).
        let mut owed = Vec::new();
        while let Some((.., slot)) = pop_due(&mut fl.deliveries, now, |key| key.0) {
            let flight = fl.parked.get_mut(slot);
            flight.copies -= 1;
            let (src, dst) = (flight.src, flight.dst);
            // The last copy frees the slot; its hop span ends once the
            // message has been handed over.
            let (packets, hop) = if flight.copies == 0 {
                let done = fl.parked.remove(slot);
                (done.survivors(), done.hop)
            } else {
                // A duplicate's next copy takes the NIC when this one
                // leaves it. Same-instant work goes in the order it was
                // scheduled: the copy when its NIC was last booked, an
                // arrival when it left its sender's NIC.
                let copy = flight.packets.clone();
                let (_, (booked_at, _)) = flight.last_rx.expect("booked");
                if booked_at + latency < now {
                    self.duplicated.incr();
                    fl.copies_booked += 1;
                    fl.take(&mut nodes, slot, 0, (now, fl.copies_booked), now);
                } else {
                    owed.push(slot);
                }
                (copy, None)
            };
            let n = packets.len() as u64;
            match nodes[dst.node.0 as usize].ports.get(&dst.port) {
                Some(receive) => {
                    self.delivered.add(n);
                    handing.push((receive.clone(), src, packets, hop));
                }
                None => self.dropped_unbound.add(n),
            }
        }

        self.arrive(fl, &mut nodes, now);

        for slot in owed {
            self.duplicated.incr();
            fl.copies_booked += 1;
            fl.take(&mut nodes, slot, 0, (now, BEHIND + fl.copies_booked), now);
        }

        if !handing.is_empty() {
            return;
        }
        while let Some(&Reverse((at, ..))) = fl.arrivals.peek() {
            let hand_over = fl.deliveries.peek().map(|Reverse(key)| key.0);
            let stop = hand_over.map_or(until, |due| due.min(until));
            if at >= stop {
                // Nothing can arrive before `stop` any more.
                let before = SimTime::from_nanos(stop.nanos().saturating_sub(1));
                fl.settled = fl.settled.max(before);
                break;
            }
            fl.settled = at;
            self.arrive(fl, &mut nodes, at);
        }
    }

    /// Judge every train that has reached the switch by `now` and book the
    /// receive NIC up to it for the survivors.
    fn arrive(&self, fl: &mut Flights, nodes: &mut [NodeState], now: SimTime) {
        let (latency, loss_p) = {
            let f = self.fabric.borrow();
            (f.switch_latency, f.loss_probability)
        };
        let mut faults = self.faults.borrow_mut();
        let faulty = !faults.is_empty() || loss_p > 0.0;
        while let Some((at, order, slot, idx)) = pop_due(&mut fl.arrivals, now, |key| key.0) {
            let flight = fl.parked.get_mut(slot);
            let turn = (at, ARRIVING + order);
            if flight.unjudged == 0 {
                // The last packet of a train, or one held back at its first
                // arrival (judged then): its NIC is booked up to it now.
                if flight.train && flight.packets.len() > 1 {
                    let dst = flight.dst.node.0 as usize;
                    fl.book_nic(nodes, dst, turn);
                    fl.close(slot, now);
                } else {
                    fl.take(nodes, slot, idx, turn, now);
                }
                continue;
            }
            if !flight.bulk && idx + 1 < flight.packets.len() as u32 {
                // A plain message's next packet left the NIC right behind
                // this one (`send_message`), so it is due next in send order.
                let tx = &nodes[flight.src.node.0 as usize].tx;
                let next = at + tx.service(flight.wire_size(idx + 1));
                fl.queue((next, order + 1, slot, idx + 1));
            }
            // One verdict per packet, drawn the first time it gets here.
            let flight = fl.parked.get_mut(slot);
            flight.unjudged -= 1;
            let (src, dst) = (flight.src.node, flight.dst.node);
            if flight.bulk {
                nodes[src.0 as usize].bulk_arrived(fl, latency, now);
            }
            let verdict = if faulty {
                faults.verdict(src, dst, now, loss_p, &self.rng)
            } else {
                Verdict::Deliver {
                    copies: 1,
                    extra_delay: None,
                }
            };
            match verdict {
                Verdict::Deliver {
                    copies: 1,
                    extra_delay: None,
                } => fl.take(nodes, slot, idx, turn, now),
                Verdict::DropLoss => {
                    self.dropped_loss.incr();
                    fl.lose(slot, idx, now);
                }
                Verdict::DropPartition => {
                    self.dropped_partition.incr();
                    fl.lose(slot, idx, now);
                }
                Verdict::Deliver {
                    copies,
                    extra_delay,
                } => {
                    // Not "once, now": it leaves its message and is handed
                    // over alone, at its own instant.
                    let lone = fl.split_off(slot, idx, copies, now);
                    match extra_delay {
                        Some(held) => {
                            // Held back: it gets here again later, judged.
                            self.reordered.incr();
                            fl.queue((now + held, order, lone, 0));
                        }
                        None => fl.take(nodes, lone, 0, turn, now),
                    }
                }
            }
        }
    }
}

/// A bound datagram socket on a node: a port whose receive function queues
/// what it is handed, for a task to [`recv`](Endpoint::recv).
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
        self.net.send_datagram(self.addr, dst, payload);
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

    /// `(instant, what)` log shared by receive functions and tasks.
    type Log = Rc<RefCell<Vec<(u64, &'static str)>>>;

    fn logger(log: &Log, what: &'static str) -> impl Fn(Addr, &Packets) + 'static {
        let log = log.clone();
        move |_, _| log.borrow_mut().push((simcore::now().nanos(), what))
    }

    #[test]
    fn a_receive_function_runs_before_a_timer_of_its_nanosecond() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let log: Log = Rc::default();
        net.bind_fn(b, 1, logger(&log, "receive"));
        // The sleeper's timer is armed before the datagram is sent, and
        // both are due at 708 ns: the hand-over still goes first.
        let log2 = log.clone();
        sim.spawn(async move {
            simcore::sleep_until(SimTime::from_nanos(708)).await;
            log2.borrow_mut().push((simcore::now().nanos(), "timer"));
        });
        let net2 = net.clone();
        sim.spawn(async move {
            let (src, dst) = (Addr { node: a, port: 1 }, Addr { node: b, port: 1 });
            net2.send_datagram(src, dst, Bytes::from_static(b"hello"));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![(708, "receive"), (708, "timer")]);
        assert_eq!(sim.live_tasks(), 0, "no task carries a datagram");
    }

    #[test]
    fn a_receive_function_may_send() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        let log: Log = Rc::default();
        net.bind_fn(a, 1, logger(&log, "reply"));
        // b echoes from inside its receive function, twice per datagram.
        let net2 = net.clone();
        net.bind_fn(b, 1, move |src, packets| {
            for _ in 0..2 {
                net2.send_message(Addr { node: b, port: 1 }, src, packets.clone(), false);
            }
        });
        let net3 = net.clone();
        sim.scope(|| {
            let (src, dst) = (Addr { node: a, port: 1 }, Addr { node: b, port: 1 });
            net3.send_datagram(src, dst, Bytes::from_static(b"hello"));
        });
        sim.run();
        // The echoes leave b's NIC back to back: 708 ns each way, and the
        // second 104 ns behind the first.
        assert_eq!(*log.borrow(), vec![(1416, "reply"), (1520, "reply")]);
        assert_eq!((net.delivered(), net.in_flight()), (3, 0));
    }

    #[test]
    fn hand_overs_in_one_nanosecond_keep_their_booking_order() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let n: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(format!("n{i}"), gbe100()))
            .collect();
        let log: Log = Rc::default();
        net.bind_fn(n[2], 1, logger(&log, "n2"));
        net.bind_fn(n[3], 1, logger(&log, "n3"));
        // Two idle senders, equal sizes: both reach the switch at 607 ns in
        // send order, so n3's NIC is booked first, and both NICs are done
        // at 714 ns. The higher node goes first: booking order, not node
        // order.
        let net2 = net.clone();
        sim.scope(|| {
            for (src, dst) in [(1, 3), (0, 2)] {
                let src = Addr {
                    node: n[src],
                    port: 1,
                };
                let dst = Addr {
                    node: n[dst],
                    port: 1,
                };
                net2.send_datagram(src, dst, Bytes::from(vec![0u8; 44]));
            }
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![(714, "n3"), (714, "n2")]);
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

    #[test]
    fn a_hop_dropped_ahead_of_the_clock_ends_at_its_own_instant() {
        let tracer = telemetry::Tracer::new(1, 1);
        let _installed = tracer.install();
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", gbe100());
        let b = net.add_node("b", gbe100());
        net.set_link_loss(a, b, Some(1.0));
        let net2 = net.clone();
        sim.block_on(async move {
            let _root = telemetry::start_trace("req", 0).expect("sampled");
            let (src, dst) = (Addr { node: a, port: 1 }, Addr { node: b, port: 1 });
            for _ in 0..2 {
                net2.send_datagram(src, dst, Bytes::from_static(b"hello"));
            }
        });
        // Both are dropped at the switch, 104 ns apart; the fabric judges
        // the second in its firing for the first, ahead of the clock.
        let hops = tracer
            .records()
            .into_iter()
            .filter(|r| r.kind == SpanKind::NetHop);
        let ends: Vec<u64> = hops.map(|r| r.end.nanos()).collect();
        assert_eq!(ends, vec![604, 708]);
        assert_eq!(net.dropped_loss(), 2);
    }
}
