//! The NIC pipeline against arithmetic, not against itself.
//!
//! The property test drives random sends among 3–4 nodes and checks every
//! receiver's `(instant, src, payload)` sequence against a closed-form
//! model written here: per-sender transmit FIFO, fixed switch latency,
//! per-receiver receive FIFO served in `(arrival, send order)`. It pins the
//! model, not the mechanism that implements it.
//!
//! What the model cannot express — fault verdicts drawn from the fabric's
//! shared RNG — is pinned as fixed-seed fingerprints instead: counters and
//! delivery instants of a 200-packet stream under each fault class,
//! recorded once from the task-per-datagram implementation at 1fcf9f4.
//!
//! The bulk transmit class is pinned next: against the same model when a
//! bulk message is alone on its NIC, by position and instant when a
//! datagram is sent behind one, and by a drained fabric under every fault
//! class.
//!
//! Messages come last: a message of many packets is handed over once, when
//! its last packet would have been had each packet been sent alone — the
//! closed form for plain traffic, that per-packet run for bulk — and under
//! faults each packet keeps the fate it has alone. A segmented message is
//! its packet list to the fabric: same hand-overs, bytes, counters and NIC
//! books.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use simcore::{Sim, SimTime};
use simnet::{
    Addr, FabricConfig, GilbertElliott, Network, NicConfig, NodeId, Packets, Payload, Segmented,
    BULK_AHEAD,
};

const PORT: u16 = 1;
const SWITCH_NS: u64 = 500;

/// The one port every node of these fabrics listens on.
fn on(node: NodeId) -> Addr {
    Addr { node, port: PORT }
}

/// One delivery as a receiver saw it: instant, sending node, payload.
type Seen = (u64, u32, Vec<u8>);

/// NIC occupancy of one datagram on the default 100 GbE NIC: 100 ns per
/// packet plus payload + 42 B of framing at 12.5 GB/s (0.08 ns/B), rounded
/// up to a whole nanosecond.
fn nic_ns(payload: usize) -> u64 {
    let wire = payload as u64 + 42;
    100 + (wire * 8).div_ceil(100)
}

/// One scheduled send: `(instant, src, dst, payload length)`; the payload
/// is `len` copies of the send's index.
type Send = (u64, u32, u32, usize);

/// The closed-form model: when each send's receive NIC is done with it,
/// by send order.
fn rx_done(nodes: usize, sends: &[Send]) -> Vec<u64> {
    let mut tx_free = vec![0u64; nodes];
    // (arrival, send order, len) per receiver.
    let mut arrivals: Vec<Vec<(u64, usize, usize)>> = vec![Vec::new(); nodes];
    for (order, &(at, src, dst, len)) in sends.iter().enumerate() {
        let tx_done = at.max(tx_free[src as usize]) + nic_ns(len);
        tx_free[src as usize] = tx_done;
        arrivals[dst as usize].push((tx_done + SWITCH_NS, order, len));
    }
    let mut done = vec![0; sends.len()];
    for mut inbound in arrivals {
        inbound.sort_unstable();
        let mut rx_free = 0u64;
        for (arrival, order, len) in inbound {
            rx_free = arrival.max(rx_free) + nic_ns(len);
            done[order] = rx_free;
        }
    }
    done
}

/// The closed-form model: what each receiver must see, in order.
fn model(nodes: usize, sends: &[Send]) -> Vec<Vec<Seen>> {
    let done = rx_done(nodes, sends);
    let mut seen = vec![Vec::new(); nodes];
    for (order, &(_, src, dst, len)) in sends.iter().enumerate() {
        seen[dst as usize].push((done[order], src, vec![order as u8; len]));
    }
    for inbound in &mut seen {
        inbound.sort_by_key(|s| s.0);
    }
    seen
}

/// A fabric of `nodes` default NICs, each with a receiver task on [`PORT`]
/// logging what it is handed and when.
struct Rig {
    sim: Sim,
    net: Network,
    ids: Vec<NodeId>,
    seen: Vec<Rc<RefCell<Vec<Seen>>>>,
    /// `(instant, receiving node)` of every hand-over, fabric-wide, in the
    /// order the receivers were woken.
    woken: Rc<RefCell<Vec<(u64, u32)>>>,
}

fn rig(nodes: usize, seed: u64) -> Rig {
    let sim = Sim::new();
    let net = Network::new(FabricConfig::default(), seed);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| net.add_node(format!("n{i}"), NicConfig::default()))
        .collect();
    let woken: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
    let seen: Vec<Rc<RefCell<Vec<Seen>>>> = ids
        .iter()
        .map(|&id| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let (mut ep, log2, woken) = (net.bind(id, PORT), log.clone(), woken.clone());
            sim.spawn(async move {
                loop {
                    let d = ep.recv().await;
                    woken.borrow_mut().push((simcore::now().nanos(), id.0));
                    log2.borrow_mut().push((
                        simcore::now().nanos(),
                        d.src.node.0,
                        d.payload.contiguous().to_vec(),
                    ));
                }
            });
            log
        })
        .collect();
    Rig {
        sim,
        net,
        ids,
        seen,
        woken,
    }
}

impl Rig {
    /// Issue `sends` from one driver task (so schedule order is the
    /// fabric-wide send order, same-instant sends included) and run the
    /// fabric dry.
    fn drive(&self, sends: Vec<Send>) {
        let (net, ids) = (self.net.clone(), self.ids.clone());
        self.sim.block_on(async move {
            for (order, (at, src, dst, len)) in sends.into_iter().enumerate() {
                simcore::sleep_until(SimTime::from_nanos(at)).await;
                net.send_datagram(
                    on(ids[src as usize]),
                    on(ids[dst as usize]),
                    Bytes::from(vec![order as u8; len]),
                );
            }
        });
    }

    fn seen(&self, node: usize) -> Vec<Seen> {
        self.seen[node].borrow().clone()
    }
}

/// Gaps between consecutive sends: same-instant bursts, the near-collision
/// range, and idle stretches that let every NIC drain.
fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(0u64), 1u64..300, 300u64..30_000]
}

/// Payload lengths: repeated small sizes (so two idle senders collide on
/// one receiver in the same nanosecond) and the full 1 B – 64 KiB range.
fn len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(1000usize), 1usize..=65_536]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_receiver_sees_the_model_sequence(
        nodes in 3usize..=4,
        raw in proptest::collection::vec((gap(), 0u32..4, 0u32..4, len()), 1..64),
    ) {
        let mut at = 0u64;
        let sends: Vec<Send> = raw
            .into_iter()
            .map(|(gap, src, dst, len)| {
                at += gap;
                (at, src % nodes as u32, dst % nodes as u32, len)
            })
            .collect();
        let want = model(nodes, &sends);
        let rig = rig(nodes, 1);
        rig.drive(sends.clone());
        for (node, want) in want.iter().enumerate() {
            prop_assert_eq!(&rig.seen(node), want, "receiver {} of {:?}", node, sends);
        }
        let total: usize = want.iter().map(Vec::len).sum();
        prop_assert_eq!(rig.net.delivered(), total as u64);
    }
}

#[test]
fn two_senders_reaching_one_receiver_in_the_same_nanosecond_are_served_in_send_order() {
    // The case the generator only hits by luck, spelled out: nodes 1 and 2
    // are idle and send equal sizes at the same instant, 2 first.
    let sends = vec![(0, 2, 0, 1000), (0, 1, 0, 1000), (0, 1, 0, 10)];
    let rig = rig(3, 1);
    rig.drive(sends.clone());
    let got = rig.seen(0);
    assert_eq!(got, model(3, &sends)[0]);
    let arrival = nic_ns(1000) + SWITCH_NS;
    assert_eq!(
        got.iter().map(|s| (s.0, s.1)).collect::<Vec<_>>(),
        vec![
            (arrival + nic_ns(1000), 2),
            (arrival + 2 * nic_ns(1000), 1),
            (arrival + 2 * nic_ns(1000) + nic_ns(10), 1),
        ]
    );
}

#[test]
fn hand_overs_at_two_nodes_in_one_nanosecond_happen_in_the_order_their_nics_were_booked() {
    // 0 -> 2 and 1 -> 3 arrive together at 607 ns and leave their NICs
    // together at 714 ns; node 2's was sent, so booked, first. Node 3 also
    // has its next arrival at 714 ns, which must not pull its hand-over
    // ahead of node 2's: receivers wake — and go on to send — in this order.
    let sends = vec![(0, 0, 2, 44), (0, 1, 3, 44), (0, 1, 3, 44)];
    let rig = rig(4, 1);
    rig.drive(sends.clone());
    let want = model(4, &sends);
    assert_eq!(
        (rig.seen(2), rig.seen(3)),
        (want[2].clone(), want[3].clone())
    );
    assert_eq!(*rig.woken.borrow(), vec![(714, 2), (714, 3), (821, 3)]);
}

// ---------------------------------------------------------------------------
// Fault-path pins.
// ---------------------------------------------------------------------------

/// What one faulted stream did: the five fabric counters, how many
/// datagrams the receiver got, the first and last delivery instants, and an
/// FNV-1a fold of every `(instant, packet index)` in delivery order.
#[derive(Debug, PartialEq, Eq)]
struct StreamPin {
    delivered: u64,
    dropped_loss: u64,
    dropped_partition: u64,
    duplicated: u64,
    reordered: u64,
    first_ns: u64,
    last_ns: u64,
    fold: u64,
}

/// 200 packets from node 0 to node 1 in bursts of four every 2 µs, sizes
/// cycling 64 B / 1400 B / 9000 B / 200 B, with `faults` applied first
/// (`at_start` runs inside the simulation, for faults that need a clock).
fn faulted_stream(
    seed: u64,
    faults: impl FnOnce(&Network, NodeId, NodeId),
    at_start: impl FnOnce(&Network, NodeId, NodeId) + 'static,
) -> StreamPin {
    const SIZES: [usize; 4] = [64, 1400, 9000, 200];
    let rig = rig(2, seed);
    let (a, b) = (rig.ids[0], rig.ids[1]);
    faults(&rig.net, a, b);
    let net = rig.net.clone();
    rig.sim.block_on(async move {
        at_start(&net, a, b);
        for i in 0..200u64 {
            simcore::sleep_until(SimTime::from_nanos(i / 4 * 2_000)).await;
            let mut payload = vec![0u8; SIZES[(i % 4) as usize]];
            payload[0] = i as u8;
            net.send_datagram(on(a), on(b), Bytes::from(payload));
        }
    });
    let seen = rig.seen(1);
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for (at, _, payload) in &seen {
        for word in [*at, payload[0] as u64] {
            for byte in word.to_le_bytes() {
                fold = (fold ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(seen.len() as u64, rig.net.delivered());
    StreamPin {
        delivered: rig.net.delivered(),
        dropped_loss: rig.net.dropped_loss(),
        dropped_partition: rig.net.dropped_partition(),
        duplicated: rig.net.duplicated(),
        reordered: rig.net.reordered(),
        first_ns: seen.first().map_or(0, |s| s.0),
        last_ns: seen.last().map_or(0, |s| s.0),
        fold,
    }
}

#[test]
fn gilbert_elliott_stream_matches_the_recorded_fates() {
    let pin = faulted_stream(
        42,
        |net, a, b| net.set_link_gilbert(a, b, Some(GilbertElliott::bursty())),
        |_, _, _| {},
    );
    assert_eq!(
        pin,
        StreamPin {
            delivered: 182,
            dropped_loss: 18,
            dropped_partition: 0,
            duplicated: 0,
            reordered: 0,
            first_ns: 718,
            last_ns: 100593,
            fold: 15622858551693814702,
        }
    );
}

#[test]
fn duplicated_and_reordered_stream_matches_the_recorded_fates() {
    let pin = faulted_stream(
        7,
        |net, a, b| {
            net.set_link_duplicate(a, b, 0.5);
            net.set_link_reorder(a, b, 0.5, Duration::from_micros(5));
        },
        |_, _, _| {},
    );
    assert_eq!(
        pin,
        StreamPin {
            delivered: 296,
            dropped_loss: 0,
            dropped_partition: 0,
            duplicated: 96,
            reordered: 99,
            first_ns: 718,
            last_ns: 104366,
            fold: 8570131680920109372,
        }
    );
}

#[test]
fn stream_across_a_partition_window_matches_the_recorded_fates() {
    // The window opens with the stream and closes 30 µs in: packets whose
    // arrival instant falls inside it are dropped, the rest delivered, and
    // the fabric-wide loss knob draws from the shared RNG for the
    // survivors.
    let pin = faulted_stream(
        11,
        |net, _, _| net.set_loss_probability(0.05),
        |net, a, b| net.partition_for(a, b, Duration::from_micros(30)),
    );
    assert_eq!(
        pin,
        StreamPin {
            delivered: 136,
            dropped_loss: 4,
            dropped_partition: 60,
            duplicated: 0,
            reordered: 0,
            first_ns: 30718,
            last_ns: 100593,
            fold: 14230843570834541672,
        }
    );
}

#[test]
fn a_port_unbound_in_flight_counts_the_drop_at_rx_done_not_earlier() {
    let sim = Sim::new();
    let net = Network::new(FabricConfig::default(), 1);
    let a = net.add_node("a", NicConfig::default());
    let b = net.add_node("b", NicConfig::default());
    let ea = net.bind(a, PORT);
    let eb = net.bind(b, PORT);
    let dst = eb.addr();
    sim.spawn(async move {
        ea.send_to(dst, Bytes::from_static(b"hello"));
        // 5 B: tx done at 104 ns, arrival at 604 ns, rx done at 708 ns.
        // The port goes away while the datagram is on the switch.
        simcore::sleep(Duration::from_nanos(300)).await;
        drop(eb);
    });
    sim.run_until(SimTime::from_nanos(707));
    assert_eq!(
        (
            net.dropped_unbound(),
            net.delivered(),
            net.node_rx_packets(b)
        ),
        (0, 0, 1),
        "inside the receiver's NIC, not yet judged"
    );
    sim.run_until(SimTime::from_nanos(708));
    assert_eq!((net.dropped_unbound(), net.delivered()), (1, 0));
    sim.run();
    assert_eq!((net.dropped_unbound(), net.delivered()), (1, 0));
}

// ---------------------------------------------------------------------------
// The bulk class.
// ---------------------------------------------------------------------------

/// A full packet at the default 4 KiB MTU.
const PKT: usize = 4096;

/// `n` full packets from `src` to `dst` in one instant, each a one-packet
/// message so its own hand-over shows, packet `i` carrying `i` (as the
/// model's payloads do), in the bulk class or not.
fn message(net: &Network, src: NodeId, dst: NodeId, n: usize, bulk: bool) {
    for i in 0..n {
        let payload = Bytes::from(vec![i as u8; PKT]);
        net.send_message(on(src), on(dst), Payload::from(payload), bulk);
    }
}

#[test]
fn a_bulk_message_alone_on_its_nic_is_delivered_when_a_plain_one_is() {
    // The next bulk packet departs when the one `BULK_AHEAD` ahead of it
    // reaches the switch, which is before the NIC is free again.
    assert!((BULK_AHEAD as u64 - 1) * nic_ns(PKT) >= SWITCH_NS);
    let want = model(2, &vec![(0, 0, 1, PKT); 64])[1].clone();
    for bulk in [false, true] {
        let rig = rig(2, 1);
        let (net, ids) = (rig.net.clone(), rig.ids.clone());
        rig.sim
            .block_on(async move { message(&net, ids[0], ids[1], 64, bulk) });
        rig.sim.run();
        assert_eq!(rig.seen(1), want, "bulk {bulk}");
        assert_eq!(rig.net.in_flight(), 0);
    }
}

#[test]
fn a_datagram_sent_behind_a_bulk_message_overtakes_all_but_bulk_ahead_of_its_packets() {
    for (bulk, ahead) in [(true, BULK_AHEAD as usize), (false, 64)] {
        let rig = rig(2, 1);
        let (net, ids) = (rig.net.clone(), rig.ids.clone());
        rig.sim.block_on(async move {
            message(&net, ids[0], ids[1], 64, bulk);
            net.send_datagram(on(ids[0]), on(ids[1]), Bytes::from_static(&[0xEE]));
        });
        rig.sim.run();
        let seen = rig.seen(1);
        assert_eq!(seen.len(), 65);
        let small = seen.iter().position(|s| s.2 == [0xEE]).expect("delivered");
        assert_eq!(small, ahead, "bulk {bulk}");
        if bulk {
            // It takes the NIC right after the four bulk packets that hold
            // it, and the receiver's right after the fourth of them.
            let at = (BULK_AHEAD as u64 + 1) * nic_ns(PKT) + SWITCH_NS + nic_ns(1);
            assert_eq!(seen[small].0, at);
            let waited = 64 - BULK_AHEAD as u64;
            assert_eq!(rig.net.node_bulk_queue_peak(rig.ids[0]), waited);
        }
    }
}

#[test]
fn the_bulk_queue_drains_under_every_fault_class() {
    let rig = rig(3, 5);
    let (net, ids) = (rig.net.clone(), rig.ids.clone());
    let (n0, n1, n2) = (ids[0], ids[1], ids[2]);
    net.set_loss_probability(0.05);
    net.set_link_duplicate(n0, n1, 0.3);
    net.set_link_reorder(n2, n1, 0.3, Duration::from_micros(20));
    rig.sim.block_on(async move {
        net.partition_for(n0, n2, Duration::from_micros(40));
        for round in 0..6u64 {
            simcore::sleep_until(SimTime::from_nanos(round * 15_000)).await;
            for (src, dst) in [(n0, n1), (n2, n1), (n0, n2), (n2, n0)] {
                message(&net, src, dst, 24, true);
                net.send_datagram(on(src), on(dst), Bytes::from_static(&[0xEE]));
            }
        }
    });
    // Run to quiescence: the fabric has nothing left to hand over.
    rig.sim.run();
    let net = &rig.net;
    assert_eq!(net.in_flight(), 0, "a bulk datagram is stuck in its queue");
    let sent = 6 * 4 * 25;
    let lost = net.dropped_loss() + net.dropped_partition();
    assert!(net.dropped_partition() > 0 && net.dropped_loss() > 0);
    assert!(net.duplicated() > 0 && net.reordered() > 0);
    assert_eq!(net.delivered(), sent - lost + net.duplicated());
    assert!(net.node_bulk_queue_peak(n0) > 0 && net.node_bulk_queue_peak(n2) > 0);
    // Every place in flight came back: a fresh message leaves at the lone
    // message's instants again, offset by when it was sent.
    net.clear_faults();
    net.set_loss_probability(0.0);
    let before = rig.seen(1).len();
    let t0 = rig.sim.now().nanos();
    let net2 = net.clone();
    rig.sim
        .block_on(async move { message(&net2, n0, n1, 64, true) });
    rig.sim.run();
    let again: Vec<Seen> = rig.seen(1)[before..]
        .iter()
        .map(|(at, src, payload)| (at - t0, *src, payload.clone()))
        .collect();
    assert_eq!(again, model(2, &vec![(0, 0, 1, PKT); 64])[1]);
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

/// One message: `(instant, src, dst, packet lengths, bulk)`.
type Msg = (u64, u32, u32, Vec<usize>, bool);

/// A packet by `(message, packet index)`, as its payload's first 4 bytes say.
type Tag = (u16, u16);

/// Every hand-over of a run, fabric-wide in the order the receive functions
/// ran: `(instant, receiving node, packets, their bytes back to back)`.
type HandOvers = Vec<(u64, u32, Vec<Tag>, Vec<u8>)>;

/// How [`run_messages`] sends a message.
#[derive(Clone, Copy, PartialEq)]
enum How {
    /// As one list of packets.
    List,
    /// Each packet as a message of its own.
    Alone,
    /// As one [`Segmented`] message, for messages shaped by [`segmentable`].
    Segmented,
}

/// Message `m`'s packets as one segmented message: a 4-byte header per
/// packet (the tag), MTU cuts of zeros behind it, part of them in the head.
fn segmented(m: usize, lens: &[usize]) -> Segmented {
    let n = lens.len();
    let mtu = (lens[0] - 4).max(1);
    let total = (n - 1) * mtu + lens[n - 1] - 4;
    let head_len = (m * 7919 + n) % (total + 1);
    let mut block = Vec::new();
    for i in 0..n {
        block.extend_from_slice(&(m as u16).to_le_bytes());
        block.extend_from_slice(&(i as u16).to_le_bytes());
        let (lo, hi) = ((i * mtu).min(head_len), ((i + 1) * mtu).min(head_len));
        block.resize(block.len() + hi - lo, 0);
    }
    let body = Bytes::from(vec![0u8; total - head_len]);
    let seg = Segmented::new(block.into(), head_len, body, 4, mtu);
    assert!((0..n).all(|i| seg.packet_len(i) == lens[i]));
    seg
}

/// `msgs` with each message's packet lengths made MTU cuts behind a 4-byte
/// header (every packet but the last full), so [`segmented`] can send them.
fn segmentable(msgs: &[Msg]) -> Vec<Msg> {
    let shape = |lens: &Vec<usize>| {
        let (n, mtu) = (lens.len(), (lens[0] - 4).max(1));
        let last = match n {
            1 => lens[0] - 4,
            _ => (lens[n - 1] - 4) % mtu + 1,
        };
        let mut out = vec![4 + mtu; n - 1];
        out.push(4 + last);
        out
    };
    msgs.iter()
        .map(|(at, src, dst, lens, bulk)| (*at, *src, *dst, shape(lens), *bulk))
        .collect()
}

/// Send `msgs` on a fresh fabric of `nodes` default NICs (`faults` applied
/// first, inside the simulation, so it may spawn a task that sets one
/// later), each message as `how` says, and run it dry. With `tick`, a task
/// sleeps 1 ns at a time until the last message is sent and the fabric is
/// empty: the run loop then has a timer at every nanosecond, and the
/// fabric fires once per instant, never settling ahead of it.
fn run_messages(
    nodes: usize,
    msgs: &[Msg],
    how: How,
    tick: bool,
    faults: impl FnOnce(&Network, &[NodeId]),
) -> (HandOvers, Network) {
    let sim = Sim::new();
    let net = Network::new(FabricConfig::default(), 9);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| net.add_node(format!("n{i}"), NicConfig::default()))
        .collect();
    let handed: Rc<RefCell<HandOvers>> = Rc::default();
    for &id in &ids {
        let log = handed.clone();
        net.bind_fn(id, PORT, move |_, packets: &Packets| {
            let bytes: Vec<Bytes> = packets.iter().map(|p| p.contiguous()).collect();
            let tag = |b: &Bytes| {
                (
                    u16::from_le_bytes([b[0], b[1]]),
                    u16::from_le_bytes([b[2], b[3]]),
                )
            };
            let tags = bytes.iter().map(tag).collect();
            let at = simcore::now().nanos();
            log.borrow_mut().push((at, id.0, tags, bytes.concat()));
        });
    }
    sim.scope(|| faults(&net, &ids));
    let sent = Rc::new(Cell::new(false));
    if tick {
        let (net2, sent) = (net.clone(), sent.clone());
        sim.spawn(async move {
            while !sent.get() || net2.in_flight() > 0 {
                simcore::sleep(Duration::from_nanos(1)).await;
            }
        });
    }
    let (net2, msgs) = (net.clone(), msgs.to_vec());
    sim.block_on(async move {
        for (m, (at, src, dst, lens, bulk)) in msgs.into_iter().enumerate() {
            simcore::sleep_until(SimTime::from_nanos(at)).await;
            let packets: Rc<[Payload]> = (0..lens.len())
                .map(|i| {
                    let mut b = vec![0u8; lens[i]];
                    b[..2].copy_from_slice(&(m as u16).to_le_bytes());
                    b[2..4].copy_from_slice(&(i as u16).to_le_bytes());
                    Bytes::from(b).into()
                })
                .collect();
            let (src, dst) = (on(ids[src as usize]), on(ids[dst as usize]));
            match how {
                How::List => net2.send_message(src, dst, packets, bulk),
                How::Alone => {
                    for p in packets.iter() {
                        net2.send_message(src, dst, p.clone(), bulk);
                    }
                }
                How::Segmented => net2.send_message(src, dst, segmented(m, &lens), bulk),
            }
        }
        sent.set(true);
    });
    sim.run();
    let handed = handed.take();
    (handed, net)
}

/// Random messages of 1–40 packets of at least 4 B among `nodes` nodes.
fn messages(nodes: usize, raw: Vec<(u64, u32, u32, Vec<usize>, bool)>) -> Vec<Msg> {
    let mut at = 0u64;
    raw.into_iter()
        .map(|(gap, src, dst, lens, bulk)| {
            at += gap;
            let lens = lens.into_iter().map(|l| l.max(4)).collect();
            (at, src % nodes as u32, dst % nodes as u32, lens, bulk)
        })
        .collect()
}

fn raw_messages() -> impl Strategy<Value = Vec<(u64, u32, u32, Vec<usize>, bool)>> {
    let lens = proptest::collection::vec(len(), 1..41);
    proptest::collection::vec((gap(), 0u32..4, 0u32..4, lens, any::<bool>()), 1..16)
}

/// Each packet's hand-over instants in a run, sorted.
fn instants(handed: &HandOvers) -> HashMap<Tag, Vec<u64>> {
    let mut at: HashMap<Tag, Vec<u64>> = HashMap::new();
    for (t, _, tags, _) in handed {
        for tag in tags {
            at.entry(*tag).or_default().push(*t);
        }
    }
    at.values_mut().for_each(|v| v.sort_unstable());
    at
}

/// What a run leaves in the fabric's books: the fabric's counters, then
/// each node's NIC bytes, packets, busy time, wait and deepest queue.
fn books(net: &Network, nodes: usize) -> Vec<u64> {
    let mut out = vec![
        net.delivered(),
        net.dropped_loss(),
        net.dropped_partition(),
        net.dropped_unbound(),
        net.duplicated(),
        net.reordered(),
        net.in_flight() as u64,
    ];
    for n in (0..nodes as u32).map(NodeId) {
        let ns = |d: Duration| d.as_nanos() as u64;
        out.extend([net.node_tx_bytes(n), net.node_rx_bytes(n)]);
        out.extend([net.node_tx_packets(n), net.node_rx_packets(n)]);
        out.extend([ns(net.node_tx_busy(n)), ns(net.node_rx_busy(n))]);
        out.extend([ns(net.node_tx_wait(n)), ns(net.node_rx_wait(n))]);
        out.extend([net.node_rx_queue_peak(n), net.node_bulk_queue_peak(n)]);
    }
    out
}

/// `msgs` sent as packet lists under `faults` beside a task ticking every
/// nanosecond must be handed over and booked as `(handed, net)`, their run
/// without it: where the fabric settles ahead of the run loop, it does
/// what firings at each instant would.
fn settling_ahead_is_firing_at_each_instant(
    nodes: usize,
    msgs: &[Msg],
    faults: impl Fn(&Network, &[NodeId]),
    (handed, net): (&HandOvers, &Network),
) -> Result<(), TestCaseError> {
    let (ticked, ticked_net) = run_messages(nodes, msgs, How::List, true, faults);
    prop_assert_eq!(&ticked, handed);
    prop_assert_eq!(books(&ticked_net, nodes), books(net, nodes));
    Ok(())
}

/// A hand-over's receive function sends before any later arrival is
/// booked. n1's datagram is handed over to n0 while n0's bulk message to n2
/// is still leaving; n0 replies from its receive function, and the reply
/// takes n0's NIC behind only the bulk packets that departed by then. The
/// run that settles ahead must equal the one that fires at every
/// nanosecond, hand-over by hand-over and book by book.
#[test]
fn a_reply_sent_at_a_hand_over_goes_before_the_bulk_packets_that_depart_after_it() {
    let run = |tick: bool| {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 1);
        let ids: Vec<NodeId> = (0..3)
            .map(|i| net.add_node(format!("n{i}"), NicConfig::default()))
            .collect();
        let handed: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
        for &id in &ids {
            let (log, net2, asked) = (handed.clone(), net.clone(), ids[0]);
            net.bind_fn(id, PORT, move |src, _: &Packets| {
                log.borrow_mut().push((simcore::now().nanos(), id.0));
                if id == asked {
                    net2.send_datagram(on(id), src, Bytes::from_static(b"reply"));
                }
            });
        }
        let net2 = net.clone();
        sim.scope(|| {
            message(&net2, ids[0], ids[2], 64, true);
            net2.send_datagram(on(ids[1]), on(ids[0]), Bytes::from_static(b"ask"));
            if tick {
                simcore::spawn(async move {
                    while net2.in_flight() > 0 {
                        simcore::sleep(Duration::from_nanos(1)).await;
                    }
                });
            }
        });
        sim.run();
        let handed = handed.take();
        (handed, books(&net, 3))
    };
    let (handed, books) = run(false);
    assert_eq!(handed.len(), 64 + 2);
    let reply = handed.iter().find(|h| h.1 == 1).expect("the reply");
    assert!(
        reply.0 < handed.last().expect("a hand-over").0,
        "it overtakes"
    );
    assert_eq!((handed, books), run(true));
}

/// `msgs` made [`segmentable`], sent once as packet lists and once as
/// segmented messages under `faults`: every hand-over (instant, node,
/// survivors and their bytes) and every book must be the same.
fn segmented_is_its_packet_list(
    nodes: usize,
    msgs: &[Msg],
    faults: impl Fn(&Network, &[NodeId]),
) -> Result<(), TestCaseError> {
    let msgs = segmentable(msgs);
    let (list, list_net) = run_messages(nodes, &msgs, How::List, false, &faults);
    let (seg, seg_net) = run_messages(nodes, &msgs, How::Segmented, false, &faults);
    prop_assert_eq!(seg, list);
    prop_assert_eq!(books(&seg_net, nodes), books(&list_net, nodes));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_message_is_handed_over_once_when_its_last_packet_would_be(
        nodes in 3usize..=4,
        raw in raw_messages(),
        plain in any::<bool>(),
    ) {
        let mut msgs = messages(nodes, raw);
        msgs.iter_mut().for_each(|m| m.4 &= !plain);
        let (whole, net) = run_messages(nodes, &msgs, How::List, false, |_, _| {});
        let (alone, per_packet) = run_messages(nodes, &msgs, How::Alone, false, |_, _| {});
        // Once per message, every packet in order, at the instant and in
        // the fabric-wide order of its last packet alone.
        let last = |(t, node, tags, _): &(u64, u32, Vec<Tag>, Vec<u8>)| {
            let (m, i) = tags[0];
            (i as usize + 1 == msgs[m as usize].3.len()).then_some((*t, *node, m))
        };
        let by_last: Vec<_> = alone.iter().filter_map(last).collect();
        let got: Vec<_> = whole.iter().map(|(t, node, tags, _)| (*t, *node, tags[0].0)).collect();
        prop_assert_eq!(&got, &by_last);
        for (_, _, tags, _) in &whole {
            let (m, n) = (tags[0].0, msgs[tags[0].0 as usize].3.len() as u16);
            prop_assert_eq!(tags, &(0..n).map(|i| (m, i)).collect::<Vec<_>>());
        }
        if plain {
            // The closed form, each packet a send of its message's instant.
            let sends: Vec<Send> = msgs
                .iter()
                .flat_map(|(at, src, dst, lens, _)| lens.iter().map(|&l| (*at, *src, *dst, l)))
                .collect();
            let done = rx_done(nodes, &sends);
            let mut ends = Vec::new();
            let mut next = 0;
            for msg in &msgs {
                next += msg.3.len();
                ends.push(done[next - 1]);
            }
            for (t, _, tags, _) in &whole {
                prop_assert_eq!(*t, ends[tags[0].0 as usize]);
            }
        }
        let packets: usize = msgs.iter().map(|m| m.3.len()).sum();
        prop_assert_eq!((net.delivered(), per_packet.delivered()), (packets as u64, packets as u64));
        for node in 0..nodes as u32 {
            let peak = |net: &Network| net.node_rx_queue_peak(NodeId(node));
            prop_assert_eq!(peak(&net), peak(&per_packet), "node {}", node);
        }
        settling_ahead_is_firing_at_each_instant(nodes, &msgs, |_, _| {}, (&whole, &net))?;
        segmented_is_its_packet_list(nodes, &msgs, |_, _| {})?;
    }

    #[test]
    fn under_faults_each_packet_of_a_message_keeps_its_fate_alone(
        raw in raw_messages(),
    ) {
        let msgs = messages(3, raw);
        let faults = |net: &Network, ids: &[NodeId]| {
            net.set_loss_probability(0.1);
            for (a, b) in [(0, 1), (1, 2), (2, 0), (1, 0)] {
                net.set_link_duplicate(ids[a], ids[b], 0.2);
                net.set_link_reorder(ids[a], ids[b], 0.2, Duration::from_micros(3));
            }
        };
        let (whole, net) = run_messages(3, &msgs, How::List, false, faults);
        let (alone, per_packet) = run_messages(3, &msgs, How::Alone, false, faults);
        let counters = |n: &Network| {
            (n.delivered(), n.dropped_loss(), n.duplicated(), n.reordered(), n.in_flight())
        };
        prop_assert_eq!(counters(&net), counters(&per_packet));
        let (got, want) = (instants(&whole), instants(&alone));
        // The same packets survive, as often; none is handed over before
        // it would be alone, and a duplicate's copies come when they would.
        prop_assert_eq!(got.keys().collect::<HashSet<_>>(), want.keys().collect());
        for (tag, at) in &got {
            let alone_at = &want[tag];
            prop_assert_eq!(at.len(), alone_at.len(), "{:?}", tag);
            for (a, b) in at.iter().zip(alone_at) {
                prop_assert!(a >= b, "{:?} handed over at {} before {}", tag, a, b);
            }
            if at.len() > 1 {
                prop_assert_eq!(at, alone_at, "{:?}", tag);
            }
        }
        // A hand-over holding its message's last packet comes exactly when
        // that packet would alone.
        for (t, _, tags, _) in &whole {
            let &(m, i) = tags.last().expect("a hand-over has a packet");
            if i as usize + 1 == msgs[m as usize].3.len() && want[&(m, i)].len() == 1 {
                prop_assert_eq!(*t, want[&(m, i)][0], "message {}", m);
            }
        }
        settling_ahead_is_firing_at_each_instant(3, &msgs, faults, (&whole, &net))?;
        segmented_is_its_packet_list(3, &msgs, faults)?;
    }
}

// ---------------------------------------------------------------------------
// Trains.
// ---------------------------------------------------------------------------

/// A fault plane that judges every packet and drops, duplicates or holds
/// back none: a zero loss probability on one link. Every packet is then a
/// train of one.
fn one_packet_trains(net: &Network, ids: &[NodeId]) {
    net.set_link_loss(ids[1], ids[0], Some(0.0));
}

/// Random messages of 1–40 packets, plain or bulk, half of them converging
/// on node 0 so that trains meet on one receive NIC.
fn converging_messages() -> impl Strategy<Value = Vec<(u64, u32, u32, Vec<usize>, bool)>> {
    let lens = proptest::collection::vec(len(), 1..41);
    let dst = prop_oneof![Just(0u32), 0u32..4];
    proptest::collection::vec((gap(), 0u32..4, dst, lens, any::<bool>()), 1..16)
}

/// Two plain messages from idle senders reach one receive NIC packet by
/// packet in the same stretch: the receive NIC serves their packets
/// interleaved, in `(arrival, send order)`, as the closed form does.
#[test]
fn two_trains_into_one_nic_are_served_packet_by_packet_in_arrival_order() {
    let lens = vec![PKT; 8];
    let msgs = vec![(0, 1, 0, lens.clone(), false), (0, 2, 0, lens, false)];
    let (handed, net) = run_messages(3, &msgs, How::List, false, |_, _| {});
    let sends: Vec<Send> = msgs
        .iter()
        .flat_map(|(at, src, dst, lens, _)| lens.iter().map(|&l| (*at, *src, *dst, l)))
        .collect();
    let done = rx_done(3, &sends);
    let got: Vec<(u64, u16)> = handed.iter().map(|h| (h.0, h.2[0].0)).collect();
    assert_eq!(got, vec![(done[7], 0), (done[15], 1)]);
    // The second train's packets went between the first's: its last is
    // one service behind the first's last, not eight.
    assert_eq!(done[15] - done[7], nic_ns(PKT));
    // Two packets arrive per service time and one leaves: the queue is as
    // deep as with every packet sent alone.
    let (_, alone) = run_messages(3, &msgs, How::Alone, false, |_, _| {});
    assert_eq!(books(&net, 3), books(&alone, 3));
    assert_eq!(net.node_rx_queue_peak(NodeId(0)), 9);
}

#[test]
fn a_lone_plain_message_is_one_arrival_entry_not_one_per_packet() {
    let msgs = vec![(0, 0, 1, vec![PKT; 64], false)];
    let (handed, net) = run_messages(2, &msgs, How::List, false, |_, _| {});
    assert_eq!(handed.len(), 1);
    assert_eq!(net.arrival_entries(), 1, "a train is one entry");
    let (faulted, judged) = run_messages(2, &msgs, How::List, false, one_packet_trains);
    assert_eq!(faulted, handed);
    assert_eq!(judged.arrival_entries(), 64, "judged packet by packet");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trains against one-packet trains: the same traffic run fault-free
    /// (every plain message a train) and under a fault plane that judges
    /// every packet and changes none (every packet a train of one) must
    /// hand over the same packets (each tagged with its message, so its
    /// sender) and bytes at the same instants, fabric-wide in the same
    /// order, and leave every NIC's books the same. With `late`, a
    /// real fault is set on one link at that instant in both runs, while
    /// trains are on the wire: what is left of them is judged packet by
    /// packet, drawing what the one-packet run draws.
    #[test]
    fn trains_are_booked_as_their_packets_one_by_one(
        nodes in 3usize..=4,
        raw in converging_messages(),
        late in prop_oneof![Just(None), (0u64..60_000).prop_map(Some)],
    ) {
        let msgs = messages(nodes, raw);
        let fault_at = move |net: &Network, ids: &[NodeId]| {
            if let Some(at) = late {
                let (net, a, b) = (net.clone(), ids[2], ids[0]);
                simcore::spawn(async move {
                    simcore::sleep_until(SimTime::from_nanos(at)).await;
                    net.set_link_loss(a, b, Some(0.3));
                    net.set_link_duplicate(a, b, 0.3);
                });
            }
        };
        let (trains, net) = run_messages(nodes, &msgs, How::List, false, fault_at);
        let forced = |net: &Network, ids: &[NodeId]| {
            one_packet_trains(net, ids);
            fault_at(net, ids);
        };
        let (alone, judged) = run_messages(nodes, &msgs, How::List, false, forced);
        prop_assert_eq!(&trains, &alone);
        prop_assert_eq!(books(&net, nodes), books(&judged, nodes));
        // Segmented, a train's full packets are booked a run at a time.
        let msgs = segmentable(&msgs);
        let (runs, net) = run_messages(nodes, &msgs, How::Segmented, false, fault_at);
        let (alone, judged) = run_messages(nodes, &msgs, How::List, false, forced);
        prop_assert_eq!(&runs, &alone);
        prop_assert_eq!(books(&net, nodes), books(&judged, nodes));
        if late.is_none() {
            let packets: u64 = msgs.iter().map(|m| m.3.len() as u64).sum();
            prop_assert_eq!(judged.arrival_entries(), packets);
        }
    }
}
