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

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use simcore::{Sim, SimTime};
use simnet::{Addr, FabricConfig, GilbertElliott, Network, NicConfig, NodeId};

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

/// The closed-form model: what each receiver must see, in order.
fn model(nodes: usize, sends: &[Send]) -> Vec<Vec<Seen>> {
    let mut tx_free = vec![0u64; nodes];
    // (arrival, send order, src, len) per receiver.
    let mut arrivals: Vec<Vec<(u64, usize, u32, usize)>> = vec![Vec::new(); nodes];
    for (order, &(at, src, dst, len)) in sends.iter().enumerate() {
        let tx_done = at.max(tx_free[src as usize]) + nic_ns(len);
        tx_free[src as usize] = tx_done;
        arrivals[dst as usize].push((tx_done + SWITCH_NS, order, src, len));
    }
    arrivals
        .into_iter()
        .map(|mut inbound| {
            inbound.sort_unstable();
            let mut rx_free = 0u64;
            inbound
                .into_iter()
                .map(|(arrival, order, src, len)| {
                    rx_free = arrival.max(rx_free) + nic_ns(len);
                    (rx_free, src, vec![order as u8; len])
                })
                .collect()
        })
        .collect()
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
