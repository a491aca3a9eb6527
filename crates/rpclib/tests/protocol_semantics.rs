//! Protocol-semantics tests: the session-slot state machine (at-most-once
//! execution under retransmission, implicit acks, slot reuse after a
//! timeout), the endpoint's retransmission table (the instants it acts at,
//! and that a finished call leaves nothing in it), shutdown semantics, and
//! pathological loss.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use rpclib::wire::{self, fragment, Header, Kind};
use rpclib::{Message, RpcBuilder, RpcConfig, RpcError, ServedSlots, RTT_PKTS};
use simcore::Sim;
use simnet::{
    Addr, FabricConfig, Network, NicConfig, NodeId, Packets, Payload, Segmented, BULK_AHEAD,
};

fn rig() -> (Sim, Network, NodeId, NodeId) {
    let sim = Sim::new();
    let net = Network::new(FabricConfig::default(), 77);
    let a = net.add_node("a", NicConfig::default());
    let b = net.add_node("b", NicConfig::default());
    (sim, net, a, b)
}

/// A handler with a side effect must run at most once per request even when
/// the client retransmits aggressively (the slot's kept response answers
/// dups).
#[test]
fn handler_runs_at_most_once_under_retransmission() {
    let (sim, net, a, b) = rig();
    net.set_loss_probability(0.15);
    let net2 = net.clone();
    let (executions, completed) = sim.block_on(async move {
        let counter = Rc::new(Cell::new(0u32));
        let server = RpcBuilder::new(&net2, b, 10).build();
        let c2 = counter.clone();
        server.register(1, move |ctx| {
            let c = c2.clone();
            async move {
                c.set(c.get() + 1);
                // Slow handler widens the window for duplicate arrivals.
                simcore::sleep(Duration::from_micros(50)).await;
                ctx.payload
            }
        });
        let client = RpcBuilder::new(&net2, a, 10)
            .config(RpcConfig {
                rto: Duration::from_micros(30), // aggressive on purpose
                rto_per_packet: Duration::from_micros(5),
                max_retries: 50,
                ..Default::default()
            })
            .build();
        let mut completed = 0u32;
        for i in 0..40u32 {
            let r = client
                .call(server.addr(), 1, Bytes::from(i.to_le_bytes().to_vec()))
                .await;
            if let Ok(resp) = r {
                assert_eq!(u32::from_le_bytes(resp.body[..4].try_into().unwrap()), i);
                completed += 1;
            }
        }
        (counter.get(), completed)
    });
    assert!(completed >= 35, "most calls complete: {completed}");
    assert_eq!(
        executions, completed,
        "every completed call executed exactly once"
    );
}

/// Forced packet duplication on both directions of the link: the slot table
/// must answer the duplicate requests, so handler side effects happen
/// exactly once per completed call even though the wire carries each packet
/// (and each response) several times.
#[test]
fn handler_runs_at_most_once_under_forced_duplication() {
    let (sim, net, a, b) = rig();
    // Heavy duplication plus mild reorder so duplicates do not arrive
    // back-to-back (back-to-back dups are the easy case).
    net.set_link_duplicate(a, b, 0.8);
    net.set_link_duplicate(b, a, 0.8);
    net.set_link_reorder(a, b, 0.4, Duration::from_micros(40));
    net.set_link_reorder(b, a, 0.4, Duration::from_micros(40));
    let net2 = net.clone();
    let (executions, completed) = sim.block_on(async move {
        let counter = Rc::new(Cell::new(0u32));
        let server = RpcBuilder::new(&net2, b, 10).build();
        let c2 = counter.clone();
        server.register(1, move |ctx| {
            let c = c2.clone();
            async move {
                c.set(c.get() + 1);
                simcore::sleep(Duration::from_micros(30)).await;
                ctx.payload
            }
        });
        let client = RpcBuilder::new(&net2, a, 10).build();
        let mut completed = 0u32;
        for i in 0..50u32 {
            let r = client
                .call(server.addr(), 1, Bytes::from(i.to_le_bytes().to_vec()))
                .await;
            if let Ok(resp) = r {
                assert_eq!(u32::from_le_bytes(resp.body[..4].try_into().unwrap()), i);
                completed += 1;
            }
        }
        (counter.get(), completed)
    });
    assert_eq!(completed, 50, "duplication alone must not lose calls");
    assert!(
        net.duplicated() > 0,
        "fault plane never duplicated a packet"
    );
    assert_eq!(
        executions, completed,
        "duplicated requests re-executed the handler"
    );
}

/// No packet carries nothing: a one-packet echo is a request and a response,
/// and an n-fragment request answered by an m-fragment reply is n + m.
#[test]
fn an_rpc_costs_exactly_its_request_and_response_packets() {
    let (sim, net, a, b) = rig();
    let net2 = net.clone();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net2, b, 10).build();
        server.register(1, |ctx| async move { ctx.payload });
        server.register(2, |_| async { Bytes::from(vec![7u8; 5 * 4096 - 1]) });
        let client = RpcBuilder::new(&net2, a, 10).build();
        client
            .call(server.addr(), 1, Bytes::from_static(b"ping"))
            .await
            .unwrap();
        assert_eq!(net2.delivered(), 2, "one-packet echo");
        let req = Bytes::from(vec![1u8; 2 * 4096 + 1]); // 3 fragments
        let resp = client.call(server.addr(), 2, req).await.unwrap();
        assert_eq!(resp.len(), 5 * 4096 - 1); // 5 fragments
        assert_eq!(net2.delivered(), 2 + 3 + 5);
    });
    // Nothing trails the last response either.
    assert_eq!(net.delivered(), 10);
}

/// At-most-once does not depend on any capacity: thousands of sequential
/// calls under heavy duplication and reorder each run the handler exactly
/// once (the retired 128-entry response cache forgot a call 128 responses
/// after a lost ACK; a slot remembers its latest call until the next one).
#[test]
fn two_thousand_duplicated_calls_execute_exactly_once_each() {
    let (sim, net, a, b) = rig();
    net.set_link_duplicate(a, b, 0.8);
    net.set_link_duplicate(b, a, 0.8);
    net.set_link_reorder(a, b, 0.4, Duration::from_micros(40));
    net.set_link_reorder(b, a, 0.4, Duration::from_micros(40));
    let net2 = net.clone();
    let runs = sim.block_on(async move {
        let runs = Rc::new(RefCell::new(vec![0u32; 2000]));
        let server = RpcBuilder::new(&net2, b, 10).build();
        let r2 = runs.clone();
        server.register(1, move |ctx| {
            let i = u32::from_le_bytes(ctx.payload.body[..4].try_into().unwrap());
            r2.borrow_mut()[i as usize] += 1;
            async move { ctx.payload }
        });
        let client = RpcBuilder::new(&net2, a, 10).build();
        for i in 0..2000u32 {
            let resp = client
                .call(server.addr(), 1, Bytes::from(i.to_le_bytes().to_vec()))
                .await
                .unwrap();
            assert_eq!(u32::from_le_bytes(resp.body[..4].try_into().unwrap()), i);
        }
        // Late duplicates of every call are still in flight: let them land.
        simcore::sleep(Duration::from_millis(1)).await;
        let runs = runs.borrow().clone();
        runs
    });
    assert!(net.duplicated() > 2000, "fault plane barely duplicated");
    assert!(runs.iter().all(|&n| n == 1), "some call ran 0 or 2+ times");
}

/// A call that times out while its handler is still running gives its slot
/// back; the next call reuses it and is answered, and when the stale
/// handler finally returns its reply goes nowhere.
#[test]
fn timed_out_call_frees_its_slot_and_its_late_reply_is_discarded() {
    let (sim, net, a, b) = rig();
    let net2 = net.clone();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net2, b, 10).build();
        server.register(1, |ctx| async move {
            if ctx.payload == b"slow"[..] {
                simcore::sleep(Duration::from_millis(1)).await;
            }
            ctx.payload
        });
        let client = RpcBuilder::new(&net2, a, 10)
            .config(RpcConfig {
                rto: Duration::from_micros(50),
                rto_per_packet: Duration::ZERO,
                rto_max: Duration::from_micros(50),
                max_retries: 1,
                ..Default::default()
            })
            .build();
        let slow = client
            .call(server.addr(), 1, Bytes::from_static(b"slow"))
            .await;
        assert_eq!(slow, Err(RpcError::Timeout { attempts: 2 }));
        let executing = ServedSlots {
            executing: 1,
            ..Default::default()
        };
        assert_eq!(server.served_slots(), executing);

        let fast = client
            .call(server.addr(), 1, Bytes::from_static(b"fast"))
            .await
            .unwrap();
        assert_eq!(fast, b"fast"[..]);
        // Same slot: the new request replaced the abandoned one.
        let done = ServedSlots {
            done: 1,
            ..Default::default()
        };
        assert_eq!(server.served_slots(), done);

        let before = net2.delivered();
        simcore::sleep(Duration::from_millis(2)).await;
        assert_eq!(
            server.stats().requests_handled.get(),
            2,
            "stale handler ran out"
        );
        assert_eq!(net2.delivered(), before, "stale reply was transmitted");
        assert_eq!(server.served_slots(), done, "stale reply was retained");
    });
}

/// What a server keeps for its callers is bounded by their live slots, not
/// by how many calls they made: after 10 000 calls at concurrency `k` it
/// holds at most `k` responses and no reassembly.
#[test]
fn server_retains_at_most_one_response_per_live_slot() {
    const K: usize = 8;
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |ctx| async move {
            simcore::sleep(Duration::from_nanos(100 * ctx.payload.body[0] as u64)).await;
            ctx.payload
        });
        let client = RpcBuilder::new(&net, a, 10).build();
        let mut workers = Vec::new();
        for w in 0..K {
            let (client, dst) = (client.clone(), server.addr());
            workers.push(simcore::spawn(async move {
                for i in 0..10_000 / K {
                    // Two-fragment requests, so reassemblies exist to leak.
                    let mut req = vec![(w * 31 + i) as u8; 4097];
                    req[1] = w as u8;
                    let resp = client.call(dst, 1, Bytes::from(req.clone())).await;
                    assert_eq!(resp.unwrap(), req[..]);
                }
            }));
        }
        for w in workers {
            w.await;
        }
        let kept = server.served_slots();
        assert!(kept.done <= K && kept.done > 0, "{kept:?}");
        assert_eq!((kept.receiving, kept.executing), (0, 0), "{kept:?}");
        assert_eq!(client.stats().calls_completed.get(), 10_000);
    });
}

/// A first fragment claiming 65 535 packets reserves room for what arrived,
/// not for the claim: 16 forged 60-byte datagrams on distinct slots hold 16
/// fragment slots, where a slot per claimed packet held 16 × 65 535 (≈ 75 MB).
/// Once the forgers have been quiet for the reclaim age, nothing is held:
/// no request ran on those slots, so not even their `req_num` is kept.
#[test]
fn forged_first_fragments_reserve_what_arrived_not_what_they_claim() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |ctx| async move { ctx.payload });
        let raw = net.bind(a, 20);
        for slot in 0..16 {
            let forged = Header {
                kind: Kind::Request,
                req_type: 1,
                req_num: wire::req_num(1, slot),
                pkt_idx: 0,
                num_pkts: u16::MAX,
                msg_len: u32::MAX,
                trace: None,
            };
            raw.send_to(server.addr(), forged.encode(&[0u8; 40]));
        }
        simcore::sleep(Duration::from_micros(10)).await;
        let held = ServedSlots {
            receiving: 16,
            fragment_slots: 16,
            ..Default::default()
        };
        assert_eq!(server.served_slots(), held);
        let age = server.config().reclaim_age();
        simcore::sleep(age - Duration::from_micros(10)).await;
        assert_eq!(server.served_slots(), held, "reclaimed before the age");
        // The 16 datagrams arrive within a few microseconds of each other.
        simcore::sleep(Duration::from_micros(10)).await;
        assert_eq!(server.served_slots(), ServedSlots::default());
        assert_eq!(server.stats().receiving_reclaimed.get(), 16);
    });
}

/// A complete request of a type nobody serves is counted and done with:
/// its entry does not stay executing, and a duplicate of it runs nothing,
/// not even once a handler for the type is registered.
#[test]
fn a_request_no_handler_serves_is_done_with_not_left_executing() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        let raw = net.bind(a, 20);
        let forged = |slot| {
            let hdr = Header {
                kind: Kind::Request,
                req_type: 99,
                req_num: wire::req_num(1, slot),
                pkt_idx: 0,
                num_pkts: 1,
                msg_len: 40,
                trace: None,
            };
            hdr.encode(&[0u8; 40])
        };
        for slot in 0..16 {
            raw.send_to(server.addr(), forged(slot));
        }
        simcore::sleep(Duration::from_micros(10)).await;
        assert_eq!(server.stats().requests_unserved.get(), 16);
        let done = ServedSlots {
            done: 16,
            ..Default::default()
        };
        assert_eq!(server.served_slots(), done);
        let runs = Rc::new(Cell::new(0u32));
        let runs2 = runs.clone();
        server.register(99, move |ctx| {
            runs2.set(runs2.get() + 1);
            async move { ctx.payload }
        });
        raw.send_to(server.addr(), forged(0));
        simcore::sleep(Duration::from_micros(10)).await;
        assert_eq!(runs.get(), 0, "a duplicate ran a handler");
        assert_eq!(server.served_slots(), done);
    });
}

/// A response completes a call only if it comes from the peer the call
/// went to: `req_num`s are predictable, and a third node's one-packet
/// response naming the call's must not end it while the server is still
/// working on the real reply.
#[test]
fn a_response_from_another_peer_does_not_complete_a_call() {
    let (sim, net, a, b) = rig();
    let c = net.add_node("c", NicConfig::default());
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |_| async move {
            simcore::sleep(Duration::from_micros(20)).await;
            Bytes::from_static(b"genuine")
        });
        let client = RpcBuilder::new(&net, a, 10).build();
        let dst = server.addr();
        let call = simcore::spawn(async move { client.call(dst, 1, Bytes::new()).await });
        simcore::sleep(Duration::from_micros(5)).await;
        let forger = net.bind(c, 20);
        let forged = Header {
            kind: Kind::Response,
            req_type: 1,
            req_num: wire::req_num(1, 0),
            pkt_idx: 0,
            num_pkts: 1,
            msg_len: 6,
            trace: None,
        };
        forger.send_to(Addr { node: a, port: 10 }, forged.encode(b"forged"));
        assert_eq!(call.await.unwrap(), b"genuine"[..]);
    });
}

/// Requests handled and slots held after `packets` reach a fresh server
/// from a raw port.
fn served_after(packets: Packets) -> (u64, ServedSlots) {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |ctx| async move { ctx.payload });
        let raw = net.bind(a, 20);
        net.send_message(raw.addr(), server.addr(), packets, false);
        simcore::sleep(Duration::from_micros(50)).await;
        (server.stats().requests_handled.get(), server.served_slots())
    })
}

/// A segmented request is taken whole only if every header in it parses as
/// one message's. With one packet's magic, `req_num`, `pkt_idx` or
/// `num_pkts` wrong it is never handled, and the server ends as it does
/// when the same packets arrive as a list: the same count handled, the
/// same slots held.
#[test]
fn a_forged_segmented_request_ends_as_its_packet_list_does() {
    const MTU: usize = 64;
    let body = Bytes::from(vec![6u8; 3 * MTU + 10]);
    let msg = Message::new(vec![5u8; 3], body);
    let genuine = wire::segment(Kind::Request, 1, wire::req_num(1, 0), msg, MTU, None);
    assert_eq!(genuine.len(), 4);
    let as_list = |seg: &Segmented| Packets::List(Packets::from(seg.clone()).iter().collect());
    for packets in [Packets::from(genuine.clone()), as_list(&genuine)] {
        let answered = ServedSlots {
            done: 1,
            ..Default::default()
        };
        assert_eq!(served_after(packets), (1, answered));
    }
    // `(field, byte of the header, bits flipped)`: the magic; the sequence
    // in `req_num` (1 → 3, the same slot); `pkt_idx`; `num_pkts` (4 → 5).
    let fields = [
        ("magic", 0, 0xFF),
        ("req_num", 7, 0x02),
        ("pkt_idx", 12, 0x01),
        ("num_pkts", 14, 0x01),
    ];
    for (field, at, flip) in fields {
        for j in 0..genuine.len() {
            let mut block = genuine.block().to_vec();
            block[genuine.header_at(j) + at] ^= flip;
            let forged = Segmented::new(
                block.into(),
                genuine.head_len(),
                genuine.body().clone(),
                genuine.hdr_len(),
                MTU,
            );
            let whole = served_after(Packets::from(forged.clone()));
            assert_eq!(whole.0, 0, "{field} of packet {j}: handled");
            assert_eq!(
                whole,
                served_after(as_list(&forged)),
                "{field} of packet {j}"
            );
        }
    }
}

/// Responses larger than one packet survive loss of arbitrary fragments.
#[test]
fn multi_packet_response_under_loss() {
    let (sim, net, a, b) = rig();
    net.set_loss_probability(0.08);
    let net2 = net.clone();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net2, b, 10).build();
        server.register(1, |_| async {
            Bytes::from((0..50_000u32).map(|i| (i % 247) as u8).collect::<Vec<_>>())
        });
        let client = RpcBuilder::new(&net2, a, 10)
            .config(RpcConfig {
                rto: Duration::from_micros(200),
                rto_per_packet: Duration::from_micros(20),
                max_retries: 60,
                ..Default::default()
            })
            .build();
        for _ in 0..15 {
            let resp = client.call(server.addr(), 1, Bytes::new()).await.unwrap();
            assert_eq!(resp.len(), 50_000);
            assert!(resp
                .body
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (i % 247) as u8));
        }
    });
}

/// After shutdown, a server silently ignores requests instead of panicking,
/// and the caller times out cleanly.
/// `num_pkts` is a `u16`: a message of more than 65 535 packets cannot be
/// framed. The caller gets a typed error with nothing sent and nothing kept;
/// a handler's reply that long is answered empty (no protocol reads that as
/// success) and counted. Either way both endpoints go on serving.
#[test]
fn an_unframeable_message_is_a_typed_error_on_both_sides() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let small_mtu = RpcConfig {
            mtu: 16,
            ..Default::default()
        };
        let max = wire::max_msg_len(16);
        let server = RpcBuilder::new(&net, b, 10).config(small_mtu).build();
        server.register(1, move |ctx| async move {
            match ctx.payload.get(0) {
                Some(b'!') => Bytes::from(vec![7u8; max + 1]),
                _ => ctx.payload.into_bytes(),
            }
        });
        let client = RpcBuilder::new(&net, a, 10).config(small_mtu).build();
        let sent = net.node_tx_packets(a);
        let r = client
            .call(server.addr(), 1, Bytes::from(vec![1u8; max + 1]))
            .await;
        assert_eq!(r, Err(RpcError::TooLarge { len: max + 1, max }));
        assert_eq!(net.node_tx_packets(a), sent, "refused before the wire");
        assert_eq!(client.inflight_calls(), 0);
        // The longest message that can be framed still goes through.
        let at = Bytes::from(vec![2u8; max]);
        assert_eq!(client.call(server.addr(), 1, at.clone()).await.unwrap(), at);
        // The handler's oversize reply: empty, counted, and the slot lives on.
        let r = client
            .call(server.addr(), 1, Bytes::from_static(b"!"))
            .await;
        assert!(r.unwrap().is_empty());
        assert_eq!(server.stats().replies_unframeable.get(), 1);
        let r = client
            .call(server.addr(), 1, Bytes::from_static(b"ok"))
            .await;
        assert_eq!(r.unwrap(), b"ok"[..]);
    });
}

#[test]
fn shutdown_server_times_out_cleanly() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |ctx| async move { ctx.payload });
        let client = RpcBuilder::new(&net, a, 10)
            .config(RpcConfig {
                rto: Duration::from_micros(20),
                max_retries: 2,
                ..Default::default()
            })
            .build();
        // Works before shutdown.
        assert!(client
            .call(server.addr(), 1, Bytes::from_static(b"x"))
            .await
            .is_ok());
        server.shutdown();
        let r = client
            .call(server.addr(), 1, Bytes::from_static(b"y"))
            .await;
        assert_eq!(r, Err(RpcError::Timeout { attempts: 3 }));
    });
}

/// Shutdown drops what is kept for callers, not the callers themselves: a
/// handler already running still delivers its reply.
#[test]
fn handler_running_at_shutdown_still_replies() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |ctx| async move {
            simcore::sleep(Duration::from_micros(50)).await;
            ctx.payload
        });
        let client = RpcBuilder::new(&net, a, 10).build();
        let call = {
            let (client, dst) = (client.clone(), server.addr());
            simcore::spawn(async move { client.call(dst, 1, Bytes::from_static(b"late")).await })
        };
        simcore::sleep(Duration::from_micros(10)).await;
        assert_eq!(server.served_slots().executing, 1);
        server.shutdown();
        assert_eq!(call.await.unwrap(), b"late"[..]);
        assert_eq!(client.stats().retransmits.get(), 0);
    });
}

/// `(hand-over ns, request sequence)` of every request a silent peer hears:
/// one entry per transmission, at the instant its NIC is done with the
/// request's last packet. On an idle NIC the gap between two entries of one
/// request is exactly the wait between the two transmissions.
type Heard = Rc<RefCell<Vec<(u64, u64)>>>;

/// Bind `node:10` to a peer that records what arrives and never answers.
fn silent_peer(net: &Network, node: NodeId) -> (Addr, Heard) {
    let mut ep = net.bind(node, 10);
    let addr = ep.addr();
    let heard = Heard::default();
    let log = heard.clone();
    simcore::spawn_detached(async move {
        loop {
            let d = ep.recv().await;
            let (hdr, _) = Header::decode_split(&d.payload.head, &d.payload.body).unwrap();
            if hdr.pkt_idx == 0 {
                log.borrow_mut()
                    .push((simcore::now().nanos(), hdr.req_num >> wire::SLOT_BITS));
            }
        }
    });
    (addr, heard)
}

/// The retransmission instants below were recorded with the per-call
/// watchdog task this table replaced (commit 00e920d); the table must act
/// at exactly the same virtual nanoseconds. They were heard at a request's
/// first packet then: a request of `64 × 4096 + 1` B is heard 63 full
/// packets and a 1-byte one (27 385 ns) later now, one of 5 100 B 186 ns
/// and one of 10 100 B 691 ns later, one of 100 B when it was.
fn rto_config() -> RpcConfig {
    RpcConfig {
        rto: Duration::from_micros(100),
        rto_per_packet: Duration::from_micros(2),
        ..Default::default()
    }
}

/// Retransmissions leave `rto + rto_per_packet × n` after the first
/// transmission, then at doubled waits capped at `rto_max`, and
/// `max_retries` ends the call: for a 1-packet request 102, 204, 408, 816,
/// 1000, 1000 µs apart, for a 65-packet one 230, 460, 920, 1000, … µs.
#[test]
fn retransmissions_leave_at_the_rto_then_double_to_the_cap() {
    #[rustfmt::skip]
    let cases: [(usize, [u64; 7], u64); 2] = [
        (100, [726, 102_726, 306_726, 714_726, 1_530_726, 2_530_726, 3_530_726], 4_530_000),
        (64 * 4096 + 1, [28_751, 258_751, 718_751, 1_638_751, 2_638_751, 3_638_751, 4_638_751], 5_610_000),
    ];
    for (size, arrivals, gave_up_at) in cases {
        let (sim, net, a, b) = rig();
        let (heard, r, end) = sim.block_on(async move {
            let (dst, heard) = silent_peer(&net, b);
            let client = RpcBuilder::new(&net, a, 10)
                .config(RpcConfig {
                    rto_max: Duration::from_micros(1000),
                    max_retries: 6,
                    ..rto_config()
                })
                .build();
            let r = client.call(dst, 1, Bytes::from(vec![7u8; size])).await;
            assert_eq!(client.inflight_calls(), 0, "a timed-out call left an entry");
            let heard = heard.borrow().clone();
            (heard, r, simcore::now().nanos())
        });
        assert_eq!(r, Err(RpcError::Timeout { attempts: 7 }), "{size} B");
        let want: Vec<(u64, u64)> = arrivals.iter().map(|&t| (t, 1)).collect();
        assert_eq!(heard, want, "{size} B");
        assert_eq!(end, gave_up_at, "{size} B");
    }
}

/// `retry_budget` ends the call at the first due instant past the budget,
/// however many retries remain.
#[test]
fn retry_budget_ends_the_call_at_the_first_due_instant_past_it() {
    let (sim, net, a, b) = rig();
    let (heard, r, end) = sim.block_on(async move {
        let (dst, heard) = silent_peer(&net, b);
        let client = RpcBuilder::new(&net, a, 10)
            .config(RpcConfig {
                rto_max: Duration::from_micros(400),
                max_retries: 1000,
                retry_budget: Some(Duration::from_micros(1500)),
                ..rto_config()
            })
            .build();
        let r = client.call(dst, 1, Bytes::from(vec![7u8; 100])).await;
        let heard = heard.borrow().clone();
        (heard, r, simcore::now().nanos())
    });
    assert_eq!(r, Err(RpcError::Timeout { attempts: 5 }));
    let sent: Vec<u64> = heard.iter().map(|&(t, _)| t).collect();
    assert_eq!(sent, [726, 102_726, 306_726, 706_726, 1_106_726]);
    assert_eq!(end, 1_506_000);
}

/// Deadlines are not monotone in issue order: a 1-packet call issued 40 µs
/// after a 65-packet call is due 88 µs before it, so the endpoint's one
/// timer has to be pulled forward.
#[test]
fn a_short_call_issued_after_a_long_one_retransmits_first() {
    let (sim, net, a, b) = rig();
    let heard = sim.block_on(async move {
        let (dst, heard) = silent_peer(&net, b);
        let client = RpcBuilder::new(&net, a, 10)
            .config(RpcConfig {
                rto_max: Duration::from_micros(100),
                max_retries: 2,
                ..rto_config()
            })
            .build();
        let mut calls = Vec::new();
        for size in [64 * 4096 + 1, 100] {
            let client = client.clone();
            calls.push(simcore::spawn(async move {
                client.call(dst, 1, Bytes::from(vec![7u8; size])).await
            }));
            simcore::sleep(Duration::from_micros(40)).await;
        }
        for c in calls {
            assert_eq!(c.await, Err(RpcError::Timeout { attempts: 3 }));
        }
        let heard = heard.borrow().clone();
        heard
    });
    // The short call's second retransmission queues behind the long call's
    // 65 packets on the NIC, hence 258 864 rather than 244 726.
    assert_eq!(
        heard,
        [
            (28_751, 1),
            (40_726, 2),
            (142_726, 2),
            (258_751, 1),
            (258_864, 2),
            (488_751, 1)
        ]
    );
}

/// The same two calls with the long one marked bulk: its retransmission
/// goes out in the bulk class again, so the short call's second
/// retransmission waits behind the few of its packets that hold a place
/// (`BULK_AHEAD`), not all 65 — 246 201 rather than 258 864 — and the long
/// call is heard when it was before, but for its retransmission, whose
/// last packet the short one's (113 ns) now precedes at the receiver.
#[test]
fn a_retransmitted_bulk_request_keeps_its_class() {
    let (sim, net, a, b) = rig();
    let heard = sim.block_on(async move {
        let (dst, heard) = silent_peer(&net, b);
        let client = RpcBuilder::new(&net, a, 10)
            .config(RpcConfig {
                rto_max: Duration::from_micros(100),
                max_retries: 2,
                ..rto_config()
            })
            .build();
        let mut calls = Vec::new();
        for (size, bulk) in [(64 * 4096 + 1, true), (100, false)] {
            let client = client.clone();
            let msg = Message::from(Bytes::from(vec![7u8; size]));
            let msg = if bulk { msg.bulk() } else { msg };
            calls.push(simcore::spawn(
                async move { client.call(dst, 1, msg).await },
            ));
            simcore::sleep(Duration::from_micros(40)).await;
        }
        for c in calls {
            assert_eq!(c.await, Err(RpcError::Timeout { attempts: 3 }));
        }
        let heard = heard.borrow().clone();
        heard
    });
    assert_eq!(
        heard,
        [
            (28_751, 1),
            (40_726, 2),
            (142_726, 2),
            (246_201, 2),
            (258_864, 1),
            (488_751, 1)
        ]
    );
}

/// A reply marked bulk and longer than `RTT_PKTS` packets goes out in the
/// bulk class, and so does its resend to a duplicate request; an unmarked
/// reply, or a marked one that fits in `RTT_PKTS` packets, never does. The
/// class shows as the server's bulk queue: all but `BULK_AHEAD` packets of
/// a bulk reply wait in it.
#[test]
fn a_bulk_reply_resent_to_a_duplicate_keeps_its_class() {
    let pkts = RTT_PKTS + 26;
    for (marked, reply_pkts, queued) in [
        (true, pkts, pkts - BULK_AHEAD as usize),
        (false, pkts, 0),
        (true, RTT_PKTS, 0),
    ] {
        let (sim, net, a, b) = rig();
        let net2 = net.clone();
        let (first, resent, runs) = sim.block_on(async move {
            let runs = Rc::new(Cell::new(0u32));
            let server = RpcBuilder::new(&net2, b, 10).build();
            let runs2 = runs.clone();
            server.register(1, move |_| {
                runs2.set(runs2.get() + 1);
                let reply = Message::from(Bytes::from(vec![9u8; reply_pkts * 4096]));
                std::future::ready(if marked { reply.bulk() } else { reply })
            });
            let client = RpcBuilder::new(&net2, a, 10).config(rto_config()).build();
            // The first reply is lost whole; the retransmitted request
            // (102 µs later) finds the slot answered and gets it resent.
            net2.set_link_loss(b, a, Some(1.0));
            let dst = server.addr();
            let call = simcore::spawn(async move { client.call(dst, 1, Bytes::new()).await });
            simcore::sleep(Duration::from_micros(60)).await;
            let first = net2.node_bulk_queue_peak(b);
            net2.set_link_loss(b, a, None);
            net2.reset_stats();
            let reply = call.await.expect("answered by the resend");
            assert_eq!(reply.len(), reply_pkts * 4096);
            (first, net2.node_bulk_queue_peak(b), runs.get())
        });
        let case = format!("marked {marked}, {reply_pkts} packets");
        assert_eq!((first, resent), (queued as u64, queued as u64), "{case}");
        assert_eq!(runs, 1, "{case}");
        assert_eq!(
            net.dropped_loss(),
            0,
            "{case}: only the first reply was lost"
        );
    }
}

/// A retransmitted request that finds its slot answered gets the reply
/// resent once per hand-over, however many packets the request has: the
/// server sends one reply's worth of packets, not one reply per request
/// packet.
#[test]
fn a_retransmitted_multi_packet_request_gets_one_resent_reply() {
    let (request_pkts, reply_pkts) = (3, 2);
    let (sim, net, a, b) = rig();
    let net2 = net.clone();
    let (resent, runs) = sim.block_on(async move {
        let runs = Rc::new(Cell::new(0u32));
        let server = RpcBuilder::new(&net2, b, 10).build();
        let runs2 = runs.clone();
        server.register(1, move |_| {
            runs2.set(runs2.get() + 1);
            std::future::ready(Message::from(Bytes::from(vec![9u8; 4096 + 1])))
        });
        let client = RpcBuilder::new(&net2, a, 10).config(rto_config()).build();
        // The first reply is lost whole; the retransmitted request finds
        // the slot answered.
        net2.set_link_loss(b, a, Some(1.0));
        let dst = server.addr();
        let request = Bytes::from(vec![7u8; 2 * 4096 + 1]);
        let call = simcore::spawn(async move { client.call(dst, 1, request).await });
        simcore::sleep(Duration::from_micros(60)).await;
        assert_eq!(net2.node_rx_packets(b), request_pkts, "one request heard");
        net2.set_link_loss(b, a, None);
        net2.reset_stats();
        call.await.expect("answered by the resend");
        assert_eq!(net2.node_rx_packets(b), request_pkts, "one retransmission");
        (net2.node_tx_packets(b), runs.get())
    });
    assert_eq!(resent, reply_pkts);
    assert_eq!(runs, 1);
}

/// One jitter draw per armed wait, in call order on the endpoint's one
/// stream: eight concurrent calls of three sizes retransmit at the instants
/// their eight watchdogs did.
#[test]
fn jittered_retransmission_instants_match_the_recorded_sequence() {
    let (sim, net, a, b) = rig();
    let heard = sim.block_on(async move {
        let (dst, heard) = silent_peer(&net, b);
        let client = RpcBuilder::new(&net, a, 10)
            .config(RpcConfig {
                rto_max: Duration::from_micros(400),
                max_retries: 3,
                retry_jitter: 0.5,
                ..rto_config()
            })
            .build();
        let mut calls = Vec::new();
        for i in 0..8usize {
            let client = client.clone();
            calls.push(simcore::spawn(async move {
                let req = Bytes::from(vec![7u8; 100 + 5000 * (i % 3)]);
                client.call(dst, 1, req).await
            }));
        }
        for c in calls {
            assert_eq!(c.await, Err(RpcError::Timeout { attempts: 4 }));
        }
        let heard = heard.borrow().clone();
        heard
    });
    #[rustfmt::skip]
    let recorded = [
        (726, 1), (1479, 2), (2098, 3), (2902, 4), (3335, 5), (3954, 6), (4758, 7), (5191, 8),
        (112_177, 2), (140_179, 1), (142_742, 7), (146_397, 4), (149_097, 6), (151_980, 3),
        (154_712, 5), (155_973, 8), (350_668, 2), (350_967, 4), (368_401, 3), (369_205, 1),
        (376_182, 7), (387_157, 8), (393_149, 5), (456_457, 6), (776_987, 4), (827_306, 3),
        (892_524, 7), (925_784, 1), (934_508, 2), (965_925, 5), (979_914, 8), (1_041_060, 6),
    ];
    // Heard at the first packet when recorded: a 5 100 B request's last
    // packet comes 186 ns after it, a 10 100 B one's 691 ns.
    let tail = [0, 186, 691];
    let mut want = recorded.map(|(at, seq)| (at + tail[(seq as usize - 1) % 3], seq));
    want.sort_unstable();
    assert_eq!(heard, want);
}

/// An offline endpoint keeps its retransmission schedule but transmits
/// nothing: the peer hears the transmissions made before the crash only,
/// and the call still ends when its retries run out.
#[test]
fn offline_endpoint_suppresses_its_retransmissions() {
    let (sim, net, a, b) = rig();
    let (heard, r, end) = sim.block_on(async move {
        let (dst, heard) = silent_peer(&net, b);
        let client = RpcBuilder::new(&net, a, 10)
            .config(RpcConfig {
                rto: Duration::from_micros(100),
                rto_per_packet: Duration::ZERO,
                rto_max: Duration::from_micros(100),
                max_retries: 5,
                ..Default::default()
            })
            .build();
        let crashing = client.clone();
        simcore::spawn_detached(async move {
            simcore::sleep(Duration::from_micros(250)).await;
            crashing.set_offline(true);
        });
        let r = client.call(dst, 1, Bytes::from_static(b"x")).await;
        let heard = heard.borrow().clone();
        (heard, r, simcore::now().nanos())
    });
    assert_eq!(r, Err(RpcError::Timeout { attempts: 6 }));
    assert_eq!(heard, [(712, 1), (100_712, 1), (200_712, 1)]);
    assert_eq!(end, 600_000);
}

/// A finished call leaves nothing behind. After 10 000 calls — one at a
/// time, then eight at a time — the endpoint holds no request packet and no
/// retransmission entry, the simulation has the tasks it had before the
/// first call, and the timer queue holds at most the endpoint's one RTO
/// timer (the per-call watchdog left 10 000 of each for 20 ms). Requests are
/// one size per run: only a call due *before* the armed timer re-arms it,
/// and the timer it replaces stays queued until its own deadline.
#[test]
fn ten_thousand_calls_leave_no_packet_entry_task_or_timer_behind() {
    for concurrency in [1usize, 8] {
        let (sim, net, a, b) = rig();
        let sim2 = sim.clone();
        sim.block_on(async move {
            let server = RpcBuilder::new(&net, b, 10).build();
            server.register(1, |ctx| async move { ctx.payload });
            let client = RpcBuilder::new(&net, a, 10).build();
            // The fabric is the executor's event source, not a task: the
            // first datagram spawns nothing, so the baseline is taken before
            // any call.
            let tasks_before = sim2.live_tasks();
            let warm_up = Bytes::from_static(b"warm-up");
            assert_eq!(
                client.call(server.addr(), 1, warm_up.clone()).await,
                Ok(warm_up.into())
            );
            assert_eq!(client.stats().calls_completed.get(), 1);
            let mut workers = Vec::new();
            for w in 0..concurrency {
                let (client, dst) = (client.clone(), server.addr());
                workers.push(simcore::spawn(async move {
                    // One fragment when sequential, two when concurrent.
                    let req = Bytes::from(vec![w as u8; 100 + 512 * concurrency]);
                    for _ in 0..10_000 / concurrency {
                        assert_eq!(
                            client.call(dst, 1, req.clone()).await,
                            Ok(req.clone().into())
                        );
                    }
                }));
            }
            for w in workers {
                w.await;
            }
            assert_eq!(client.stats().calls_completed.get(), 10_001);
            assert_eq!(client.inflight_calls(), 0);
            assert_eq!(sim2.live_tasks(), tasks_before, "concurrency {concurrency}");
            assert!(
                sim2.pending_timers() <= 1,
                "concurrency {concurrency}: {} timers pending",
                sim2.pending_timers()
            );
        });
        assert_eq!(sim.pending_timers(), 0, "the run did not quiesce");
    }
}

/// A datagram in flight is a queue entry in the fabric, not a task: while a
/// 256 KiB call has its 64 fragments on the wire — request, then response —
/// the executor holds the caller and the handler and nothing per packet.
#[test]
fn a_256_kib_call_in_flight_adds_no_task_per_fragment() {
    let (sim, net, a, b) = rig();
    let sim2 = sim.clone();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |ctx| async move {
            // Long enough for the sampler below to catch the handler alive.
            simcore::sleep(Duration::from_micros(5)).await;
            ctx.payload
        });
        let client = RpcBuilder::new(&net, a, 10).build();
        let warm_up = Bytes::from_static(b"warm-up");
        client.call(server.addr(), 1, warm_up).await.unwrap();
        let tasks_before = sim2.live_tasks();

        let sent_before = net.node_tx_packets(a);
        let (caller, dst) = (client.clone(), server.addr());
        let call = simcore::spawn(async move {
            let req = Bytes::from(vec![9u8; 256 << 10]);
            assert_eq!(caller.call(dst, 1, req.clone()).await, Ok(req.into()));
        });
        let mut census = Vec::new();
        while !call.is_finished() {
            simcore::sleep(Duration::from_micros(1)).await;
            census.push(sim2.live_tasks() - tasks_before);
        }
        assert_eq!(net.node_tx_packets(a) - sent_before, 64);
        assert!(census.len() > 50, "sampled {} times", census.len());
        // The caller's task the whole way, the handler's for its 5 µs.
        assert_eq!(census.iter().min(), Some(&0), "{census:?}");
        assert_eq!(census.iter().max(), Some(&2), "{census:?}");
        assert!(
            census[..census.len() - 1].iter().all(|&n| n == 1 || n == 2),
            "{census:?}"
        );
    });
    assert_eq!(sim.pending_timers(), 0, "the run did not quiesce");
}

/// Dropping a call's future mid-flight takes its packets and its
/// retransmission entry with it, and nothing is retransmitted afterwards.
#[test]
fn a_dropped_call_future_leaves_no_entry_and_retransmits_nothing() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let (dst, heard) = silent_peer(&net, b);
        let client = RpcBuilder::new(&net, a, 10).config(rto_config()).build();
        let call = client.call(dst, 1, Bytes::from(vec![7u8; 3 * 4096]));
        let gave_up = simcore::timeout(Duration::from_micros(50), call).await;
        assert!(gave_up.is_err());
        assert_eq!(client.inflight_calls(), 0);
        simcore::sleep(Duration::from_millis(1)).await;
        assert_eq!(heard.borrow().len(), 1, "a dropped call was retransmitted");
        assert_eq!(client.stats().retransmits.get(), 0);
    });
}

/// Interleaved calls from many clients to one server keep request/response
/// pairing intact (no cross-talk between req_nums of different peers).
#[test]
fn many_clients_no_response_crosstalk() {
    let sim = Sim::new();
    let net = Network::new(FabricConfig::default(), 5);
    let server_node = net.add_node("srv", NicConfig::default());
    let client_nodes: Vec<NodeId> = (0..6)
        .map(|i| net.add_node(format!("c{i}"), NicConfig::default()))
        .collect();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, server_node, 10).build();
        server.register(1, |ctx| async move {
            // Echo with a delay inversely related to payload so responses
            // complete out of request order.
            let d = 50u64.saturating_sub(ctx.payload.body[0] as u64);
            simcore::sleep(Duration::from_micros(d)).await;
            ctx.payload
        });
        let mut handles = Vec::new();
        for (ci, &node) in client_nodes.iter().enumerate() {
            let net = net.clone();
            let dst = server.addr();
            handles.push(simcore::spawn(async move {
                let client = RpcBuilder::new(&net, node, 10).build();
                for i in 0..20u8 {
                    let tag = (ci as u8) * 40 + i;
                    let resp = client
                        .call(dst, 1, Bytes::from(vec![tag, 0xAB]))
                        .await
                        .unwrap();
                    assert_eq!(resp, [tag, 0xAB][..], "cross-talk detected");
                }
            }));
        }
        for h in handles {
            h.await;
        }
    });
}

/// A session grows one slot per concurrent call and no further: forty calls
/// at once leave forty answered slots at the server, which forty more calls,
/// one at a time, reuse. Nothing in `rpclib` bounds a session's concurrency.
#[test]
fn session_slots_grow_to_peak_concurrency() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, move |ctx| async move {
            simcore::sleep(Duration::from_micros(20)).await;
            ctx.payload
        });
        let client = RpcBuilder::new(&net, a, 10).build();
        let call = || {
            let (client, dst) = (client.clone(), server.addr());
            async move { client.call(dst, 1, Bytes::from_static(b"x")).await.is_ok() }
        };
        let handles: Vec<_> = (0..40).map(|_| simcore::spawn(call())).collect();
        simcore::sleep(Duration::from_micros(10)).await;
        assert_eq!(server.served_slots().executing, 40);
        for h in handles {
            assert!(h.await);
        }
        assert_eq!(server.served_slots().done, 40);
        for _ in 0..40 {
            assert!(call().await);
        }
        assert_eq!(
            server.served_slots().done,
            40,
            "sequential calls reuse a slot"
        );
    });
}

/// Stats counters reflect what actually happened.
#[test]
fn stats_counters_consistent() {
    let (sim, net, a, b) = rig();
    sim.block_on(async move {
        let server = RpcBuilder::new(&net, b, 10).build();
        server.register(1, |ctx| async move { ctx.payload });
        let client = RpcBuilder::new(&net, a, 10).build();
        for _ in 0..25 {
            client
                .call(server.addr(), 1, Bytes::from_static(b"q"))
                .await
                .unwrap();
        }
        assert_eq!(client.stats().calls_completed.get(), 25);
        assert_eq!(client.stats().timeouts.get(), 0);
        assert_eq!(server.stats().requests_handled.get(), 25);
        // Lossless fabric: no retransmissions.
        assert_eq!(client.stats().retransmits.get(), 0);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The slot rule against an adversarial wire: a raw endpoint plays a
    /// client whose request packets arrive duplicated, reordered and dropped
    /// in an arbitrary interleaving across three slots. Whatever arrives,
    /// no `req_num` runs the handler twice and every response answers the
    /// request it is addressed to; and the table is never wedged — each
    /// slot's newest request, delivered whole at the end, is answered.
    #[test]
    fn arbitrary_packet_interleavings_execute_each_request_at_most_once(
        frags in proptest::collection::vec(1usize..4, 3..10),
        picks in proptest::collection::vec(any::<u32>(), 0..80),
        gap_ns in 0u64..20_000,
    ) {
        const MTU: usize = 16;
        let (sim, net, a, b) = rig();
        // Request i: slot i % 3, sequence i + 1, `frags[i]` fragments, and
        // its own req_num in the first 8 payload bytes.
        let requests: Vec<(u64, Vec<Payload>)> = frags
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let req_num = wire::req_num(i as u64 + 1, (i % 3) as u32);
                let mut body = req_num.to_le_bytes().to_vec();
                body.resize(n * MTU, i as u8);
                let pkts = fragment(Kind::Request, 1, req_num, Bytes::from(body), MTU, None);
                (req_num, pkts.iter().map(|p| Payload::two(p.head.clone(), p.body.clone())).collect())
            })
            .collect();
        let all: Vec<Payload> = requests.iter().flat_map(|(_, p)| p.clone()).collect();
        let mut newest: HashMap<u32, &(u64, Vec<Payload>)> = HashMap::new();
        for r in &requests {
            newest.insert(wire::slot_of(r.0), r); // ascending, so the last wins
        }
        let mut schedule: Vec<Payload> =
            picks.iter().map(|&p| all[p as usize % all.len()].clone()).collect();
        for slot in 0..3 {
            schedule.extend(newest[&slot].1.iter().cloned());
        }

        let net2 = net.clone();
        let (runs, replies) = sim.block_on(async move {
            let runs = Rc::new(RefCell::new(HashMap::<u64, u32>::new()));
            let server = RpcBuilder::new(&net2, b, 10).build();
            let r2 = runs.clone();
            server.register(1, move |ctx| {
                let req_num = u64::from_le_bytes(ctx.payload.body[..8].try_into().unwrap());
                *r2.borrow_mut().entry(req_num).or_default() += 1;
                async move {
                    // Uneven handler times leave duplicates arriving in
                    // every state: receiving, executing and done.
                    simcore::sleep(Duration::from_micros(req_num % 7 * 5)).await;
                    ctx.payload
                }
            });
            let mut client = net2.bind(a, 20);
            for pkt in schedule {
                client.send_to(server.addr(), pkt);
                simcore::sleep(Duration::from_nanos(gap_ns)).await;
            }
            simcore::sleep(Duration::from_millis(1)).await;
            let mut replies = Vec::new();
            while let Some(d) = client.try_recv() {
                replies.push(Header::decode_split(&d.payload.head, &d.payload.body).unwrap());
            }
            let runs = runs.borrow().clone();
            (runs, replies)
        });

        for (req_num, n) in &runs {
            prop_assert!(*n <= 1, "req_num {req_num:#x} ran {n} times");
        }
        let mut answered = HashMap::<u64, u32>::new();
        for (hdr, frag) in &replies {
            prop_assert_eq!(hdr.kind, Kind::Response);
            prop_assert!(runs.contains_key(&hdr.req_num), "reply to a request that never ran");
            if hdr.pkt_idx == 0 {
                let echoed = u64::from_le_bytes(frag.body[..8].try_into().unwrap());
                prop_assert_eq!(echoed, hdr.req_num, "reply carries another request's data");
                *answered.entry(hdr.req_num).or_default() += 1;
            }
        }
        for slot in 0..3 {
            let req_num = newest[&slot].0;
            prop_assert_eq!(runs.get(&req_num), Some(&1), "slot {}'s newest request", slot);
            prop_assert!(answered.contains_key(&req_num), "slot {}'s newest unanswered", slot);
        }
    }
}
