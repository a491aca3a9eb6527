//! Cross-crate integration tests: full deployments of the paper's systems,
//! exercised end-to-end through the public APIs.

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::image_pipeline::{build_pipeline, OP_COMPRESS, OP_TRANSCODE};
use apps::social::build_social;
use bytes::Bytes;
use simcore::Sim;

/// The same request must produce identical application-level results on
/// all three systems — transfer semantics are invisible to correctness.
#[test]
fn three_systems_agree_on_results() {
    let payload = Bytes::from((0..50_000u32).map(|i| (i % 241) as u8).collect::<Vec<_>>());
    let expected: u64 = payload.iter().map(|&b| b as u64).sum();
    for kind in SystemKind::ALL {
        let sim = Sim::new();
        let payload = payload.clone();
        let got = sim.block_on(async move {
            let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 1);
            let app = build_chain(&cluster, 5).await;
            app.request(&payload).await.expect("request")
        });
        assert_eq!(got, expected, "{kind:?}");
    }
}

/// End-to-end data integrity through refs and COW survives packet loss:
/// the RPC layer retransmits, the DM layer is never corrupted.
#[test]
fn chain_survives_packet_loss() {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
        cluster.net.set_loss_probability(0.02);
        let app = build_chain(&cluster, 3).await;
        let payload = Bytes::from(vec![5u8; 20_000]);
        let expected: u64 = 5 * 20_000;
        for i in 0..30 {
            let got = app.request(&payload).await.expect("request under loss");
            assert_eq!(got, expected, "iteration {i}");
        }
        assert!(cluster.net.dropped_loss() > 0, "loss must actually occur");
    });
}

/// The image pipeline transforms images identically on all systems, and
/// the DM pools do not leak pages across requests.
#[test]
fn image_pipeline_correct_and_leak_free() {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 3);
        let app = build_pipeline(&cluster).await;
        let image = Bytes::from((0..16384u32).map(|i| (i % 100) as u8).collect::<Vec<_>>());
        for _ in 0..10 {
            let out = app.request(OP_TRANSCODE, &image).await.expect("transcode");
            assert_eq!(out.len(), image.len());
            let out = app.request(OP_COMPRESS, &image).await.expect("compress");
            assert_eq!(out.len(), image.len() / 2);
        }
        // Drain async releases, then verify page-pool recovery.
        simcore::sleep(std::time::Duration::from_millis(1)).await;
        cluster.dm_servers[0].with_page_manager(|pm| {
            pm.check_invariants();
            assert_eq!(
                pm.free_pages(),
                pm.capacity_pages(),
                "pages leaked across requests"
            );
        });
    });
}

/// The social network behaves identically (content-wise) under eRPC and
/// DmRPC-net, while the data movers' memory traffic differs radically.
#[test]
fn social_network_equivalence_and_mover_traffic() {
    let run = |kind: SystemKind| {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 21);
            let app = build_social(&cluster, 40, 4096, 5).await;
            for u in 0..10 {
                app.compose(u).await.expect("compose");
            }
            let mut total = 0usize;
            for u in 0..10 {
                total += app.read_user(u).await.expect("read_user");
            }
            (total, app.servers[0].mem.traffic_bytes())
        })
    };
    let (erpc_bytes, erpc_mover) = run(SystemKind::Erpc);
    let (dm_bytes, dm_mover) = run(SystemKind::DmNet);
    assert_eq!(erpc_bytes, dm_bytes, "same content served");
    assert_eq!(erpc_bytes, 10 * 4096);
    assert!(
        dm_mover * 10 < erpc_mover,
        "DmRPC movers must be >10x colder: {dm_mover} vs {erpc_mover}"
    );
}

/// The CXL latency knob (Fig. 12 mechanism) slows DmRPC-CXL monotonically.
#[test]
fn cxl_latency_knob_monotone_end_to_end() {
    let mut last = 0u64;
    for lat_ns in [75u64, 265, 400] {
        let sim = Sim::new();
        let elapsed = sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmCxl, 1, ClusterConfig::default(), 4);
            cluster
                .params
                .set_cxl_latency(std::time::Duration::from_nanos(lat_ns));
            let app = build_chain(&cluster, 3).await;
            let payload = Bytes::from(vec![1u8; 32768]);
            app.request(&payload).await.expect("warmup");
            let t0 = simcore::now();
            app.request(&payload).await.expect("request");
            (simcore::now() - t0).as_nanos() as u64
        });
        assert!(
            elapsed > last,
            "latency must grow with CXL latency: {elapsed} after {last}"
        );
        last = elapsed;
    }
}

/// Deterministic replay: identical seeds give bit-identical simulations
/// across full end-to-end deployments.
#[test]
fn full_deployment_is_deterministic() {
    let fingerprint = || {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 7);
            cluster.net.set_loss_probability(0.01);
            let app = build_social(&cluster, 30, 4096, 11).await;
            app.preload(20).await.expect("preload");
            let mut acc = 0usize;
            for _ in 0..20 {
                app.mixed_request().await.expect("mixed");
                acc += 1;
            }
            acc
        });
        (sim.poll_count(), sim.now().nanos())
    };
    assert_eq!(fingerprint(), fingerprint());
}

/// Size-aware transfer: tiny arguments stay inline on every backend and
/// still round-trip correctly.
#[test]
fn small_arguments_ride_inline_everywhere() {
    for kind in SystemKind::ALL {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(kind, 1, ClusterConfig::default(), 8);
            let node = cluster.add_server("c");
            let ep = cluster.endpoint(&node, 100).await;
            let v = ep
                .make_value(Bytes::from_static(b"tiny"))
                .await
                .expect("make_value");
            assert!(!v.is_by_ref(), "{kind:?}");
            assert_eq!(&ep.fetch(&v).await.expect("fetch")[..], b"tiny");
        });
    }
}

/// Host passes per payload byte, publisher to final reader: none. Five
/// services forward a 256 KiB argument and the last one fetches it. On
/// DmRPC-net the bytes it gets are the buffer the client published — the DM
/// server's pages are views of it and `READ_REF` answers with a view of
/// them — and on eRPC the inline argument crosses every hop as the body of
/// its message, so there too the last service reads the client's own
/// buffer. Neither chain flattens a message or gathers a DM read.
#[test]
fn a_large_argument_reaches_the_last_service_uncopied() {
    use std::cell::Cell;
    use std::rc::Rc;

    use dmrpc::Value;

    const REQ: u8 = 1;
    for kind in [SystemKind::DmNet, SystemKind::Erpc] {
        Sim::new().block_on(async move {
            let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 5);
            let mut hops = Vec::new();
            for i in 0..5 {
                let node = cluster.add_server(format!("svc{i}"));
                hops.push(cluster.endpoint(&node, 100).await);
            }
            let fetched_at = Rc::new(Cell::new(std::ptr::null::<u8>()));
            for (i, ep) in hops.iter().enumerate() {
                let next = hops.get(i + 1).map(|e| e.addr());
                let (me, fetched_at) = (ep.clone(), fetched_at.clone());
                ep.rpc().register(REQ, move |ctx| {
                    let (me, fetched_at) = (me.clone(), fetched_at.clone());
                    async move {
                        if let Some(next) = next {
                            return me.rpc().call(next, REQ, ctx.payload).await.expect("hop");
                        }
                        let v = Value::decode(&ctx.payload).expect("a value");
                        let data = me.fetch(&v).await.expect("fetch");
                        fetched_at.set(data.as_ptr());
                        Value::Inline(Bytes::from(vec![data[data.len() - 1]])).encode()
                    }
                });
            }
            let node = cluster.add_server("client");
            let client = cluster.endpoint(&node, 100).await;
            let payload = Bytes::from(
                (0..256 * 1024u32)
                    .map(|i| (i % 239) as u8)
                    .collect::<Vec<_>>(),
            );
            let metrics = cluster.metrics();
            let before = metrics.snapshot();

            let v = client.make_value(payload.clone()).await.expect("publish");
            assert_eq!(v.is_by_ref(), kind == SystemKind::DmNet);
            let reply = client.call(hops[0].addr(), REQ, &v).await.expect("chain");
            assert_eq!(reply, Value::Inline(payload.slice(payload.len() - 1..)));
            assert_eq!(
                fetched_at.get(),
                payload.as_ptr(),
                "{kind:?}: the publisher's buffer"
            );

            let moved = metrics.snapshot().delta(&before);
            assert_eq!(moved.get("rpc.flattened_msgs"), Some(0), "{kind:?}");
            let gathered: u64 = moved
                .iter()
                .filter(|(name, _)| name.ends_with(".read_gathered_bytes"))
                .map(|(_, bytes)| bytes)
                .sum();
            assert_eq!(gathered, 0, "{kind:?}");
            if kind == SystemKind::DmNet {
                let viewed = moved
                    .iter()
                    .filter(|(n, _)| n.ends_with(".read_viewed_bytes"));
                assert_eq!(viewed.map(|(_, b)| b).sum::<u64>(), payload.len() as u64);
                client.release(&v).await.expect("release");
            }
        });
    }
}
