//! Hostile-input tests: malformed DM protocol bodies and raw garbage
//! datagrams must produce error responses (or be ignored), never crash the
//! server, and never corrupt the page pool.

use std::rc::Rc;

use bytes::Bytes;
use dmcommon::{DmError, DmResult, DmServerId, GlobalPid, Ref};
use dmnet::proto::{moved_response, req, split_response, Response, Writer, DM_PORT};
use dmnet::{
    start_pool, CacheConfig, ClientLimitConfig, DmNetClient, DmServerConfig, HashRing, GKEY_BIT,
};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::{Rpc, RpcBuilder};
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig, NodeId};

fn parse_response(resp: &Bytes) -> DmResult<Bytes> {
    split_response(resp).1.result()
}

/// A hostile DM "server": registers every caller as pid 1 and answers
/// every `READ_REF` with a redirect to `fwd_node:DM_PORT`.
fn redirecting_server(net: &Network, node: NodeId, fwd_node: u32) -> Rc<Rpc> {
    let rpc = RpcBuilder::new(net, node, DM_PORT).build();
    rpc.register(req::REGISTER, |_| async {
        Response::new().pid(GlobalPid(1)).ok(0, None)
    });
    rpc.register(req::READ_REF, move |_| async move {
        moved_response(0, fwd_node, DM_PORT)
    });
    rpc
}

/// Connect a raw client (bound to `node:port`) to the one-server pool
/// `fake`, with or without a placement ring.
async fn connect(
    net: &Network,
    (node, port): (NodeId, u16),
    fake: &Rc<Rpc>,
    ring: bool,
) -> DmNetClient {
    DmNetClient::connect_with(
        RpcBuilder::new(net, node, port).build(),
        vec![fake.addr()],
        CacheConfig::default(),
        ClientLimitConfig::default(),
        ring.then(|| HashRing::new(1, 3)),
    )
    .await
    .expect("fake server registers anyone")
}

#[test]
fn redirect_answer_to_an_unrouted_key_is_malformed_not_chased() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        // The redirect names the fake server itself: a client that chased
        // it would loop and send more than one message.
        let fake = redirecting_server(&net, dm_node, dm_node.0);
        // Chasing needs a gkey *and* a ring; neither alone is enough.
        for (port, with_ring, key) in [(100, true, 5u64), (101, false, GKEY_BIT | 5)] {
            let dm = connect(&net, (c_node, port), &fake, with_ring).await;
            let r = Ref::Net {
                server: DmServerId(0),
                key,
                len: 8,
            };
            assert_eq!(
                dm.read_ref(&r, 0, 8).await.unwrap_err(),
                DmError::Malformed,
                "ring {with_ring}, key {key:#x}"
            );
            assert_eq!(dm.wire_count(req::READ_REF), 1, "exactly one message");
            assert_eq!(dm.redirects_chased(), 0);
        }
    });
}

#[test]
fn redirect_outside_the_pool_is_invalid_address_without_looping() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let fake = redirecting_server(&net, dm_node, 9_999);
        let dm = connect(&net, (c_node, 100), &fake, true).await;
        let r = Ref::Net {
            server: DmServerId(0),
            key: GKEY_BIT | 5,
            len: 8,
        };
        assert_eq!(
            dm.read_ref(&r, 0, 8).await.unwrap_err(),
            DmError::InvalidAddress
        );
        assert_eq!(dm.wire_count(req::READ_REF), 1, "no second hop");
        assert_eq!(
            dm.redirects_chased(),
            0,
            "a hop outside the pool is not a chase"
        );
    });
}

#[test]
fn malformed_bodies_get_error_responses() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let pool = start_pool(
            &net,
            &[dm_node],
            &ModelParams::new(),
            DmServerConfig::default(),
        );
        let rpc = RpcBuilder::new(&net, c_node, 100).build();

        // Truncated bodies for every op that requires arguments.
        for ty in [
            req::ALLOC,
            req::FREE,
            req::CREATE_REF,
            req::MAP_REF,
            req::READ,
            req::WRITE,
            req::RELEASE_REF,
            req::READ_REF,
        ] {
            let resp = rpc
                .call(pool[0].addr(), ty, Bytes::from_static(&[1, 2, 3]))
                .await
                .expect("transport ok");
            let err = parse_response(&resp).expect_err("must be a DM error");
            assert!(
                matches!(
                    err,
                    DmError::Malformed | DmError::InvalidAddress | DmError::InvalidRef
                ),
                "op {ty}: unexpected error {err:?}"
            );
        }
        // Bogus pid / addresses.
        let resp = rpc
            .call(pool[0].addr(), req::ALLOC, {
                let mut b = Vec::new();
                b.extend_from_slice(&999_999u32.to_le_bytes());
                b.extend_from_slice(&4096u64.to_le_bytes());
                Bytes::from(b)
            })
            .await
            .unwrap();
        assert!(parse_response(&resp).is_err(), "unknown pid rejected");

        // The server still works afterwards.
        let dm = DmNetClient::connect(rpc, vec![pool[0].addr()])
            .await
            .unwrap();
        let a = dm.ralloc(4096).await.unwrap();
        dm.rwrite(a, &Bytes::from_static(b"still alive"))
            .await
            .unwrap();
        assert_eq!(&dm.rread(a, 11).await.unwrap()[..], b"still alive");
        pool[0].with_page_manager(|pm| pm.check_invariants());
    });
}

/// `MIGRATE` and `MIGRATE_IN` carry ports as `u32`. A value above
/// `u16::MAX` must be refused, not truncated onto a port that exists.
#[test]
fn migrate_port_above_u16_is_malformed_not_truncated() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_nodes = ["dm0", "dm1"].map(|n| net.add_node(n, NicConfig::default()));
        let c_node = net.add_node("c", NicConfig::default());
        let cfg = DmServerConfig::default();
        let pool = start_pool(&net, &dm_nodes, &ModelParams::new(), cfg);
        let (src, dst) = (&pool[0], &pool[1]);
        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let call = |to, ty, body: Writer| {
            let rpc = rpc.clone();
            async move { parse_response(&rpc.call(to, ty, body.finish()).await.unwrap()) }
        };
        // Registered at both servers; one gkey-bound ref published at `src`.
        for server in &pool {
            let pid = call(server.addr(), req::REGISTER, Writer::new()).await;
            pid.expect("registers anyone");
        }
        let put = Writer::new().u64(GKEY_BIT | 5).bytes(b"stay put");
        call(src.addr(), req::PUT_REF_AT, put).await.unwrap();
        let untouched = (0, dst.free_pages_total());

        // MIGRATE naming `dst`'s port + 65536: truncation would migrate.
        let body = Writer::new().u64(GKEY_BIT | 5).u32(dm_nodes[1].0);
        let refused = call(src.addr(), req::MIGRATE, body.u32(DM_PORT as u32 + 65_536)).await;
        assert_eq!(refused, Err(DmError::Malformed));
        assert_eq!((src.gkeys_bound(), src.tombstones()), (1, 0), "source");
        assert_eq!((dst.gkeys_bound(), dst.free_pages_total()), untouched);

        // MIGRATE_IN attributing the client's port + 65536: truncation
        // would find the registered owner and install the ref.
        let body = Writer::new().u64(GKEY_BIT | 77).u32(c_node.0);
        let body = body.u32(100 + 65_536).bytes(b"orphan");
        let refused = call(dst.addr(), req::MIGRATE_IN, body).await;
        assert_eq!(refused, Err(DmError::Malformed));
        assert_eq!((dst.gkeys_bound(), dst.free_pages_total()), untouched);
        dst.with_page_manager(|pm| pm.check_invariants());
    });
}

#[test]
fn raw_garbage_datagrams_are_ignored() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 9);
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let pool = start_pool(
            &net,
            &[dm_node],
            &ModelParams::new(),
            DmServerConfig::default(),
        );

        // Blast raw (non-RPC) datagrams straight at the DM port.
        let ep = net.bind(c_node, 4242);
        let rng = simcore::SimRng::new(5);
        for _ in 0..200 {
            let n = rng.gen_range(64) as usize;
            let mut buf = vec![0u8; n];
            rng.fill_bytes(&mut buf);
            ep.send_to(pool[0].addr(), Bytes::from(buf));
        }
        simcore::sleep(std::time::Duration::from_millis(1)).await;

        // Server is unharmed.
        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let dm = DmNetClient::connect(rpc, vec![pool[0].addr()])
            .await
            .unwrap();
        let a = dm.ralloc(8192).await.unwrap();
        dm.rwrite(a, &Bytes::from(vec![7u8; 8192])).await.unwrap();
        assert_eq!(
            dm.rread(a, 8192).await.unwrap(),
            Bytes::from(vec![7u8; 8192])
        );
    });
}

#[test]
fn pid_forgery_rejected() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm", NicConfig::default());
        let a_node = net.add_node("a", NicConfig::default());
        let b_node = net.add_node("b", NicConfig::default());
        let pool = start_pool(
            &net,
            &[dm_node],
            &ModelParams::new(),
            DmServerConfig::default(),
        );
        let pool_addrs = vec![pool[0].addr()];

        let alice = DmNetClient::connect(
            RpcBuilder::new(&net, a_node, 100).build(),
            pool_addrs.clone(),
        )
        .await
        .unwrap();
        let addr = alice.ralloc(4096).await.unwrap();
        alice
            .rwrite(addr, &Bytes::from_static(b"secret"))
            .await
            .unwrap();

        // Mallory forges Alice's (pid, va) in raw protocol messages from a
        // different endpoint: every pid-bearing op must be rejected.
        let mallory = RpcBuilder::new(&net, b_node, 100).build();
        let forged_read = {
            let mut b = Vec::new();
            b.extend_from_slice(&addr.pid.0.to_le_bytes());
            b.extend_from_slice(&addr.va.to_le_bytes());
            b.extend_from_slice(&6u64.to_le_bytes());
            Bytes::from(b)
        };
        let resp = mallory
            .call(pool[0].addr(), req::READ, forged_read)
            .await
            .unwrap();
        assert!(parse_response(&resp).is_err(), "forged read must fail");
        let forged_free = {
            let mut b = Vec::new();
            b.extend_from_slice(&addr.pid.0.to_le_bytes());
            b.extend_from_slice(&addr.va.to_le_bytes());
            Bytes::from(b)
        };
        let resp = mallory
            .call(pool[0].addr(), req::FREE, forged_free)
            .await
            .unwrap();
        assert!(parse_response(&resp).is_err(), "forged free must fail");

        // Alice is unaffected.
        assert_eq!(&alice.rread(addr, 6).await.unwrap()[..], b"secret");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bodies to arbitrary DM ops never panic the server and
    /// never violate page-pool invariants.
    #[test]
    fn fuzz_dm_protocol(
        msgs in proptest::collection::vec(
            (10u8..=20, proptest::collection::vec(any::<u8>(), 0..64)),
            1..30
        ),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 3);
            let dm_node = net.add_node("dm", NicConfig::default());
            let c_node = net.add_node("c", NicConfig::default());
            let pool = start_pool(
                &net,
                &[dm_node],
                &ModelParams::new(),
                DmServerConfig {
                    capacity_pages: 256,
                    ..Default::default()
                },
            );
            let rpc = RpcBuilder::new(&net, c_node, 100).build();
            for (ty, body) in msgs {
                // Any response (ok or error) is fine; no panic, no hang.
                let _ = rpc.call(pool[0].addr(), ty, Bytes::from(body)).await;
            }
            pool[0].with_page_manager(|pm| pm.check_invariants());
        });
    }
}
