//! Hostile-input tests: malformed DM protocol bodies and raw garbage
//! datagrams must produce error responses (or be ignored), never crash the
//! server, and never corrupt the page pool.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{DmError, DmResult, DmServerId, GlobalPid, Ref};
use dmnet::proto::{
    encode_batch, moved_response, req, split_response, Reader, Response, Writer, DM_PORT, OPS,
};
use dmnet::{start_pool, CacheConfig, DmNetClient, DmServerConfig, HashRing, GKEY_BIT};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::{Message, Rpc, RpcBuilder, RpcConfig};
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig, NodeId};

fn parse_response(resp: &Message) -> DmResult<Bytes> {
    split_response(resp).1.result().map(Message::into_bytes)
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
        None,
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
        // Registered at both servers; one gkey-bound ref published at `src`.
        for server in &pool {
            let pid = raw(&rpc, server, req::REGISTER, Writer::new()).await;
            pid.expect("registers anyone");
        }
        let put = Writer::new()
            .u64(GKEY_BIT | 5)
            .body(Bytes::from_static(b"stay put"));
        raw(&rpc, src, req::PUT_REF_AT, put).await.unwrap();
        let untouched = (0, dst.free_pages_total());

        // MIGRATE naming `dst`'s port + 65536: truncation would migrate.
        let body = Writer::new().u64(GKEY_BIT | 5).u32(dm_nodes[1].0);
        let body = body.u32(DM_PORT as u32 + 65_536);
        let refused = raw(&rpc, src, req::MIGRATE, body).await;
        assert_eq!(refused, Err(DmError::Malformed));
        assert_eq!((src.gkeys_bound(), src.tombstones()), (1, 0), "source");
        assert_eq!((dst.gkeys_bound(), dst.free_pages_total()), untouched);

        // MIGRATE_IN attributing the client's port + 65536: truncation
        // would find the registered owner and install the ref.
        let body = Writer::new().u64(GKEY_BIT | 77).u32(c_node.0);
        let body = body.u32(100 + 65_536).body(Bytes::from_static(b"orphan"));
        let refused = raw(&rpc, dst, req::MIGRATE_IN, body).await;
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

/// One server with a 256-page pool and a raw endpoint registered at it.
/// The endpoint gives up on a call after two short RTOs, so a type nobody
/// serves costs microseconds of virtual time. Returns the pid.
async fn registered(net: &Network) -> (Rc<dmnet::DmServer>, Rc<Rpc>, u32) {
    registered_to_pool_of(net, 256).await
}

/// [`registered`], to a server with a `capacity_pages`-page pool.
async fn registered_to_pool_of(
    net: &Network,
    capacity_pages: usize,
) -> (Rc<dmnet::DmServer>, Rc<Rpc>, u32) {
    let dm_node = net.add_node("dm", NicConfig::default());
    let c_node = net.add_node("c", NicConfig::default());
    let cfg = DmServerConfig {
        capacity_pages,
        ..Default::default()
    };
    let server = start_pool(net, &[dm_node], &ModelParams::new(), cfg).remove(0);
    let rpc = RpcBuilder::new(net, c_node, 100)
        .config(RpcConfig {
            rto: Duration::from_micros(50),
            max_retries: 1,
            ..RpcConfig::default()
        })
        .build();
    let pid = raw(&rpc, &server, req::REGISTER, Writer::new()).await;
    let pid = Reader::new(&pid.expect("registers anyone")).u32().unwrap();
    (server, rpc, pid)
}

/// One raw protocol message; `Transport` when nobody answered.
async fn raw(rpc: &Rc<Rpc>, to: &dmnet::DmServer, ty: u8, body: Writer) -> DmResult<Bytes> {
    let resp = rpc.call(to.addr(), ty, body.finish()).await;
    parse_response(&resp.map_err(|_| DmError::Transport)?)
}

/// The server still allocates, stores and loads for `pid`, and its page
/// pool is intact.
async fn assert_still_serving(rpc: &Rc<Rpc>, server: &dmnet::DmServer, pid: u32) {
    let va = raw(rpc, server, req::ALLOC, Writer::new().u32(pid).u64(4096)).await;
    let va = Reader::new(&va.expect("alloc")).u64().unwrap();
    let hello = Writer::new()
        .u32(pid)
        .u64(va)
        .body(Bytes::from_static(b"still alive"));
    raw(rpc, server, req::WRITE, hello).await.expect("write");
    let read = Writer::new().u32(pid).u64(va).u64(11);
    let back = raw(rpc, server, req::READ, read).await.expect("read");
    assert_eq!(&back[..], b"still alive");
    raw(rpc, server, req::FREE, Writer::new().u32(pid).u64(va))
        .await
        .expect("free");
    server.check_invariants_all();
}

/// The type sweep: every `u8`, with an empty body, from a registered
/// endpoint. A DM server answers exactly the ops [`OPS`] names, less the
/// push it sends itself — so each of them has had a handler since
/// `DmServer::start` — and stays silent to every other type.
#[test]
fn every_request_type_is_answered_or_ignored_as_the_op_table_says() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let (server, rpc, pid) = registered(&net).await;
        for ty in 0..=u8::MAX {
            let served = ty != req::INVALIDATE && OPS.iter().any(|op| op.0 == ty);
            let answer = raw(&rpc, &server, ty, Writer::new()).await;
            assert_eq!(answer != Err(DmError::Transport), served, "type {ty}");
        }
        assert_still_serving(&rpc, &server, pid).await;
    });
}

/// A VA or key on the wire is the value the page manager returned: no bit
/// of it is a tag the server reads. `ALLOC(2^48)` then `ALLOC(4096)` is the
/// pair that would run the second region's VA into bits 48..64; the second
/// region must be served like any other.
#[test]
fn alloc_past_2_pow_48_then_alloc_again_serves_the_second_region() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let (server, rpc, pid) = registered(&net).await;
        // No pool backs 2^48 bytes: refused, and nothing is left behind.
        let huge = Writer::new().u32(pid).u64(1 << 48);
        let r = raw(&rpc, &server, req::ALLOC, huge).await;
        assert_still_serving(&rpc, &server, pid).await;
        assert_eq!(r, Err(DmError::OutOfMemory));
        // A VA with high bits set is not a routing failure, only unmapped.
        let high = Writer::new()
            .u32(pid)
            .u64((1 << 48) + 0x1000)
            .body(Bytes::from_static(b"x"));
        let r = raw(&rpc, &server, req::WRITE, high).await;
        assert_eq!(r, Err(DmError::InvalidAddress));
        let high = Writer::new().u64((1 << 48) + 1).u64(0).u64(1);
        let r = raw(&rpc, &server, req::READ_REF, high).await;
        assert_eq!(r, Err(DmError::InvalidRef));
    });
}

/// `CREATE_REF`'s `len` is wire-fed: a `va + len` that wraps past zero is
/// out of bounds — it must not pass the bound and size a page vector from
/// 2^52 pages.
#[test]
fn create_ref_with_len_u64_max_is_out_of_bounds() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let (server, rpc, pid) = registered(&net).await;
        let va = raw(&rpc, &server, req::ALLOC, Writer::new().u32(pid).u64(8192)).await;
        let va = Reader::new(&va.unwrap()).u64().unwrap();
        for len in [u64::MAX, u64::MAX - va + 1, 8193] {
            let body = Writer::new().u32(pid).u64(va).u64(len);
            let r = raw(&rpc, &server, req::CREATE_REF, body).await;
            assert_eq!(r, Err(DmError::OutOfBounds), "len {len:#x}");
        }
        assert_eq!(server.free_pages_total(), 256, "no page was faulted in");
        assert_still_serving(&rpc, &server, pid).await;
    });
}

/// `READ`'s `len` is wire-fed, and a default pool backs a region of 65 536
/// pages: 256 MiB, one byte more than 65 535 packets carry. A reply nobody
/// could frame is refused as out of bounds before a byte of it is built — it
/// must not be zero-filled and then panic the process in `fragment`. A
/// publish too long for its client's MTU is refused on that side of the wire.
#[test]
fn read_of_more_than_a_reply_can_carry_is_out_of_bounds() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let pool = DmServerConfig::default().capacity_pages;
        let (server, rpc, pid) = registered_to_pool_of(&net, pool).await;
        let whole = pool as u64 * 4096;
        let va = raw(&rpc, &server, req::ALLOC, Writer::new().u32(pid).u64(whole)).await;
        let va = Reader::new(&va.expect("the pool backs it")).u64().unwrap();
        let most = (rpclib::wire::max_msg_len(rpc.config().mtu) - 9) as u64;
        for len in [whole, most + 1] {
            let read = Writer::new().u32(pid).u64(va).u64(len);
            let r = raw(&rpc, &server, req::READ, read).await;
            assert_eq!(r, Err(DmError::OutOfBounds), "len {len:#x}");
        }
        let (viewed, gathered) = server.with_page_manager(|pm| pm.read_bytes());
        assert_eq!((viewed, gathered), (0, 0), "no reply was built");
        assert_still_serving(&rpc, &server, pid).await;

        let narrow = RpcConfig {
            mtu: 16,
            ..RpcConfig::default()
        };
        let node = net.add_node("narrow", NicConfig::default());
        let narrow = RpcBuilder::new(&net, node, 100).config(narrow).build();
        let dm = DmNetClient::connect(narrow, vec![server.addr()])
            .await
            .unwrap();
        let most = rpclib::wire::max_msg_len(16);
        let r = dm.put_ref(&Bytes::from(vec![1u8; most + 1])).await;
        assert_eq!(r.unwrap_err(), DmError::OutOfBounds);
        let fits = dm.put_ref(&Bytes::from(vec![1u8; most])).await.unwrap();
        dm.release_ref(&fits).await.unwrap();
        server.check_invariants_all();
    });
}

/// A fuzzed u64: the value the server last handed out for that position (a
/// live VA, key or length), or an edge of the u64 space.
#[derive(Clone, Copy, Debug)]
enum Word {
    Live,
    Const(u64),
}

fn word() -> impl Strategy<Value = Word> {
    prop_oneof![
        Just(Word::Live),
        Just(Word::Live),
        Just(Word::Live),
        Just(Word::Const(0)),
        Just(Word::Const((1 << 48) - 1)),
        Just(Word::Const(1 << 48)),
        Just(Word::Const((1 << 48) + 1)),
        Just(Word::Const(1 << 63)),
        Just(Word::Const(u64::MAX)),
        any::<u64>().prop_map(Word::Const),
        (0u64..3 * 4096).prop_map(Word::Const),
    ]
}

/// What the server handed out so far: a `Live` word takes the field its
/// position in the op's body asks for.
#[derive(Clone, Copy)]
struct Live {
    va: u64,
    len: u64,
    key: u64,
}

/// A u64 field of an op's body: which [`Live`] value fits there.
#[derive(Clone, Copy)]
enum Field {
    Va,
    Len,
    Key,
    Off,
}

/// Whether `ty`'s body starts with a pid, and its u64 fields after that.
/// Types nobody serves get the widest shape.
fn layout(ty: u8) -> (bool, &'static [Field]) {
    use Field::*;
    match ty {
        req::ALLOC => (true, &[Len]),
        req::FREE | req::WRITE => (true, &[Va]),
        req::CREATE_REF | req::READ => (true, &[Va, Len]),
        req::MAP_REF => (true, &[Key]),
        req::RENEW_LEASE => (true, &[]),
        req::PUT_REF => (false, &[]),
        req::RELEASE_REF | req::PUT_REF_AT | req::MIGRATE | req::MIGRATE_IN => (false, &[Key]),
        req::READ_REF => (false, &[Key, Off, Len]),
        _ => (true, &[Va, Len, Key]),
    }
}

/// The body of one fuzzed message: `[pid]` (the live one, or forged) then
/// the op's u64 fields drawn from `words`, then `tail`. A `BATCH` wraps one
/// such message of the type `tail` starts with.
fn body(ty: u8, live_pid: Option<u32>, words: &[Word], tail: &[u8], live: &Live) -> Message {
    if ty == req::BATCH {
        let sub = tail.first().copied().unwrap_or(req::ALLOC);
        if sub != req::BATCH {
            let sub_body = body(sub, live_pid, words, tail, live).into_bytes();
            return encode_batch(&[(sub, sub_body)]).into();
        }
    }
    let (has_pid, fields) = layout(ty);
    let mut w = Writer::new();
    if has_pid {
        w = w.u32(live_pid.unwrap_or(0xDEAD));
    }
    for (field, word) in fields.iter().zip(words) {
        w = w.u64(match (word, field) {
            (Word::Const(v), _) => *v,
            (Word::Live, Field::Va) => live.va,
            (Word::Live, Field::Len) => live.len,
            (Word::Live, Field::Key) => live.key,
            (Word::Live, Field::Off) => 0,
        });
    }
    // Half as this stack's own clients frame it (fields, then the payload
    // attached), half as one flat buffer from somewhere else.
    let msg = w.body(Bytes::copy_from_slice(tail)).finish();
    if tail.len().is_multiple_of(2) {
        msg
    } else {
        msg.into_bytes().into()
    }
}

fn op_type() -> impl Strategy<Value = u8> {
    (0..OPS.len()).prop_map(|i| OPS[i].0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structure-aware fuzz over the whole `u8` type range: bodies shaped
    /// like the op they name, from a registered endpoint, with VAs, keys
    /// and lengths drawn from live values and the edges of the u64 space.
    /// Never a panic, an abort or a hang; the pool's invariants hold and
    /// the server serves the next well-formed request.
    #[test]
    fn fuzz_dm_protocol(
        msgs in proptest::collection::vec(
            (
                // Mostly the types the op table names.
                prop_oneof![op_type(), op_type(), op_type(), any::<u8>()],
                // Mostly the live pid: a forged one dies at `check_owner`.
                prop_oneof![Just(true), Just(true), Just(true), Just(false)],
                (word(), word(), word()),
                proptest::collection::vec(any::<u8>(), 0..64),
            ),
            1..40
        ),
    ) {
        Sim::new().block_on(async move {
            let net = Network::new(FabricConfig::default(), 3);
            let (server, rpc, pid) = registered(&net).await;
            // Something live to aim at from the first message on.
            let va = raw(&rpc, &server, req::ALLOC, Writer::new().u32(pid).u64(8192)).await;
            let key = raw(&rpc, &server, req::PUT_REF, Writer::new().body(Bytes::from_static(b"live"))).await;
            let mut live = Live {
                va: Reader::new(&va.unwrap()).u64().unwrap(),
                len: 8192,
                key: Reader::new(&key.unwrap()).u64().unwrap(),
            };
            for (ty, own_pid, (a, b, c), tail) in msgs {
                let body = body(ty, own_pid.then_some(pid), &[a, b, c], &tail, &live);
                let sent_len = Reader::of(&body.skip(4)).u64();
                // Any response (ok or error) is fine; no panic, no hang.
                let Ok(resp) = rpc.call(server.addr(), ty, body).await else {
                    continue;
                };
                let Ok(resp) = parse_response(&resp) else {
                    continue;
                };
                // Learn what the server handed out.
                let mut r = Reader::new(&resp);
                match ty {
                    req::ALLOC => (live.va, live.len) = (r.u64().unwrap(), sent_len.unwrap()),
                    req::MAP_REF => (live.va, live.len) = (r.u64().unwrap(), r.u64().unwrap()),
                    req::CREATE_REF | req::PUT_REF => live.key = r.u64().unwrap(),
                    _ => {}
                }
            }
            assert_still_serving(&rpc, &server, pid).await;
        });
    }
}
