//! Hostile-input tests: malformed DM protocol bodies and raw garbage
//! datagrams must produce error responses (or be ignored), never crash the
//! server, and never corrupt the page pool.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{DmError, DmResult, DmServerId, GlobalPid, Ref};
use dmnet::proto::{req, split_response, Reader, Response, Writer, DM_PORT, OPS};
use dmnet::{start_pool, DmNetClient, DmServerConfig, WalConfig};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::{Message, Rpc, RpcBuilder, RpcConfig};
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

fn parse_response(resp: &Message) -> DmResult<Bytes> {
    split_response(resp).1.map(Message::into_bytes)
}

/// A hostile DM "server" registers every caller as pid 1 and answers every
/// `READ_REF` with a retired status — 7, the redirect code, or 9, the
/// success that carried per-ref versions — followed by itself as the place
/// to go. The client reads either as `Malformed` and goes nowhere.
#[test]
fn the_retired_redirect_status_is_malformed_and_not_followed() {
    for status in [7u8, 9] {
        Sim::new().block_on(async move {
            let net = Network::new(FabricConfig::default(), 3);
            let dm_node = net.add_node("dm", NicConfig::default());
            let c_node = net.add_node("c", NicConfig::default());
            let fake = RpcBuilder::new(&net, dm_node, DM_PORT).build();
            fake.register(req::REGISTER, |_| async {
                Response::new().pid(GlobalPid(1)).ok(0, &[])
            });
            fake.register(req::READ_REF, move |_| async move {
                let flat = Writer::new().u8(status).u64(0).u32(dm_node.0).u16(DM_PORT);
                Message::from(Bytes::from(flat.into_vec()))
            });
            let rpc = RpcBuilder::new(&net, c_node, 100).build();
            let dm = DmNetClient::connect(rpc, vec![fake.addr()]).await.unwrap();
            for key in [5, 1 << 63 | 5] {
                let r = Ref::Net {
                    server: DmServerId(0),
                    key,
                    len: 8,
                };
                let err = dm.read_ref(&r).await.unwrap_err();
                assert_eq!(err, DmError::Malformed, "status {status} key {key:#x}");
            }
            assert_eq!(dm.wire_count(req::READ_REF), 2, "one message per read");
        });
    }
}

/// A death list is applied whole or not at all. A fake DM server fills the
/// client's cache with keys 1 and 2, then answers each `ALLOC` in turn with
/// a list whose `n` runs past the answer, one whose only key is cut short,
/// one cut inside the count, and last a well-formed list of key 1. Each
/// malformed answer is `Malformed` to the caller and drops nothing — not
/// the keys that did fit, not everything as a reset; the well-formed one
/// drops key 1 alone. And a client serves nothing: op 26, the retired
/// invalidation push, goes unanswered.
#[test]
fn a_death_list_that_runs_past_its_answer_is_malformed_and_drops_nothing() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let fake = RpcBuilder::new(&net, dm_node, DM_PORT)
            .config(RpcConfig {
                rto: Duration::from_micros(50),
                max_retries: 1,
                ..RpcConfig::default()
            })
            .build();
        fake.register(req::REGISTER, |_| async {
            Response::new().pid(GlobalPid(1)).ok(0, &[])
        });
        fake.register(req::READ_REF, |ctx| async move {
            let key = Reader::of(&ctx.payload).u64().unwrap();
            Response::new()
                .body(Bytes::from(vec![key as u8; 8]))
                .ok(0, &[])
        });
        let head = |count: u64| Writer::new().u8(10).u64(count);
        let answers = vec![
            head(2).u32(2).u64(1).into_vec(),
            head(1).u32(1).u16(1).into_vec(),
            vec![10, 1, 0, 0],
            Response::new()
                .u64(0x1000)
                .ok(1, &[1])
                .into_bytes()
                .to_vec(),
        ];
        let answers = Rc::new(std::cell::RefCell::new(answers.into_iter()));
        fake.register(req::ALLOC, move |_| {
            let next = answers.borrow_mut().next().expect("one answer per alloc");
            async move { Message::from(Bytes::from(next)) }
        });
        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let dm = DmNetClient::connect_with(rpc.clone(), vec![fake.addr()], true)
            .await
            .unwrap();
        let r = |key| Ref::Net {
            server: DmServerId(0),
            key,
            len: 8,
        };
        for key in [1, 2] {
            assert_eq!(dm.read_ref(&r(key)).await.unwrap()[..], [key as u8; 8]);
        }
        // Which keys a read still finds in the cache.
        let cached = || async {
            let mut hit = Vec::new();
            for key in [1, 2] {
                let wire = dm.wire_count(req::READ_REF);
                dm.read_ref(&r(key)).await.unwrap();
                if dm.wire_count(req::READ_REF) == wire {
                    hit.push(key);
                }
            }
            hit
        };
        for malformed in 0..3 {
            assert_eq!(
                dm.ralloc(8).await.unwrap_err(),
                DmError::Malformed,
                "{malformed}"
            );
            assert_eq!(cached().await, [1, 2], "answer {malformed} dropped a key");
        }
        assert_eq!(dm.ralloc(8).await.unwrap().va, 0x1000);
        assert_eq!(cached().await, [2]);
        let stats = dm.cache_stats();
        assert_eq!((stats.listed(), stats.resets()), (1, 0));

        // The fake still answers reads under count 0, now a late count:
        // key 1 reads from the wire each time and is not cached again.
        assert_eq!(cached().await, [2]);
        let push = fake
            .call(rpc.addr(), 26, Writer::new().u64(2).finish())
            .await;
        assert!(push.is_err(), "a client answered op 26");
        assert_eq!(cached().await, [2]);
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
    let cfg = DmServerConfig {
        capacity_pages: 256,
        ..Default::default()
    };
    registered_to(net, cfg).await
}

/// [`registered`], to a server started with `cfg`.
async fn registered_to(net: &Network, cfg: DmServerConfig) -> (Rc<dmnet::DmServer>, Rc<Rpc>, u32) {
    let dm_node = net.add_node("dm", NicConfig::default());
    let c_node = net.add_node("c", NicConfig::default());
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
/// endpoint. A DM server answers exactly the ops [`OPS`] names — so each
/// of them has had a handler since `DmServer::start` — and stays silent to
/// every other type, the retired ring ops 23–25 and push 26 among them.
#[test]
fn every_request_type_is_answered_or_ignored_as_the_op_table_says() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let (server, rpc, pid) = registered(&net).await;
        assert!(OPS.iter().all(|op| !(23..=26).contains(&op.0)));
        for ty in 0..=u8::MAX {
            let served = OPS.iter().any(|op| op.0 == ty);
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
        let high = Writer::new().u64((1 << 48) + 1);
        let r = raw(&rpc, &server, req::READ_REF, high).await;
        assert_eq!(r, Err(DmError::InvalidRef));
    });
}

/// A key with bit 63 set — what a ring client used to mint — is an unknown
/// key like any other: no op reads the bit, and none of them touches the
/// pool.
#[test]
fn a_key_with_bit_63_set_is_an_ordinary_unknown_key() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let (server, rpc, pid) = registered(&net).await;
        let put = Writer::new().body(Bytes::from_static(b"live"));
        let live = raw(&rpc, &server, req::PUT_REF, put).await.unwrap();
        let key = 1 << 63 | Reader::new(&live).u64().unwrap();
        let ops = [
            (req::MAP_REF, Writer::new().u32(pid).u64(key)),
            (req::READ_REF, Writer::new().u64(key)),
            (req::RELEASE_REF, Writer::new().u64(key)),
        ];
        for (ty, body) in ops {
            let r = raw(&rpc, &server, ty, body).await;
            assert_eq!(r, Err(DmError::InvalidRef), "op {ty}");
        }
        assert_eq!(server.free_pages_total(), 255, "the live ref is untouched");
        assert_still_serving(&rpc, &server, pid).await;
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

/// A `WRITE` that does not fit changes nothing: with one page of a 2-page
/// pool published, a 2-page write is `OutOfMemory` before it faults a page
/// in. The free count and the pages stay as they were, and the log, which
/// keeps only what the server acknowledged, replays to the same pages.
#[test]
fn a_write_that_does_not_fit_changes_nothing() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let cfg = DmServerConfig {
            capacity_pages: 2,
            durability: Some(WalConfig::zero_cost()),
            ..Default::default()
        };
        let (server, rpc, pid) = registered_to(&net, cfg).await;
        let put = Writer::new().body(Bytes::from_static(b"live"));
        raw(&rpc, &server, req::PUT_REF, put)
            .await
            .expect("one page fits");
        let va = raw(&rpc, &server, req::ALLOC, Writer::new().u32(pid).u64(8192)).await;
        let va = Reader::new(&va.unwrap()).u64().unwrap();
        let digest = server.pages_digest();
        assert_eq!(server.free_pages_total(), 1);
        let write = Writer::new()
            .u32(pid)
            .u64(va)
            .body(Bytes::from(vec![7u8; 8192]));
        let r = raw(&rpc, &server, req::WRITE, write).await;
        assert_eq!(r, Err(DmError::OutOfMemory));
        assert_eq!(server.free_pages_total(), 1, "no page was faulted in");
        assert_eq!(server.pages_digest(), digest);
        server.crash();
        server.restart_from_log().await;
        assert_eq!(
            server.pages_digest(),
            digest,
            "the log replays to other pages"
        );
    });
}

/// A checkpoint is restored only if its free FIFO and its used pages cover
/// the pool exactly once and every used page is pinned: a free entry naming
/// the live page would hand it out again. A 4-page pool with one published
/// page snapshots free `[1, 2, 3]`, the last entry at bytes 29..33 (after
/// capacity, copy mode, next pid, next key and the FIFO's length), then one
/// used page whose refcount is at 41..45.
#[test]
fn a_checkpoint_whose_free_fifo_and_used_pages_overlap_or_miss_is_malformed() {
    use dmcommon::CopyMode;
    use dmnet::PageManager;

    let mut pm = PageManager::new(4, CopyMode::CopyOnWrite);
    pm.put_ref(b"live", None).unwrap();
    let snap = pm.snapshot();
    let restored = PageManager::restore_from(&mut Reader::new(&snap)).unwrap();
    restored.check_invariants();
    assert_eq!(restored.state_digest(), pm.state_digest());

    let patched = |at: usize, word: u32| {
        let mut s = snap.clone();
        s[at..at + 4].copy_from_slice(&word.to_le_bytes());
        s
    };
    let mut short = patched(17, 2);
    short.drain(29..33);
    let cases = [
        ("the live page listed free", patched(29, 0)),
        ("page 1 listed twice, page 3 left out", patched(29, 1)),
        ("page 3 left out", short),
        ("a used page at refcount 0", patched(41, 0)),
    ];
    for (what, bad) in cases {
        let r = PageManager::restore_from(&mut Reader::new(&bad));
        assert_eq!(r.err(), Some(DmError::Malformed), "{what}");
    }
}

/// `READ`'s `len` is wire-fed, and a default pool backs a region of 65 536
/// pages: 256 MiB, one byte more than 65 535 packets carry. A reply nobody
/// could frame is refused as out of bounds before a byte of it is built — it
/// must not be zero-filled and then panic the process in `fragment`. The
/// limit is the message less the 9-byte response head, which a death list
/// never shrinks. A `READ_REF` is the key alone, answered with the whole
/// ref: a ref over that region is refused the same way, and an unknown key
/// before a byte is built. A publish too long for its client's MTU is
/// refused on that side of the wire.
#[test]
fn read_of_more_than_a_reply_can_carry_is_out_of_bounds() {
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let cfg = DmServerConfig::default();
        let (server, rpc, pid) = registered_to(&net, cfg).await;
        let whole = cfg.capacity_pages as u64 * 4096;
        let va = raw(&rpc, &server, req::ALLOC, Writer::new().u32(pid).u64(whole)).await;
        let va = Reader::new(&va.expect("the pool backs it")).u64().unwrap();
        let most = (rpclib::wire::max_msg_len(rpc.config().mtu) - 9) as u64;
        for len in [whole, most + 1] {
            let read = Writer::new().u32(pid).u64(va).u64(len);
            let r = raw(&rpc, &server, req::READ, read).await;
            assert_eq!(r, Err(DmError::OutOfBounds), "len {len:#x}");
        }
        // Published beside the wire: a `CREATE_REF` of 65 536 pages outlasts
        // this client's 100 µs of retries.
        let key = server.with_page_manager(|pm| pm.create_ref(GlobalPid(pid), va, whole));
        let key = key.expect("the region is owned").0;
        for (key, refused) in [(key, DmError::OutOfBounds), (u64::MAX, DmError::InvalidRef)] {
            let r = raw(&rpc, &server, req::READ_REF, Writer::new().u64(key)).await;
            assert_eq!(r, Err(refused), "key {key:#x}");
        }
        let (viewed, gathered) = server.with_page_manager(|pm| pm.read_bytes());
        assert_eq!((viewed, gathered), (0, 0), "no reply was built");
        server.with_page_manager(|pm| {
            pm.release_ref(key).unwrap();
            pm.rfree(GlobalPid(pid), va).unwrap();
        });
        assert_still_serving(&rpc, &server, pid).await;
    });
    Sim::new().block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let (server, _, _) = registered_to(&net, DmServerConfig::default()).await;
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
        req::RELEASE_REF | req::READ_REF => (false, &[Key]),
        req::BATCH => (false, &[Key, Key, Key]),
        _ => (true, &[Va, Len, Key]),
    }
}

/// The body of one fuzzed message: `[pid]` (the live one, or forged) then
/// the op's u64 fields drawn from `words`, then `tail`. A `BATCH` is a key
/// list: its count, then keys — the live key, the edges of the u64 space,
/// bit 63 set (a traced key, followed by its context) — which `tail`'s
/// first byte leaves well-formed (0 mod 4, or no tail) or breaks: 1 forges
/// the count, 2 cuts off every context, 3 appends `tail` behind the list.
fn body(ty: u8, live_pid: Option<u32>, words: &[Word], tail: &[u8], live: &Live) -> Message {
    let (has_pid, fields) = layout(ty);
    let (batch, lie) = (ty == req::BATCH, tail.first().map_or(0, |b| b % 4));
    let mut w = Writer::new();
    if batch {
        w = w.u32(if lie == 1 { tail[0].into() } else { 3 });
    }
    if has_pid {
        w = w.u32(live_pid.unwrap_or(0xDEAD));
    }
    for (field, word) in fields.iter().zip(words) {
        let v = match (word, field) {
            (Word::Const(v), _) => *v,
            (Word::Live, Field::Va) => live.va,
            (Word::Live, Field::Len) => live.len,
            (Word::Live, Field::Key) => live.key,
        };
        w = w.u64(v);
        if batch && v >> 63 == 1 && lie != 2 {
            w = w.u64(7).u64(9);
        }
    }
    let flat = !tail.len().is_multiple_of(2);
    let tail = if batch && lie != 3 { &[] } else { tail };
    // Half as this stack's own clients frame it (fields, then the payload
    // attached), half as one flat buffer from somewhere else.
    let msg = w.body(Bytes::copy_from_slice(tail)).finish();
    if flat {
        msg.into_bytes().into()
    } else {
        msg
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
    /// the server serves the next well-formed request. The server is
    /// durable: every request it acknowledged, trailing bytes and edge
    /// lengths included, is what its log holds, and a crash then replays it
    /// to the same pages.
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
            let cfg = DmServerConfig {
                capacity_pages: 256,
                durability: Some(WalConfig::zero_cost()),
                ..Default::default()
            };
            let (server, rpc, pid) = registered_to(&net, cfg).await;
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
            let live = server.pages_digest();
            server.crash();
            server.restart_from_log().await;
            assert_eq!(server.pages_digest(), live, "the log replays to other pages");
        });
    }
}
