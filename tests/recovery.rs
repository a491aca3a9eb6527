//! Crash-recovery oracle for the durable DM tier (DESIGN.md §12).
//!
//! Property: a durable server crashed after ANY acknowledged operation
//! and healed through `restart_from_log` rebuilds exactly the
//! acknowledged pre-crash state — zero lost acknowledged puts, zero
//! resurrected frees. The proptest drives a random mutating-op sequence
//! through a cache-off client, and batched releases through a cached one
//! (the default release path: its releases reach the log through
//! `BATCH`), and crashes the server at EVERY prefix point (recovering in
//! place, so the log also accumulates across recoveries and through
//! compaction checkpoints); a byte-level shadow model tracks what every
//! live region and ref must contain.
//!
//! The deterministic tests cover the log's failure modes: a torn final
//! record (partial append at crash) and a flipped bit anywhere in the
//! tail must both truncate recovery to the last intact record boundary,
//! never corrupt state or resurrect a free; and a record whose logged
//! result is not what replay answers stops recovery.

use bytes::Bytes;
use dmcommon::{DmError, Ref, RemoteAddr};
use dmnet::proto::{req, Reader, Writer};
use dmnet::{DmNetClient, DmServerConfig, Record, Wal, WalConfig};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{Addr, FabricConfig, Network, NicConfig};

/// A live region in the shadow model: its address, length, and the bytes
/// every post-recovery read must return.
struct ModelRegion {
    addr: RemoteAddr,
    len: u64,
    data: Vec<u8>,
}

/// A live ref in the shadow model: the handle plus the immutable snapshot
/// it must serve after every recovery.
struct ModelRef {
    r: Ref,
    snapshot: Vec<u8>,
}

#[derive(Clone, Debug)]
enum Op {
    Alloc {
        pages: u64,
    },
    Write {
        region: usize,
        off: u64,
        len: usize,
        fill: u8,
    },
    CreateRef {
        region: usize,
    },
    WriteCreateRef {
        region: usize,
        fill: u8,
    },
    MapRef {
        r: usize,
    },
    PutRef {
        len: usize,
        fill: u8,
    },
    Free {
        region: usize,
    },
    ReleaseRef {
        r: usize,
    },
    /// Release up to `n` refs through the cached client's coalescer and
    /// wait for the `BATCH` to land.
    BatchRelease {
        r: usize,
        n: usize,
    },
}

const PS: u64 = dmcommon::PAGE_SIZE as u64;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..4).prop_map(|pages| Op::Alloc { pages }),
        (0usize..8, 0u64..2 * PS, 1usize..1500, any::<u8>()).prop_map(
            |(region, off, len, fill)| Op::Write {
                region,
                off,
                len,
                fill
            }
        ),
        (0usize..8).prop_map(|region| Op::CreateRef { region }),
        (0usize..8, any::<u8>()).prop_map(|(region, fill)| Op::WriteCreateRef { region, fill }),
        (0usize..8).prop_map(|r| Op::MapRef { r }),
        (1usize..2000, any::<u8>()).prop_map(|(len, fill)| Op::PutRef { len, fill }),
        (0usize..8).prop_map(|region| Op::Free { region }),
        (0usize..8).prop_map(|r| Op::ReleaseRef { r }),
        (0usize..8, 1usize..4).prop_map(|(r, n)| Op::BatchRelease { r, n }),
    ]
}

/// The two clients of the fixture: `plain` is cache-off (every op is an
/// acknowledged server round trip), `batcher` is cached, so its releases
/// are queued and sent as one `BATCH`.
struct Clients {
    plain: DmNetClient,
    batcher: DmNetClient,
    /// The batcher's endpoint.
    batcher_at: Addr,
}

/// Test fixture: one durable single-node server plus its [`Clients`].
async fn durable_fixture(
    seed: u64,
    durability: WalConfig,
) -> (Network, std::rc::Rc<dmnet::DmServer>, Clients) {
    let net = Network::new(FabricConfig::default(), seed);
    let params = ModelParams::new();
    let dm_node = net.add_node("dm0", NicConfig::default());
    let servers = dmnet::start_pool(
        &net,
        &[dm_node],
        &params,
        DmServerConfig {
            capacity_pages: 512,
            lease_ttl: None,
            durability: Some(durability),
            ..Default::default()
        },
    );
    let cnode = net.add_node("client", NicConfig::default());
    let pool = vec![servers[0].addr()];
    let rpc = RpcBuilder::new(&net, cnode, 100).build();
    let plain = DmNetClient::connect(rpc, pool.clone())
        .await
        .expect("fault-free connect");
    let rpc = RpcBuilder::new(&net, cnode, 101).build();
    let batcher_at = rpc.addr();
    let batcher = DmNetClient::connect_with(rpc, pool, true)
        .await
        .expect("fault-free connect");
    let clients = Clients {
        plain,
        batcher,
        batcher_at,
    };
    (net, servers[0].clone(), clients)
}

/// Release `refs` through the cached client and wait until the `BATCH`
/// carrying them has been answered: a queued release is not acknowledged.
async fn release_batched(clients: &Clients, refs: &[Ref]) {
    for r in refs {
        clients.batcher.release_ref(r).await.expect("a net ref");
    }
    clients.batcher.flush_cache().await;
}

/// Apply one op to the real system and mirror every acknowledged effect
/// in the shadow model. Typed errors (e.g. pool exhausted) leave the
/// model untouched — an un-acked op has no durability contract.
async fn apply_op(
    clients: &Clients,
    op: &Op,
    regions: &mut Vec<ModelRegion>,
    refs: &mut Vec<ModelRef>,
    released: &mut Vec<Ref>,
) {
    let client = &clients.plain;
    match *op {
        Op::Alloc { pages } => {
            if let Ok(addr) = client.ralloc(pages * PS).await {
                regions.push(ModelRegion {
                    addr,
                    len: pages * PS,
                    data: vec![0u8; (pages * PS) as usize],
                });
            }
        }
        Op::Write {
            region,
            off,
            len,
            fill,
        } => {
            if regions.is_empty() {
                return;
            }
            let idx = region % regions.len();
            let r = &mut regions[idx];
            if off + len as u64 > r.len {
                return;
            }
            let at = RemoteAddr {
                va: r.addr.va + off,
                ..r.addr
            };
            client
                .rwrite(at, &Bytes::from(vec![fill; len]))
                .await
                .expect("in-bounds write");
            r.data[off as usize..off as usize + len].fill(fill);
        }
        Op::CreateRef { region } => {
            if regions.is_empty() {
                return;
            }
            let r = &regions[region % regions.len()];
            if let Ok(handle) = client.create_ref(r.addr, r.len).await {
                refs.push(ModelRef {
                    r: handle,
                    snapshot: r.data.clone(),
                });
            }
        }
        Op::WriteCreateRef { region, fill } => {
            if regions.is_empty() {
                return;
            }
            let idx = region % regions.len();
            let r = &mut regions[idx];
            let data = vec![fill; r.len as usize];
            client
                .rwrite(r.addr, &Bytes::from(data.clone()))
                .await
                .expect("in-bounds write");
            r.data = data.clone();
            if let Ok(handle) = client.create_ref(r.addr, r.len).await {
                refs.push(ModelRef {
                    r: handle,
                    snapshot: data,
                });
            }
        }
        Op::MapRef { r } => {
            if refs.is_empty() {
                return;
            }
            let mr = &refs[r % refs.len()];
            let snapshot = mr.snapshot.clone();
            if let Ok(addr) = client.map_ref(&mr.r).await {
                regions.push(ModelRegion {
                    addr,
                    len: snapshot.len() as u64,
                    data: snapshot,
                });
            }
        }
        Op::PutRef { len, fill } => {
            let data = vec![fill; len];
            if let Ok(handle) = client.put_ref(&Bytes::from(data.clone())).await {
                refs.push(ModelRef {
                    r: handle,
                    snapshot: data,
                });
            }
        }
        Op::Free { region } => {
            if regions.is_empty() {
                return;
            }
            let idx = region % regions.len();
            let r = regions.remove(idx);
            client.rfree(r.addr).await.expect("free of live region");
        }
        Op::ReleaseRef { r } => {
            if refs.is_empty() {
                return;
            }
            let idx = r % refs.len();
            let mr = refs.remove(idx);
            client
                .release_ref(&mr.r)
                .await
                .expect("release of live ref");
            released.push(mr.r);
        }
        Op::BatchRelease { r, n } => {
            let mut batch = Vec::new();
            for _ in 0..n.min(refs.len()) {
                batch.push(refs.remove(r % refs.len()).r);
            }
            release_batched(clients, &batch).await;
            released.extend(batch);
        }
    }
}

/// Verify the recovered server against the shadow model through the
/// client: live regions and refs read back byte-exact, released refs
/// stay dead. Returns violations instead of panicking so proptest can
/// shrink the op sequence.
async fn verify_model(
    client: &DmNetClient,
    regions: &[ModelRegion],
    refs: &[ModelRef],
    released: &[Ref],
    out: &mut Vec<String>,
) {
    for (i, r) in regions.iter().enumerate() {
        match client.rread(r.addr, r.len).await {
            Ok(b) if b[..] == r.data[..] => {}
            Ok(_) => out.push(format!("region {i}: bytes diverged after recovery")),
            Err(e) => out.push(format!("region {i}: lost after recovery: {e:?}")),
        }
    }
    for (i, mr) in refs.iter().enumerate() {
        match client.read_ref(&mr.r).await {
            Ok(b) if b[..] == mr.snapshot[..] => {}
            Ok(_) => out.push(format!("ref {i}: snapshot diverged after recovery")),
            Err(e) => out.push(format!("ref {i}: lost after recovery: {e:?}")),
        }
    }
    for (i, r) in released.iter().enumerate() {
        match client.read_ref(r).await {
            Err(DmError::InvalidRef) => {}
            other => out.push(format!(
                "released ref {i} resurrected by recovery: {other:?}"
            )),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant, exhaustively: crash + recover after EVERY
    /// acknowledged op in a random sequence. Each recovery must rebuild a
    /// digest-identical memory plane, count one more incarnation than the
    /// crash before it (so every client drops what it cached from the
    /// server), hold the refcount invariants, and serve every byte the
    /// shadow model predicts.
    #[test]
    fn recovery_at_every_prefix_rebuilds_acknowledged_state(
        ops in proptest::collection::vec(op_strategy(), 1..28),
        seed in 0u64..1_000,
    ) {
        let sim = Sim::new();
        let violations = sim.block_on(async move {
            let (_net, server, clients) = durable_fixture(seed, WalConfig::zero_cost()).await;
            let mut regions = Vec::new();
            let mut refs = Vec::new();
            let mut released = Vec::new();
            let mut violations = Vec::new();

            for (n, op) in ops.iter().enumerate() {
                apply_op(&clients, op, &mut regions, &mut refs, &mut released).await;

                // Crash at this prefix point and recover in place.
                let pre_digest = server.pages_digest();
                let pre_incarnation = server.incarnation();
                server.crash();
                let report = server.restart_from_log().await;
                if report.torn_tail {
                    violations.push(format!("op {n}: torn tail in an uncorrupted log"));
                }
                if server.pages_digest() != pre_digest {
                    violations.push(format!(
                        "op {n} ({op:?}): recovered digest diverges from acknowledged state"
                    ));
                }
                if server.incarnation() != pre_incarnation + 1 {
                    violations.push(format!(
                        "op {n}: incarnation {} -> {} across one restart",
                        pre_incarnation,
                        server.incarnation()
                    ));
                }
                server.check_invariants_all();
                verify_model(&clients.plain, &regions, &refs, &released, &mut violations).await;
                if !violations.is_empty() {
                    break;
                }
            }
            violations
        });
        prop_assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    /// Compaction transparency: with an aggressive compaction threshold
    /// the same property holds while the log repeatedly collapses into
    /// checkpoint records mid-sequence.
    #[test]
    fn recovery_survives_aggressive_compaction(
        ops in proptest::collection::vec(op_strategy(), 1..28),
        seed in 0u64..1_000,
    ) {
        let config = WalConfig {
            compact_threshold_bytes: 2048,
            ..WalConfig::zero_cost()
        };
        let sim = Sim::new();
        let violations = sim.block_on(async move {
            let (_net, server, clients) = durable_fixture(seed, config).await;
            let mut regions = Vec::new();
            let mut refs = Vec::new();
            let mut released = Vec::new();
            let mut violations = Vec::new();
            for op in &ops {
                apply_op(&clients, op, &mut regions, &mut refs, &mut released).await;
            }
            let pre_digest = server.pages_digest();
            server.crash();
            server.restart_from_log().await;
            if server.pages_digest() != pre_digest {
                violations.push("recovered digest diverges across compaction".into());
            }
            server.check_invariants_all();
            verify_model(&clients.plain, &regions, &refs, &released, &mut violations).await;
            violations
        });
        prop_assert!(violations.is_empty(), "{}", violations.join("\n"));
    }
}

/// Scripted op sequence used by the corruption tests: every mutating op,
/// a batched release of two refs last, lands in the log at a known byte
/// offset.
async fn scripted_history(clients: &Clients, server: &dmnet::DmServer) -> (Vec<u64>, Vec<u64>) {
    let client = &clients.plain;
    let wal = server.wal().expect("durable server");
    let mut digests = Vec::new();
    let mut bytes = Vec::new();
    // Baseline: the clients' REGISTERs are already logged.
    digests.push(server.pages_digest());
    bytes.push(wal.log_bytes());
    let a = client.ralloc(2 * PS).await.unwrap();
    let mut record = |server: &dmnet::DmServer| {
        digests.push(server.pages_digest());
        bytes.push(server.wal().unwrap().log_bytes());
    };
    record(server);
    client
        .rwrite(a, &Bytes::from(vec![0x11; 64]))
        .await
        .unwrap();
    record(server);
    let r1 = client.create_ref(a, 2 * PS).await.unwrap();
    record(server);
    let _m = client.map_ref(&r1).await.unwrap();
    record(server);
    let r2 = client.put_ref(&Bytes::from(vec![0x22; 300])).await.unwrap();
    record(server);
    client.release_ref(&r2).await.unwrap();
    record(server);
    let b = client.ralloc(PS).await.unwrap();
    record(server);
    client.rfree(b).await.unwrap();
    record(server);
    let mut refs = Vec::new();
    for fill in [0x33, 0x44] {
        refs.push(client.put_ref(&Bytes::from(vec![fill; 100])).await.unwrap());
    }
    record(server);
    release_batched(clients, &refs).await;
    record(server);
    (digests, bytes)
}

/// A torn final record — the crash hit mid-append — must truncate
/// recovery to exactly the previous acknowledged state, at every prefix
/// boundary of a real op history.
#[test]
fn torn_tail_recovers_to_previous_acknowledged_state() {
    let sim = Sim::new();
    sim.block_on(async move {
        // Compaction off so recorded byte offsets stay valid.
        let config = WalConfig {
            compact_threshold_bytes: 0,
            ..WalConfig::zero_cost()
        };
        let (_net, server, clients) = durable_fixture(7, config).await;
        let (digests, bytes) = scripted_history(&clients, &server).await;
        let full = server.wal().unwrap().raw();
        for (n, (&digest_n, w)) in digests.iter().zip(bytes.windows(2)).enumerate() {
            let (start, end) = (w[0], w[1]);
            assert!(end > start, "op {n} logged no record");
            // Tear the next op's first record: 7 bytes is inside its
            // frame header, so the tail is structurally torn.
            let torn = full[..(start + 7).min(end) as usize].to_vec();
            server.wal().unwrap().set_raw(torn);
            server.crash();
            let report = server.restart_from_log().await;
            assert!(report.torn_tail, "op {n}: torn tail not detected");
            assert_eq!(
                server.pages_digest(),
                digest_n,
                "op {n}: torn-tail recovery diverged from acknowledged prefix"
            );
            server.check_invariants_all();
        }
        // Restore the intact log: full recovery still works afterwards.
        server.wal().unwrap().set_raw(full);
        server.crash();
        let report = server.restart_from_log().await;
        assert!(!report.torn_tail);
        assert_eq!(server.pages_digest(), *digests.last().unwrap());
    });
}

/// A flipped bit anywhere in the tail (media corruption) fails the CRC
/// and truncates recovery to the last intact record boundary — corrupt
/// bytes are never replayed into the memory plane.
#[test]
fn bit_flip_truncates_recovery_at_corruption_point() {
    let sim = Sim::new();
    sim.block_on(async move {
        let config = WalConfig {
            compact_threshold_bytes: 0,
            ..WalConfig::zero_cost()
        };
        let (_net, server, clients) = durable_fixture(11, config).await;
        let (digests, bytes) = scripted_history(&clients, &server).await;
        let full = server.wal().unwrap().raw();
        for (n, (&digest_n, w)) in digests.iter().zip(bytes.windows(2)).enumerate() {
            let start = w[0] as usize;
            // Flip one payload bit inside the next op's first record.
            let mut flipped = full.clone();
            flipped[start + 17] ^= 0x40;
            server.wal().unwrap().set_raw(flipped);
            server.crash();
            let report = server.restart_from_log().await;
            assert!(report.torn_tail, "op {n}: bit flip not detected");
            assert_eq!(
                server.pages_digest(),
                digest_n,
                "op {n}: recovery replayed past a corrupt record"
            );
            server.check_invariants_all();
        }
        let _ = digests;
    });
}

/// The repaired log stays append-able: after a torn-tail recovery, new
/// acknowledged ops land on the truncated log and the NEXT recovery
/// includes them (the crash-during-recovery story composes).
#[test]
fn recovery_after_repair_accepts_new_ops() {
    let sim = Sim::new();
    sim.block_on(async move {
        let config = WalConfig {
            compact_threshold_bytes: 0,
            ..WalConfig::zero_cost()
        };
        let (_net, server, clients) = durable_fixture(13, config).await;
        let client = &clients.plain;
        client.ralloc(PS).await.unwrap();
        let full = server.wal().unwrap().raw();
        // Tear mid-way through the ALLOC record.
        server
            .wal()
            .unwrap()
            .set_raw(full[..full.len() - 5].to_vec());
        server.crash();
        let report = server.restart_from_log().await;
        assert!(report.torn_tail);
        // The alloc was torn out; the client's lost region is gone, and
        // new ops must succeed on the repaired log.
        let a2 = client.ralloc(PS).await.unwrap();
        client
            .rwrite(a2, &Bytes::from(vec![0x33; 16]))
            .await
            .unwrap();
        let pre = server.pages_digest();
        server.crash();
        let report = server.restart_from_log().await;
        assert!(!report.torn_tail, "repaired log reported torn again");
        assert_eq!(server.pages_digest(), pre);
        assert_eq!(&client.rread(a2, 16).await.unwrap()[..], &[0x33; 16][..]);
    });
}

/// A `BATCH` is logged key by key, as the `RELEASE_REF` each key runs as,
/// and a crash after it replays every release.
#[test]
fn a_batched_release_is_logged_and_replayed_as_its_release_refs() {
    let sim = Sim::new();
    sim.block_on(async move {
        let (_net, server, clients) = durable_fixture(17, WalConfig::zero_cost()).await;
        let mut refs = Vec::new();
        for fill in 1..=3u8 {
            let data = Bytes::from(vec![fill; 5000]);
            refs.push(clients.plain.put_ref(&data).await.unwrap());
        }
        let wal = server.wal().unwrap();
        let before = wal.scan().records.len();
        release_batched(&clients, &refs).await;
        let logged: Vec<Record> = wal.scan().records.split_off(before);
        let released: Vec<Record> = refs
            .iter()
            .map(|r| {
                let Ref::Net { key, .. } = r else {
                    unreachable!("a net ref")
                };
                Record::Op {
                    ty: req::RELEASE_REF,
                    src: clients.batcher_at,
                    request: Writer::new().u64(*key).finish(),
                    response: Writer::new().finish(),
                }
            })
            .collect();
        assert_eq!(logged, released);
        let live = server.pages_digest();
        server.crash();
        server.restart_from_log().await;
        assert_eq!(server.pages_digest(), live);
        for r in &refs {
            assert_eq!(clients.plain.read_ref(r).await, Err(DmError::InvalidRef));
        }
    });
}

/// Replay answers every logged op again and checks the answer against
/// the logged one: a log whose `ALLOC` claims another VA than the one the
/// page manager hands out again stops recovery at that record.
#[test]
#[should_panic(expected = "replay: dm.alloc diverged")]
fn a_logged_result_that_replay_does_not_reproduce_stops_recovery() {
    let sim = Sim::new();
    sim.block_on(async move {
        let config = WalConfig {
            compact_threshold_bytes: 0,
            ..WalConfig::zero_cost()
        };
        let (_net, server, clients) = durable_fixture(19, config).await;
        clients.plain.ralloc(PS).await.unwrap();
        // The same log, but the ALLOC's logged VA is one page off.
        let wal = server.wal().unwrap();
        let forged = Wal::new("forged", config);
        for mut rec in wal.scan().records {
            if let Record::Op {
                ty: req::ALLOC,
                response,
                ..
            } = &mut rec
            {
                let va = Reader::of(response).u64().unwrap();
                *response = Writer::new().u64(va + PS).finish();
            }
            forged.push(&rec);
        }
        wal.set_raw(forged.raw());
        server.crash();
        server.restart_from_log().await;
    });
}
