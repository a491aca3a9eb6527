//! Crash-recovery oracle for the durable DM tier (DESIGN.md §12).
//!
//! Property: a durable server crashed after ANY acknowledged operation
//! and healed through `restart_from_log` rebuilds exactly the
//! acknowledged pre-crash state — zero lost acknowledged puts, zero
//! resurrected frees. The proptest drives a random mutating-op sequence
//! through a cache-off client and crashes the server at EVERY prefix
//! point (recovering in place, so the log also accumulates across
//! recoveries and through compaction checkpoints); a byte-level shadow
//! model tracks what every live region and ref must contain.
//!
//! The deterministic tests cover the log's failure modes: a torn final
//! record (partial append at crash) and a flipped bit anywhere in the
//! tail must both truncate recovery to the last intact record boundary,
//! never corrupt state or resurrect a free.

use bytes::Bytes;
use dmcommon::{DmError, Ref, RemoteAddr};
use dmnet::{DmNetClient, DmServerConfig, WalConfig};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

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
    ]
}

/// Test fixture: one durable single-node server plus a cache-off client
/// (every op is an acknowledged server round trip).
async fn durable_fixture(
    seed: u64,
    durability: WalConfig,
) -> (Network, std::rc::Rc<dmnet::DmServer>, DmNetClient) {
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
    let rpc = RpcBuilder::new(&net, cnode, 100).build();
    let client = DmNetClient::connect(rpc, vec![servers[0].addr()])
        .await
        .expect("fault-free connect");
    (net, servers[0].clone(), client)
}

/// Apply one op to the real system and mirror every acknowledged effect
/// in the shadow model. Typed errors (e.g. pool exhausted) leave the
/// model untouched — an un-acked op has no durability contract.
async fn apply_op(
    client: &DmNetClient,
    op: &Op,
    regions: &mut Vec<ModelRegion>,
    refs: &mut Vec<ModelRef>,
    released: &mut Vec<Ref>,
) {
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
        match client.read_ref(&mr.r, 0, mr.snapshot.len() as u64).await {
            Ok(b) if b[..] == mr.snapshot[..] => {}
            Ok(_) => out.push(format!("ref {i}: snapshot diverged after recovery")),
            Err(e) => out.push(format!("ref {i}: lost after recovery: {e:?}")),
        }
    }
    for (i, r) in released.iter().enumerate() {
        match client.read_ref(r, 0, 1).await {
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
    /// digest-identical memory plane, keep the invalidation epoch
    /// monotone, hold the refcount invariants, and serve every byte the
    /// shadow model predicts.
    #[test]
    fn recovery_at_every_prefix_rebuilds_acknowledged_state(
        ops in proptest::collection::vec(op_strategy(), 1..28),
        seed in 0u64..1_000,
    ) {
        let sim = Sim::new();
        let violations = sim.block_on(async move {
            let (_net, server, client) = durable_fixture(seed, WalConfig::zero_cost()).await;
            let mut regions = Vec::new();
            let mut refs = Vec::new();
            let mut released = Vec::new();
            let mut violations = Vec::new();

            for (n, op) in ops.iter().enumerate() {
                apply_op(&client, op, &mut regions, &mut refs, &mut released).await;

                // Crash at this prefix point and recover in place.
                let pre_digest = server.pages_digest();
                let pre_epoch = server.epoch();
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
                if server.epoch() < pre_epoch {
                    violations.push(format!(
                        "op {n}: invalidation epoch regressed {} -> {}",
                        pre_epoch,
                        server.epoch()
                    ));
                }
                server.check_invariants_all();
                verify_model(&client, &regions, &refs, &released, &mut violations).await;
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
            let (_net, server, client) = durable_fixture(seed, config).await;
            let mut regions = Vec::new();
            let mut refs = Vec::new();
            let mut released = Vec::new();
            let mut violations = Vec::new();
            for op in &ops {
                apply_op(&client, op, &mut regions, &mut refs, &mut released).await;
            }
            let pre_digest = server.pages_digest();
            server.crash();
            server.restart_from_log().await;
            if server.pages_digest() != pre_digest {
                violations.push("recovered digest diverges across compaction".into());
            }
            server.check_invariants_all();
            verify_model(&client, &regions, &refs, &released, &mut violations).await;
            violations
        });
        prop_assert!(violations.is_empty(), "{}", violations.join("\n"));
    }
}

/// Scripted op sequence used by the corruption tests: every record kind
/// lands in the log at a known byte offset.
async fn scripted_history(client: &DmNetClient, server: &dmnet::DmServer) -> (Vec<u64>, Vec<u64>) {
    let wal = server.wal().expect("durable server");
    let mut digests = Vec::new();
    let mut bytes = Vec::new();
    // Baseline: the client's REGISTER is already logged.
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
        let (_net, server, client) = durable_fixture(7, config).await;
        let (digests, bytes) = scripted_history(&client, &server).await;
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
        let (_net, server, client) = durable_fixture(11, config).await;
        let (digests, bytes) = scripted_history(&client, &server).await;
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
        let (_net, server, client) = durable_fixture(13, config).await;
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
