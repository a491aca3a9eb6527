//! Cache-coherence oracle (ISSUE 3 satellite).
//!
//! Runs random interleavings of `put_ref` / `read_ref` / COW writes /
//! `rfree` / `release_ref` against two clients in one simulation: one with
//! the DESIGN.md §9 cache + coalescer all-on, one raw. Each client talks
//! to its own (identical) DM server, so their server-side states evolve
//! independently from the same operation sequence. After every operation
//! the two clients must return identical bytes (and agree with a plain
//! `Vec<u8>` model); after a final [`DmNetClient::flush_cache`] both
//! servers must reach the same fully-reclaimed state.

use std::rc::Rc;

use bytes::Bytes;
use dmcommon::Ref;
use dmnet::{start_pool, CacheConfig, CoherenceConfig, DmNetClient, DmServerConfig};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::{Rpc, RpcBuilder};
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig, NodeId};

#[derive(Clone, Debug)]
enum Op {
    /// Publish a fresh ref of `len+1` bytes filled with `fill`.
    Put { len: u16, fill: u8 },
    /// Read a sub-range of a live ref on both clients.
    ReadRef { slot: u8, off: u16, len: u16 },
    /// Map a live ref, COW-write through the mapping, read it back, free.
    CowWrite { slot: u8, fill: u8 },
    /// Map a live ref, read the snapshot, free the mapping (repeats of
    /// this hit the cached client's memoized mapping).
    MapReadFree { slot: u8 },
    /// Release a live ref on both clients.
    Release { slot: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(len, fill)| Op::Put { len, fill }),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(slot, off, len)| Op::ReadRef {
            slot,
            off,
            len
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(slot, fill)| Op::CowWrite { slot, fill }),
        any::<u8>().prop_map(|slot| Op::MapReadFree { slot }),
        any::<u8>().prop_map(|slot| Op::Release { slot }),
    ]
}

/// One tracked ref: the raw client's handle, the cached client's handle,
/// and the immutable bytes both must serve while it is alive.
type Slot = Option<(Ref, Ref, Vec<u8>)>;

/// Pick a live slot near `slot`, scanning forward with wraparound.
fn live_slot(refs: &[Slot], slot: u8) -> Option<usize> {
    if refs.is_empty() {
        return None;
    }
    let start = slot as usize % refs.len();
    (0..refs.len())
        .map(|d| (start + d) % refs.len())
        .find(|&i| refs[i].is_some())
}

fn client_rpc(net: &Network, node: NodeId, port: u16) -> Rc<Rpc> {
    RpcBuilder::new(net, node, port).build()
}

proptest! {
    #[test]
    fn cached_client_is_coherent_with_uncached(
        ops in proptest::collection::vec(op_strategy(), 1..48)
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 17);
            let params = ModelParams::new();
            let dm_a = net.add_node("dm-raw", NicConfig::default());
            let dm_b = net.add_node("dm-cached", NicConfig::default());
            let c_a = net.add_node("c-raw", NicConfig::default());
            let c_b = net.add_node("c-cached", NicConfig::default());
            let servers = start_pool(&net, &[dm_a, dm_b], &params, DmServerConfig::default());
            let raw = DmNetClient::connect(client_rpc(&net, c_a, 100), vec![servers[0].addr()])
                .await
                .unwrap();
            let cached = DmNetClient::connect_with(
                client_rpc(&net, c_b, 100),
                vec![servers[1].addr()],
                CacheConfig::all_on(),
                None,
                None,
            )
            .await
            .unwrap();

            let mut refs: Vec<Slot> = Vec::new();
            for op in ops {
                match op {
                    Op::Put { len, fill } => {
                        let len = len as usize % 12288 + 1;
                        let data = Bytes::from(vec![fill; len]);
                        let r1 = raw.put_ref(&data).await.unwrap();
                        let r2 = cached.put_ref(&data).await.unwrap();
                        refs.push(Some((r1, r2, data.to_vec())));
                    }
                    Op::ReadRef { slot, off, len } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].as_ref().unwrap();
                        let total = data.len() as u64;
                        let off = off as u64 % total;
                        let len = (len as u64 % (total - off)) + 1;
                        let a = raw.read_ref(r1, off, len).await.unwrap();
                        let b = cached.read_ref(r2, off, len).await.unwrap();
                        assert_eq!(a, b, "cached bytes diverge from uncached");
                        assert_eq!(
                            &a[..],
                            &data[off as usize..(off + len) as usize],
                            "bytes diverge from the model"
                        );
                    }
                    Op::CowWrite { slot, fill } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].as_ref().unwrap();
                        let m1 = raw.map_ref(r1).await.unwrap();
                        let m2 = cached.map_ref(r2).await.unwrap();
                        let patch = Bytes::from(vec![fill; 64.min(data.len())]);
                        raw.rwrite(m1, &patch).await.unwrap();
                        cached.rwrite(m2, &patch).await.unwrap();
                        let a = raw.rread(m1, patch.len() as u64).await.unwrap();
                        let b = cached.rread(m2, patch.len() as u64).await.unwrap();
                        assert_eq!(a, b, "COW mapping bytes diverge");
                        assert_eq!(a, patch);
                        // The write went to a private copy: the ref's
                        // snapshot is untouched on both systems.
                        let probe = 8.min(data.len() as u64);
                        let s1 = raw.read_ref(r1, 0, probe).await.unwrap();
                        let s2 = cached.read_ref(r2, 0, probe).await.unwrap();
                        assert_eq!(s1, s2, "ref snapshot diverges after COW");
                        assert_eq!(&s1[..], &data[..probe as usize]);
                        raw.rfree(m1).await.unwrap();
                        cached.rfree(m2).await.unwrap();
                    }
                    Op::MapReadFree { slot } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].as_ref().unwrap();
                        let m1 = raw.map_ref(r1).await.unwrap();
                        let m2 = cached.map_ref(r2).await.unwrap();
                        let a = raw.rread(m1, data.len() as u64).await.unwrap();
                        let b = cached.rread(m2, data.len() as u64).await.unwrap();
                        assert_eq!(a, b, "mapped bytes diverge");
                        assert_eq!(&a[..], &data[..]);
                        raw.rfree(m1).await.unwrap();
                        cached.rfree(m2).await.unwrap();
                    }
                    Op::Release { slot } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, _) = refs[i].take().unwrap();
                        raw.release_ref(&r1).await.unwrap();
                        cached.release_ref(&r2).await.unwrap();
                    }
                }
            }

            // Graceful teardown: release everything still live, surface
            // the cached client's hidden state, and require both servers
            // to converge to the same fully-reclaimed condition.
            for s in refs.iter_mut() {
                if let Some((r1, r2, _)) = s.take() {
                    raw.release_ref(&r1).await.unwrap();
                    cached.release_ref(&r2).await.unwrap();
                }
            }
            cached.flush_cache().await;
            for s in &servers {
                s.with_page_manager(|pm| pm.check_invariants());
            }
            let raw_free = servers[0].free_pages_total();
            let cached_free = servers[1].free_pages_total();
            assert_eq!(raw_free, cached_free, "final server states diverge");
            assert_eq!(
                cached_free,
                servers[1].capacity_pages_total(),
                "cached client leaked pages"
            );
        });
    }
}

/// Operations for the fine-grained (per-ref version + read lease) oracle:
/// the cached plane additionally has a second *writer* client whose
/// mutations reach the reader only through targeted invalidation pushes,
/// and a chaos op that loses those pushes on the wire.
#[derive(Clone, Debug)]
enum FgOp {
    Put {
        len: u16,
        fill: u8,
    },
    ReadRef {
        slot: u8,
        off: u16,
        len: u16,
    },
    /// The *writer* client maps a live ref on the coherent plane and
    /// COW-writes through the mapping (the raw plane mirrors it); the
    /// reader's cached snapshot must stay on the model bytes.
    WriterCow {
        slot: u8,
        fill: u8,
    },
    Release {
        slot: u8,
    },
    /// The reader is partitioned while the writer releases the ref, so the
    /// targeted invalidation push is lost. The ref becomes a zombie: its
    /// final bytes are recorded for the safety assertion.
    ChaosRelease {
        slot: u8,
    },
    /// Read a zombie ref on the reader. Allowed outcomes: the recorded
    /// final bytes (a lease-bounded stale serve) or an error — anything
    /// else means a lost invalidation served diverged bytes.
    ZombieRead {
        slot: u8,
        off: u16,
        len: u16,
    },
}

fn fg_op_strategy() -> impl Strategy<Value = FgOp> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(len, fill)| FgOp::Put { len, fill }),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(slot, off, len)| FgOp::ReadRef {
            slot,
            off,
            len
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(slot, fill)| FgOp::WriterCow { slot, fill }),
        any::<u8>().prop_map(|slot| FgOp::Release { slot }),
        any::<u8>().prop_map(|slot| FgOp::ChaosRelease { slot }),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(slot, off, len)| FgOp::ZombieRead {
            slot,
            off,
            len
        }),
    ]
}

proptest! {
    /// ISSUE 10 satellite: the fine-grained client stays coherent with an
    /// uncached client under interleaved multi-client writes, and a lost
    /// targeted invalidation can never make it serve diverged bytes —
    /// only the dead ref's final (immutable) bytes, until its read lease
    /// runs out.
    #[test]
    fn fine_grained_client_is_coherent_under_multi_client_writes(
        ops in proptest::collection::vec(fg_op_strategy(), 1..40)
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 23);
            let params = ModelParams::new();
            let dm_a = net.add_node("dm-raw", NicConfig::default());
            let dm_b = net.add_node("dm-fg", NicConfig::default());
            let c_a = net.add_node("c-raw", NicConfig::default());
            let c_b = net.add_node("c-reader", NicConfig::default());
            let c_w = net.add_node("c-writer", NicConfig::default());
            let lease = std::time::Duration::from_millis(5);
            let raw_srv = start_pool(&net, &[dm_a], &params, DmServerConfig::default());
            let fg_srv = start_pool(
                &net,
                &[dm_b],
                &params,
                DmServerConfig {
                    coherence: Some(CoherenceConfig {
                        read_lease: lease,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            );
            let fg_cfg = CacheConfig::all_on();
            let raw = DmNetClient::connect(client_rpc(&net, c_a, 100), vec![raw_srv[0].addr()])
                .await
                .unwrap();
            let reader_rpc = client_rpc(&net, c_b, 100);
            let fg_pool = vec![fg_srv[0].addr()];
            let reader =
                DmNetClient::connect_with(reader_rpc.clone(), fg_pool.clone(), fg_cfg, None, None)
                    .await
                    .unwrap();
            let writer =
                DmNetClient::connect_with(client_rpc(&net, c_w, 100), fg_pool, fg_cfg, None, None)
                    .await
                    .unwrap();

            let mut refs: Vec<Slot> = Vec::new();
            // Zombies: refs released while the reader was partitioned, with
            // the only bytes the reader may ever serve for them.
            let mut zombies: Vec<(Ref, Vec<u8>)> = Vec::new();
            for op in ops {
                match op {
                    FgOp::Put { len, fill } => {
                        let len = len as usize % 12288 + 1;
                        let data = Bytes::from(vec![fill; len]);
                        let r1 = raw.put_ref(&data).await.unwrap();
                        let r2 = reader.put_ref(&data).await.unwrap();
                        refs.push(Some((r1, r2, data.to_vec())));
                    }
                    FgOp::ReadRef { slot, off, len } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].as_ref().unwrap();
                        let total = data.len() as u64;
                        let off = off as u64 % total;
                        let len = (len as u64 % (total - off)) + 1;
                        let a = raw.read_ref(r1, off, len).await.unwrap();
                        let b = reader.read_ref(r2, off, len).await.unwrap();
                        assert_eq!(a, b, "fine-grained bytes diverge from uncached");
                        assert_eq!(
                            &a[..],
                            &data[off as usize..(off + len) as usize],
                            "bytes diverge from the model"
                        );
                    }
                    FgOp::WriterCow { slot, fill } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].as_ref().unwrap();
                        let m1 = raw.map_ref(r1).await.unwrap();
                        let m2 = writer.map_ref(r2).await.unwrap();
                        let patch = Bytes::from(vec![fill; 64.min(data.len())]);
                        raw.rwrite(m1, &patch).await.unwrap();
                        writer.rwrite(m2, &patch).await.unwrap();
                        // COW isolation: the writer's divergence must never
                        // leak into the reader's cached snapshot.
                        let probe = 8.min(data.len() as u64);
                        let s1 = raw.read_ref(r1, 0, probe).await.unwrap();
                        let s2 = reader.read_ref(r2, 0, probe).await.unwrap();
                        assert_eq!(s1, s2, "snapshot diverges after writer COW");
                        assert_eq!(&s1[..], &data[..probe as usize]);
                        raw.rfree(m1).await.unwrap();
                        writer.rfree(m2).await.unwrap();
                    }
                    FgOp::Release { slot } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, _) = refs[i].take().unwrap();
                        raw.release_ref(&r1).await.unwrap();
                        reader.release_ref(&r2).await.unwrap();
                    }
                    FgOp::ChaosRelease { slot } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].take().unwrap();
                        // Drain the reader's queued control ops first: a
                        // partition drops in-flight batches (fire-and-forget
                        // semantics), which is client-crash behavior, not
                        // the lost-push scenario under test.
                        reader.flush_cache().await;
                        // Lose the push: the reader is dark while the
                        // writer releases.
                        reader_rpc.set_offline(true);
                        raw.release_ref(&r1).await.unwrap();
                        writer.release_ref(&r2).await.unwrap();
                        writer.flush_cache().await; // queued release hits the wire now
                        simcore::sleep(std::time::Duration::from_micros(50)).await;
                        reader_rpc.set_offline(false);
                        zombies.push((r2, data));
                    }
                    FgOp::ZombieRead { slot, off, len } => {
                        if zombies.is_empty() {
                            continue;
                        }
                        let (r2, data) = &zombies[slot as usize % zombies.len()];
                        let total = data.len() as u64;
                        let off = off as u64 % total;
                        let len = (len as u64 % (total - off)) + 1;
                        // A stale serve inside the lease window must be the
                        // dead ref's final bytes, nothing else; past the
                        // lease (or after the entry dropped) the wire
                        // reports the release as an error.
                        if let Ok(b) = reader.read_ref(r2, off, len).await {
                            assert_eq!(
                                &b[..],
                                &data[off as usize..(off + len) as usize],
                                "lost invalidation served diverged bytes"
                            );
                        }
                    }
                }
            }

            for s in refs.iter_mut() {
                if let Some((r1, r2, _)) = s.take() {
                    raw.release_ref(&r1).await.unwrap();
                    reader.release_ref(&r2).await.unwrap();
                }
            }
            reader.flush_cache().await;
            writer.flush_cache().await;
            for s in raw_srv.iter().chain(fg_srv.iter()) {
                s.with_page_manager(|pm| pm.check_invariants());
            }
            assert_eq!(
                raw_srv[0].free_pages_total(),
                raw_srv[0].capacity_pages_total(),
                "raw plane leaked pages"
            );
            assert_eq!(
                fg_srv[0].free_pages_total(),
                fg_srv[0].capacity_pages_total(),
                "fine-grained plane leaked pages"
            );
        });
    }
}
