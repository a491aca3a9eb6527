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
use dmcommon::{Ref, PAGE_SIZE};
use dmnet::{start_pool, DmNetClient, DmServerConfig};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::{Rpc, RpcBuilder};
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig, NodeId};

#[derive(Clone, Debug)]
enum Op {
    /// Publish a fresh ref of `len+1` bytes filled with `fill`.
    Put { len: u16, fill: u8 },
    /// Read a live ref on both clients.
    ReadRef { slot: u8 },
    /// Map a live ref, COW-write through the mapping, read it back, free.
    CowWrite { slot: u8, fill: u8 },
    /// Map a live ref, read the snapshot, free the mapping: a cached
    /// client's mapping reads equal the raw client's.
    MapReadFree { slot: u8 },
    /// Release a live ref on both clients.
    Release { slot: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(len, fill)| Op::Put { len, fill }),
        any::<u8>().prop_map(|slot| Op::ReadRef { slot }),
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
                true,
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
                    Op::ReadRef { slot } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].as_ref().unwrap();
                        let a = raw.read_ref(r1).await.unwrap();
                        let b = cached.read_ref(r2).await.unwrap();
                        assert_eq!(a, b, "cached bytes diverge from uncached");
                        assert_eq!(&a[..], &data[..], "bytes diverge from the model");
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
                        let s1 = raw.read_ref(r1).await.unwrap();
                        let s2 = cached.read_ref(r2).await.unwrap();
                        assert_eq!(s1, s2, "ref snapshot diverges after COW");
                        assert_eq!(&s1[..], &data[..]);
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

/// Pages the cached client keeps of a one-server pool (`cache::CACHE_PAGES`,
/// all of it that server's share).
const CACHE_PAGES: usize = 3072;

/// Pages each ref of `cached_client_is_coherent_while_evicting` is charged.
const REF_PAGES: usize = 12;

/// Refs the share holds at once.
const CACHE_BOUND: usize = CACHE_PAGES / REF_PAGES;

/// Refs in the re-read subset of `cached_client_is_coherent_while_evicting`.
const HOT: usize = 16;

/// Read one tracked ref on both clients, and check both against the
/// model.
async fn read_both(raw: &DmNetClient, cached: &DmNetClient, (r1, r2, data): &(Ref, Ref, Vec<u8>)) {
    let a = raw.read_ref(r1).await.unwrap();
    let b = cached.read_ref(r2).await.unwrap();
    assert_eq!(a, b, "cached bytes diverge from uncached while evicting");
    assert_eq!(&a[..], &data[..], "bytes diverge from the model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// More refs than the cache keeps, with a hot subset re-read between
    /// publishes: second-chance eviction keeps hit entries and drops cold
    /// ones all through the run, and every read stays byte-identical to
    /// the raw client's. Each ref spans [`REF_PAGES`] pages, so the tracked
    /// set passes the share by 8..64 refs.
    #[test]
    fn cached_client_is_coherent_while_evicting(
        tails in proptest::collection::vec(0..PAGE_SIZE, CACHE_BOUND + 8..CACHE_BOUND + 64),
        reads in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 29);
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
                true,
            )
            .await
            .unwrap();

            let mut refs: Vec<(Ref, Ref, Vec<u8>)> = Vec::new();
            for (n, tail) in tails.iter().enumerate() {
                let data = Bytes::from(vec![n as u8; (REF_PAGES - 1) * PAGE_SIZE + tail + 1]);
                let r1 = raw.put_ref(&data).await.unwrap();
                let r2 = cached.put_ref(&data).await.unwrap();
                refs.push((r1, r2, data.to_vec()));
                // Three reads in four go to the hot subset, the rest
                // anywhere; a miss refills an evicted entry.
                let pick = reads[n % reads.len()];
                let i = if pick % 4 != 0 {
                    pick as usize % HOT.min(refs.len())
                } else {
                    pick as usize % refs.len()
                };
                read_both(&raw, &cached, &refs[i]).await;
            }
            // One whole read of every ref: at most the share's pages were
            // cached when it began, so the rest miss — and must still agree.
            let misses = cached.cache_stats().misses();
            for slot in &refs {
                read_both(&raw, &cached, slot).await;
            }
            let missed_pages = (cached.cache_stats().misses() - misses) as usize * REF_PAGES;
            assert!(
                missed_pages >= refs.len() * REF_PAGES - CACHE_PAGES,
                "the run never evicted"
            );

            for (r1, r2, _) in refs {
                raw.release_ref(&r1).await.unwrap();
                cached.release_ref(&r2).await.unwrap();
            }
            cached.flush_cache().await;
            for s in &servers {
                s.with_page_manager(|pm| pm.check_invariants());
            }
            assert_eq!(servers[0].free_pages_total(), servers[1].free_pages_total());
            assert_eq!(
                servers[1].free_pages_total(),
                servers[1].capacity_pages_total(),
                "cached client leaked pages"
            );
        });
    }
}

/// Operations for the multi-client oracle: the cached plane additionally
/// has a second *writer* client whose releases reach the reader only as
/// death lists on the reader's own answers, and a chaos op that releases
/// while the reader is partitioned.
#[derive(Clone, Debug)]
enum FgOp {
    Put {
        len: u16,
        fill: u8,
    },
    ReadRef {
        slot: u8,
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
    /// The reader is partitioned while the writer releases the ref, so it
    /// hears nothing of it then. The ref becomes a zombie: its final bytes
    /// are recorded for the safety assertion.
    ChaosRelease {
        slot: u8,
    },
    /// Read a zombie ref on the reader, first letting it hear from the
    /// server (`heard`) or not. Unheard, the allowed outcomes are the
    /// recorded final bytes (a stale serve) or an error — anything else
    /// served diverged bytes; heard, only the release's `InvalidRef`.
    ZombieRead {
        slot: u8,
        heard: bool,
    },
}

fn fg_op_strategy() -> impl Strategy<Value = FgOp> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(len, fill)| FgOp::Put { len, fill }),
        any::<u8>().prop_map(|slot| FgOp::ReadRef { slot }),
        (any::<u8>(), any::<u8>()).prop_map(|(slot, fill)| FgOp::WriterCow { slot, fill }),
        any::<u8>().prop_map(|slot| FgOp::Release { slot }),
        any::<u8>().prop_map(|slot| FgOp::ChaosRelease { slot }),
        (any::<u8>(), any::<bool>()).prop_map(|(slot, heard)| FgOp::ZombieRead { slot, heard }),
    ]
}

proptest! {
    /// The cached client stays coherent with an uncached client under
    /// interleaved multi-client writes, and a release it did not hear of
    /// can never make it serve diverged bytes — only the dead ref's final
    /// (immutable) bytes, and only until its next answer from the server.
    #[test]
    fn cached_client_is_coherent_under_multi_client_writes(
        ops in proptest::collection::vec(fg_op_strategy(), 1..40)
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 23);
            let params = ModelParams::new();
            let dm_a = net.add_node("dm-raw", NicConfig::default());
            let dm_b = net.add_node("dm-cached", NicConfig::default());
            let c_a = net.add_node("c-raw", NicConfig::default());
            let c_b = net.add_node("c-reader", NicConfig::default());
            let c_w = net.add_node("c-writer", NicConfig::default());
            let raw_srv = start_pool(&net, &[dm_a], &params, DmServerConfig::default());
            let fg_srv = start_pool(&net, &[dm_b], &params, DmServerConfig::default());
            let raw = DmNetClient::connect(client_rpc(&net, c_a, 100), vec![raw_srv[0].addr()])
                .await
                .unwrap();
            let reader_rpc = client_rpc(&net, c_b, 100);
            let fg_pool = vec![fg_srv[0].addr()];
            let reader = DmNetClient::connect_with(reader_rpc.clone(), fg_pool.clone(), true)
                .await
                .unwrap();
            let writer = DmNetClient::connect_with(client_rpc(&net, c_w, 100), fg_pool, true)
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
                    FgOp::ReadRef { slot } => {
                        let Some(i) = live_slot(&refs, slot) else { continue };
                        let (r1, r2, data) = refs[i].as_ref().unwrap();
                        let a = raw.read_ref(r1).await.unwrap();
                        let b = reader.read_ref(r2).await.unwrap();
                        assert_eq!(a, b, "cached bytes diverge from uncached");
                        assert_eq!(&a[..], &data[..], "bytes diverge from the model");
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
                        let s1 = raw.read_ref(r1).await.unwrap();
                        let s2 = reader.read_ref(r2).await.unwrap();
                        assert_eq!(s1, s2, "snapshot diverges after writer COW");
                        assert_eq!(&s1[..], &data[..]);
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
                        // the unheard release under test.
                        reader.flush_cache().await;
                        // The reader is dark while the writer releases.
                        reader_rpc.set_offline(true);
                        raw.release_ref(&r1).await.unwrap();
                        writer.release_ref(&r2).await.unwrap();
                        writer.flush_cache().await; // queued release hits the wire now
                        simcore::sleep(std::time::Duration::from_micros(50)).await;
                        reader_rpc.set_offline(false);
                        zombies.push((r2, data));
                    }
                    FgOp::ZombieRead { slot, heard } => {
                        if zombies.is_empty() {
                            continue;
                        }
                        let (r2, data) = &zombies[slot as usize % zombies.len()];
                        if heard {
                            let probe = reader.ralloc(1).await.unwrap();
                            reader.rfree(probe).await.unwrap();
                            let gone = reader.read_ref(r2).await;
                            assert_eq!(
                                gone.unwrap_err(),
                                dmcommon::DmError::InvalidRef,
                                "served a release the reader was told of"
                            );
                            continue;
                        }
                        // A stale serve must be the dead ref's final bytes,
                        // nothing else; once the entry is dropped the wire
                        // reports the release as an error.
                        if let Ok(b) = reader.read_ref(r2).await {
                            assert_eq!(&b[..], &data[..], "lost invalidation served diverged bytes");
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
                "cached plane leaked pages"
            );
        });
    }
}
