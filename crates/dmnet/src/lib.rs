//! # dmnet — network-attached disaggregated memory (DmRPC-net's DM layer)
//!
//! Implements the paper's §V-A design: regular servers act as DM servers,
//! reachable over the (simulated) Ethernet fabric. Each DM server runs:
//!
//! * a **Page manager** ([`page_manager::PageManager`]): pinned pages in a
//!   FIFO free list, per-page refcounts, per-process VA allocation trees
//!   ([`va_tree::VaTree`]), and the `create_ref` key → pages map;
//! * an **Address translator** ([`translator::Translator`]): one in-memory
//!   hash table from DM virtual addresses to pinned pages;
//! * **centralized copy-on-write**: a write to a page with refcount > 1
//!   copies the page at the server and retargets the writer's translation.
//!
//! Compute-side processes use [`client::DmNetClient`], which exposes the
//! Table-II API (`ralloc`/`rfree`/`create_ref`/`map_ref`/`rread`/`rwrite`)
//! and routes requests to the owning server, spreading allocations
//! round-robin across the pool.
//!
//! End-to-end tests live at the bottom of this file; pure data-structure
//! tests live with their modules; property-based tests are in
//! `tests/proptest_dm.rs`.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod page_manager;
pub mod proto;
pub mod server;
pub mod shard;
pub mod translator;
pub mod wal;

/// Re-export of the shared VA-range allocator (lives in [`dmcommon`]).
pub use dmcommon::va_tree;

pub use admission::{Admission, AdmissionConfig};
pub use cache::{CacheConfig, CacheStats};
pub use client::DmNetClient;
pub use page_manager::{OpCost, PageManager};
pub use server::{start_pool, CoherenceConfig, DmServer, DmServerConfig, RecoveryReport};
pub use shard::{HashRing, GKEY_BIT};
pub use wal::{Record, Wal, WalConfig};

#[cfg(test)]
mod e2e_tests {
    use std::rc::Rc;

    use bytes::Bytes;
    use dmcommon::{CopyMode, DmError, Ref};
    use memsim::ModelParams;
    use rpclib::{Rpc, RpcBuilder};
    use simcore::Sim;
    use simnet::{FabricConfig, Network, NicConfig, NodeId};

    use super::*;

    struct Rig {
        sim: Sim,
        net: Network,
        params: ModelParams,
        dm_nodes: Vec<NodeId>,
        compute: Vec<NodeId>,
    }

    fn rig(n_dm: usize, n_compute: usize) -> Rig {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 11);
        let dm_nodes = (0..n_dm)
            .map(|i| net.add_node(format!("dm{i}"), NicConfig::default()))
            .collect();
        let compute = (0..n_compute)
            .map(|i| net.add_node(format!("c{i}"), NicConfig::default()))
            .collect();
        Rig {
            sim,
            net,
            params: ModelParams::new(),
            dm_nodes,
            compute,
        }
    }

    fn client_rpc(net: &Network, node: NodeId, port: u16) -> Rc<Rpc> {
        RpcBuilder::new(net, node, port).build()
    }

    /// Connect with `cache`, no concurrency limit and, given a seed, ring
    /// placement over the pool.
    async fn connect_cfg(
        rpc: Rc<Rpc>,
        pool: &[simnet::Addr],
        cache: CacheConfig,
        ring_seed: Option<u64>,
    ) -> DmNetClient {
        let ring = ring_seed.map(|seed| HashRing::new(pool.len(), seed));
        DmNetClient::connect_with(rpc, pool.to_vec(), cache, None, ring)
            .await
            .unwrap()
    }

    #[test]
    fn alloc_write_read_free_over_network() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let rpc = client_rpc(&net, c0, 100);
            let dm = DmNetClient::connect(rpc, vec![servers[0].addr()])
                .await
                .unwrap();

            let addr = dm.ralloc(10_000).await.unwrap();
            let data = Bytes::from((0..10_000u32).map(|i| (i % 251) as u8).collect::<Vec<_>>());
            dm.rwrite(addr, &data).await.unwrap();
            let back = dm.rread(addr, 10_000).await.unwrap();
            assert_eq!(back, data);
            // Unaligned partial read.
            let part = dm.rread(addr.offset(4097), 100).await.unwrap();
            assert_eq!(&part[..], &data[4097..4197]);
            dm.rfree(addr).await.unwrap();
            assert_eq!(
                dm.rread(addr, 1).await.unwrap_err(),
                DmError::InvalidAddress
            );
            servers[0].with_page_manager(|pm| pm.check_invariants());
        });
    }

    #[test]
    fn pass_by_reference_between_two_processes() {
        let r = rig(1, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let pool = vec![servers[0].addr()];
            let producer = DmNetClient::connect(client_rpc(&net, c0, 100), pool.clone())
                .await
                .unwrap();
            let consumer = DmNetClient::connect(client_rpc(&net, c1, 100), pool)
                .await
                .unwrap();

            let addr = producer.ralloc(8192).await.unwrap();
            let data = Bytes::from(vec![0x5A; 8192]);
            producer.rwrite(addr, &data).await.unwrap();
            let r = producer.create_ref(addr, 8192).await.unwrap();
            assert!(matches!(r, Ref::Net { .. }));
            assert_eq!(r.wire_bytes(), 18, "the Ref is small");
            // Producer can free its own mapping; the ref keeps data alive.
            producer.rfree(addr).await.unwrap();

            // Consumer (a different process on a different server) maps it.
            let caddr = consumer.map_ref(&r).await.unwrap();
            let back = consumer.rread(caddr, 8192).await.unwrap();
            assert_eq!(back, data);

            // Consumer writes one page: COW isolates it from the ref.
            consumer
                .rwrite(caddr, &Bytes::from(vec![0xA5; 10]))
                .await
                .unwrap();
            let again = consumer.rread(caddr, 10).await.unwrap();
            assert_eq!(&again[..], &[0xA5; 10]);

            // A second consumer mapping still sees the original bytes.
            let caddr2 = consumer.map_ref(&r).await.unwrap();
            let orig = consumer.rread(caddr2, 10).await.unwrap();
            assert_eq!(&orig[..], &[0x5A; 10]);

            consumer.rfree(caddr).await.unwrap();
            consumer.rfree(caddr2).await.unwrap();
            consumer.release_ref(&r).await.unwrap();
            servers[0].with_page_manager(|pm| {
                pm.check_invariants();
                assert_eq!(pm.free_pages(), pm.capacity_pages(), "all pages reclaimed");
            });
        });
    }

    #[test]
    fn lease_expiry_reclaims_crashed_clients_pins() {
        let r = rig(1, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let ttl = std::time::Duration::from_millis(2);
            let cfg = DmServerConfig {
                lease_ttl: Some(ttl),
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let pool = vec![servers[0].addr()];
            let baseline = servers[0].free_pages_total();

            let doomed = DmNetClient::connect(client_rpc(&net, c0, 100), pool.clone())
                .await
                .unwrap();
            assert_eq!(doomed.lease_ttl(), Some(ttl));
            let survivor = DmNetClient::connect(client_rpc(&net, c1, 100), pool)
                .await
                .unwrap();

            // The doomed client pins pages three ways: a mapped region, a
            // shared ref it created, and a mapping of the survivor's ref.
            let addr = doomed.ralloc(8 * 4096).await.unwrap();
            doomed
                .rwrite(addr, &Bytes::from(vec![7u8; 8 * 4096]))
                .await
                .unwrap();
            let doomed_ref = doomed.create_ref(addr, 8 * 4096).await.unwrap();

            let s_addr = survivor.ralloc(4096).await.unwrap();
            survivor
                .rwrite(s_addr, &Bytes::from(vec![9u8; 4096]))
                .await
                .unwrap();
            let s_ref = survivor.create_ref(s_addr, 4096).await.unwrap();
            let mapped = doomed.map_ref(&s_ref).await.unwrap();
            doomed.rread(mapped, 4096).await.unwrap();

            assert!(servers[0].free_pages_total() < baseline);

            // Fail-stop: renewals cease, the endpoint goes dark.
            doomed.simulate_crash();

            // The survivor keeps renewing across several TTLs; only the
            // crashed process's lease may expire.
            simcore::sleep(5 * ttl).await;

            assert!(servers[0].leases_reclaimed() >= 1, "lease never expired");
            // The survivor's data is untouched by the reclamation.
            let back = survivor.rread(s_addr, 4096).await.unwrap();
            assert!(back.iter().all(|&b| b == 9));
            // The doomed process's ref is gone along with its pins.
            assert_eq!(
                survivor.read_ref(&doomed_ref, 0, 16).await.unwrap_err(),
                DmError::InvalidRef
            );

            // Once the survivor releases its own resources, the free list
            // returns to baseline: the crashed client leaked nothing.
            survivor.rfree(s_addr).await.unwrap();
            survivor.release_ref(&s_ref).await.unwrap();
            servers[0].check_invariants_all();
            assert_eq!(servers[0].free_pages_total(), baseline, "pages leaked");
            servers[0].shutdown(); // stops the lease sweeper
        });
    }

    #[test]
    fn server_restart_grants_lease_grace() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let ttl = std::time::Duration::from_millis(2);
            let cfg = DmServerConfig {
                lease_ttl: Some(ttl),
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), vec![servers[0].addr()])
                .await
                .unwrap();
            let addr = dm.ralloc(4096).await.unwrap();
            dm.rwrite(addr, &Bytes::from(vec![1u8; 4096]))
                .await
                .unwrap();

            // Crash the server across more than a full TTL. The live
            // client's renewals are lost while the server is down, but
            // restart() grants a grace period instead of reclaiming.
            servers[0].crash();
            assert!(servers[0].is_crashed());
            simcore::sleep(2 * ttl).await;
            servers[0].restart();
            simcore::sleep(ttl / 2).await;

            assert_eq!(servers[0].leases_reclaimed(), 0, "live client reclaimed");
            let back = dm.rread(addr, 4096).await.unwrap();
            assert!(back.iter().all(|&b| b == 1));
            dm.rfree(addr).await.unwrap();
            servers[0].shutdown(); // stops the lease sweeper
        });
    }

    #[test]
    fn crash_cancels_sweeper_outright() {
        // Regression: crash() used to leave the sweeper task armed forever
        // on the dead replica (it skipped per-tick). It must cancel at its
        // next tick, and the restart paths must re-arm exactly one.
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let ttl = std::time::Duration::from_millis(2);
            let cfg = DmServerConfig {
                lease_ttl: Some(ttl),
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            assert!(servers[0].sweeper_armed(), "sweeper armed at start");

            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), vec![servers[0].addr()])
                .await
                .unwrap();
            let addr = dm.ralloc(4096).await.unwrap();

            servers[0].crash();
            // Still armed until its next tick fires, then cancelled.
            simcore::sleep(2 * ttl).await;
            assert!(
                !servers[0].sweeper_armed(),
                "crash left the sweeper armed on a dead replica"
            );

            // Restart re-arms exactly one sweeper, which still works: a
            // client that crashes afterwards is reclaimed as usual.
            servers[0].restart();
            assert!(servers[0].sweeper_armed(), "restart must re-arm");
            servers[0].restart(); // idempotent: no second sweeper
            dm.rwrite(addr, &Bytes::from(vec![3u8; 16])).await.unwrap();
            dm.simulate_crash();
            simcore::sleep(5 * ttl).await;
            assert!(servers[0].leases_reclaimed() >= 1, "re-armed sweeper dead");
            servers[0].check_invariants_all();
            assert_eq!(
                servers[0].free_pages_total(),
                servers[0].capacity_pages_total()
            );
            servers[0].shutdown();
            simcore::sleep(2 * ttl).await;
            assert!(!servers[0].sweeper_armed(), "shutdown stops the sweeper");
        });
    }

    #[test]
    fn durable_server_recovers_exact_state_after_crash() {
        let r = rig(1, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let cfg = DmServerConfig {
                durability: Some(WalConfig::zero_cost()),
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let pool = vec![servers[0].addr()];
            let a = DmNetClient::connect(client_rpc(&net, c0, 100), pool.clone())
                .await
                .unwrap();
            let b = DmNetClient::connect(client_rpc(&net, c1, 100), pool)
                .await
                .unwrap();

            // Build up real state: mapped pages, a shared COW ref, a
            // diverged writer page, a released region.
            let addr = a.ralloc(3 * 4096).await.unwrap();
            let data = Bytes::from(
                (0..3 * 4096u32)
                    .map(|i| (i % 241) as u8)
                    .collect::<Vec<_>>(),
            );
            a.rwrite(addr, &data).await.unwrap();
            let shared = a.create_ref(addr, 2 * 4096).await.unwrap();
            let mapped = b.map_ref(&shared).await.unwrap();
            b.rwrite(mapped, &Bytes::from_static(b"diverge"))
                .await
                .unwrap();
            let gone = a.ralloc(4096).await.unwrap();
            a.rfree(gone).await.unwrap();

            let pre_digest = servers[0].pages_digest();
            let pre_epoch = servers[0].epoch();
            assert!(servers[0].wal().unwrap().records() > 0, "ops were logged");

            servers[0].crash();
            let report = servers[0].restart_from_log().await;
            assert!(!report.torn_tail);
            assert!(report.records_replayed > 0);
            assert_eq!(servers[0].recoveries(), 1);

            // Zero lost acknowledged ops, zero resurrected frees: the
            // memory plane is byte-identical to the pre-crash state.
            assert_eq!(servers[0].pages_digest(), pre_digest);
            assert!(
                servers[0].epoch() > pre_epoch,
                "epoch-after-restart must advance past everything clients saw"
            );
            servers[0].check_invariants_all();

            // Clients keep working against the recovered server: old data
            // readable, freed region still gone, new ops fine.
            assert_eq!(a.rread(addr, 3 * 4096).await.unwrap(), data);
            assert_eq!(&b.rread(mapped, 7).await.unwrap()[..], b"diverge");
            assert_eq!(
                a.rread(gone, 1).await.unwrap_err(),
                DmError::InvalidAddress,
                "resurrected free"
            );
            let post = a.ralloc(4096).await.unwrap();
            a.rwrite(post, &Bytes::from_static(b"after")).await.unwrap();
            assert_eq!(&a.rread(post, 5).await.unwrap()[..], b"after");
            servers[0].check_invariants_all();
        });
    }

    #[test]
    fn leases_expiring_in_one_sweep_are_reclaimed_in_pid_order() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let ttl = std::time::Duration::from_millis(2);
            let cfg = DmServerConfig {
                lease_ttl: Some(ttl),
                // No compaction: the log must keep every record.
                durability: Some(WalConfig {
                    compact_threshold_bytes: 0,
                    ..WalConfig::zero_cost()
                }),
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let pool = vec![servers[0].addr()];
            let mut clients = Vec::new();
            for port in 100..108 {
                let dm = DmNetClient::connect(client_rpc(&net, c0, port), pool.clone())
                    .await
                    .unwrap();
                dm.put_ref(&Bytes::from(vec![port as u8; 4096]))
                    .await
                    .unwrap();
                clients.push(dm);
            }
            for dm in &clients {
                dm.simulate_crash();
            }
            // Recovery re-grants every recovered owner the same expiry, so
            // all eight crashed clients land in a single sweep.
            servers[0].crash();
            servers[0].restart_from_log().await;
            simcore::sleep(ttl).await;
            servers[0].sweep_expired_leases();
            assert_eq!(servers[0].leases_reclaimed(), 8, "one sweep took all");

            // The sweep's WAL records (and with them its trace events and
            // invalidation pushes) follow pid order, not hash order.
            let reclaimed: Vec<u32> = servers[0]
                .wal()
                .unwrap()
                .scan()
                .records
                .iter()
                .filter_map(|rec| match rec {
                    Record::ReleaseProcess { pid } => Some(*pid),
                    _ => None,
                })
                .collect();
            assert_eq!(reclaimed.len(), 8);
            assert!(
                reclaimed.windows(2).all(|w| w[0] < w[1]),
                "reclaim order {reclaimed:?}"
            );
            servers[0].check_invariants_all();
            assert_eq!(
                servers[0].free_pages_total(),
                servers[0].capacity_pages_total(),
                "crashed clients leaked pages"
            );
            servers[0].shutdown(); // stops the lease sweeper
        });
    }

    #[test]
    fn round_robin_across_two_servers() {
        let r = rig(2, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (d0, d1, c0) = (r.dm_nodes[0], r.dm_nodes[1], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[d0, d1], &params, DmServerConfig::default());
            let dm = DmNetClient::connect(
                client_rpc(&net, c0, 100),
                servers.iter().map(|s| s.addr()).collect(),
            )
            .await
            .unwrap();
            let a0 = dm.ralloc(4096).await.unwrap();
            let a1 = dm.ralloc(4096).await.unwrap();
            let a2 = dm.ralloc(4096).await.unwrap();
            assert_eq!(a0.server.0, 0);
            assert_eq!(a1.server.0, 1);
            assert_eq!(a2.server.0, 0);
            // Data lands on the right server.
            dm.rwrite(a1, &Bytes::from_static(b"on-server-1"))
                .await
                .unwrap();
            assert_eq!(&dm.rread(a1, 11).await.unwrap()[..], b"on-server-1");
        });
    }

    #[test]
    fn eager_copy_pool_copies_on_create_ref() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let cfg = DmServerConfig {
                copy_mode: CopyMode::Eager,
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), vec![servers[0].addr()])
                .await
                .unwrap();
            let addr = dm.ralloc(16 * 4096).await.unwrap();
            dm.rwrite(addr, &Bytes::from(vec![3u8; 16 * 4096]))
                .await
                .unwrap();
            let traffic_before = servers[0].memory().traffic_bytes();
            let _ = dm.create_ref(addr, 16 * 4096).await.unwrap();
            let traffic_after = servers[0].memory().traffic_bytes();
            // Eager copy moves 16 pages through memory (2x for read+write).
            assert!(
                traffic_after - traffic_before >= 2 * 16 * 4096,
                "copy traffic missing: {}",
                traffic_after - traffic_before
            );
        });
    }

    #[test]
    fn cow_create_ref_is_cheap_in_traffic_and_time() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), vec![servers[0].addr()])
                .await
                .unwrap();
            let addr = dm.ralloc(256 * 4096).await.unwrap(); // 1 MiB
            dm.rwrite(addr, &Bytes::from(vec![3u8; 256 * 4096]))
                .await
                .unwrap();
            let traffic_before = servers[0].memory().traffic_bytes();
            let t0 = simcore::now();
            let _ = dm.create_ref(addr, 256 * 4096).await.unwrap();
            let elapsed = simcore::now() - t0;
            let delta = servers[0].memory().traffic_bytes() - traffic_before;
            assert!(delta < 4096, "COW create_ref moved {delta} bytes");
            assert!(
                elapsed < std::time::Duration::from_micros(50),
                "COW create_ref took {elapsed:?}"
            );
        });
    }

    #[test]
    fn out_of_memory_propagates_to_client() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let cfg = DmServerConfig {
                capacity_pages: 4,
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), vec![servers[0].addr()])
                .await
                .unwrap();
            // Regions over-commit the pool (pages are mapped lazily): two
            // four-page regions fit a four-page pool until both are written.
            let full = Bytes::from(vec![1u8; 4 * 4096]);
            let (a, b) = (dm.ralloc(4 * 4096).await, dm.ralloc(4 * 4096).await);
            dm.rwrite(a.unwrap(), &full).await.unwrap();
            let r = dm.rwrite(b.unwrap(), &full).await;
            assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
            // One region the whole pool could not back is refused up front.
            let r = dm.ralloc(5 * 4096).await;
            assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
        });
    }

    #[test]
    fn publish_that_does_not_fit_leaves_the_server_untouched() {
        let r = rig(1, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let cfg = DmServerConfig {
                capacity_pages: 4,
                durability: Some(WalConfig::zero_cost()),
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let srv = &servers[0];
            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), vec![srv.addr()])
                .await
                .unwrap();
            let logged = srv.wal().unwrap().records();

            // Six pages into a four-page pool: refused, and not one page,
            // refcount or log record is left behind.
            let r = dm.put_ref(&Bytes::from(vec![1u8; 6 * 4096])).await;
            assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
            assert_eq!(srv.free_pages_total(), 4);
            srv.check_invariants_all();
            assert_eq!(srv.wal().unwrap().records(), logged);

            // The next publish that fits gets the whole pool. Its pages are
            // views into the request's buffer (the last one short), and a
            // server rebuilt from the log — through the copying entry —
            // digests the same.
            let data = Bytes::from((0..3 * 4096 + 5u32).map(|i| i as u8).collect::<Vec<_>>());
            let published = dm.put_ref(&data).await.unwrap();
            assert_eq!(srv.free_pages_total(), 0);
            let live = srv.pages_digest();
            srv.crash();
            srv.restart_from_log().await;
            assert_eq!(srv.pages_digest(), live);
            // Read by a client that never held the bytes.
            let reader = DmNetClient::connect(client_rpc(&net, c1, 100), vec![srv.addr()])
                .await
                .unwrap();
            let len = data.len() as u64;
            assert_eq!(reader.read_ref(&published, 0, len).await.unwrap(), data);
            srv.check_invariants_all();
        });
    }

    #[test]
    fn concurrent_clients_keep_invariants() {
        let r = rig(1, 4);
        let (net, params) = (r.net.clone(), r.params.clone());
        let dm0 = r.dm_nodes[0];
        let compute = r.compute.clone();
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let pool = vec![servers[0].addr()];
            let mut handles = Vec::new();
            for (i, &node) in compute.iter().enumerate() {
                let net = net.clone();
                let pool = pool.clone();
                handles.push(simcore::spawn(async move {
                    let dm = DmNetClient::connect(client_rpc(&net, node, 100), pool)
                        .await
                        .unwrap();
                    for round in 0..10u64 {
                        let len = 4096 * (1 + (round % 4));
                        let addr = dm.ralloc(len).await.unwrap();
                        let fill = (i as u8) ^ (round as u8);
                        dm.rwrite(addr, &Bytes::from(vec![fill; len as usize]))
                            .await
                            .unwrap();
                        let back = dm.rread(addr, len).await.unwrap();
                        assert!(back.iter().all(|&b| b == fill));
                        let r = dm.create_ref(addr, len).await.unwrap();
                        let m = dm.map_ref(&r).await.unwrap();
                        dm.rwrite(m, &Bytes::from(vec![0xFF; 16])).await.unwrap();
                        dm.rfree(m).await.unwrap();
                        dm.rfree(addr).await.unwrap();
                        dm.release_ref(&r).await.unwrap();
                    }
                }));
            }
            for h in handles {
                h.await;
            }
            servers[0].with_page_manager(|pm| {
                pm.check_invariants();
                assert_eq!(pm.free_pages(), pm.capacity_pages());
            });
        });
    }

    #[test]
    fn sharding_scales_create_ref_rate() {
        // One core vs four behind the one page manager: saturated small
        // create_ref rate should scale with the cores requests are
        // dispatched to (paper §VI-C; measured 3.99x).
        let run = |cores: u64| {
            let r = rig(1, 1);
            let (net, params) = (r.net.clone(), r.params.clone());
            let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
            r.sim.block_on(async move {
                let cfg = DmServerConfig {
                    cores,
                    capacity_pages: 8192,
                    ..Default::default()
                };
                let servers = start_pool(&net, &[dm0], &params, cfg);
                let dm = Rc::new(
                    DmNetClient::connect(client_rpc(&net, c0, 100), vec![servers[0].addr()])
                        .await
                        .unwrap(),
                );
                let mut addrs = Vec::new();
                for _ in 0..cores {
                    let a = dm.ralloc(64 * 4096).await.unwrap();
                    dm.rwrite(a, &Bytes::from(vec![1u8; 64 * 4096]))
                        .await
                        .unwrap();
                    addrs.push(a);
                }
                let t0 = simcore::now();
                let mut handles = Vec::new();
                for w in 0..16usize {
                    let dm = dm.clone();
                    let addr = addrs[w % addrs.len()];
                    handles.push(simcore::spawn(async move {
                        for _ in 0..50 {
                            let r = dm.create_ref(addr, 64 * 4096).await.unwrap();
                            dm.release_ref(&r).await.unwrap();
                        }
                    }));
                }
                for h in handles {
                    h.await;
                }
                (simcore::now() - t0).as_nanos() as u64
            })
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four * 2 < one,
            "4 cores should be >2x faster than 1 core: {one} vs {four}"
        );
    }

    #[test]
    fn translation_fraction_is_tiny() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), vec![servers[0].addr()])
                .await
                .unwrap();
            let addr = dm.ralloc(64 * 4096).await.unwrap();
            let data = Bytes::from(vec![9u8; 64 * 4096]);
            dm.rwrite(addr, &data).await.unwrap();
            for _ in 0..20 {
                dm.rread(addr, 64 * 4096).await.unwrap();
            }
            let frac = servers[0].translation_fraction();
            assert!(frac > 0.0 && frac < 0.25, "translation fraction {frac}");
        });
    }

    #[test]
    fn map_ref_memoizes_repeat_maps() {
        // Regression: back-to-back map_ref of the same ref used to issue a
        // duplicate round trip. With the cache on, the second map (after a
        // clean rfree) is served locally: exactly one MAP_REF wire message
        // and zero FREE wire messages until the cache is flushed.
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let dm = connect_cfg(
                client_rpc(&net, c0, 100),
                &[servers[0].addr()],
                CacheConfig::all_on(),
                None,
            )
            .await;

            let addr = dm.ralloc(8192).await.unwrap();
            dm.rwrite(addr, &Bytes::from(vec![0x42; 8192]))
                .await
                .unwrap();
            let r = dm.create_ref(addr, 8192).await.unwrap();
            dm.rfree(addr).await.unwrap();

            let m1 = dm.map_ref(&r).await.unwrap();
            assert_eq!(&dm.rread(m1, 8).await.unwrap()[..], &[0x42; 8]);
            dm.rfree(m1).await.unwrap(); // clean: release deferred
            let m2 = dm.map_ref(&r).await.unwrap();
            assert_eq!(m2.va, m1.va, "same mapping handed back");
            assert_eq!(&dm.rread(m2, 8).await.unwrap()[..], &[0x42; 8]);

            assert_eq!(dm.wire_count(proto::req::MAP_REF), 1, "duplicate map RTT");
            // Exactly one wire FREE so far: the raw region free above. The
            // mapping free was deferred, not sent.
            assert_eq!(dm.wire_count(proto::req::FREE), 1, "deferred free leaked");
            assert!(dm.cache_stats().hits() >= 1);

            // Double free of the deferred mapping fails locally, like the
            // server would fail it.
            dm.rfree(m2).await.unwrap();
            assert_eq!(dm.rfree(m2).await.unwrap_err(), DmError::InvalidAddress);

            // Flushing surfaces the hidden state; everything reclaims.
            dm.release_ref(&r).await.unwrap();
            dm.flush_cache().await;
            servers[0].with_page_manager(|pm| {
                pm.check_invariants();
                assert_eq!(pm.free_pages(), pm.capacity_pages(), "pages leaked");
            });
        });
    }

    #[test]
    fn cached_read_ref_hits_and_epoch_invalidates() {
        let r = rig(1, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let pool = vec![servers[0].addr()];
            let owner = DmNetClient::connect(client_rpc(&net, c0, 100), pool.clone())
                .await
                .unwrap();
            let reader = connect_cfg(
                client_rpc(&net, c1, 100),
                &pool,
                CacheConfig {
                    enabled: true,
                    batching: false,
                },
                None,
            )
            .await;

            let data = Bytes::from((0..8192u32).map(|i| (i % 241) as u8).collect::<Vec<_>>());
            let r = owner.put_ref(&data).await.unwrap();

            // First read fills; repeats (including sub-range reads) hit.
            assert_eq!(reader.read_ref(&r, 0, 8192).await.unwrap(), data);
            let wire_reads = reader.wire_count(proto::req::READ_REF);
            assert_eq!(reader.read_ref(&r, 0, 8192).await.unwrap(), data);
            assert_eq!(
                &reader.read_ref(&r, 100, 8).await.unwrap()[..],
                &data[100..108]
            );
            assert_eq!(reader.wire_count(proto::req::READ_REF), wire_reads);
            assert!(reader.cache_stats().hits() >= 2);

            // The owner releases the ref: the server's invalidation epoch
            // advances. The reader observes it on its next wire op, after
            // which the stale entry is gone and the read fails exactly as
            // an uncached read would.
            owner.release_ref(&r).await.unwrap();
            let scratch = reader.ralloc(4096).await.unwrap(); // observes epoch
            assert!(reader.cache_stats().invalidations() >= 1);
            assert_eq!(
                reader.read_ref(&r, 0, 8192).await.unwrap_err(),
                DmError::InvalidRef
            );
            reader.rfree(scratch).await.unwrap();
            reader.flush_cache().await;
            servers[0].with_page_manager(|pm| {
                pm.check_invariants();
                assert_eq!(pm.free_pages(), pm.capacity_pages(), "pages leaked");
            });
        });
    }

    #[test]
    fn batched_releases_coalesce_into_one_wire_message() {
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let dm = connect_cfg(
                client_rpc(&net, c0, 100),
                &[servers[0].addr()],
                CacheConfig::all_on(),
                None,
            )
            .await;

            let mut refs = Vec::new();
            for i in 0..8u8 {
                refs.push(dm.put_ref(&Bytes::from(vec![i; 4096])).await.unwrap());
            }
            for r in &refs {
                dm.release_ref(r).await.unwrap(); // queued, not sent
            }
            assert_eq!(dm.wire_count(proto::req::RELEASE_REF), 0);
            // The flush window elapses; all eight releases ride one BATCH.
            simcore::sleep(std::time::Duration::from_millis(1)).await;
            assert_eq!(dm.wire_count(proto::req::BATCH), 1);
            assert_eq!(dm.cache_stats().batched_ops(), 8);
            servers[0].with_page_manager(|pm| {
                pm.check_invariants();
                assert_eq!(pm.free_pages(), pm.capacity_pages(), "releases not applied");
            });
        });
    }

    #[test]
    fn sharded_placement_routes_by_ring() {
        // Two sharded clients with the same seed agree on every ref's home
        // without coordination, placement covers the whole pool, and no
        // redirects are chased when nothing migrates.
        let r = rig(4, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let dms = r.dm_nodes.clone();
        let (c0, c1) = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &dms, &params, DmServerConfig::default());
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            let writer = connect_cfg(
                client_rpc(&net, c0, 100),
                &pool,
                CacheConfig::default(),
                Some(7),
            )
            .await;
            let reader = connect_cfg(
                client_rpc(&net, c1, 100),
                &pool,
                CacheConfig::default(),
                Some(7),
            )
            .await;
            assert!(writer.is_sharded());

            let mut refs = Vec::new();
            for i in 0..32u8 {
                let data = Bytes::from(vec![i; 4096]);
                let r = writer.put_ref(&data).await.unwrap();
                let Ref::Net { key, .. } = r else {
                    unreachable!()
                };
                assert!(key & GKEY_BIT != 0, "sharded put_ref mints gkeys");
                refs.push((i, r));
            }
            // 32 refs over 4 servers: the ring spreads them (every server
            // holds at least one with overwhelming probability).
            for (idx, s) in servers.iter().enumerate() {
                assert!(s.gkeys_bound() > 0, "server {idx} got no refs");
            }
            // The second client resolves every gkey off its own ring copy.
            for (i, r) in &refs {
                let back = reader.read_ref(r, 0, 4096).await.unwrap();
                assert!(back.iter().all(|&b| b == *i), "wrong bytes for ref {i}");
            }
            assert_eq!(reader.redirects_chased(), 0, "no migrations, no hops");
            for (_, r) in &refs {
                reader.release_ref(r).await.unwrap();
            }
            for s in &servers {
                s.check_invariants_all();
                assert_eq!(s.free_pages_total(), s.capacity_pages_total());
                assert_eq!(s.gkeys_bound(), 0);
            }
        });
    }

    #[test]
    fn migration_redirects_one_hop_and_reloc_cache_goes_direct() {
        let r = rig(3, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let dms = r.dm_nodes.clone();
        let (c0, c1) = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &dms, &params, DmServerConfig::default());
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            // Caches off so every read is a wire op (redirects observable).
            let owner = connect_cfg(
                client_rpc(&net, c0, 100),
                &pool,
                CacheConfig::default(),
                Some(3),
            )
            .await;
            let other = connect_cfg(
                client_rpc(&net, c1, 100),
                &pool,
                CacheConfig::default(),
                Some(3),
            )
            .await;

            let data = Bytes::from((0..8192u32).map(|i| (i % 239) as u8).collect::<Vec<_>>());
            let r = owner.put_ref(&data).await.unwrap();
            let Ref::Net { server: home, .. } = r else {
                unreachable!()
            };
            // The other client reads once pre-migration (knows the home).
            assert_eq!(other.read_ref(&r, 0, 8192).await.unwrap(), data);
            assert_eq!(other.redirects_chased(), 0);

            // Migrate to a different server.
            let dst = dmcommon::DmServerId((home.0 + 1) % 3);
            owner.migrate_ref(&r, dst).await.unwrap();
            let src = &servers[home.0 as usize];
            let dstv = &servers[dst.0 as usize];
            assert_eq!(src.gkeys_bound(), 0, "source still holds the gkey");
            assert_eq!(src.tombstones(), 1, "no redirect tombstone");
            assert_eq!(dstv.gkeys_bound(), 1, "destination missing the gkey");
            assert_eq!(src.migrations(), 1);
            assert_eq!(dstv.migrations(), 1);

            // The other client's next read chases exactly one hop...
            assert_eq!(other.read_ref(&r, 0, 8192).await.unwrap(), data);
            assert_eq!(other.redirects_chased(), 1, "one-hop chase");
            assert_eq!(src.redirects(), 1);
            // ...and its relocation cache then goes direct: more reads, no
            // more hops.
            assert_eq!(
                other.read_ref(&r, 100, 64).await.unwrap()[..],
                data[100..164]
            );
            assert_eq!(other.redirects_chased(), 1, "reloc cache not used");
            // The migrating client learned the new home synchronously.
            assert_eq!(owner.read_ref(&r, 0, 16).await.unwrap()[..], data[..16]);
            assert_eq!(owner.redirects_chased(), 0);

            // Release through the redirect path reclaims everything.
            other.release_ref(&r).await.unwrap();
            for s in &servers {
                s.check_invariants_all();
                assert_eq!(s.free_pages_total(), s.capacity_pages_total());
                assert_eq!(s.gkeys_bound(), 0);
            }
        });
    }

    /// A server config that is coherent (DESIGN.md §15) on `read_lease`.
    fn coherent(read_lease: std::time::Duration) -> DmServerConfig {
        DmServerConfig {
            coherence: Some(CoherenceConfig {
                read_lease,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn targeted_invalidation_drops_only_the_released_ref() {
        // Fine-grained coherence (DESIGN.md §15): releasing one ref pushes
        // an invalidation to its read-lease holders and bumps nothing else.
        // The global epoch stays put, so unrelated cached entries keep
        // serving. The pool is mixed — server 0 coherent, with a process
        // lease and a non-default read lease to state at `REGISTER`, server 1
        // plain — and nothing tells the clients: each answer says what it
        // carries, so they keep per-ref versions under the first server and
        // the bare epoch under the second.
        let r = rig(2, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dms, c0, c1) = (r.dm_nodes.clone(), r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let ttl = std::time::Duration::from_millis(2);
            let leased = DmServerConfig {
                lease_ttl: Some(ttl),
                ..coherent(std::time::Duration::from_millis(10))
            };
            let plain = DmServerConfig::default();
            let mut servers = start_pool(&net, &dms[..1], &params, leased);
            servers.extend(start_pool(&net, &dms[1..], &params, plain));
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            let ccfg = CacheConfig::all_on();
            let owner = connect_cfg(client_rpc(&net, c0, 100), &pool, ccfg, None).await;
            let reader = connect_cfg(client_rpc(&net, c1, 100), &pool, ccfg, None).await;
            assert_eq!(reader.lease_ttl(), Some(ttl));

            // Round-robin: refs 0 and 2 on the coherent server, 1 and 3 on
            // the plain one. The reader fills its cache with all four.
            let mut refs = Vec::new();
            for i in 0..4u8 {
                let r = owner.put_ref(&Bytes::from(vec![i; 4096])).await.unwrap();
                assert!(matches!(r, Ref::Net { server, .. } if server.0 == i % 2));
                assert!(reader.read_ref(&r, 0, 4096).await.is_ok());
                refs.push(r);
            }
            let wire_reads = || reader.wire_count(proto::req::READ_REF);
            let read = |i: usize| reader.read_ref(&refs[i], 0, 4096);

            let epochs = [servers[0].epoch(), servers[1].epoch()];
            owner.release_ref(&refs[0]).await.unwrap();
            owner.release_ref(&refs[1]).await.unwrap();
            owner.flush_cache().await; // send the queued releases
            simcore::sleep(std::time::Duration::from_micros(100)).await; // push lands

            assert_eq!(servers[0].invalidations_pushed(), 1, "no push sent");
            assert_eq!(
                servers[0].epoch(),
                epochs[0],
                "a coherent release must not move the global epoch"
            );
            assert_eq!(servers[1].invalidations_pushed(), 0);
            assert_eq!(servers[1].epoch(), epochs[1] + 1);
            assert_eq!(reader.cache_stats().targeted_inv(), 1, "push not folded");

            // Coherent server: the released ref's entry is gone and the
            // wire reports the truth; the untouched ref keeps serving from
            // cache.
            let wire = wire_reads();
            assert_eq!(read(0).await.unwrap_err(), DmError::InvalidRef);
            assert!(read(2).await.is_ok());
            assert_eq!(wire_reads(), wire + 1);
            // Plain server: its epoch reaches this reader with its next
            // answer, after which neither of that server's entries serves.
            for _ in 0..2 {
                let probe = reader.ralloc(4096).await.unwrap(); // one per server
                reader.rfree(probe).await.unwrap();
            }
            assert_eq!(read(1).await.unwrap_err(), DmError::InvalidRef);
            assert!(read(3).await.is_ok());
            assert_eq!(wire_reads(), wire + 3);
            assert_eq!(reader.cache_stats().broadcast_inv(), 0);

            // A client told nothing at all (plain `connect`: no cache, no
            // word about coherence) joins the same pool under the pid each
            // server issued it. (Read as a plain success, the coherent
            // server's `REGISTER` reply put the version block's count byte
            // in the pid's low byte — 3 became 768 — and `put_ref` returned
            // a key the server never issued, leaking the ref.)
            let bare = DmNetClient::connect(client_rpc(&net, c1, 101), pool.clone());
            let bare = bare.await.unwrap();
            let data = Bytes::from(vec![0x3C; 8192]);
            for home in 0..2u8 {
                let addr = bare.ralloc(8192).await.unwrap();
                assert_eq!((addr.server.0, addr.pid.0), (home, 3));
                bare.rfree(addr).await.unwrap();
            }
            for _ in 0..2 {
                let r = bare.put_ref(&data).await.unwrap();
                assert!(matches!(r, Ref::Net { key: 3, .. }), "{r:?}");
                assert_eq!(bare.read_ref(&r, 0, 8192).await.unwrap(), data);
                assert_eq!(reader.read_ref(&r, 4096, 16).await.unwrap()[..], data[..16]);
                bare.release_ref(&r).await.unwrap();
                let gone = bare.read_ref(&r, 0, 1).await;
                assert_eq!(gone.unwrap_err(), DmError::InvalidRef);
            }

            owner.release_ref(&refs[2]).await.unwrap();
            owner.release_ref(&refs[3]).await.unwrap();
            owner.flush_cache().await;
            reader.flush_cache().await;
            for s in &servers {
                s.check_invariants_all();
                assert_eq!(s.free_pages_total(), s.capacity_pages_total());
                s.shutdown(); // stops the lease sweeper
            }
        });
    }

    #[test]
    fn lost_invalidation_is_bounded_by_the_read_lease() {
        // Safety under a lost push: a partitioned holder may serve the
        // ref's final bytes until its read lease expires (COW refs are
        // immutable, so those bytes are never diverged), after which the
        // entry stops serving and the wire reports the release.
        let r = rig(1, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let lease = std::time::Duration::from_micros(500);
            let servers = start_pool(&net, &[dm0], &params, coherent(lease));
            let pool = vec![servers[0].addr()];
            let ccfg = CacheConfig::all_on();
            let owner = connect_cfg(client_rpc(&net, c0, 100), &pool, ccfg, None).await;
            let rrpc = client_rpc(&net, c1, 100);
            let reader = connect_cfg(rrpc.clone(), &pool, ccfg, None).await;

            let da = Bytes::from(vec![0xCD; 4096]);
            let ra = owner.put_ref(&da).await.unwrap();
            assert_eq!(reader.read_ref(&ra, 0, 4096).await.unwrap(), da);

            // Partition the holder; the release's push is lost on the wire.
            rrpc.set_offline(true);
            owner.release_ref(&ra).await.unwrap();
            owner.flush_cache().await;
            simcore::sleep(std::time::Duration::from_micros(100)).await;

            // Within the lease the cache still serves the final bytes —
            // stale, never diverged — without touching the (dead) wire.
            assert_eq!(reader.read_ref(&ra, 0, 4096).await.unwrap(), da);

            // Past the lease the entry stops serving on its own.
            simcore::sleep(lease).await;
            rrpc.set_offline(false);
            assert_eq!(
                reader.read_ref(&ra, 0, 4096).await.unwrap_err(),
                DmError::InvalidRef
            );
            owner.flush_cache().await;
            servers[0].check_invariants_all();
        });
    }

    #[test]
    fn directory_overflow_falls_back_to_epoch_broadcast() {
        // The holder directory is bounded: once grants exceed `dir_max`,
        // the server drops the directory and bumps the global epoch — the
        // pre-§15 broadcast — instead of growing without bound.
        let r = rig(1, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let cfg = DmServerConfig {
                coherence: Some(CoherenceConfig {
                    dir_max: 2,
                    ..Default::default()
                }),
                ..Default::default()
            };
            let servers = start_pool(&net, &[dm0], &params, cfg);
            let epoch0 = servers[0].epoch();
            let pool = vec![servers[0].addr()];
            let owner = connect_cfg(
                client_rpc(&net, c0, 100),
                &pool,
                CacheConfig::all_on(),
                None,
            )
            .await;
            let reader = connect_cfg(
                client_rpc(&net, c1, 100),
                &pool,
                CacheConfig::all_on(),
                None,
            )
            .await;

            let mut refs = Vec::new();
            for i in 0..4u8 {
                refs.push(owner.put_ref(&Bytes::from(vec![i; 4096])).await.unwrap());
            }
            assert!(
                servers[0].coherence_broadcasts() >= 1,
                "4 grants through a 2-slot directory must overflow"
            );
            assert!(servers[0].epoch() > epoch0, "overflow must bump the epoch");

            // Correctness is unaffected: every ref still reads back, and
            // the reader accounts the epoch movement as a broadcast.
            for (i, r) in refs.iter().enumerate() {
                let back = reader.read_ref(r, 0, 4096).await.unwrap();
                assert!(back.iter().all(|&b| b == i as u8));
            }
            assert!(reader.cache_stats().broadcast_inv() >= 1);
            for r in &refs {
                owner.release_ref(r).await.unwrap();
            }
            owner.flush_cache().await;
            reader.flush_cache().await;
            servers[0].check_invariants_all();
        });
    }

    #[test]
    fn coherent_migration_bumps_version_and_survives_restart() {
        // MIGRATE under coherence: the version travels with the pages
        // (current + 1), holders of the old home get a targeted push, and
        // the destination's version table survives crash + replay (the
        // `GVer` WAL record).
        let r = rig(2, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let dms = r.dm_nodes.clone();
        let (c0, c1) = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let cfg = DmServerConfig {
                durability: Some(WalConfig::zero_cost()),
                ..coherent(std::time::Duration::from_millis(10))
            };
            let servers = start_pool(&net, &dms, &params, cfg);
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            let ccfg = CacheConfig::all_on();
            let owner = connect_cfg(client_rpc(&net, c0, 100), &pool, ccfg, Some(3)).await;
            let reader = connect_cfg(client_rpc(&net, c1, 100), &pool, ccfg, Some(3)).await;

            let data = Bytes::from((0..8192u32).map(|i| (i % 239) as u8).collect::<Vec<_>>());
            let r = owner.put_ref(&data).await.unwrap();
            let Ref::Net {
                server: home, key, ..
            } = r
            else {
                unreachable!()
            };
            assert_eq!(reader.read_ref(&r, 0, 8192).await.unwrap(), data);

            let dst = dmcommon::DmServerId((home.0 + 1) % 2);
            owner.migrate_ref(&r, dst).await.unwrap();
            simcore::sleep(std::time::Duration::from_micros(100)).await;

            // The reader's stale entry under the old home was dropped by
            // the push; the re-read chases the tombstone and still agrees.
            assert!(reader.cache_stats().targeted_inv() >= 1, "no push folded");
            assert_eq!(reader.read_ref(&r, 0, 8192).await.unwrap(), data);
            assert_eq!(servers[dst.0 as usize].ref_version(key), 2);

            // The version table is durable: crash + replay restores it.
            servers[dst.0 as usize].crash();
            servers[dst.0 as usize].restart_from_log().await;
            assert_eq!(
                servers[dst.0 as usize].ref_version(key),
                2,
                "GVer lost in replay"
            );
            assert_eq!(
                reader.read_ref(&r, 100, 64).await.unwrap()[..],
                data[100..164]
            );

            reader.release_ref(&r).await.unwrap();
            owner.flush_cache().await;
            reader.flush_cache().await;
            for s in &servers {
                s.check_invariants_all();
                assert_eq!(s.free_pages_total(), s.capacity_pages_total());
            }
        });
    }

    #[test]
    fn sharded_recovery_restores_bindings_and_tombstones() {
        // Durable sharded plane: gkey bindings and redirect tombstones
        // survive a crash + restart_from_log, including across WAL
        // compaction (v2 checkpoints).
        let r = rig(2, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let dms = r.dm_nodes.clone();
        let c0 = r.compute[0];
        r.sim.block_on(async move {
            let cfg = DmServerConfig {
                durability: Some(WalConfig::zero_cost()),
                ..Default::default()
            };
            let servers = start_pool(&net, &dms, &params, cfg);
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            let dm = connect_cfg(
                client_rpc(&net, c0, 100),
                &pool,
                CacheConfig::default(),
                Some(5),
            )
            .await;

            let mut refs = Vec::new();
            for i in 0..12u8 {
                let data = Bytes::from(vec![i ^ 0x5A; 4096]);
                refs.push(dm.put_ref(&data).await.unwrap());
            }
            // Migrate a few refs off server 0 so it holds tombstones and
            // server 1 holds migrated-in (possibly unowned-sentinel) refs.
            let mut moved = 0;
            for r in &refs {
                let Ref::Net { server, .. } = r else {
                    unreachable!()
                };
                if server.0 == 0 && moved < 3 {
                    dm.migrate_ref(r, dmcommon::DmServerId(1)).await.unwrap();
                    moved += 1;
                }
            }
            assert!(moved > 0, "seed 5 should place some refs on server 0");
            let pre: Vec<_> = servers
                .iter()
                .map(|s| (s.pages_digest(), s.gkeys_bound(), s.tombstones()))
                .collect();

            for s in &servers {
                s.crash();
                s.restart_from_log().await;
            }
            for (s, (digest, bound, tombs)) in servers.iter().zip(&pre) {
                assert_eq!(s.pages_digest(), *digest, "page state diverged");
                assert_eq!(s.gkeys_bound(), *bound, "gkey bindings lost");
                assert_eq!(s.tombstones(), *tombs, "tombstones lost");
            }
            // Every ref still reads back (through redirects where needed).
            for (i, r) in refs.iter().enumerate() {
                let back = dm.read_ref(r, 0, 4096).await.unwrap();
                assert!(back.iter().all(|&b| b == (i as u8) ^ 0x5A));
            }
            for r in &refs {
                dm.release_ref(r).await.unwrap();
            }
            for s in &servers {
                s.check_invariants_all();
                assert_eq!(s.free_pages_total(), s.capacity_pages_total());
            }
        });
    }
}
