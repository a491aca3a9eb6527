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
//! End-to-end tests live at the bottom of this file, pure ones with their
//! modules, property-based ones and the coherence explorer in `tests/`.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod coherence;
pub mod page_manager;
pub mod proto;
pub mod server;
pub mod translator;
pub mod wal;

/// Re-export of the shared VA-range allocator (lives in [`dmcommon`]).
pub use dmcommon::va_tree;

pub use cache::CacheStats;
pub use client::DmNetClient;
pub use page_manager::{OpCost, PageManager};
pub use server::{start_pool, DmServer, DmServerConfig, RecoveryReport};
pub use wal::{Record, Wal, WalConfig};

#[cfg(test)]
mod e2e_tests {
    use std::rc::Rc;

    use bytes::Bytes;
    use dmcommon::{CopyMode, DmError, DmResult, DmServerId, Ref};
    use memsim::ModelParams;
    use rpclib::{Rpc, RpcBuilder};
    use simcore::Sim;
    use simnet::{FabricConfig, Network, NicConfig, NodeId};

    use super::*;

    pub(crate) struct Rig {
        pub(crate) sim: Sim,
        pub(crate) net: Network,
        pub(crate) params: ModelParams,
        pub(crate) dm_nodes: Vec<NodeId>,
        pub(crate) compute: Vec<NodeId>,
    }

    pub(crate) fn rig(n_dm: usize, n_compute: usize) -> Rig {
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

    pub(crate) fn client_rpc(net: &Network, node: NodeId, port: u16) -> Rc<Rpc> {
        RpcBuilder::new(net, node, port).build()
    }

    /// Connect with the client cache on.
    pub(crate) async fn connect_cached(rpc: Rc<Rpc>, pool: &[simnet::Addr]) -> DmNetClient {
        DmNetClient::connect_with(rpc, pool.to_vec(), true)
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
            assert_eq!(doomed.lease_ttl(DmServerId(0)), Some(ttl));
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
                survivor.read_ref(&doomed_ref).await.unwrap_err(),
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
    fn each_server_is_renewed_at_its_own_ttl_and_a_lease_free_one_never() {
        // A pool of a 200 µs lease, a 2 ms lease and no lease. (Renewing the
        // whole pool at the last TTL seen, 2 ms / 3, let the 200 µs server
        // reclaim this live client within a millisecond, and sent the
        // lease-free server a `RENEW_LEASE` it answers `Malformed` every
        // period.)
        let r = rig(3, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dms, c0) = (r.dm_nodes.clone(), r.compute[0]);
        r.sim.block_on(async move {
            let us = std::time::Duration::from_micros;
            let mut servers = Vec::new();
            for (node, ttl) in dms.into_iter().zip([Some(us(200)), Some(us(2000)), None]) {
                let cfg = DmServerConfig {
                    lease_ttl: ttl,
                    ..Default::default()
                };
                servers.extend(start_pool(&net, &[node], &params, cfg));
            }
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            let dm = DmNetClient::connect(client_rpc(&net, c0, 100), pool)
                .await
                .unwrap();
            let ttls: Vec<_> = (0..3).map(|i| dm.lease_ttl(DmServerId(i))).collect();
            assert_eq!(ttls, [Some(us(200)), Some(us(2000)), None]);
            let served = servers[2].ops_served();

            simcore::sleep(us(5000)).await;
            for s in &servers {
                assert_eq!(s.leases_reclaimed(), 0, "a live client was reclaimed");
            }
            assert_eq!(
                servers[2].ops_served(),
                served,
                "a lease-free server was renewed"
            );
            for _ in 0..3 {
                let a = dm.ralloc(4096).await.unwrap();
                dm.rfree(a).await.unwrap();
            }
            for s in &servers {
                s.shutdown(); // stops the lease sweepers
            }
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
                durability: Some(WalConfig::zero_cost()),
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
            // recovery re-grants every owner a full TTL instead of
            // reclaiming.
            servers[0].crash();
            assert!(servers[0].is_crashed());
            simcore::sleep(2 * ttl).await;
            servers[0].restart_from_log().await;
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
        // next tick, and recovery must re-arm one.
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let ttl = std::time::Duration::from_millis(2);
            let cfg = DmServerConfig {
                lease_ttl: Some(ttl),
                durability: Some(WalConfig::zero_cost()),
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

            // Recovery re-arms one sweeper, which still works: a client
            // that crashes afterwards is reclaimed as usual.
            servers[0].restart_from_log().await;
            assert!(servers[0].sweeper_armed(), "recovery must re-arm");
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
            assert!(servers[0].wal().unwrap().records() > 0, "ops were logged");

            servers[0].crash();
            let report = servers[0].restart_from_log().await;
            assert!(!report.torn_tail);
            assert!(report.records_replayed > 0);
            assert_eq!(servers[0].recoveries(), 1);

            // Zero lost acknowledged ops, zero resurrected frees: the
            // memory plane is byte-identical to the pre-crash state.
            assert_eq!(servers[0].pages_digest(), pre_digest);
            assert_eq!(servers[0].incarnation(), 1, "the restart is counted");
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
            assert_eq!(reader.read_ref(&published).await.unwrap(), data);
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
    fn cached_client_holds_no_hidden_pins() {
        // With the cache on, `map_ref` and `rfree` are one wire op each, as
        // on the raw client: a clean free reaches the server at once, and a
        // released ref is back in the free list one flush window later,
        // with no `flush_cache` to surface anything.
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let dm = connect_cached(client_rpc(&net, c0, 100), &[servers[0].addr()]).await;
            let free = || servers[0].with_page_manager(|pm| pm.free_pages());
            let capacity = servers[0].with_page_manager(|pm| pm.capacity_pages());

            let r = dm.put_ref(&Bytes::from(vec![0x42; 8192])).await.unwrap();
            let m = dm.map_ref(&r).await.unwrap();
            assert_eq!(&dm.rread(m, 8).await.unwrap()[..], &[0x42; 8]);
            dm.rfree(m).await.unwrap(); // clean
            assert_eq!(dm.wire_count(proto::req::FREE), 1, "free held back");
            assert_eq!(free(), capacity - 2, "only the ref's own pages pinned");
            // The server, not the client, answers the double free.
            assert_eq!(dm.rfree(m).await.unwrap_err(), DmError::InvalidAddress);
            assert_eq!(dm.wire_count(proto::req::FREE), 2);

            dm.release_ref(&r).await.unwrap();
            simcore::sleep(cache::FLUSH_WINDOW * 2).await;
            assert_eq!(free(), capacity, "release held back");
            servers[0].with_page_manager(|pm| pm.check_invariants());
        });
    }

    #[test]
    fn cached_reads_hit_until_a_listed_death_or_a_reclaimed_lease_resets() {
        // Repeat reads hit; a death is listed on the
        // reader's next answer (DESIGN.md §9). A lease reclamation drops
        // the reader's grants and pending keys and keeps its count one
        // higher: a reader that was only partitioned is told of no later
        // death, and its next answer drops all it cached from the server.
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
            let owner = DmNetClient::connect(client_rpc(&net, c0, 100), pool.clone());
            let owner = owner.await.unwrap();
            let reader_rpc = client_rpc(&net, c1, 100);
            let reader = connect_cached(reader_rpc.clone(), &pool).await;

            let data = Bytes::from((0..8192u32).map(|i| (i % 241) as u8).collect::<Vec<_>>());
            let mut refs = Vec::new();
            for _ in 0..3 {
                let r = owner.put_ref(&data).await.unwrap();
                assert_eq!(reader.read_ref(&r).await.unwrap(), data);
                refs.push(r);
            }
            let wire = || reader.wire_count(proto::req::READ_REF);
            let filled = wire();
            assert_eq!(
                (reader.read_ref(&refs[0]).await.unwrap(), wire()),
                (data.clone(), filled)
            );

            owner.release_ref(&refs[0]).await.unwrap();
            let scratch = reader.ralloc(4096).await.unwrap(); // lists the key
            assert_eq!(reader.cache_stats().listed(), 1);
            let gone = reader.read_ref(&refs[0]).await;
            assert_eq!(gone.unwrap_err(), DmError::InvalidRef);

            // The reader goes dark past its lease, then `refs[1]` dies.
            reader_rpc.set_offline(true);
            simcore::sleep(5 * ttl).await;
            assert_eq!(servers[0].leases_reclaimed(), 1);
            owner.release_ref(&refs[1]).await.unwrap();
            reader_rpc.set_offline(false);
            // Unheard, its entry serves the final bytes; the next answer
            // (an error: the reader's pid is gone) resets the reader.
            assert_eq!(reader.read_ref(&refs[1]).await.unwrap(), data);
            assert!(reader.rfree(scratch).await.is_err());
            assert_eq!(reader.cache_stats().resets(), 1);
            let gone = reader.read_ref(&refs[1]).await;
            assert_eq!(gone.unwrap_err(), DmError::InvalidRef);
            assert_eq!(reader.read_ref(&refs[2]).await.unwrap(), data);
            assert_eq!(wire(), filled + 3);
            assert_eq!(
                servers[0].invalidations_pushed(),
                1,
                "a forgotten grant was listed"
            );
            owner.release_ref(&refs[2]).await.unwrap();
            servers[0].with_page_manager(|pm| {
                pm.check_invariants();
                assert_eq!(pm.free_pages(), pm.capacity_pages(), "pages leaked");
            });
            servers[0].shutdown(); // stops the lease sweeper
        });
    }

    /// A `BATCH` over `rpc` releasing what `refs` name, its count set to
    /// `n`: the op's result.
    async fn raw_batch(rpc: &Rc<Rpc>, server: &DmServer, n: u32, refs: &[Ref]) -> DmResult<()> {
        let keys: Vec<_> = refs
            .iter()
            .map(|r| (DmNetClient::resolve(r).unwrap().1, None))
            .collect();
        let mut body = proto::encode_releases(&keys).into_bytes().to_vec();
        body[..4].copy_from_slice(&n.to_le_bytes());
        let resp = rpc.call(server.addr(), proto::req::BATCH, Bytes::from(body));
        proto::split_response(&resp.await.unwrap()).1.map(drop)
    }

    #[test]
    fn a_batch_whose_list_overruns_its_body_releases_nothing() {
        let r = rig(1, 1);
        let (net, params, dm0, c0) = (r.net.clone(), r.params.clone(), r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let (s, rpc) = (&servers[0], client_rpc(&net, c0, 100));
            let dm = DmNetClient::connect(rpc.clone(), vec![s.addr()]);
            let (dm, data) = (dm.await.unwrap(), Bytes::from(vec![1; 4096]));
            let refs = [dm.put_ref(&data).await, dm.put_ref(&data).await].map(Result::unwrap);
            let free = || s.with_page_manager(|pm| pm.free_pages());
            let pinned = free();
            // Three keys counted, two sent: neither live ref is released.
            let overrun = raw_batch(&rpc, s, 3, &refs).await;
            assert_eq!((overrun, free()), (Err(DmError::Malformed), pinned));
            let whole = raw_batch(&rpc, s, 2, &refs).await;
            assert_eq!((whole, free()), (Ok(()), pinned + 2));
        });
    }

    #[test]
    fn a_batch_of_live_dead_and_live_keys_releases_the_live_refs_and_lists_them() {
        let r = rig(1, 2);
        let (net, params, dm0) = (r.net.clone(), r.params.clone(), r.dm_nodes[0]);
        let (c0, c1) = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let (s, pool, rpc) = (&servers[0], [servers[0].addr()], client_rpc(&net, c0, 100));
            let owner = DmNetClient::connect(rpc.clone(), pool.to_vec());
            let owner = owner.await.unwrap();
            let reader = connect_cached(client_rpc(&net, c1, 100), &pool).await;
            let mut refs = Vec::new();
            for i in 0..3u8 {
                refs.push(owner.put_ref(&Bytes::from(vec![i; 4096])).await.unwrap());
            }
            // The middle ref dies first; the reader caches the first.
            owner.release_ref(&refs[1]).await.unwrap();
            assert!(reader.read_ref(&refs[0]).await.is_ok());
            assert_eq!(raw_batch(&rpc, s, 3, &refs).await, Ok(()));
            s.check_invariants_all();
            assert_eq!(s.free_pages_total(), s.capacity_pages_total());
            // The reader's next answer lists the released key it holds.
            let probe = reader.ralloc(4096).await.unwrap();
            reader.rfree(probe).await.unwrap();
            assert_eq!(reader.cache_stats().listed(), 1);
            let gone = reader.read_ref(&refs[0]).await;
            assert_eq!(gone.unwrap_err(), DmError::InvalidRef);
            // A key with the trace bit is refused, never queued.
            let forged = Ref::Net {
                server: DmServerId(0),
                key: 1 << 63 | 3,
                len: 1,
            };
            assert_eq!(reader.release_ref(&forged).await, Err(DmError::InvalidRef));
        });
    }

    #[test]
    fn a_release_is_listed_to_the_other_holders_only() {
        // DESIGN.md §9: releasing one ref lists its key to the clients that
        // may cache it, on the next answer each gets from its server, and
        // to nobody else; unrelated cached entries keep serving. The pool
        // mixes a server that grants process leases with one that does not,
        // and nothing tells the clients but each `REGISTER` reply.
        let r = rig(2, 2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dms, c0, c1) = (r.dm_nodes.clone(), r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let ttl = std::time::Duration::from_millis(2);
            let leased = DmServerConfig {
                lease_ttl: Some(ttl),
                ..Default::default()
            };
            let mut servers = start_pool(&net, &dms[..1], &params, leased);
            servers.extend(start_pool(&net, &dms[1..], &params, Default::default()));
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            let owner = connect_cached(client_rpc(&net, c0, 100), &pool).await;
            let reader = connect_cached(client_rpc(&net, c1, 100), &pool).await;
            assert_eq!(reader.lease_ttl(DmServerId(0)), Some(ttl));
            assert_eq!(reader.lease_ttl(DmServerId(1)), None);

            // Round-robin: refs 0 and 2 on server 0, 1 and 3 on server 1.
            // The reader fills its cache with all four.
            let mut refs = Vec::new();
            for i in 0..4u8 {
                let r = owner.put_ref(&Bytes::from(vec![i; 4096])).await.unwrap();
                assert!(matches!(r, Ref::Net { server, .. } if server.0 == i % 2));
                assert!(reader.read_ref(&r).await.is_ok());
                refs.push(r);
            }
            let wire_reads = || reader.wire_count(proto::req::READ_REF);
            let read = |i: usize| reader.read_ref(&refs[i]);

            owner.release_ref(&refs[0]).await.unwrap();
            owner.flush_cache().await;
            // Until the reader hears from server 0, its entry serves the
            // dead ref's final bytes, which never diverge.
            let wire = wire_reads();
            assert_eq!(read(0).await.unwrap()[..], [0; 4096]);
            assert_eq!(wire_reads(), wire);
            let probe = reader.ralloc(4096).await.unwrap(); // server 0 answers
            reader.rfree(probe).await.unwrap();
            assert_eq!(servers[0].invalidations_pushed(), 1);
            assert_eq!(servers[1].invalidations_pushed(), 0);
            assert_eq!(reader.cache_stats().listed(), 1);
            assert_eq!(owner.cache_stats().listed(), 0, "the releaser is not told");

            // The released ref's entry is gone and the wire reports the
            // truth; every other entry keeps serving from cache.
            assert_eq!(read(0).await.unwrap_err(), DmError::InvalidRef);
            for i in 1..4 {
                assert!(read(i).await.is_ok());
            }
            assert_eq!(wire_reads(), wire + 1);
            assert_eq!(reader.cache_stats().resets(), 0);

            // A client told nothing at all (plain `connect`: no cache)
            // joins the same pool under the pid each server issued it, and
            // `put_ref` returns the key the server minted.
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
                assert_eq!(bare.read_ref(&r).await.unwrap(), data);
                assert_eq!(reader.read_ref(&r).await.unwrap(), data);
                bare.release_ref(&r).await.unwrap();
                let gone = bare.read_ref(&r).await;
                assert_eq!(gone.unwrap_err(), DmError::InvalidRef);
            }

            for r in &refs[1..] {
                owner.release_ref(r).await.unwrap();
            }
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
    fn a_ref_cached_before_any_of_several_crashes_is_never_served_after_its_release() {
        // Holders and counts are volatile; only the log survives a crash.
        // On the zero-cost log, with no checkpoint between crashes, a
        // reader caches one ref per incarnation; after the last restart
        // every ref is released, which the server can list to no one. The
        // reader's next answer from the server must still make it drop
        // them all, however many crashes came before.
        for crashes in [2u64, 3] {
            let r = rig(1, 2);
            let (net, params) = (r.net.clone(), r.params.clone());
            let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
            r.sim.block_on(async move {
                let cfg = DmServerConfig {
                    durability: Some(WalConfig {
                        compact_threshold_bytes: 0,
                        ..WalConfig::zero_cost()
                    }),
                    ..Default::default()
                };
                let servers = start_pool(&net, &[dm0], &params, cfg);
                let pool = vec![servers[0].addr()];
                let owner = DmNetClient::connect(client_rpc(&net, c0, 100), pool.clone());
                let owner = owner.await.unwrap();
                let reader = connect_cached(client_rpc(&net, c1, 100), &pool).await;
                let mut refs = Vec::new();
                for i in 0..crashes {
                    let r = owner
                        .put_ref(&Bytes::from(vec![i as u8; 64]))
                        .await
                        .unwrap();
                    assert!(reader.read_ref(&r).await.is_ok());
                    refs.push(r);
                    servers[0].crash();
                    servers[0].restart_from_log().await;
                    assert_eq!(servers[0].incarnation(), i + 1);
                }
                for r in &refs {
                    owner.release_ref(r).await.unwrap();
                }
                assert_eq!(servers[0].invalidations_pushed(), 0, "no holder known");
                let probe = reader.ralloc(4096).await.unwrap();
                reader.rfree(probe).await.unwrap();
                for r in &refs {
                    let stale = reader.read_ref(r).await;
                    assert_eq!(stale.unwrap_err(), DmError::InvalidRef, "{crashes} crashes");
                }
                assert_eq!(reader.cache_stats().hits(), 0);
                servers[0].check_invariants_all();
            });
        }
    }

    #[test]
    fn a_fill_overtaken_by_the_listing_of_its_death_is_discarded() {
        // A 256 KiB `READ_REF` reply rides the NIC's bulk class, so the
        // reply to a small request sent after it overtakes it. The ref dies
        // while its bytes are on the wire: 14 µs in, after the read was
        // answered, so the small reply lists the death first and the late
        // reply changes nothing; 3 µs in, while the read still waits for
        // the server's memory, so the read's own reply lists it, arrives
        // last, and the small reply's count shows a gap. 1 µs in, the ref
        // dies and the small op is answered while the read still waits:
        // the small reply lists the death before the fill exists, so the
        // read's own reply, in order, must list it again. Whatever the
        // timing, the late fill must not be cached.
        for (wait_us, listed, resets) in [(14, [1, 1], 0), (3, [0, 0], 1), (1, [1, 2], 0)] {
            let r = rig(1, 2);
            let (net, params) = (r.net.clone(), r.params.clone());
            let (dm0, c0, c1) = (r.dm_nodes[0], r.compute[0], r.compute[1]);
            r.sim.block_on(async move {
                let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
                let pool = vec![servers[0].addr()];
                let owner = DmNetClient::connect(client_rpc(&net, c0, 100), pool.clone());
                let owner = owner.await.unwrap();
                let reader = Rc::new(connect_cached(client_rpc(&net, c1, 100), &pool).await);
                let data = Bytes::from(vec![0x77; 256 << 10]);
                let r = owner.put_ref(&data).await.unwrap();
                let probe = reader.ralloc(4096).await.unwrap();

                let (app, big) = (reader.clone(), r.clone());
                let read = simcore::spawn(async move { app.read_ref(&big).await });
                simcore::sleep(std::time::Duration::from_micros(wait_us)).await;
                owner.release_ref(&r).await.unwrap();
                reader.rfree(probe).await.unwrap();
                assert!(!read.is_finished(), "the bulk reply was not overtaken");
                let seen = || (reader.cache_stats().listed(), reader.cache_stats().resets());
                assert_eq!(seen(), (listed[0], resets), "{wait_us} µs");

                // The read itself returns the ref's final bytes (it was
                // served while the ref lived), but nothing of it is cached.
                assert_eq!(read.await.unwrap(), data);
                assert_eq!(seen(), (listed[1], resets), "{wait_us} µs, late reply");
                let wire = reader.wire_count(proto::req::READ_REF);
                let gone = reader.read_ref(&r).await;
                assert_eq!(gone.unwrap_err(), DmError::InvalidRef);
                assert_eq!(reader.wire_count(proto::req::READ_REF), wire + 1);
                servers[0].check_invariants_all();
            });
        }
    }

    #[test]
    fn a_holder_past_a_clients_capacity_has_its_oldest_grant_revoked() {
        // A client caches at most `CACHE_PAGES` entries from one server, so
        // a server keeps no more grants per client than that: the next one
        // revokes the oldest by listing its key, which the client drops.
        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let pool = vec![servers[0].addr()];
            let dm = connect_cached(client_rpc(&net, c0, 100), &pool).await;
            let one = Bytes::from_static(b"x");
            let mut refs = Vec::new();
            for _ in 0..cache::CACHE_PAGES {
                refs.push(dm.put_ref(&one).await.unwrap());
            }
            // Hit the oldest, so the client's own eviction passes it over.
            assert_eq!(dm.read_ref(&refs[0]).await.unwrap(), one);
            assert_eq!(dm.wire_count(proto::req::READ_REF), 0);
            // One grant too many: its own answer lists the oldest.
            refs.push(dm.put_ref(&one).await.unwrap());
            assert_eq!(servers[0].invalidations_pushed(), 1);
            assert_eq!(dm.cache_stats().listed(), 1);
            // The revoked ref is alive: read from the wire, then cached again.
            assert_eq!(dm.read_ref(&refs[0]).await.unwrap(), one);
            assert_eq!(dm.read_ref(&refs[0]).await.unwrap(), one);
            assert_eq!(dm.wire_count(proto::req::READ_REF), 1);
            for r in &refs {
                dm.release_ref(r).await.unwrap();
            }
            dm.flush_cache().await;
            assert_eq!(
                servers[0].free_pages_total(),
                servers[0].capacity_pages_total()
            );
        });
    }
}
