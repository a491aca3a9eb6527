//! # dmcxl — CXL G-FAM disaggregated memory (DmRPC-CXL's DM layer)
//!
//! Implements the paper's §V-B design on an emulated CXL 3.0 fabric:
//!
//! * [`gfam::GFam`] — the Global Fabric-Attached Memory device: one DPA
//!   space of real pages plus fabric-atomic per-page refcounts, shared by
//!   every host, with a configurable access latency (default 265 ns = FPGA
//!   CXL measurement × switch latency, sweepable for Fig. 12);
//! * [`coordinator::Coordinator`] — the page-ownership service; hosts
//!   reserve and return free pages in batches over a reliable protocol;
//! * [`host::CxlHost`] — the per-process DM layer: VMA tree, page table
//!   with permission flags, owned-free-page FIFO, and the **distributed
//!   copy-on-write** driven by page faults and fabric atomics.
//!
//! The paper itself emulates CXL with cross-socket accesses and uncore
//! frequency scaling; here the same latency model is applied to a real
//! G-FAM data structure (see DESIGN.md §2).

#![warn(missing_docs)]

pub mod coordinator;
pub mod gfam;
pub mod host;

use std::collections::BTreeMap;
use std::rc::Rc;

pub use coordinator::Coordinator;
pub use gfam::GFam;
pub use host::{CxlHost, CxlHostConfig, CxlHostStats};

use memsim::ModelParams;
use rpclib::Rpc;
use simnet::{Network, NodeId};

/// Convenience bundle: one G-FAM device + one coordinator, from which hosts
/// are minted. Mirrors the paper's single-fabric deployments.
pub struct CxlFabric {
    gfam: Rc<GFam>,
    coordinator: Rc<Coordinator>,
    host_config: CxlHostConfig,
}

impl CxlFabric {
    /// Create the fabric: the G-FAM device plus a coordinator service on
    /// `coord_node`.
    pub fn new(
        net: &Network,
        coord_node: NodeId,
        capacity_pages: usize,
        params: ModelParams,
        host_config: CxlHostConfig,
    ) -> CxlFabric {
        CxlFabric {
            gfam: GFam::new(capacity_pages, params),
            coordinator: Coordinator::start(net, coord_node, capacity_pages),
            host_config,
        }
    }

    /// The shared device.
    pub fn gfam(&self) -> &Rc<GFam> {
        &self.gfam
    }

    /// The coordinator.
    pub fn coordinator(&self) -> &Rc<Coordinator> {
        &self.coordinator
    }

    /// Mint the DM layer for one process, using its RPC endpoint for the
    /// ownership protocol.
    pub fn new_host(&self, rpc: Rc<Rpc>) -> Rc<CxlHost> {
        CxlHost::new(
            self.gfam.clone(),
            rpc,
            self.coordinator.addr(),
            self.host_config,
        )
    }
}

/// Check fabric-wide conservation invariants. `live_refs` is the number of
/// outstanding (created, not released) reference pins per page, supplied by
/// the test harness.
///
/// Panics with a description on violation.
pub fn check_fabric_invariants(
    gfam: &GFam,
    coordinator: &Coordinator,
    hosts: &[Rc<CxlHost>],
    live_refs: &[(u32, u32)],
) {
    // The coordinator exposes only a count; host FIFOs expose contents.
    let coord_free = coordinator.free_pages();
    let mut host_free: Vec<u32> = hosts.iter().flat_map(|h| h.free_snapshot()).collect();
    host_free.sort_unstable();
    // 1. No page owned free by two hosts; free pages have rc == 0. Only a
    //    pinned page is in G-FAM's table, so only it holds bytes and a
    //    fresh mapping reads zeros.
    for w in host_free.windows(2) {
        assert_ne!(w[0], w[1], "page {} in two host free lists", w[0]);
    }
    for &p in &host_free {
        assert_eq!(gfam.rc_peek(p), 0, "free page {p} has rc != 0");
    }
    // 2. rc(p) == #PTEs(p) + #live ref pins(p).
    let mut expected: BTreeMap<u32, u32> = BTreeMap::new();
    let ptes = hosts
        .iter()
        .flat_map(|h| h.pte_snapshot())
        .map(|(_, ppn, _)| (ppn, 1));
    for (ppn, pins) in ptes.chain(live_refs.iter().copied()) {
        *expected.entry(ppn).or_default() += pins;
    }
    let pinned = gfam.pinned_pages();
    for &(p, rc) in &pinned {
        let exp = expected.remove(&p).unwrap_or(0);
        assert_eq!(rc, exp, "page {p}: rc {rc} != PTEs+refs {exp}");
    }
    if let Some((p, exp)) = expected.into_iter().find(|&(_, exp)| exp > 0) {
        panic!("page {p}: rc 0 != PTEs+refs {exp}");
    }
    // 3. Conservation: free everywhere + in-use == capacity.
    assert_eq!(
        coord_free + host_free.len() + pinned.len(),
        gfam.capacity_pages(),
        "page conservation violated"
    );
}

#[cfg(test)]
mod e2e_tests {
    use std::time::Duration;

    use bytes::Bytes;
    use dmcommon::{CopyMode, DmError, Ref, PAGE_SIZE};
    use memsim::ModelParams;
    use rpclib::RpcBuilder;
    use simcore::Sim;
    use simnet::{FabricConfig, Network, NicConfig, NodeId};

    use super::*;

    const PS: u64 = PAGE_SIZE as u64;

    struct Rig {
        sim: Sim,
        net: Network,
        params: ModelParams,
        coord_node: NodeId,
        compute: Vec<NodeId>,
    }

    fn rig(n_compute: usize) -> Rig {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 5);
        let coord_node = net.add_node("coord", NicConfig::default());
        let compute = (0..n_compute)
            .map(|i| net.add_node(format!("c{i}"), NicConfig::default()))
            .collect();
        Rig {
            sim,
            net,
            params: ModelParams::new(),
            coord_node,
            compute,
        }
    }

    #[test]
    fn store_load_roundtrip_with_lazy_faulting() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 1024, params, CxlHostConfig::default());
            let rpc = RpcBuilder::new(&net, c0, 100).build();
            let host = fabric.new_host(rpc);

            let va = host.alloc(3 * PS).unwrap();
            // Load before any store: zeros, no faults.
            let z = host.load(va, 100).await.unwrap();
            assert!(z.iter().all(|&b| b == 0));
            assert_eq!(host.stats().faults.get(), 0);

            let data: Vec<u8> = (0..3 * PS).map(|i| (i % 249) as u8).collect();
            host.store(va, &data).await.unwrap();
            assert_eq!(host.stats().faults.get(), 3, "one fault per page");
            let back = host.load(va, 3 * PS).await.unwrap();
            assert_eq!(&back[..], &data[..]);

            // Second store: no more faults (case 3, writable).
            host.store(va + 10, b"xyz").await.unwrap();
            assert_eq!(host.stats().faults.get(), 3);

            host.free(va).unwrap();
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host], &[]);
        });
    }

    #[test]
    fn distributed_cow_between_hosts() {
        let r = rig(2);
        let (net, params, cn) = (r.net.clone(), r.params.clone(), r.coord_node);
        let (c0, c1) = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 1024, params, CxlHostConfig::default());
            let producer = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let consumer = fabric.new_host(RpcBuilder::new(&net, c1, 100).build());

            let va = producer.alloc(2 * PS).unwrap();
            let original = vec![0x5Au8; 2 * PAGE_SIZE];
            producer.store(va, &original).await.unwrap();
            let r = producer.create_ref(va, 2 * PS).await.unwrap();
            let Ref::Cxl { ref pages, .. } = r else {
                panic!()
            };
            assert_eq!(pages.len(), 2);

            // Consumer on another host maps and reads — zero copies.
            let cva = consumer.map_ref(&r).await.unwrap();
            let got = consumer.load(cva, 2 * PS).await.unwrap();
            assert_eq!(&got[..], &original[..]);
            assert_eq!(consumer.stats().cow_copies.get(), 0);

            // Consumer writes one byte in page 1: exactly one COW copy.
            consumer.store(cva + PS + 3, &[0xA5]).await.unwrap();
            assert_eq!(consumer.stats().cow_copies.get(), 1);
            // Producer still sees the original (read-only after create_ref).
            let pview = producer.load(va, 2 * PS).await.unwrap();
            assert_eq!(&pview[..], &original[..]);
            // Consumer sees its own modification merged with shared page 0.
            let cview = consumer.load(cva, 2 * PS).await.unwrap();
            assert_eq!(cview[PAGE_SIZE + 3], 0xA5);
            assert_eq!(&cview[..PAGE_SIZE], &original[..PAGE_SIZE]);

            // Creator write also COWs (its PTE went read-only).
            producer.store(va, &[1]).await.unwrap();
            assert_eq!(producer.stats().cow_copies.get(), 1);

            // Tear down: frees + release, then full conservation.
            producer.free(va).unwrap();
            consumer.free(cva).unwrap();
            producer.release_ref(&r).await.unwrap();
            check_fabric_invariants(
                fabric.gfam(),
                fabric.coordinator(),
                &[producer, consumer],
                &[],
            );
        });
    }

    #[test]
    fn sole_owner_write_flips_permission_without_copy() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 256, params, CxlHostConfig::default());
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(PS).unwrap();
            host.store(va, b"data").await.unwrap();
            let r = host.create_ref(va, PS).await.unwrap();
            // Release the ref: the creator is sole owner again (rc back to 1)
            host.release_ref(&r).await.unwrap();
            host.store(va, b"more").await.unwrap();
            assert_eq!(host.stats().cow_copies.get(), 0, "no copy for sole owner");
            host.free(va).unwrap();
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host], &[]);
        });
    }

    #[test]
    fn eager_copy_ablation_copies_at_create_ref() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let cfg = CxlHostConfig {
                copy_mode: CopyMode::Eager,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, cn, 1024, params, cfg);
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(8 * PS).unwrap();
            host.store(va, &vec![9u8; 8 * PAGE_SIZE]).await.unwrap();
            let traffic0 = fabric.gfam().traffic_bytes();
            let t0 = simcore::now();
            let r = host.create_ref(va, 8 * PS).await.unwrap();
            let eager_time = simcore::now() - t0;
            let eager_traffic = fabric.gfam().traffic_bytes() - traffic0;
            assert!(eager_traffic >= 2 * 8 * PS, "traffic {eager_traffic}");
            assert!(eager_time > Duration::from_micros(2), "time {eager_time:?}");
            // Creator stays writable: no COW on subsequent writes.
            host.store(va, &[1]).await.unwrap();
            assert_eq!(host.stats().cow_copies.get(), 0);
            // The copy is a faithful snapshot.
            let other = fabric.new_host(RpcBuilder::new(&net, c0, 101).build());
            let ova = other.map_ref(&r).await.unwrap();
            let snap = other.load(ova, 8).await.unwrap();
            assert_eq!(&snap[..], &[9u8; 8]);
        });
    }

    #[test]
    fn put_ref_costs_its_stores_and_one_atomic_batch() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 1024, params, CxlHostConfig::default());
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            // Fill the owned-free FIFO so no publish waits on the coordinator.
            let warm = host
                .put_ref(Bytes::from(vec![0u8; 32 * PAGE_SIZE]))
                .await
                .unwrap();
            host.release_ref(&warm).await.unwrap();
            let g = fabric.gfam().clone();
            let stats = host.stats().clone();
            // (elapsed ns, faults, atomics) of one unloaded call.
            let measure = |before: (simcore::SimTime, u64, u64)| {
                (
                    (simcore::now() - before.0).as_nanos() as u64,
                    stats.faults.get() - before.1,
                    g.atomic_ops() - before.2,
                )
            };
            let start = || (simcore::now(), stats.faults.get(), g.atomic_ops());

            // The stores (len / 64 GB/s) and the N refcount initialisations
            // (20 ns each) go out together; one CXL latency after the later.
            for len in [
                1,
                PAGE_SIZE - 1,
                PAGE_SIZE,
                3 * PAGE_SIZE + 1,
                16 * PAGE_SIZE,
            ] {
                let n = len.div_ceil(PAGE_SIZE) as u64;
                let s = start();
                let r = host.put_ref(Bytes::from(vec![7u8; len])).await.unwrap();
                let want = (len as u64).div_ceil(64).max(20 * n) + 265;
                assert_eq!(measure(s), (want, 0, n), "put_ref of {len} B");
                assert!(host.pte_snapshot().is_empty());
                host.release_ref(&r).await.unwrap();
            }
            let s = start();
            let fast = host
                .put_ref(Bytes::from(vec![7u8; 16 * PAGE_SIZE]))
                .await
                .unwrap();
            assert_eq!(measure(s), (1_289, 0, 16), "64 KiB put_ref");

            // Listing 1's publish of the same bytes: one fault (400 ns trap +
            // 30 ns PTE) per page, the stores, a 30 ns PTE flip per page and
            // the increment batch; the synchronous `free` charges nothing.
            // Atomics: 16 initialisations, 16 increments, 16 decrements.
            let s = start();
            let va = host.alloc(16 * PS).unwrap();
            host.store(va, &vec![7u8; 16 * PAGE_SIZE]).await.unwrap();
            let slow = host.create_ref(va, 16 * PS).await.unwrap();
            host.free(va).unwrap();
            assert_eq!(measure(s), (9_234, 16, 48), "64 KiB Listing-1 publish");

            for r in [fast, slow] {
                host.release_ref(&r).await.unwrap();
            }
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host], &[]);
        });
    }

    #[test]
    fn ownership_batching_amortizes_coordinator_rpcs() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let cfg = CxlHostConfig {
                request_batch: 64,
                low_watermark: 8,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, cn, 4096, params, cfg);
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(100 * PS).unwrap();
            host.store(va, &vec![1u8; 100 * PAGE_SIZE]).await.unwrap();
            // Let background refills settle.
            simcore::sleep(Duration::from_millis(1)).await;
            let rpcs = host.stats().coord_rpcs.get();
            assert!(
                rpcs <= 5,
                "100 faults should need only a few batched grants, got {rpcs}"
            );
        });
    }

    #[test]
    fn pages_returned_above_high_watermark() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let cfg = CxlHostConfig {
                request_batch: 32,
                low_watermark: 4,
                high_watermark: 16,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, cn, 512, params, cfg);
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(64 * PS).unwrap();
            host.store(va, &vec![1u8; 64 * PAGE_SIZE]).await.unwrap();
            host.free(va).unwrap();
            simcore::sleep(Duration::from_millis(1)).await;
            assert!(
                host.owned_free_pages() <= 16 + 32,
                "host hoards {} pages",
                host.owned_free_pages()
            );
            assert!(
                fabric.coordinator().return_rpcs() > 0,
                "no returns happened"
            );
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host], &[]);
        });
    }

    #[test]
    fn out_of_fabric_memory() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 8, params, CxlHostConfig::default());
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(16 * PS).unwrap();
            let r = host.store(va, &vec![1u8; 16 * PAGE_SIZE]).await;
            assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
        });
    }

    /// An eager `create_ref` that runs short changes nothing: with two of a
    /// 5-page fabric's pages left, copying a 3-page region is `OutOfMemory`
    /// before the first copy, so no copy is left pinned with no owner.
    #[test]
    fn an_eager_create_ref_that_does_not_fit_takes_no_page() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let cfg = CxlHostConfig {
                request_batch: 1,
                low_watermark: 0,
                copy_mode: CopyMode::Eager,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, cn, 5, params, cfg);
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(3 * PS).unwrap();
            host.store(va, &vec![3u8; 3 * PAGE_SIZE]).await.unwrap();
            let mut ptes = host.pte_snapshot();
            let r = host.create_ref(va, 3 * PS).await;
            assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
            let mut after = host.pte_snapshot();
            ptes.sort_unstable();
            after.sort_unstable();
            assert_eq!(after, ptes, "the region is as it was");
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host], &[]);
        });
    }

    #[test]
    fn load_store_bounds_checked() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 64, params, CxlHostConfig::default());
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(PS).unwrap();
            assert_eq!(
                host.store(va + PS - 1, &[1, 2]).await.unwrap_err(),
                DmError::OutOfBounds
            );
            assert_eq!(
                host.load(va, PS + 1).await.unwrap_err(),
                DmError::OutOfBounds
            );
            assert_eq!(
                host.load(0x100, 1).await.unwrap_err(),
                DmError::InvalidAddress
            );
            // `va + len` wrapping past zero is out of bounds, not inside.
            for len in [u64::MAX, u64::MAX - va + 1] {
                assert_eq!(host.load(va, len).await.unwrap_err(), DmError::OutOfBounds);
                let r = host.create_ref(va, len).await;
                assert_eq!(r.unwrap_err(), DmError::OutOfBounds);
            }
        });
    }

    #[test]
    fn cxl_access_latency_knob_changes_op_time() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        let p2 = params.clone();
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 256, params, CxlHostConfig::default());
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(PS).unwrap();
            host.store(va, &vec![1u8; PAGE_SIZE]).await.unwrap();

            let t0 = simcore::now();
            host.load(va, PS).await.unwrap();
            let fast = simcore::now() - t0;

            p2.set_cxl_latency(Duration::from_nanos(400));
            let t1 = simcore::now();
            host.load(va, PS).await.unwrap();
            let slow = simcore::now() - t1;
            assert_eq!(
                (slow - fast),
                Duration::from_nanos(400 - 265),
                "latency knob delta"
            );
        });
    }

    #[test]
    fn concurrent_store_faults_on_one_page_are_serialized() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            // Tiny owned-page reserve so every fault's take_page awaits a
            // coordinator round trip — maximizing the race window.
            let cfg = CxlHostConfig {
                request_batch: 1,
                low_watermark: 0,
                high_watermark: 1024,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, cn, 512, params, cfg);
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(PS).unwrap();
            host.store(va, &vec![7u8; PAGE_SIZE]).await.unwrap();
            let r = host.create_ref(va, PS).await.unwrap();

            // Many tasks write disjoint bytes of the SAME shared page at the
            // same instant: exactly one COW must happen, and every write
            // must land on the surviving private page.
            let mut handles = Vec::new();
            for i in 0..8u64 {
                let host = host.clone();
                handles.push(simcore::spawn(async move {
                    host.store(va + i, &[i as u8]).await.unwrap();
                }));
            }
            for h in handles {
                h.await;
            }
            assert_eq!(host.stats().cow_copies.get(), 1, "exactly one COW");
            let view = host.load(va, 8).await.unwrap();
            assert_eq!(&view[..], &[0, 1, 2, 3, 4, 5, 6, 7], "no lost writes");
            // The ref still serves the original.
            let other = fabric.new_host(RpcBuilder::new(&net, c0, 101).build());
            let ova = other.map_ref(&r).await.unwrap();
            assert_eq!(&other.load(ova, 8).await.unwrap()[..], &[7u8; 8]);

            other.free(ova).unwrap();
            host.free(va).unwrap();
            host.release_ref(&r).await.unwrap();
            simcore::sleep(Duration::from_millis(1)).await;
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host, other], &[]);
        });
    }

    #[test]
    fn ref_with_live_pins_accounted_in_invariants() {
        let r = rig(1);
        let (net, params, cn, c0) = (r.net.clone(), r.params.clone(), r.coord_node, r.compute[0]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 128, params, CxlHostConfig::default());
            let host = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let va = host.alloc(2 * PS).unwrap();
            host.store(va, &vec![1u8; 2 * PAGE_SIZE]).await.unwrap();
            let r = host.create_ref(va, 2 * PS).await.unwrap();
            let Ref::Cxl { ref pages, .. } = r else {
                panic!()
            };
            let pins: Vec<(u32, u32)> = pages.iter().map(|&p| (p, 1)).collect();
            check_fabric_invariants(
                fabric.gfam(),
                fabric.coordinator(),
                std::slice::from_ref(&host),
                &pins,
            );
            host.release_ref(&r).await.unwrap();
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host], &[]);
        });
    }

    /// A rig with two hosts on one fabric and a ref host A published and
    /// then released: every one of its pages is back at refcount 0.
    async fn released_ref(
        net: &Network,
        cn: NodeId,
        params: ModelParams,
        nodes: (NodeId, NodeId),
    ) -> (CxlFabric, [Rc<CxlHost>; 2], Ref) {
        let fabric = CxlFabric::new(net, cn, 256, params, CxlHostConfig::default());
        let a = fabric.new_host(RpcBuilder::new(net, nodes.0, 100).build());
        let b = fabric.new_host(RpcBuilder::new(net, nodes.1, 100).build());
        let r = a
            .put_ref(Bytes::from(vec![3u8; 2 * PAGE_SIZE]))
            .await
            .unwrap();
        a.release_ref(&r).await.unwrap();
        (fabric, [a, b], r)
    }

    #[test]
    fn map_ref_refuses_a_released_ref_and_touches_no_page() {
        let r = rig(2);
        let (net, params, cn) = (r.net.clone(), r.params.clone(), r.coord_node);
        let nodes = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let (fabric, hosts, dead) = released_ref(&net, cn, params, nodes).await;
            let [a, b] = &hosts;
            assert_eq!(b.map_ref(&dead).await.unwrap_err(), DmError::InvalidRef);
            // One live page beside a dead one: refused, and the live page
            // keeps its one pin.
            let live = a.put_ref(Bytes::from(vec![1u8; 8])).await.unwrap();
            let (Ref::Cxl { pages: lp, .. }, Ref::Cxl { pages: dp, .. }) = (&live, &dead) else {
                unreachable!()
            };
            let mixed = Ref::Cxl {
                len: 2 * PS,
                pages: vec![lp[0], dp[1]],
            };
            let atomics = fabric.gfam().atomic_ops();
            assert_eq!(b.map_ref(&mixed).await.unwrap_err(), DmError::InvalidRef);
            assert_eq!(
                fabric.gfam().atomic_ops(),
                atomics,
                "a refused map issued atomics"
            );
            assert!(b.pte_snapshot().is_empty());
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &[(lp[0], 1)]);
            a.release_ref(&live).await.unwrap();
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &[]);
        });
    }

    #[test]
    fn read_ref_refuses_a_released_ref() {
        let r = rig(2);
        let (net, params, cn) = (r.net.clone(), r.params.clone(), r.coord_node);
        let nodes = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let (fabric, hosts, dead) = released_ref(&net, cn, params, nodes).await;
            let [a, b] = &hosts;
            assert_eq!(b.read_ref(&dead).await.unwrap_err(), DmError::InvalidRef);
            // A live ref reads in one access: its bytes and no atomic.
            let live = a
                .put_ref(Bytes::from(vec![5u8; PAGE_SIZE + 1]))
                .await
                .unwrap();
            let (atomics, t0) = (fabric.gfam().atomic_ops(), simcore::now());
            assert_eq!(
                &b.read_ref(&live).await.unwrap()[..],
                &[5u8; PAGE_SIZE + 1][..]
            );
            assert_eq!(fabric.gfam().atomic_ops(), atomics);
            assert_eq!(
                (simcore::now() - t0).as_nanos(),
                (PS + 1).div_ceil(64) as u128 + 265
            );
            a.release_ref(&live).await.unwrap();
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &[]);
        });
    }

    /// An unwritten ref reads back as a slice of the buffer it was
    /// published from, with no host copy. Writes through a mapping, a COW
    /// fault while the ref lives and a sole-owner write after it is gone,
    /// move the page before they land: neither that slice nor the
    /// publisher's `Bytes` changes.
    #[test]
    fn read_ref_is_a_view_of_the_published_buffer_that_writes_leave_alone() {
        let r = rig(2);
        let (net, params, cn) = (r.net.clone(), r.params.clone(), r.coord_node);
        let (c0, c1) = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cn, 256, params, CxlHostConfig::default());
            let a = fabric.new_host(RpcBuilder::new(&net, c0, 100).build());
            let b = fabric.new_host(RpcBuilder::new(&net, c1, 100).build());
            let original: Vec<u8> = (0..2 * PAGE_SIZE + 10).map(|i| (i % 251) as u8).collect();
            let data = Bytes::from(original.clone());
            let r = a.put_ref(data.clone()).await.unwrap();
            let seen = b.read_ref(&r).await.unwrap();
            assert_eq!(
                seen.as_ptr(),
                data.as_ptr(),
                "a slice of the published buffer"
            );
            let g = fabric.gfam();
            assert_eq!(
                (g.read_viewed_bytes(), g.read_gathered_bytes()),
                (seen.len() as u64, 0)
            );

            let va = b.map_ref(&r).await.unwrap();
            b.store(va + PS + 1, &[0xEE]).await.unwrap();
            assert_eq!(b.stats().cow_copies.get(), 1);
            a.release_ref(&r).await.unwrap();
            b.store(va, &[0xDD; 8]).await.unwrap();
            assert_eq!(b.stats().cow_copies.get(), 1, "sole owner: no COW");

            assert_eq!(&seen[..], &original[..], "the slice kept what it showed");
            assert_eq!(&data[..], &original[..], "the publisher's bytes");
            let mut expect = original;
            expect[..8].fill(0xDD);
            expect[PAGE_SIZE + 1] = 0xEE;
            let len = expect.len() as u64;
            assert_eq!(&b.load(va, len).await.unwrap()[..], &expect[..]);
            b.free(va).unwrap();
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[a, b], &[]);
        });
    }

    #[test]
    fn release_ref_refuses_a_released_ref() {
        let r = rig(2);
        let (net, params, cn) = (r.net.clone(), r.params.clone(), r.coord_node);
        let nodes = (r.compute[0], r.compute[1]);
        r.sim.block_on(async move {
            let (fabric, hosts, dead) = released_ref(&net, cn, params, nodes).await;
            for h in &hosts {
                assert_eq!(h.release_ref(&dead).await.unwrap_err(), DmError::InvalidRef);
            }
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &[]);
        });
    }
}
