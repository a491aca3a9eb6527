//! Property tests for the CXL G-FAM backend: random multi-host write
//! patterns never violate COW isolation or page-conservation invariants,
//! the one-step publish leaves the fabric as Listing 1's does, random
//! publish / read / map / release sequences on a scarce pool keep every
//! page accounted for, and every read handed out — often a view of the
//! buffer a page lies in — keeps what it showed whatever happens next.

use std::time::Duration;

use bytes::Bytes;
use dmcommon::{CopyMode, DmError, Ref, PAGE_SIZE};
use dmcxl::{check_fabric_invariants, CxlFabric, CxlHost, CxlHostConfig};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

const PS: u64 = PAGE_SIZE as u64;

/// `put_ref` and the `alloc` / `store` / `create_ref` / `free` sequence
/// leave the same fabric state under both copy modes: the same bytes, one
/// pin per page and no PTE, every page free again after `release_ref`. A
/// second host that maps either ref and writes still copies on write.
#[test]
fn put_ref_leaves_the_fabric_as_the_listing1_publish_does() {
    let sizes = [
        1,
        PAGE_SIZE - 1,
        PAGE_SIZE,
        PAGE_SIZE + 1,
        3 * PAGE_SIZE + 1,
        128 << 10,
    ];
    for copy_mode in [CopyMode::CopyOnWrite, CopyMode::Eager] {
        for len in sizes {
            let sim = Sim::new();
            sim.block_on(async move {
                let net = Network::new(FabricConfig::default(), 29);
                let coord = net.add_node("coord", NicConfig::default());
                let capacity = 1024;
                let cfg = CxlHostConfig {
                    copy_mode,
                    ..Default::default()
                };
                let fabric = CxlFabric::new(&net, coord, capacity, ModelParams::new(), cfg);
                let mk = |name: &str| {
                    let node = net.add_node(name, NicConfig::default());
                    fabric.new_host(RpcBuilder::new(&net, node, 100).build())
                };
                let (publisher, reader) = (mk("publisher"), mk("reader"));
                let hosts = [publisher.clone(), reader.clone()];
                let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8 | 1).collect();

                let fast = publisher.put_ref(Bytes::from(data.clone())).await.unwrap();
                let va = publisher.alloc(len as u64).unwrap();
                publisher.store(va, &data).await.unwrap();
                let listing1 = publisher.create_ref(va, len as u64).await.unwrap();
                publisher.free(va).unwrap();

                let mut pins = Vec::new();
                for r in [&fast, &listing1] {
                    let Ref::Cxl { len: rlen, pages } = r else {
                        unreachable!()
                    };
                    assert_eq!(*rlen, len as u64);
                    assert_eq!(pages.len(), len.div_ceil(PAGE_SIZE));
                    pins.extend(pages.iter().map(|&p| (p, 1)));
                    let rva = reader.map_ref(r).await.unwrap();
                    let got = reader.load(rva, len as u64).await.unwrap();
                    assert_eq!(&got[..], &data[..], "{copy_mode:?} {len} B");
                    reader.free(rva).unwrap();
                }
                for h in &hosts {
                    assert!(h.pte_snapshot().is_empty(), "{copy_mode:?} {len} B");
                }
                // rc == PTEs + pins, and no PTE: exactly one pin per page.
                check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &pins);

                for (i, r) in [&fast, &listing1].into_iter().enumerate() {
                    let rva = reader.map_ref(r).await.unwrap();
                    reader.store(rva, &[0]).await.unwrap();
                    assert_eq!(reader.stats().cow_copies.get(), i as u64 + 1);
                    reader.free(rva).unwrap();
                    let rva = reader.map_ref(r).await.unwrap();
                    let got = reader.load(rva, len as u64).await.unwrap();
                    assert_eq!(&got[..], &data[..], "a COW write reached the ref");
                    reader.free(rva).unwrap();
                    publisher.release_ref(r).await.unwrap();
                }
                // Let watermark returns drain.
                simcore::sleep(std::time::Duration::from_millis(1)).await;
                check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &[]);
                let free: usize = hosts.iter().map(|h| h.owned_free_pages()).sum();
                assert_eq!(free + fabric.coordinator().free_pages(), capacity);
            });
        }
    }
}

/// A store that covers a shared page whole takes a fresh page without the
/// device copy: no COW is counted and G-FAM carries only the stored bytes.
/// One byte into the next shared page still copies it. The ref reads what
/// was published either way.
#[test]
fn a_whole_page_store_to_a_shared_page_copies_nothing() {
    Sim::new().block_on(async {
        let net = Network::new(FabricConfig::default(), 31);
        let coord = net.add_node("coord", NicConfig::default());
        let fabric = CxlFabric::new(
            &net,
            coord,
            256,
            ModelParams::new(),
            CxlHostConfig::default(),
        );
        let mk = |name: &str| {
            let node = net.add_node(name, NicConfig::default());
            fabric.new_host(RpcBuilder::new(&net, node, 100).build())
        };
        let (publisher, writer) = (mk("publisher"), mk("writer"));
        let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let r = publisher.put_ref(Bytes::from(data.clone())).await.unwrap();
        let va = writer.map_ref(&r).await.unwrap();
        let gfam = fabric.gfam();

        let before = gfam.traffic_bytes();
        writer.store(va, &[0xEE; PAGE_SIZE]).await.unwrap();
        assert_eq!(writer.stats().cow_copies.get(), 0);
        assert_eq!(writer.stats().faults.get(), 1);
        assert_eq!(gfam.traffic_bytes() - before, PS, "the stores alone");

        let before = gfam.traffic_bytes();
        writer.store(va + PS, &[0xEE]).await.unwrap();
        assert_eq!(writer.stats().cow_copies.get(), 1);
        assert_eq!(gfam.traffic_bytes() - before, 2 * PS + 1, "copy + store");

        let mut expect = data.clone();
        expect[..=PAGE_SIZE].fill(0xEE);
        assert_eq!(&writer.load(va, 2 * PS).await.unwrap()[..], &expect[..]);
        let fresh = publisher.map_ref(&r).await.unwrap();
        assert_eq!(&publisher.load(fresh, 2 * PS).await.unwrap()[..], &data[..]);
    });
}

/// A store's `(offset, length)`: page-aligned half the time and up to three
/// pages long, so stores cover shared pages whole (no copy) as well as in
/// part (a copy).
fn write_range() -> impl Strategy<Value = (u64, usize)> {
    let aligned = (0u64..6).prop_map(|page| page * PS);
    (prop_oneof![aligned, 0u64..6 * PS], 1usize..=3 * PAGE_SIZE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N hosts map the same ref and write random disjoint-or-overlapping
    /// ranges; each host's view must equal the original snapshot with only
    /// its own writes applied, and the producer's view stays pristine.
    #[test]
    fn cow_isolation_under_random_writes(
        pages in 1u64..6,
        writes in proptest::collection::vec((0usize..3, write_range(), any::<u8>()), 0..20),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 17);
            let coord = net.add_node("coord", NicConfig::default());
            let fabric = CxlFabric::new(
                &net,
                coord,
                2048,
                ModelParams::new(),
                CxlHostConfig::default(),
            );
            let mk = |i: u32| {
                let node = net.add_node(format!("h{i}"), NicConfig::default());
                fabric.new_host(RpcBuilder::new(&net, node, 100).build())
            };
            let producer = mk(0);
            let hosts = [mk(1), mk(2), mk(3)];

            let len = pages * PS;
            let original: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let va = producer.alloc(len).unwrap();
            producer.store(va, &original).await.unwrap();
            let r = producer.create_ref(va, len).await.unwrap();

            // Each consumer maps the ref and tracks its expected view.
            let mut views = Vec::new();
            let mut vas = Vec::new();
            for h in &hosts {
                vas.push(h.map_ref(&r).await.unwrap());
                views.push(original.clone());
            }

            for (who, (off, wlen), fill) in writes {
                let who = who % hosts.len();
                if off + wlen as u64 > len { continue; }
                let buf = vec![fill; wlen];
                hosts[who]
                    .store(vas[who] + off, &buf)
                    .await
                    .unwrap();
                views[who][off as usize..off as usize + wlen].copy_from_slice(&buf);
            }

            // Producer unchanged; every consumer sees exactly its writes.
            let pview = producer.load(va, len).await.unwrap();
            assert_eq!(&pview[..], &original[..], "producer isolation");
            for (i, h) in hosts.iter().enumerate() {
                let got = h.load(vas[i], len).await.unwrap();
                assert_eq!(&got[..], &views[i][..], "host {i} view");
            }

            // Invariants with the live ref accounted.
            let Ref::Cxl { pages: ref ppns, .. } = r else { unreachable!() };
            let pins: Vec<(u32, u32)> = ppns.iter().map(|&p| (p, 1)).collect();
            let all = [
                producer.clone(),
                hosts[0].clone(),
                hosts[1].clone(),
                hosts[2].clone(),
            ];
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &all, &pins);

            // Full teardown reclaims every page.
            producer.free(va).unwrap();
            for (i, h) in hosts.iter().enumerate() {
                h.free(vas[i]).unwrap();
            }
            producer.release_ref(&r).await.unwrap();
            // Let watermark returns drain.
            simcore::sleep(std::time::Duration::from_millis(1)).await;
            check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &all, &[]);
        });
    }

    /// Store/load round trip for arbitrary offsets and lengths.
    #[test]
    fn cxl_store_load_roundtrip(
        region_pages in 1u64..8,
        chunks in proptest::collection::vec((0u64..8 * PS, 1usize..5000, any::<u8>()), 1..12),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 23);
            let coord = net.add_node("coord", NicConfig::default());
            let fabric = CxlFabric::new(
                &net,
                coord,
                1024,
                ModelParams::new(),
                CxlHostConfig::default(),
            );
            let node = net.add_node("h", NicConfig::default());
            let host = fabric.new_host(RpcBuilder::new(&net, node, 100).build());
            let len = region_pages * PS;
            let va = host.alloc(len).unwrap();
            let mut model = vec![0u8; len as usize];
            for (off, wlen, fill) in chunks {
                if off + wlen as u64 > len { continue; }
                let buf = vec![fill; wlen];
                host.store(va + off, &buf).await.unwrap();
                model[off as usize..off as usize + wlen].copy_from_slice(&buf);
            }
            let got = host.load(va, len).await.unwrap();
            assert_eq!(&got[..], &model[..]);
        });
    }

    /// Hosts, one of them an eager-copy (`-copy`) host, publish 1 B to 40
    /// pages on a pool too small for all of them, read refs in place, map,
    /// load and free them, store into a mapping, create a ref from a
    /// mapping, and release refs, dead ones included. A publish, store or
    /// ref that does not fit is refused and leaves every PTE and pinned
    /// page as it was. After every step the fabric holds its invariants
    /// against the live pins; every read returns exactly the bytes
    /// published and stored; a dead ref is refused by every op. At the end
    /// every page is free.
    #[test]
    fn data_path_ops_keep_the_fabric_whole(
        ops in proptest::collection::vec((0u8..6, 0usize..3, 1usize..=40 * PAGE_SIZE), 1..40),
    ) {
        Sim::new().block_on(async move {
            let net = Network::new(FabricConfig::default(), 37);
            let coord = net.add_node("coord", NicConfig::default());
            let capacity = 96;
            let cfg = CxlHostConfig {
                request_batch: 16,
                low_watermark: 4,
                high_watermark: 48,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, coord, capacity, ModelParams::new(), cfg);
            let hosts: Vec<_> = [CopyMode::CopyOnWrite, CopyMode::CopyOnWrite, CopyMode::Eager]
                .into_iter()
                .enumerate()
                .map(|(i, copy_mode)| {
                    let node = net.add_node(format!("h{i}"), NicConfig::default());
                    let cfg = CxlHostConfig { copy_mode, ..cfg };
                    let rpc = RpcBuilder::new(&net, node, 100).build();
                    CxlHost::new(fabric.gfam().clone(), rpc, fabric.coordinator().addr(), cfg)
                })
                .collect();
            let gfam = fabric.gfam();
            // Every PTE and pinned page: what a refused op must leave as is.
            let fabric_state = || {
                let mut ptes: Vec<_> = hosts.iter().flat_map(|h| h.pte_snapshot()).collect();
                ptes.sort_unstable();
                (ptes, gfam.pinned_pages())
            };
            // Every ref published so far, its bytes, and whether it is live.
            let mut refs: Vec<(Ref, Vec<u8>, bool)> = Vec::new();
            for (i, (kind, who, arg)) in ops.into_iter().enumerate() {
                let host = &hosts[who];
                // A refused op is `OutOfMemory` and changes no PTE or pin.
                let refused = |e: DmError, before| {
                    assert_eq!(e, DmError::OutOfMemory);
                    assert!(fabric_state() == before, "a refused op changed the fabric");
                };
                let mut created = None;
                if kind == 0 {
                    let data: Vec<u8> = (0..arg).map(|b| (b * 7 + i) as u8).collect();
                    let before = fabric_state();
                    match host.put_ref(Bytes::from(data.clone())).await {
                        Ok(r) => refs.push((r, data, true)),
                        Err(e) => refused(e, before),
                    }
                } else if !refs.is_empty() {
                    let n = refs.len();
                    let (r, data, live) = &mut refs[arg % n];
                    let Ref::Cxl { pages, .. } = &*r else { unreachable!() };
                    // A dead ref whose pages all carry another ref's pin is
                    // indistinguishable from a live one (DESIGN.md §6).
                    let dead = !*live;
                    if dead && pages.iter().all(|&p| gfam.rc_peek(p) > 0) {
                        continue;
                    }
                    let served = match kind {
                        1 => host.read_ref(r).await.map(|bytes| {
                            assert_eq!(&bytes[..], &data[..], "read {} B", data.len());
                        }),
                        2 | 4 | 5 => match host.map_ref(r).await {
                            Ok(va) => {
                                let len = data.len();
                                let before = fabric_state();
                                let mut want = data.clone();
                                if kind == 4 {
                                    // Half the stores start on a page
                                    // boundary, so some cover a page whole.
                                    let off = match arg % 2 {
                                        0 => arg / 2 % len / PAGE_SIZE * PAGE_SIZE,
                                        _ => arg / 2 % len,
                                    };
                                    let n = (1 + arg % (2 * PAGE_SIZE)).min(len - off);
                                    let fill = vec![0xEE ^ i as u8; n];
                                    match host.store(va + off as u64, &fill).await {
                                        Ok(()) => want[off..off + n].copy_from_slice(&fill),
                                        Err(e) => refused(e, before),
                                    }
                                } else if kind == 5 {
                                    match host.create_ref(va, len as u64).await {
                                        Ok(r) => created = Some((r, data.clone(), true)),
                                        Err(e) => refused(e, before),
                                    }
                                }
                                let bytes = host.load(va, len as u64).await.unwrap();
                                assert_eq!(&bytes[..], &want[..], "load of {len} B");
                                host.free(va).unwrap();
                                Ok(())
                            }
                            Err(e) => Err(e),
                        },
                        _ => host.release_ref(r).await.map(|()| *live = false),
                    };
                    match served {
                        Err(e) => {
                            assert!(dead, "a live ref refused: {e:?}");
                            assert_eq!(e, DmError::InvalidRef);
                        }
                        Ok(()) => assert!(!dead, "a dead ref was served"),
                    }
                }
                refs.extend(created);
                // Background refills and returns land, then the fabric must
                // balance against the pins of the live refs.
                simcore::sleep(Duration::from_millis(1)).await;
                let pins: Vec<(u32, u32)> = refs
                    .iter()
                    .filter(|(_, _, live)| *live)
                    .flat_map(|(r, _, _)| {
                        let Ref::Cxl { pages, .. } = r else { unreachable!() };
                        pages.iter().map(|&p| (p, 1))
                    })
                    .collect();
                check_fabric_invariants(gfam, fabric.coordinator(), &hosts, &pins);
                for h in &hosts {
                    assert!(h.pte_snapshot().is_empty(), "a mapping outlived its op");
                }
            }
            for (r, _, live) in &refs {
                if *live {
                    hosts[0].release_ref(r).await.unwrap();
                }
            }
            simcore::sleep(Duration::from_millis(1)).await;
            check_fabric_invariants(gfam, fabric.coordinator(), &hosts, &[]);
            let free: usize = hosts.iter().map(|h| h.owned_free_pages()).sum();
            assert_eq!(free + fabric.coordinator().free_pages(), capacity);
        });
    }

    /// A copy-on-write host and an eager-copy (`-copy`) host publish, read
    /// refs in place, map them, store into the mappings (COW faults, whole
    /// pages and parts), load, create refs from the mappings, release refs
    /// and free mappings. Every `read_ref` and `load` result is kept, and
    /// so is every buffer a publisher handed over: after each step each of
    /// them still reads as it did when it was handed out — a page store
    /// that wrote into a shared view would change one under its holder —
    /// and the fabric balances against the live pins. The twin of the
    /// aliasing check in `dmnet`'s `proptest_page_manager.rs`.
    #[test]
    fn every_read_keeps_what_it_showed(
        ops in proptest::collection::vec((0u8..7, 0usize..2, any::<u64>(), any::<u8>()), 1..40),
    ) {
        Sim::new().block_on(async move {
            let net = Network::new(FabricConfig::default(), 41);
            let coord = net.add_node("coord", NicConfig::default());
            let fabric = CxlFabric::new(
                &net,
                coord,
                1024,
                ModelParams::new(),
                CxlHostConfig::default(),
            );
            let hosts: Vec<_> = [CopyMode::CopyOnWrite, CopyMode::Eager]
                .into_iter()
                .enumerate()
                .map(|(i, copy_mode)| {
                    let node = net.add_node(format!("h{i}"), NicConfig::default());
                    let cfg = CxlHostConfig { copy_mode, ..Default::default() };
                    let rpc = RpcBuilder::new(&net, node, 100).build();
                    CxlHost::new(fabric.gfam().clone(), rpc, fabric.coordinator().addr(), cfg)
                })
                .collect();
            // Everything handed out, with what it showed then.
            let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
            // Live refs and their bytes; live mappings `(host, va, bytes)`.
            let mut refs: Vec<(Ref, Vec<u8>)> = Vec::new();
            let mut maps: Vec<(usize, u64, Vec<u8>)> = Vec::new();
            for (i, (kind, who, arg, fill)) in ops.into_iter().enumerate() {
                let host = &hosts[who];
                let pick = |n: usize| (arg % n as u64) as usize;
                match kind {
                    0 => {
                        let len = 1 + pick(3 * PAGE_SIZE + 1);
                        let data: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
                        let published = Bytes::from(data.clone());
                        held.push((published.clone(), data.clone()));
                        refs.push((host.put_ref(published).await.unwrap(), data));
                    }
                    1 if !refs.is_empty() => {
                        let (r, data) = &refs[pick(refs.len())];
                        let got = host.read_ref(r).await.unwrap();
                        assert_eq!(&got[..], &data[..]);
                        held.push((got, data.clone()));
                    }
                    2 if !refs.is_empty() => {
                        let (r, data) = &refs[pick(refs.len())];
                        maps.push((who, host.map_ref(r).await.unwrap(), data.clone()));
                    }
                    3 if !maps.is_empty() => {
                        // Half the stores start on a page boundary, so some
                        // cover a shared page whole.
                        let m = pick(maps.len());
                        let (h, va, bytes) = &mut maps[m];
                        let off = match arg >> 32 & 1 {
                            0 => (arg >> 33) as usize % bytes.len() / PAGE_SIZE * PAGE_SIZE,
                            _ => (arg >> 33) as usize % bytes.len(),
                        };
                        let n = (1 + (arg >> 8) as usize % (2 * PAGE_SIZE)).min(bytes.len() - off);
                        hosts[*h].store(*va + off as u64, &vec![fill; n]).await.unwrap();
                        bytes[off..off + n].fill(fill);
                    }
                    4 if !maps.is_empty() => {
                        let (h, va, bytes) = &maps[pick(maps.len())];
                        let got = hosts[*h].load(*va, bytes.len() as u64).await.unwrap();
                        assert_eq!(&got[..], &bytes[..]);
                        held.push((got, bytes.clone()));
                    }
                    5 if !maps.is_empty() => {
                        let (h, va, bytes) = &maps[pick(maps.len())];
                        let len = bytes.len() as u64;
                        refs.push((hosts[*h].create_ref(*va, len).await.unwrap(), bytes.clone()));
                    }
                    6 if arg & 1 == 0 && !refs.is_empty() => {
                        let (r, _) = refs.swap_remove(pick(refs.len()));
                        host.release_ref(&r).await.unwrap();
                    }
                    6 if !maps.is_empty() => {
                        let (h, va, _) = maps.swap_remove(pick(maps.len()));
                        hosts[h].free(va).unwrap();
                    }
                    _ => {}
                }
                for (got, seen) in &held {
                    assert!(got[..] == seen[..], "a read changed under its holder at step {i}");
                }
                simcore::sleep(Duration::from_millis(1)).await;
                let pins: Vec<(u32, u32)> = refs
                    .iter()
                    .flat_map(|(r, _)| {
                        let Ref::Cxl { pages, .. } = r else { unreachable!() };
                        pages.iter().map(|&p| (p, 1))
                    })
                    .collect();
                check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &pins);
            }
        });
    }
}
