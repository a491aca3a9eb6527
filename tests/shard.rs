//! Property tests for the sharded DM plane (DESIGN.md §13): consistent-hash
//! ring determinism and minimal-movement, and migration equivalence against
//! a shadow model of the memory plane.

use bytes::Bytes;
use dmcommon::{DmServerId, Ref};
use dmnet::{CacheConfig, DmNetClient, DmServerConfig, HashRing, GKEY_BIT};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The ring is a pure function of (n_servers, seed): two
    /// independent constructions — including ones built concurrently on
    /// other OS threads — route every key identically. This is the
    /// property that lets every client resolve placement locally with no
    /// coordination.
    #[test]
    fn ring_is_deterministic_across_runs_and_threads(
        n_servers in 1usize..16,
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 1..256),
    ) {
        let reference = HashRing::new(n_servers, seed);
        let routed: Vec<DmServerId> = keys.iter().map(|&k| reference.route(k)).collect();
        // Four concurrent re-constructions on distinct OS threads.
        let across_threads = bench::pool::scoped_map(4, 4, |_| {
            let ring = HashRing::new(n_servers, seed);
            keys.iter().map(|&k| ring.route(k)).collect::<Vec<_>>()
        });
        for other in across_threads {
            prop_assert_eq!(&routed, &other);
        }
        // Every route lands on a real server.
        for r in &routed {
            prop_assert!((r.0 as usize) < n_servers);
        }
    }

    /// Consistent hashing's minimal-movement contract: growing N→N+1
    /// servers remaps at most ~2/(N+1) of keys (2x the ideal 1/(N+1), a
    /// >8-sigma bound at 64 vnodes per server), and every remapped key
    /// lands on the new server — an existing key never moves between two
    /// old servers.
    #[test]
    fn growing_the_ring_moves_few_keys_and_only_to_the_new_server(
        n_servers in 1usize..12,
        seed in any::<u64>(),
    ) {
        const KEYS: u64 = 4096;
        let old = HashRing::new(n_servers, seed);
        let new = old.grow();
        prop_assert_eq!(new.n_servers(), n_servers + 1);
        prop_assert!(new.epoch() > old.epoch());
        let mut moved = 0u64;
        for k in 0..KEYS {
            let key = GKEY_BIT | k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (a, b) = (old.route(key), new.route(key));
            if a != b {
                moved += 1;
                prop_assert_eq!(
                    b.0 as usize, n_servers,
                    "remapped key moved between two old servers"
                );
            }
        }
        let bound = (2.0 / (n_servers + 1) as f64) * KEYS as f64;
        prop_assert!(
            (moved as f64) <= bound,
            "grow moved {} of {} keys (bound {:.0})", moved, KEYS, bound
        );
    }
}

proptest! {
    // Full-simulation cases are expensive; fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Migration equivalence against a shadow model: after an arbitrary
    /// schedule of migrations over randomly-placed refs, every ref reads
    /// back byte-identical to the shadow copy (through redirects where
    /// needed), COW sharing still isolates writers, and releasing
    /// everything returns every page on every server — refcounts and
    /// sharing state survived the moves exactly.
    #[test]
    fn migration_matches_shadow_model(
        seed in any::<u64>(),
        blobs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..12_000),
            1..8
        ),
        moves in proptest::collection::vec((0usize..8, 0u8..3), 0..12),
    ) {
        const N_DM: u8 = 3;
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 17);
            let params = ModelParams::new();
            let dm_nodes: Vec<_> = (0..N_DM)
                .map(|i| net.add_node(format!("dm{i}"), NicConfig::default()))
                .collect();
            let servers = dmnet::start_pool(&net, &dm_nodes, &params, DmServerConfig::default());
            let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
            let mut clients = Vec::new();
            for i in 0..2 {
                let node = net.add_node(format!("c{i}"), NicConfig::default());
                let rpc = RpcBuilder::new(&net, node, 100).build();
                clients.push(
                    DmNetClient::connect_with(
                        rpc,
                        pool.clone(),
                        CacheConfig::all_on(),
                        None,
                        Some(HashRing::new(pool.len(), seed)),
                    )
                    .await
                    .unwrap(),
                );
            }

            // Shadow model: gkey -> expected bytes. The real plane may
            // relocate refs at will; the shadow never changes.
            let mut refs: Vec<(Ref, Vec<u8>)> = Vec::new();
            for b in &blobs {
                let r = clients[0].put_ref(&Bytes::from(b.clone())).await.unwrap();
                let Ref::Net { key, .. } = r else { unreachable!() };
                assert!(key & GKEY_BIT != 0);
                refs.push((r, b.clone()));
            }

            // Arbitrary migration schedule, including no-op repeats and
            // migrating the same ref several hops.
            for &(ri, dst) in &moves {
                let (r, _) = &refs[ri % refs.len()];
                match clients[0].migrate_ref(r, DmServerId(dst)).await {
                    Ok(()) => {}
                    // Migrating to the ref's current home is rejected
                    // (self-migration) — the shadow is unaffected.
                    Err(dmcommon::DmError::InvalidAddress) => {}
                    Err(e) => panic!("migration failed on a healthy fabric: {e:?}"),
                }
            }

            // Bytes: both clients (one migrated, one cold) agree with the
            // shadow for every ref, at full length and at a random-ish
            // interior window.
            for (r, want) in &refs {
                let len = want.len() as u64;
                for c in &clients {
                    let got = c.read_ref(r, 0, len).await.unwrap();
                    assert_eq!(&got[..], &want[..], "migrated ref diverged from shadow");
                    if len > 2 {
                        let off = len / 3;
                        let got = c.read_ref(r, off, len - off).await.unwrap();
                        assert_eq!(&got[..], &want[off as usize..]);
                    }
                }
            }

            // COW sharing: a writer's private divergence never leaks into
            // the shared ref, wherever the ref lives now.
            let (r0, want0) = &refs[0];
            let mapping = clients[1].map_ref(r0).await.unwrap();
            clients[1]
                .rwrite(mapping, &Bytes::from(vec![0xEE; want0.len().min(64)]))
                .await
                .unwrap();
            let shared = clients[0].read_ref(r0, 0, want0.len() as u64).await.unwrap();
            assert_eq!(&shared[..], &want0[..], "COW isolation broken after migration");
            clients[1].rfree(mapping).await.unwrap();

            // Refcounts: releasing every ref returns every page on every
            // server — nothing migrated is double-pinned or leaked.
            for (r, _) in &refs {
                clients[1].release_ref(r).await.unwrap();
            }
            for s in &servers {
                s.check_invariants_all();
                assert_eq!(
                    s.free_pages_total(),
                    s.capacity_pages_total(),
                    "pages leaked across migrations"
                );
                assert_eq!(s.gkeys_bound(), 0);
            }
        });
    }
}
