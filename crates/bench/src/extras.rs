//! Extra experiments beyond the paper's figures, backing specific claims
//! and design choices (DESIGN.md §6):
//!
//! * [`translation_overhead`] — §V-A2's "software translation is 0.17% of
//!   total DM access time";
//! * [`size_threshold`] — the size-aware transfer crossover (§IV-B);
//! * [`ownership_batching`] — the DmRPC-CXL coordinator batching ablation
//!   (§V-B1).

use std::rc::Rc;
use std::time::Duration;

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::workload::run_closed_loop;
use bytes::Bytes;
use dmcxl::{CxlFabric, CxlHostConfig};
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

use crate::report::{f2, f3, size_label, Bound, Table};

/// Translation-overhead experiment: stream rreads through one DM server and
/// report the fraction of (a) server op time and (b) end-to-end access time
/// spent in software translation.
pub fn translation_overhead() {
    let mut t = Table::new(
        "xtra_translation_overhead",
        &[
            "read_size",
            "server_fraction_pct",
            "end_to_end_fraction_pct",
        ],
    );
    for size in [4096usize, 65536, 1 << 20] {
        let sim = Sim::new();
        let (server_frac, e2e_frac) = sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 2);
            let node = cluster.add_server("client");
            let ep = cluster.endpoint(&node, 100).await;
            let dm = ep.dm().expect("dm").clone();
            let region = dm.alloc(size as u64).await.expect("alloc");
            region
                .write(0, &Bytes::from(vec![1u8; size]))
                .await
                .expect("write");
            let t0 = simcore::now();
            let n = 50;
            for _ in 0..n {
                region.read(0, size as u64).await.expect("read");
            }
            let total = (simcore::now() - t0).as_nanos() as f64;
            let lookups = cluster.dm_servers[0].with_page_manager(|pm| pm.translator().lookups());
            // 15 ns per lookup (DmServerConfig::translation_cpu default).
            let translation_ns = lookups as f64 * 15.0;
            (
                cluster.dm_servers[0].translation_fraction() * 100.0,
                translation_ns / total * 100.0,
            )
        });
        t.row(&[&size_label(size), &f3(server_frac), &f3(e2e_frac)]);
        if size == 4096 {
            t.gate("e2e_pct_at_4k", e2e_frac, Bound::AtMost(1.0));
        }
    }
    t.finish();
}

/// Size-aware transfer ablation: sweep argument sizes through a 3-service
/// chain with the threshold forced to 0 (always by-ref) or ∞ (always
/// by-value), showing the crossover that motivates the default (1 page).
pub fn size_threshold() {
    let mut t = Table::new(
        "xtra_size_threshold",
        &[
            "arg_size",
            "by_value_latency_us",
            "by_ref_latency_us",
            "winner",
        ],
    );
    let mut wrong_side = 0u32;
    for size in [256usize, 1024, 2048, 4096, 8192, 32768, 131_072] {
        let lat = |threshold: Option<u64>| {
            let sim = Sim::new();
            sim.block_on(async move {
                let config = ClusterConfig {
                    threshold,
                    ..Default::default()
                };
                let cluster = Cluster::new(SystemKind::DmNet, 2, config, 4);
                let app = build_chain(&cluster, 3).await;
                let payload = Bytes::from(vec![7u8; size]);
                app.request(&payload).await.expect("warmup");
                let t0 = simcore::now();
                for _ in 0..5 {
                    app.request(&payload).await.expect("request");
                }
                (simcore::now() - t0).as_nanos() as f64 / 5.0 / 1e3
            })
        };
        let by_value = lat(Some(u64::MAX));
        let by_ref = lat(Some(1)); // everything but empty goes to DM
        let winner = if by_value <= by_ref {
            "by-value"
        } else {
            "by-ref"
        };
        wrong_side += u32::from((by_value > by_ref) != (size >= dmcommon::PAGE_SIZE));
        t.row(&[&size_label(size), &f2(by_value), &f2(by_ref), &winner]);
    }
    t.gate("sizes_off_threshold", wrong_side as f64, Bound::AtMost(0.0));
    t.finish();
}

/// Ownership-batching ablation: store-fault throughput and coordinator RPC
/// count versus the grant batch size.
pub fn ownership_batching() {
    let mut t = Table::new(
        "xtra_ownership_batching",
        &[
            "batch",
            "faults_per_ms",
            "coordinator_rpcs",
            "pages_faulted",
        ],
    );
    let mut base_rate = 0.0;
    for batch in [1usize, 4, 16, 64, 256] {
        let sim = Sim::new();
        let (rate, rpcs, faults) = sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 9);
            let coord = net.add_node("coord", NicConfig::default());
            let host_node = net.add_node("host", NicConfig::default());
            let cfg = CxlHostConfig {
                request_batch: batch,
                low_watermark: (batch / 2).max(1),
                high_watermark: batch * 8,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, coord, 1 << 18, memsim::ModelParams::new(), cfg);
            let host = fabric.new_host(RpcBuilder::new(&net, host_node, 100).build());
            let total_pages = 4096u64;
            let va = host.alloc(total_pages * 4096).unwrap();
            let t0 = simcore::now();
            // Touch every page once: pure fault workload.
            let h2 = host.clone();
            let _ = run_closed_loop(
                1,
                Duration::ZERO,
                Duration::from_millis(50),
                Rc::new(move |_w, i| {
                    let host = h2.clone();
                    async move {
                        if i >= total_pages {
                            // Done: idle out the rest of the window quickly.
                            simcore::sleep(Duration::from_millis(50)).await;
                            return Ok(());
                        }
                        host.store(va + i * 4096, &[1u8]).await
                    }
                }),
            )
            .await;
            let elapsed_ms = (simcore::now() - t0).as_nanos() as f64 / 1e6;
            (
                host.stats().faults.get() as f64 / elapsed_ms,
                host.stats().coord_rpcs.get(),
                host.stats().faults.get(),
            )
        });
        t.row(&[&batch, &f2(rate), &rpcs, &faults]);
        if batch == 1 {
            base_rate = rate;
        } else if batch == 256 {
            t.gate("rpcs_at_batch_256", rpcs as f64, Bound::AtMost(20.0));
            t.gate("fault_rate_256_vs_1", rate / base_rate, Bound::AtLeast(1.0));
        }
    }
    t.finish();
}

/// Hardware-translation ablation (paper §V-A2 future work): MMU-direct
/// translation versus the software hash table, on a saturating 4 KiB rread
/// workload against a single-core DM server.
pub fn hw_translation() {
    let mut t = Table::new(
        "xtra_hw_translation",
        &["translation", "rread_krps", "unloaded_us"],
    );
    let mut software = 0.0;
    // MMU-direct translation is a lookup that costs nothing.
    let software_lookup = dmnet::DmServerConfig::default().translation_cpu;
    for (label, lookup) in [
        ("software", software_lookup),
        ("mmu-direct", Duration::ZERO),
    ] {
        let sim = Sim::new();
        let (rate, lat) = sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 13);
            let dm_node = net.add_node("dm0", NicConfig::default());
            let c_node = net.add_node("c0", NicConfig::default());
            let cfg = dmnet::DmServerConfig {
                cores: 1,
                translation_cpu: lookup,
                ..Default::default()
            };
            let mem = memsim::NodeMemory::with_defaults("dm0", memsim::ModelParams::new());
            let server = dmnet::DmServer::start(&net, dm_node, mem, cfg);
            let rpc = RpcBuilder::new(&net, c_node, 100).build();
            let dm = dmnet::DmNetClient::connect(rpc, vec![server.addr()])
                .await
                .expect("connect");
            let addr = dm.ralloc(4096).await.expect("alloc");
            dm.rwrite(addr, &Bytes::from(vec![1u8; 4096]))
                .await
                .expect("write");
            let t0 = simcore::now();
            dm.rread(addr, 4096).await.expect("read");
            let lat = (simcore::now() - t0).as_nanos() as f64 / 1e3;
            let dm = Rc::new(dm);
            let m = run_closed_loop(
                16,
                Duration::from_micros(100),
                Duration::from_millis(4),
                Rc::new(move |_w, _i| {
                    let dm = dm.clone();
                    async move { dm.rread(addr, 4096).await.map(|_| ()) }
                }),
            )
            .await;
            (m.throughput_rps() / 1e3, lat)
        });
        t.row(&[&label, &f2(rate), &f2(lat)]);
        if lookup.is_zero() {
            // Software translation is not the bottleneck (§V-A2).
            let diff = (rate / software - 1.0).abs();
            t.gate("mmu_direct_vs_software", diff, Bound::AtMost(0.05));
        }
        software = rate;
    }
    t.finish();
}

/// Core-scaling ablation (paper §VI-E: "the system throughput increases
/// almost linearly with the number of used CPU cores"): sweep compute-
/// server cores for the image pipeline under DmRPC-CXL at 32 KiB.
pub fn core_scaling() {
    use apps::image_pipeline::{build_pipeline, OP_TRANSCODE};
    let mut t = Table::new(
        "xtra_core_scaling",
        &["cores_per_node", "throughput_krps", "scaling_vs_1core"],
    );
    let mut base = 0.0f64;
    for cores in [1u64, 2, 4, 8, 12] {
        // Offered concurrency proportional to capacity so low-core points
        // measure capacity rather than overload pathology.
        let workers = (8 * cores) as usize;
        let sim = Sim::new();
        let krps = sim.block_on(async move {
            let config = ClusterConfig {
                cores_per_node: cores,
                ..Default::default()
            };
            let cluster = Cluster::new(SystemKind::DmCxl, 1, config, 14);
            let app = Rc::new(build_pipeline(&cluster).await);
            let image = Bytes::from(vec![9u8; 32 * 1024]);
            app.request(OP_TRANSCODE, &image).await.expect("warmup");
            let m = run_closed_loop(
                workers,
                Duration::from_millis(1),
                Duration::from_millis(4),
                Rc::new(move |_w, _i| {
                    let app = app.clone();
                    let image = image.clone();
                    async move { app.request(OP_TRANSCODE, &image).await.map(|_| ()) }
                }),
            )
            .await;
            m.throughput_rps() / 1e3
        });
        if base == 0.0 {
            base = krps.max(1e-9);
        }
        t.row(&[&cores, &f2(krps), &f2(krps / base)]);
        if cores == 12 {
            t.gate("scaling_at_12_cores", krps / base, Bound::AtLeast(11.0));
        }
    }
    t.finish();
}
