//! Stress tests. The DmRPC-CXL ownership churn runs with every
//! `cargo test`; the long social-network haul is ignored by default. Run it
//! with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored --nocapture
//! ```

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::image_pipeline::{build_pipeline, OP_COMPRESS, OP_TRANSCODE};
use apps::social::build_social;
use apps::workload::run_open_loop;
use bytes::Bytes;
use dmcxl::check_fabric_invariants;
use dmrpc::DmHandle;
use simcore::{Sim, SimRng};

/// A long mixed social-network run (hundreds of thousands of requests)
/// under light packet loss, verifying liveness, bounded error count, and
/// full DM page-pool recovery.
#[test]
#[ignore = "long-running stress test; run explicitly"]
fn social_network_long_haul_under_loss() {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 1234);
        cluster.net.set_loss_probability(0.005);
        let app = Rc::new(build_social(&cluster, 1000, 8192, 77).await);
        app.preload(500).await.expect("preload");
        let a2 = app.clone();
        let m = run_open_loop(
            300_000.0,
            Duration::from_millis(5),
            Duration::from_millis(500), // 500 ms of virtual time
            SimRng::new(9),
            Rc::new(move |_n| {
                let app = a2.clone();
                async move { app.mixed_request().await }
            }),
        )
        .await;
        println!(
            "completed {} requests, avg {:.1} us, p99.9 {:.1} us, errors {}",
            m.completed,
            m.avg_latency_us(),
            m.latency_us(0.999),
            m.errors
        );
        assert!(m.completed > 100_000, "long run must complete at scale");
        // Transport loss is fully recovered by the RPC layer; the only
        // tolerated errors are the application-level eviction race (a
        // reader fetching a post id whose ref was just released by
        // post-storage eviction — a realistic dangling-reference case the
        // DM layer reports cleanly as InvalidRef).
        let err_rate = m.errors as f64 / (m.completed + m.errors) as f64;
        assert!(err_rate < 0.02, "error rate too high: {err_rate:.4}");
        // The DM pools must not have leaked despite churn + loss.
        simcore::sleep(Duration::from_millis(50)).await;
        for s in &cluster.dm_servers {
            s.check_invariants_all();
        }
    });
    println!("poll fingerprint: {}", sim.poll_count());
}

/// Page ownership churns across the 7 hosts of the DmRPC-CXL image
/// pipeline: workers publish their results from pages the coordinator
/// grants them, the client drops the last pin on each and so owns the
/// page, returns its surplus past the high watermark, and the workers
/// refill. 16 concurrent clients x 250 requests over a mix of sizes and
/// both ops, then every host's page table and free FIFO, G-FAM's refcounts
/// and the coordinator's free list must account for every page once.
#[test]
fn cxl_image_pipeline_churns_page_ownership_without_leaks() {
    const SIZES: [usize; 5] = [4 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmCxl, 1, ClusterConfig::default(), 5);
        let app = Rc::new(build_pipeline(&cluster).await);
        let clients: Vec<_> = (0..16usize)
            .map(|c| {
                let app = app.clone();
                simcore::spawn(async move {
                    for i in 0..250usize {
                        let size = SIZES[(c + i) % SIZES.len()];
                        let op = [OP_TRANSCODE, OP_COMPRESS][(c + i / 5) % 2];
                        let image = Bytes::from(vec![(c + i) as u8; size]);
                        let out = app.request(op, &image).await.expect("request");
                        let expected = if op == OP_COMPRESS { size / 2 } else { size };
                        assert_eq!(out.len(), expected);
                        assert!(out.iter().all(|&b| b == image[0].wrapping_add(1)));
                    }
                })
            })
            .collect();
        for c in clients {
            c.await;
        }
        // Drain the asynchronous releases and page returns.
        simcore::sleep(Duration::from_millis(1)).await;
        let fabric = cluster.cxl_fabric().expect("cxl");
        let hosts: Vec<_> = cluster
            .endpoints()
            .iter()
            .filter_map(|ep| match ep.dm() {
                Some(DmHandle::Cxl(h)) => Some(h.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(hosts.len(), 7, "client + 6 service hosts");
        // Every request released its argument and result: no ref pins.
        check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &hosts, &[]);
        let coordinator = fabric.coordinator();
        assert!(
            coordinator.return_rpcs() >= 100,
            "pages must migrate back: {} returns",
            coordinator.return_rpcs()
        );
        assert_eq!(coordinator.rejected_returns(), 0);
    });
}
