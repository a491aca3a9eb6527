//! Fig. 7 — effect of copy-on-write versus unconditional copy on
//! `create_ref`: (a) request rate, (b) response time, (c) DM memory traffic
//! per request, versus region size.
//!
//! Setup per the paper: DmRPC-net uses **one CPU core** on a single memory
//! server with the client issuing fast enough to saturate it; DmRPC-CXL
//! uses one client thread.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::workload::run_closed_loop;
use bytes::Bytes;
use dmcommon::CopyMode;
use dmnet::DmServerConfig;
use simcore::Sim;

use crate::report::{f2, size_label, Table};

/// Region sizes swept.
pub const SIZES: [usize; 5] = [4096, 16384, 65536, 262_144, 1_048_576];

/// One point: (rate krps, response us, traffic KB/req).
fn run_point(kind: SystemKind, copy_mode: CopyMode, size: usize) -> (f64, f64, f64) {
    let sim = Sim::new();
    sim.block_on(async move {
        let config = ClusterConfig {
            dm: DmServerConfig {
                copy_mode,
                cores: 1, // paper: one core in a single memory server
                capacity_pages: 1 << 20,
                ..Default::default()
            },
            ..Default::default()
        };
        let cluster = Cluster::new(kind, 1, config, 7);
        let node = cluster.add_server("client");
        let ep = cluster.endpoint(&node, 100).await;
        let dm = ep.dm().expect("dm backend").clone();

        // One shared region, written once; each op is create_ref + release.
        let region = dm.alloc(size as u64).await.expect("alloc");
        region
            .write(0, &Bytes::from(vec![0xA5u8; size]))
            .await
            .expect("write");

        // (b) unloaded response time of a single create_ref.
        let t0 = simcore::now();
        let r = region.create_ref().await.expect("create_ref");
        let resp_us = (simcore::now() - t0).as_nanos() as f64 / 1e3;
        dm.release_ref(&r).await.expect("release");

        // (a)+(c): saturating closed loop; concurrency high enough to keep
        // the single server core busy (net) / 1 thread for CXL.
        let workers = match kind {
            SystemKind::DmCxl => 1,
            _ => 16,
        };
        cluster.reset_stats();
        // Snapshot DM traffic exactly at the measurement window's edges so
        // warmup ops do not inflate the per-request figure.
        let warmup = Duration::from_micros(200);
        let traffic0 = Rc::new(std::cell::Cell::new(0u64));
        {
            let cluster_traffic = traffic0.clone();
            let snap = {
                let dm_servers: Vec<_> = cluster
                    .dm_servers
                    .iter()
                    .map(|s| s.memory().clone())
                    .collect();
                let gfam_traffic: Option<_> = cluster.cxl_fabric().map(|f| f.gfam().clone());
                move || -> u64 {
                    dm_servers.iter().map(|m| m.traffic_bytes()).sum::<u64>()
                        + gfam_traffic
                            .as_ref()
                            .map(|g| g.traffic_bytes())
                            .unwrap_or(0)
                }
            };
            simcore::spawn(async move {
                simcore::sleep(warmup).await;
                cluster_traffic.set(snap());
            });
        }
        let m = run_closed_loop(
            workers,
            warmup,
            Duration::from_millis(4),
            Rc::new(move |_w, _i| {
                let (dm, region) = (dm.clone(), region.clone());
                async move {
                    let r = region.create_ref().await?;
                    dm.release_ref(&r).await
                }
            }),
        )
        .await;
        let traffic = cluster.dm_traffic_bytes().saturating_sub(traffic0.get());
        let per_req_kb = if m.completed == 0 {
            0.0
        } else {
            traffic as f64 / m.completed as f64 / 1024.0
        };
        (m.throughput_rps() / 1e3, resp_us, per_req_kb)
    })
}

/// Run the experiment and emit `results/fig7_cow.csv`.
pub fn run() {
    let mut t = Table::new(
        "fig7_cow",
        &[
            "size",
            "impl",
            "rate_krps",
            "response_us",
            "traffic_kb_per_req",
        ],
    );
    let variants: [(SystemKind, CopyMode, &str); 4] = [
        (SystemKind::DmNet, CopyMode::CopyOnWrite, "DmRPC-net"),
        (SystemKind::DmNet, CopyMode::Eager, "DmRPC-net-copy"),
        (SystemKind::DmCxl, CopyMode::CopyOnWrite, "DmRPC-CXL"),
        (SystemKind::DmCxl, CopyMode::Eager, "DmRPC-CXL-copy"),
    ];
    for size in SIZES {
        for (kind, mode, label) in variants {
            let (rate, resp, traffic) = run_point(kind, mode, size);
            t.row(&[
                &size_label(size),
                &label,
                &f2(rate),
                &f2(resp),
                &f2(traffic),
            ]);
        }
    }
    t.finish();
}
