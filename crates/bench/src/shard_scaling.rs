//! xtra_shard_scaling — DmRPC-net throughput versus number of DM shards
//! (DESIGN.md §13).
//!
//! Sweeps the sharded DM plane over 1→16 servers with the consistent-hash
//! placement on two workloads: the Fig. 10a 7-tier image pipeline (8 KB
//! images, closed loop) and the Fig. 11 DeathStarBench social network at a
//! saturating offered rate. A single DM server's NIC bounds both at N=1;
//! the ring spreads refs across shards so aggregate DM bandwidth — and
//! end-to-end throughput — grows with N until the worker/client tiers
//! take over as the bottleneck.
//!
//! Emits `results/xtra_shard_scaling.csv`, `results/BENCH_shard_scaling.json`
//! and `results/BENCH_fig_throughput.json` (headline throughput numbers
//! parsed out of the committed Fig. 10a/11 CSVs plus the shard-scaling
//! speedups). All measurements are virtual-time, so every artifact is
//! byte-deterministic and CI diffs them against the committed copies.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, DmPlacement, SystemKind};
use apps::image_pipeline::{build_pipeline, OP_COMPRESS, OP_TRANSCODE};
use apps::social::build_social;
use apps::workload::{run_closed_loop, run_open_loop};
use bytes::Bytes;
use simcore::{Sim, SimRng};

use crate::report::{f2, render_bars, Table};

/// Shard counts swept.
pub const SHARDS: [usize; 5] = [1, 2, 4, 8, 16];

/// Image size for the pipeline workload (the paper's mid-size point, where
/// the DM tier is bandwidth-bound rather than RTT-bound).
pub const IMAGE_SIZE: usize = 8192;

/// Offered rate for the social workload (past the 2-server saturation
/// knee in the committed Fig. 11 curve).
pub const SOCIAL_RATE: f64 = 1400e3;

/// Per-shard balance snapshot taken after a run.
pub struct ShardStats {
    /// Requests served per DM server.
    pub ops: Vec<u64>,
    /// MIGRATE/MIGRATE_IN operations executed per server.
    pub migrations: u64,
    /// Redirect responses served (tombstone hits) per the whole pool.
    pub redirects: u64,
}

impl ShardStats {
    fn collect(cluster: &Cluster) -> ShardStats {
        ShardStats {
            ops: cluster.dm_servers.iter().map(|s| s.ops_served()).collect(),
            migrations: cluster.dm_servers.iter().map(|s| s.migrations()).sum(),
            redirects: cluster.dm_servers.iter().map(|s| s.redirects()).sum(),
        }
    }

    /// min/max ops ratio across shards (1.0 = perfectly balanced).
    pub fn balance(&self) -> f64 {
        let min = self.ops.iter().copied().min().unwrap_or(0);
        let max = self.ops.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        min as f64 / max as f64
    }
}

fn sharded_config() -> ClusterConfig {
    ClusterConfig {
        dm_placement: DmPlacement::Sharded,
        ..ClusterConfig::default()
    }
}

/// One image-pipeline cell: closed-loop throughput with `n_dm` DM shards.
pub fn run_image_point(n_dm: usize, workers: usize) -> (apps::Measured, ShardStats) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, n_dm, sharded_config(), 10);
        let app = Rc::new(build_pipeline(&cluster).await);
        // Enough generator clients that no single client NIC bounds the
        // sweep (same trick as Fig. 10a, scaled for the larger pool).
        let mut clients: Vec<Rc<dmrpc::DmRpc>> = vec![app.client.clone()];
        for i in 0..5 {
            let node = cluster.add_server(format!("client{i}"));
            clients.push(cluster.endpoint(&node, 100).await);
        }
        let clients = Rc::new(clients);
        let image = Bytes::from(vec![9u8; IMAGE_SIZE]);
        app.request(OP_TRANSCODE, &image).await.expect("warmup");
        let a2 = app.clone();
        let m = run_closed_loop(
            workers,
            Duration::from_millis(1),
            Duration::from_millis(4),
            Rc::new(move |w: usize, _i: u64| {
                let app = a2.clone();
                let client = clients[w % clients.len()].clone();
                let image = image.clone();
                let op = if w.is_multiple_of(2) {
                    OP_TRANSCODE
                } else {
                    OP_COMPRESS
                };
                async move { app.request_via(&client, op, &image).await.map(|_| ()) }
            }),
        )
        .await;
        (m, ShardStats::collect(&cluster))
    })
}

/// One social-network cell: open-loop at a saturating rate with `n_dm`
/// DM shards.
pub fn run_social_point(n_dm: usize) -> (apps::Measured, ShardStats) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, n_dm, sharded_config(), 11);
        let app = Rc::new(build_social(&cluster, 500, crate::fig11::MEDIA, 3).await);
        app.preload(200).await.expect("preload");
        let a2 = app.clone();
        let m = run_open_loop(
            SOCIAL_RATE,
            Duration::from_millis(1),
            Duration::from_millis(8),
            SimRng::new(SOCIAL_RATE as u64 ^ 0xBEEF),
            Rc::new(move |_n| {
                let app = a2.clone();
                async move { app.mixed_request().await }
            }),
        )
        .await;
        (m, ShardStats::collect(&cluster))
    })
}

struct Cell {
    workload: &'static str,
    shards: usize,
    krps: f64,
    avg_us: f64,
    balance: f64,
}

fn write_bench_json(cells: &[Cell], speedup8: f64) {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"shard_scaling\",\n");
    let _ = writeln!(out, "  \"image_size\": {IMAGE_SIZE},");
    let _ = writeln!(out, "  \"image_speedup_8_shards\": {speedup8:.2},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"shards\": {}, \"throughput_krps\": {:.2}, \
             \"avg_us\": {:.2}, \"balance\": {:.3}}}",
            c.workload, c.shards, c.krps, c.avg_us, c.balance,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let dir = crate::report::results_dir();
    let path = dir.join("BENCH_shard_scaling.json");
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("  (bench json write failed: {e})"),
    }
}

/// Pull the DmRPC-net summary numbers out of the committed Fig. 10a and
/// Fig. 11 CSVs and fold them — plus the shard-scaling headline — into
/// `results/BENCH_fig_throughput.json`. Parsing the committed CSVs (rather
/// than re-measuring) keeps this artifact consistent with the figures by
/// construction.
fn write_fig_throughput_json(cells: &[Cell], speedup8: f64) {
    use std::fmt::Write as _;
    let dir = crate::report::results_dir();
    let read_rows = |name: &str| -> Vec<Vec<String>> {
        std::fs::read_to_string(dir.join(name))
            .map(|s| {
                s.lines()
                    .skip(1)
                    .map(|l| l.split(',').map(str::to_string).collect())
                    .collect()
            })
            .unwrap_or_default()
    };

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"fig_throughput\",\n");
    // Fig. 10a: DmRPC-net krps per image size.
    out.push_str("  \"fig10a_dmrpc_net_krps\": {");
    let mut first = true;
    for row in read_rows("fig10a_image_throughput.csv") {
        if row.len() >= 3 && row[1] == "DmRPC-net" {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if first { "" } else { ", " },
                row[0],
                row[2]
            );
            first = false;
        }
    }
    out.push_str("},\n");
    // Fig. 11: DmRPC-net achieved krps at the highest offered rate.
    let fig11: Vec<Vec<String>> = read_rows("fig11_deathstarbench.csv");
    let peak = fig11.iter().rfind(|r| r.len() >= 3 && r[1] == "DmRPC-net");
    if let Some(r) = peak {
        let _ = writeln!(
            out,
            "  \"fig11_dmrpc_net_peak\": {{\"offered_krps\": {}, \"achieved_krps\": {}}},",
            r[0], r[2]
        );
    } else {
        out.push_str("  \"fig11_dmrpc_net_peak\": null,\n");
    }
    // Shard-scaling headline (this run).
    let _ = writeln!(out, "  \"shard_scaling_image_speedup_8\": {speedup8:.2},");
    out.push_str("  \"shard_scaling_krps\": {");
    let mut first = true;
    for c in cells.iter().filter(|c| c.workload == "image_8k") {
        let _ = write!(
            out,
            "{}\"{}\": {:.2}",
            if first { "" } else { ", " },
            c.shards,
            c.krps
        );
        first = false;
    }
    out.push_str("}\n}\n");
    let path = dir.join("BENCH_fig_throughput.json");
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("  (bench json write failed: {e})"),
    }
}

/// Run the sweep and emit the three artifacts. Cells are independent
/// simulations fanned out over `SIM_THREADS`; rows assemble in sweep
/// order, so every artifact is byte-identical at any thread count.
pub fn run() {
    let threads = crate::pool::sim_threads();
    let n = SHARDS.len();
    // Image cells then social cells, one per shard count.
    let results = crate::pool::scoped_map(2 * n, threads, |i| {
        if i < n {
            let (m, s) = run_image_point(SHARDS[i], 64);
            (
                m.throughput_rps(),
                m.avg_latency_us(),
                s.balance(),
                s.migrations,
                s.redirects,
            )
        } else {
            let (m, s) = run_social_point(SHARDS[i - n]);
            (
                m.throughput_rps(),
                m.avg_latency_us(),
                s.balance(),
                s.migrations,
                s.redirects,
            )
        }
    });

    let mut cells = Vec::new();
    let mut t = Table::new(
        "xtra_shard_scaling",
        &[
            "workload",
            "dm_shards",
            "throughput_krps",
            "avg_us",
            "speedup_vs_1",
            "shard_balance",
        ],
    );
    let mut image_krps = Vec::new();
    for (w, workload) in ["image_8k", "social_mixed"].into_iter().enumerate() {
        let base = results[w * n].0;
        for (j, &shards) in SHARDS.iter().enumerate() {
            let (rps, avg, balance, migrations, redirects) = results[w * n + j];
            assert_eq!(migrations, 0, "steady-state sweep must not migrate");
            assert_eq!(redirects, 0, "steady-state sweep must not redirect");
            if w == 0 {
                image_krps.push(rps / 1e3);
            }
            t.row(&[
                &workload,
                &shards,
                &f2(rps / 1e3),
                &f2(avg),
                &f2(rps / base),
                &f2(balance),
            ]);
            cells.push(Cell {
                workload,
                shards,
                krps: rps / 1e3,
                avg_us: avg,
                balance,
            });
        }
    }
    t.finish();
    render_bars(
        "DmRPC-net image throughput (krps) vs DM shards",
        &SHARDS.iter().map(|s| format!("{s}")).collect::<Vec<_>>(),
        &[("image_8k", image_krps.clone())],
    );

    let speedup8 = image_krps[3] / image_krps[0];
    println!("\n  image_8k speedup at 8 shards vs 1: {speedup8:.2}x");
    write_bench_json(&cells, speedup8);
    write_fig_throughput_json(&cells, speedup8);
    assert!(
        speedup8 >= 3.0,
        "sharded DM plane must scale: 8-shard image throughput is only \
         {speedup8:.2}x the 1-shard number (need >= 3x)"
    );
}
