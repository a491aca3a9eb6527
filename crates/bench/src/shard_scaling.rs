//! xtra_shard_scaling — DmRPC-net throughput versus number of DM servers
//! ("shards", DESIGN.md §13).
//!
//! Sweeps the DM pool over 1→16 servers with the paper's round-robin
//! placement on two workloads: the Fig. 10a 7-tier image pipeline (8 KB
//! images, closed loop) and the Fig. 11 DeathStarBench social network at a
//! fixed offered rate. A single DM server's NIC bounds the image pipeline
//! at N=1; round-robin spreads refs evenly across servers, so aggregate DM
//! bandwidth — and end-to-end throughput — grows with N until the
//! worker/client tiers take over as the bottleneck. The social rows sit
//! below that deployment's knee (`BENCH_fig11.json`), so they read the
//! offered rate at every N and show only latency and balance. Even
//! spreading is the reason round-robin is the one placement, so it is
//! gated: every row's `shard_balance` (min/max requests per server) stays
//! at or above [`MIN_BALANCE`].
//!
//! Emits `results/xtra_shard_scaling.csv` and
//! `results/BENCH_shard_scaling.json`. All measurements are virtual-time,
//! so both artifacts are byte-deterministic and CI diffs them against the
//! committed copies.

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use simcore::Sim;

use crate::report::{f2, Bound, Table};

/// Shard counts swept.
pub const SHARDS: [usize; 5] = [1, 2, 4, 8, 16];

/// Image size for the pipeline workload (the paper's mid-size point, where
/// the DM tier is bandwidth-bound rather than RTT-bound).
pub const IMAGE_SIZE: usize = 8192;

/// Offered rate for the social workload (the top of Fig. 11's ladder,
/// below its 2-server DmRPC-net knee).
pub const SOCIAL_RATE: f64 = 1400e3;

/// min/max requests served across the cluster's DM servers after a run
/// (1.0 = perfectly balanced).
fn balance(cluster: &Cluster) -> f64 {
    let ops = cluster.dm_servers.iter().map(|s| s.ops_served());
    let (min, max) = ops.fold((u64::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
    if max == 0 {
        return 1.0;
    }
    min as f64 / max as f64
}

/// One image-pipeline cell: the Fig. 10a closed loop with `n_dm` DM
/// shards, and enough generator clients that no single client NIC bounds
/// the sweep (same trick as Fig. 10a, scaled for the larger pool). Returns
/// the measurement and the `shard_balance` column.
pub fn run_image_point(n_dm: usize, workers: usize) -> (apps::Measured, f64) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, n_dm, ClusterConfig::default(), 10);
        let m = crate::fig10::drive(&cluster, 6, IMAGE_SIZE, workers).await;
        (m, balance(&cluster))
    })
}

/// One social-network cell: the Fig. 11 open loop at [`SOCIAL_RATE`]
/// with `n_dm` DM shards. Returns the measurement and the `shard_balance`
/// column.
pub fn run_social_point(n_dm: usize) -> (apps::Measured, f64) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, n_dm, ClusterConfig::default(), 11);
        let m = crate::fig11::drive(&cluster, SOCIAL_RATE).await.0;
        (m, balance(&cluster))
    })
}

/// Minimum `8-shard / 1-shard` image throughput for the sweep to pass.
pub const MIN_SPEEDUP_8_SHARDS: f64 = 3.0;

/// Minimum `shard_balance` of every row (0.97–1.00 measured under
/// round-robin, 0.48–0.86 under the consistent-hash ring it replaced).
pub const MIN_BALANCE: f64 = 0.95;

/// Run the sweep and emit both artifacts. Cells are independent
/// simulations fanned out over `SIM_THREADS`; rows assemble in sweep
/// order, so every artifact is byte-identical at any thread count.
pub fn run() {
    const WORKLOADS: [&str; 2] = ["image_8k", "social_mixed"];
    let cells: Vec<(&str, usize)> = WORKLOADS
        .iter()
        .flat_map(|&w| SHARDS.iter().map(move |&n| (w, n)))
        .collect();
    let results = crate::pool::sweep(&cells, |&(workload, shards)| {
        let (m, balance) = match workload {
            "image_8k" => run_image_point(shards, 64),
            _ => run_social_point(shards),
        };
        (m.throughput_rps(), m.avg_latency_us(), balance)
    });

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
    )
    .trajectory("shard_scaling");
    t.meta("image_size", IMAGE_SIZE);
    // One block of `SHARDS.len()` cells per workload, 1-shard cell first.
    for (block, measured) in cells.chunks(SHARDS.len()).zip(results.chunks(SHARDS.len())) {
        let base = measured[0].0;
        for (&(workload, shards), &(rps, avg, balance)) in block.iter().zip(measured) {
            t.row(&[
                &workload,
                &shards,
                &f2(rps / 1e3),
                &f2(avg),
                &f2(rps / base),
                &f2(balance),
            ]);
        }
    }
    let at8 = SHARDS.iter().position(|&n| n == 8).expect("8 is swept");
    let speedup8 = results[at8].0 / results[0].0;
    t.headline("image_speedup_8_shards", f2(speedup8));
    t.gate(
        "image_8k speedup at 8 shards vs 1",
        speedup8,
        Bound::AtLeast(MIN_SPEEDUP_8_SHARDS),
    );
    let balance = results.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    t.gate(
        "shard_balance of every row",
        balance,
        Bound::AtLeast(MIN_BALANCE),
    );
    t.finish();
    t.bars(
        "DmRPC-net throughput (krps) vs DM shards",
        "workload",
        "dm_shards",
        "throughput_krps",
    );
}
