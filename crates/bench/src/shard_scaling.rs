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
//! Emits `results/xtra_shard_scaling.csv` and
//! `results/BENCH_shard_scaling.json`. All measurements are virtual-time,
//! so both artifacts are byte-deterministic and CI diffs them against the
//! committed copies.

use apps::cluster::{Cluster, ClusterConfig, DmPlacement, SystemKind};
use simcore::Sim;

use crate::report::{f2, Bound, Table};

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

/// One image-pipeline cell: the Fig. 10a closed loop with `n_dm` DM
/// shards, and enough generator clients that no single client NIC bounds
/// the sweep (same trick as Fig. 10a, scaled for the larger pool).
pub fn run_image_point(n_dm: usize, workers: usize) -> (apps::Measured, ShardStats) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, n_dm, sharded_config(), 10);
        let m = crate::fig10::drive(&cluster, 6, IMAGE_SIZE, workers).await;
        (m, ShardStats::collect(&cluster))
    })
}

/// One social-network cell: the Fig. 11 open loop at a saturating rate
/// with `n_dm` DM shards.
pub fn run_social_point(n_dm: usize) -> (apps::Measured, ShardStats) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, n_dm, sharded_config(), 11);
        let m = crate::fig11::drive(&cluster, SOCIAL_RATE).await;
        (m, ShardStats::collect(&cluster))
    })
}

/// Minimum `8-shard / 1-shard` image throughput for the sweep to pass.
pub const MIN_SPEEDUP_8_SHARDS: f64 = 3.0;

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
        let (m, s) = match workload {
            "image_8k" => run_image_point(shards, 64),
            _ => run_social_point(shards),
        };
        assert_eq!(s.migrations, 0, "steady-state sweep must not migrate");
        assert_eq!(s.redirects, 0, "steady-state sweep must not redirect");
        (m.throughput_rps(), m.avg_latency_us(), s.balance())
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
    t.finish();
    t.bars(
        "DmRPC-net throughput (krps) vs DM shards",
        "workload",
        "dm_shards",
        "throughput_krps",
    );
}
