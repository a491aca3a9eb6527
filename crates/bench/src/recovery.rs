//! `xtra_recovery` — cost model of the durable DM tier (DESIGN.md §12).
//!
//! Two questions, one table each:
//!
//! 1. **Recovery time vs log length** — a durable server on NVMe-class
//!    media replays its write-ahead log after a crash. Without
//!    compaction, recovery time grows linearly with the acknowledged op
//!    history; with checkpoint compaction the log (and therefore the
//!    replay) is bounded by the checkpoint threshold, independent of
//!    history length.
//! 2. **Durability overhead** — the Fig. 5 chain workload with the WAL
//!    off, in zero-cost mode (full bookkeeping, no virtual-time charge),
//!    and on NVMe-class media. Zero-cost durability must reproduce the
//!    durability-off schedule *exactly* (same completions, same virtual
//!    end time) — that is the property the CI `results`
//!    job gates on — while the NVMe column shows the simulated price of
//!    real media.

use std::rc::Rc;
use std::time::Duration;

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::workload::run_closed_loop;
use bytes::Bytes;
use dmnet::{DmNetClient, DmServerConfig, WalConfig};
use memsim::{DurableMediaParams, ModelParams};
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

use crate::report::{f2, Bound, Table};

/// One measured recovery: acknowledged op count vs log size and replay
/// cost on NVMe-class media.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPoint {
    /// Acknowledged mutating ops before the crash.
    pub ops: u64,
    /// Live log size at crash time, bytes.
    pub log_bytes: u64,
    /// Records replayed by `restart_from_log`.
    pub replayed: usize,
    /// Checkpoint compactions that ran before the crash.
    pub compactions: u64,
    /// Virtual time spent in recovery, ns.
    pub recovery_ns: u64,
}

/// Drive `ops` acknowledged mutating ops against a durable single-node
/// server (NVMe media, `compact_threshold` bytes; 0 disables), then
/// crash it and measure `restart_from_log`.
pub fn recovery_point(ops: u64, compact_threshold: u64) -> RecoveryPoint {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 42);
        let params = ModelParams::new();
        let dm_node = net.add_node("dm0", NicConfig::default());
        let servers = dmnet::start_pool(
            &net,
            &[dm_node],
            &params,
            DmServerConfig {
                capacity_pages: 4096,
                lease_ttl: None,
                durability: Some(WalConfig {
                    media: DurableMediaParams::nvme(),
                    compact_threshold_bytes: compact_threshold,
                }),
                ..Default::default()
            },
        );
        let server = servers[0].clone();
        let cnode = net.add_node("client", NicConfig::default());
        let rpc = RpcBuilder::new(&net, cnode, 100).build();
        let client = DmNetClient::connect(rpc, vec![server.addr()])
            .await
            .expect("connect");

        // Steady-state mutation mix over a bounded working set: small
        // writes dominate, with a put/release ref churn riding along.
        let region = client.ralloc(8 * 4096).await.expect("alloc");
        let mut refs = std::collections::VecDeque::new();
        for i in 0..ops {
            match i % 8 {
                7 => {
                    let r = client
                        .put_ref(&Bytes::from(vec![i as u8; 512]))
                        .await
                        .expect("put_ref");
                    refs.push_back(r);
                    if refs.len() > 4 {
                        let old = refs.pop_front().unwrap();
                        client.release_ref(&old).await.expect("release_ref");
                    }
                }
                k => {
                    let at = dmcommon::RemoteAddr {
                        va: region.va + k * 4096,
                        ..region
                    };
                    client
                        .rwrite(at, &Bytes::from(vec![i as u8; 256]))
                        .await
                        .expect("rwrite");
                }
            }
        }

        let wal = server.wal().expect("durable server");
        let log_bytes = wal.log_bytes();
        let compactions = wal.compactions();
        let pre = server.pages_digest();
        server.crash();
        let t0 = simcore::now().nanos();
        let report = server.restart_from_log().await;
        let recovery_ns = simcore::now().nanos() - t0;
        assert_eq!(server.pages_digest(), pre, "recovery diverged");
        assert!(!report.torn_tail, "clean log reported torn");
        RecoveryPoint {
            ops,
            log_bytes,
            replayed: report.records_replayed,
            compactions,
            recovery_ns,
        }
    })
}

/// One durability mode of the chain-workload comparison.
#[derive(Clone, Copy, Debug)]
pub struct OverheadPoint {
    /// Requests completed inside the measurement window.
    pub completed: u64,
    /// Virtual end time of the run, ns.
    pub end_ns: u64,
    /// Executor poll count (schedule fingerprint).
    pub polls: u64,
    /// WAL records appended (0 when durability is off).
    pub wal_records: u64,
    /// Live log bytes at teardown.
    pub wal_bytes: u64,
}

/// Run the Fig. 5 chain under one durability mode and report throughput
/// plus WAL volume.
pub fn overhead_point(durability: Option<WalConfig>) -> OverheadPoint {
    let sim = Sim::new();
    let (completed, wal_records, wal_bytes) = sim.block_on(async move {
        let mut config = ClusterConfig::default();
        config.dm.durability = durability;
        let cluster = Cluster::new(SystemKind::DmNet, 2, config, 42);
        let app = Rc::new(build_chain(&cluster, 3).await);
        let payload = Bytes::from(vec![7u8; 4096]);
        let m = run_closed_loop(
            8,
            Duration::from_micros(100),
            Duration::from_micros(2000),
            Rc::new(move |_w, _i| {
                let app = app.clone();
                let payload = payload.clone();
                async move {
                    app.request(&payload).await?;
                    Ok::<(), dmcommon::DmError>(())
                }
            }),
        )
        .await;
        let (mut records, mut bytes) = (0, 0);
        for s in &cluster.dm_servers {
            if let Some(w) = s.wal() {
                records += w.records();
                bytes += w.log_bytes();
            }
        }
        (m.completed, records, bytes)
    });
    OverheadPoint {
        completed,
        end_ns: sim.now().nanos(),
        polls: sim.poll_count(),
        wal_records,
        wal_bytes,
    }
}

/// Run both sweeps, print the tables, and write
/// `results/xtra_recovery.csv`.
pub fn run() {
    println!("\n## xtra: durable-tier recovery cost (DESIGN.md §12)\n");
    let mut t = Table::new(
        "xtra_recovery",
        &[
            "section",
            "config",
            "ops",
            "log_kb",
            "replayed",
            "compactions",
            "metric",
        ],
    );

    // Recovery time vs log length: unbounded log vs 64 KiB checkpoints.
    for &ops in &[64u64, 256, 1024, 4096] {
        for (config, threshold) in [("no-compaction", 0), ("compact-64k", 64 * 1024)] {
            let p = recovery_point(ops, threshold);
            t.row(&[
                &"recovery",
                &config,
                &p.ops,
                &f2(p.log_bytes as f64 / 1024.0),
                &p.replayed,
                &p.compactions,
                &format!("{:.1}us", p.recovery_ns as f64 / 1000.0),
            ]);
        }
    }

    // Durability overhead on the chain workload.
    let off = overhead_point(None);
    let zero = overhead_point(Some(WalConfig::zero_cost()));
    let nvme = overhead_point(Some(WalConfig::nvme()));
    for (label, p) in [("off", &off), ("zero-cost", &zero), ("nvme", &nvme)] {
        let tput = p.completed as f64 / (p.end_ns as f64 / 1e9) / 1000.0;
        t.row(&[
            &"overhead",
            &label,
            &p.completed,
            &f2(p.wal_bytes as f64 / 1024.0),
            &p.wal_records,
            &0u64,
            &format!("{:.1}krps", tput),
        ]);
    }
    // The zero-cost contract: full WAL bookkeeping, bit-identical
    // schedule. This is what lets DM_DURABLE=1 regenerate every CSV
    // byte-for-byte (CI `results`).
    t.gate(
        "zero-cost durability schedule drift (completions + ns + polls)",
        (off.completed.abs_diff(zero.completed)
            + off.end_ns.abs_diff(zero.end_ns)
            + off.polls.abs_diff(zero.polls)) as f64,
        Bound::AtMost(0.0),
    );
    t.gate(
        "zero-cost durability WAL records logged",
        zero.wal_records as f64,
        Bound::AtLeast(1.0),
    );
    t.finish();
}
