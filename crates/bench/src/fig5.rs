//! Fig. 5 — nested RPC calls: throughput (a) and average latency (b) versus
//! chain length, 4 KB argument.

use std::rc::Rc;
use std::time::Duration;

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::workload::run_closed_loop;
use bytes::Bytes;
use simcore::Sim;

use crate::report::{f2, Table};

/// Argument size (paper: 4 KB array).
pub const ARG_SIZE: usize = 4096;

/// One measurement: (throughput krps, avg latency us).
fn run_point(kind: SystemKind, length: usize, workers: usize, window: Duration) -> (f64, f64) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 42);
        let app = Rc::new(build_chain(&cluster, length).await);
        let payload = Bytes::from(vec![7u8; ARG_SIZE]);
        // Warm up one request to fault everything in.
        app.request(&payload).await.expect("warmup");
        let m = run_closed_loop(
            workers,
            Duration::from_micros(200),
            window,
            Rc::new(move |_w, _i| {
                let app = app.clone();
                let payload = payload.clone();
                async move { app.request(&payload).await.map(|_| ()) }
            }),
        )
        .await;
        (m.throughput_rps() / 1e3, m.avg_latency_us())
    })
}

/// Run the experiment and emit `results/fig5_nested.csv`. The
/// (chain length, system) cells are independent simulations fanned out
/// across `SIM_THREADS` workers; rows assemble in sweep order, so the
/// CSV is byte-identical at every thread count.
pub fn run() {
    let cells: Vec<(usize, SystemKind)> = (1..=7usize)
        .flat_map(|length| SystemKind::ALL.into_iter().map(move |kind| (length, kind)))
        .collect();
    let measured = crate::pool::sweep(&cells, |&(length, kind)| {
        let (tput, lat_loaded) = run_point(kind, length, 16, Duration::from_millis(4));
        let (_, lat_unloaded) = run_point(kind, length, 1, Duration::from_millis(1));
        (tput, lat_loaded, lat_unloaded)
    });

    let mut t = Table::new(
        "fig5_nested",
        &[
            "chain_len",
            "system",
            "throughput_krps",
            "avg_latency_us_loaded",
            "avg_latency_us_unloaded",
        ],
    );
    for (&(length, kind), &(tput, lat_loaded, lat_unloaded)) in cells.iter().zip(&measured) {
        t.row(&[
            &length,
            &kind.label(),
            &f2(tput),
            &f2(lat_loaded),
            &f2(lat_unloaded),
        ]);
    }
    t.finish();
    t.bars(
        "Fig. 5a throughput (krps) vs chain length",
        "chain_len",
        "system",
        "throughput_krps",
    );
}
