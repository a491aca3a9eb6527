//! Fig. 11 — DeathStarBench social network: average, p99 and p99.9 latency
//! versus offered request rate, eRPC vs DmRPC-net, mixed 60/30/10 workload.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::social::build_social;
use apps::workload::run_open_loop;
use simcore::{Sim, SimRng};

use crate::report::{f2, Table};

/// Offered rates swept (requests/second).
pub const RATES: [f64; 9] = [
    50e3, 100e3, 200e3, 300e3, 400e3, 500e3, 700e3, 1000e3, 1400e3,
];

/// Media payload per post.
pub const MEDIA: usize = 8192;

/// One point: measured stats at an offered rate.
pub fn run_point(kind: SystemKind, rate: f64) -> apps::Measured {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 11);
        drive(&cluster, rate).await
    })
}

/// Build the social network on `cluster`, preload it, and offer the mixed
/// workload open-loop at `rate`.
pub async fn drive(cluster: &Cluster, rate: f64) -> apps::Measured {
    let app = Rc::new(build_social(cluster, 500, MEDIA, 3).await);
    app.preload(200).await.expect("preload");
    run_open_loop(
        rate,
        Duration::from_millis(1),
        Duration::from_millis(8),
        SimRng::new(rate as u64 ^ 0xBEEF),
        Rc::new(move |_n| {
            let app = app.clone();
            async move { app.mixed_request().await }
        }),
    )
    .await
}

/// Run the experiment and emit `results/fig11_deathstarbench.csv`. The
/// (rate, system) cells are independent simulations fanned out across
/// `SIM_THREADS` workers; rows assemble in sweep order, so the CSV is
/// byte-identical at every thread count.
pub fn run() {
    const KINDS: [SystemKind; 2] = [SystemKind::Erpc, SystemKind::DmNet];
    let cells: Vec<(f64, SystemKind)> = RATES
        .iter()
        .flat_map(|&rate| KINDS.into_iter().map(move |kind| (rate, kind)))
        .collect();
    let measured = crate::pool::sweep(&cells, |&(rate, kind)| {
        let m = run_point(kind, rate);
        (
            m.throughput_rps(),
            m.avg_latency_us(),
            m.latency_us(0.99),
            m.latency_us(0.999),
        )
    });

    let mut t = Table::new(
        "fig11_deathstarbench",
        &[
            "offered_krps",
            "system",
            "achieved_krps",
            "avg_us",
            "p99_us",
            "p999_us",
        ],
    );
    for (&(rate, kind), &(rps, avg, p99, p999)) in cells.iter().zip(&measured) {
        t.row(&[
            &f2(rate / 1e3),
            &kind.label(),
            &f2(rps / 1e3),
            &f2(avg),
            &f2(p99),
            &f2(p999),
        ]);
    }
    t.finish();
    t.bars(
        "Fig. 11 avg latency (us) vs offered rate (krps)",
        "offered_krps",
        "system",
        "avg_us",
    );
}
