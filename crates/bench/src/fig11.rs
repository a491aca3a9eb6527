//! Fig. 11 — DeathStarBench social network: average, p99 and p99.9 latency
//! versus offered request rate, eRPC vs DmRPC-net, mixed 60/30/10 workload;
//! and each system's knee, the highest rate meeting `slo_scale`'s SLO,
//! found by bisecting between the ladder's last rate meeting it and the
//! next, with the busiest resource there.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind, Utilization};
use apps::social::build_social;
use apps::workload::{run_open_loop, search, Edge};
use simcore::{Sim, SimRng};

use crate::report::{f2, Bound, Table};
use crate::slo_scale::{slo_report, KNEE_BRACKET, SLO_BUDGET};

/// Offered rates swept (requests/second).
pub const RATES: [f64; 9] = [
    50e3, 100e3, 200e3, 300e3, 400e3, 500e3, 700e3, 1000e3, 1400e3,
];

/// Media payload per post.
pub const MEDIA: usize = 8192;

/// The knee search stops once the bracket is this narrow, finer than
/// `slo_scale`'s because eRPC's knee here is an order of magnitude lower
/// than DmRPC-net's.
pub const KNEE_TOL: f64 = 25e3;

const WARMUP: Duration = Duration::from_millis(1);
const WINDOW: Duration = Duration::from_millis(8);

/// One point: measured stats at an offered rate, and the busiest resource
/// over warm-up and window.
pub fn run_point(kind: SystemKind, rate: f64) -> (apps::Measured, Utilization) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 11);
        drive(&cluster, rate).await
    })
}

/// Build the social network on `cluster`, preload it, and offer the mixed
/// workload open-loop at `rate`.
pub async fn drive(cluster: &Cluster, rate: f64) -> (apps::Measured, Utilization) {
    let app = Rc::new(build_social(cluster, 500, MEDIA, 3).await);
    app.preload(200).await.expect("preload");
    let ledger = cluster.utilization_over(WARMUP + WINDOW);
    let m = run_open_loop(
        rate,
        WARMUP,
        WINDOW,
        SimRng::new(rate as u64 ^ 0xBEEF),
        Rc::new(move |_n| {
            let app = app.clone();
            async move { app.mixed_request().await }
        }),
    )
    .await;
    (m, ledger.await.swap_remove(0))
}

/// The bracket a system's knee search starts from, given which ladder
/// rates met the SLO: the last rate meeting it and the next one, or the
/// top of `slo_scale`'s bracket when every rate does. (When none does,
/// the search reports it.)
fn knee_bracket(met: &[bool]) -> (f64, f64) {
    match met.iter().position(|&m| !m) {
        None => (RATES[RATES.len() - 1], KNEE_BRACKET.1),
        Some(miss) => (RATES[miss.max(1) - 1], RATES[miss.max(1)]),
    }
}

/// Run the experiment and emit `results/fig11_deathstarbench.csv` (the
/// ladder) and `results/BENCH_fig11.json` (the ladder plus both knees).
/// Each system is one job on a `SIM_THREADS` worker: its ladder, then its
/// knee search, which starts from the two ladder rates around the knee,
/// so no probe lands far past it. Rows assemble in ladder order, so both
/// files are byte-identical at every thread count.
pub fn run() {
    const KINDS: [SystemKind; 2] = [SystemKind::Erpc, SystemKind::DmNet];
    let systems = crate::pool::sweep(&KINDS, |&kind| {
        let ladder: Vec<((f64, f64, f64, f64), bool)> = RATES
            .iter()
            .map(|&rate| {
                let (m, _) = run_point(kind, rate);
                let stats = (
                    m.throughput_rps(),
                    m.avg_latency_us(),
                    m.latency_us(0.99),
                    m.latency_us(0.999),
                );
                (stats, slo_report(&m.latency, m.issued).met)
            })
            .collect();
        let met: Vec<bool> = ladder.iter().map(|&(_, met)| met).collect();
        let (lo, hi) = knee_bracket(&met);
        let probe = |rate| {
            let (m, bottleneck) = run_point(kind, rate);
            (slo_report(&m.latency, m.issued).met, bottleneck)
        };
        (ladder, search(probe, lo, hi, KNEE_TOL))
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
    )
    .trajectory("fig11");
    for (i, rate) in RATES.iter().enumerate() {
        for (kind, (ladder, _)) in KINDS.iter().zip(&systems) {
            let ((rps, avg, p99, p999), _) = ladder[i];
            t.row(&[
                &f2(rate / 1e3),
                &kind.label(),
                &f2(rps / 1e3),
                &f2(avg),
                &f2(p99),
                &f2(p999),
            ]);
        }
    }
    t.meta("slo_p99_us", SLO_BUDGET.as_micros());
    t.meta("knee_tol_krps", KNEE_TOL / 1e3);
    for (kind, (_, s)) in KINDS.iter().zip(&systems) {
        let system = kind.label();
        t.headline(&format!("{system}_knee_krps"), f2(s.knee.rate / 1e3));
        t.headline(&format!("{system}_knee_bottleneck"), s.at_knee());
        t.gate(
            &format!("{system} knee inside the bracket"),
            f64::from(u8::from(s.knee.edge == Edge::Inside)),
            Bound::AtLeast(1.0),
        );
    }
    let (erpc, net) = (&systems[0].1.knee, &systems[1].1.knee);
    t.headline("knee_factor", f2(net.rate / erpc.rate));
    t.finish();
    t.bars(
        "Fig. 11 avg latency (us) vs offered rate (krps)",
        "offered_krps",
        "system",
        "avg_us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_brackets_each_knee_search() {
        // eRPC's ladder: 50 and 100 krps meet the SLO, 200 does not.
        let erpc = [true, true, false, false, false, false, false, false, false];
        assert_eq!(knee_bracket(&erpc), (100e3, 200e3));
        // DmRPC-net meets it at every rate: up to the top of slo_scale's.
        assert_eq!(knee_bracket(&[true; RATES.len()]), (1400e3, KNEE_BRACKET.1));
        // Nothing meets it: the search probes the bottom rate and says so.
        assert_eq!(knee_bracket(&[false; RATES.len()]), (50e3, 100e3));
    }
}
