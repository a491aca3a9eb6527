//! xtra_slo_scale — million-user scale-factor sweep with open-loop
//! overload control and SLO reporting (DESIGN.md §14).
//!
//! Phase 1 drives the DeathStarBench social workload over synthetic
//! populations of `SF × 1000` users ([`loadgen::Population`]: ~100
//! follows/user, ~50 posts/user, Zipf(0.99) hot keys, byte-reproducible
//! at any `SIM_THREADS`) and bisects, per SF, for the **knee**: the
//! highest offered rate that still meets the SLO (p99 from intended
//! arrival ≤ [`SLO_BUDGET`], ≥99% of issued requests completed within
//! budget), over [`KNEE_BRACKET`] to [`KNEE_TOL`]. Every probe is a row,
//! and records its bottleneck: the busiest node resource over warm-up and
//! window, from the `node.<name>.*busy_ns` gauges of `Cluster::metrics`
//! (`apps::cluster::utilization`), and how many datagrams the fabric
//! delivered per request.
//!
//! Phase 2 then offers 2× and 8× each knee with overload control OFF (an
//! open loop past saturation: the backlog at the saturated NIC grows for
//! the whole window and no request finishes within budget) and ON (a
//! window of [`FRONT_WINDOW`] requests in flight through the front door):
//! shed requests fail fast with a typed `Busy`, the admitted remainder
//! stays near knee latency, and SLO goodput plateaus instead of
//! collapsing. The sweep gates the ON cell retaining ≥50% of the knee's
//! SLO goodput at 2× for every SF, and still holding that plateau at 8×.
//!
//! Emits `results/xtra_slo_scale.csv` and `results/BENCH_slo_scale.json`.
//! Each SF's search runs on one `SIM_THREADS` worker (its probes depend on
//! each other); rows assemble in sweep order, so both artifacts are
//! byte-identical at every thread count.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind, Utilization};
use apps::social::build_social_scaled;
use apps::workload::{run_open_loop_classified, search, Edge, Search};
use dmcommon::DmError;
use loadgen::Population;
use simcore::{Sim, SimRng};
use telemetry::{SloBudget, SloReport};

use crate::report::{f2, Bound, Table};

/// Scale factors swept: 1k → 1M users.
pub const SCALE_FACTORS: [u32; 4] = [1, 10, 100, 1000];

/// The offered rates (requests/second) the knee search brackets. For a
/// knee in [2.4, 2.5) Mrps it probes 1.7, 2.5, 2.1, 2.3 and 2.4 Mrps, a
/// sequence a test pins because [`SF10_KNEE_RPS`] rests on it.
pub const KNEE_BRACKET: (f64, f64) = (100e3, 3300e3);

/// The search stops once the bracket is this narrow.
pub const KNEE_TOL: f64 = 100e3;

/// [`search`] over [`KNEE_BRACKET`] to [`KNEE_TOL`].
pub fn find_knee<T>(probe: impl FnMut(f64) -> (bool, T)) -> Search<T> {
    search(probe, KNEE_BRACKET.0, KNEE_BRACKET.1, KNEE_TOL)
}

/// The p99 latency budget (the repo benchmark's `social_open` uses the
/// same). Unloaded p99 is ~20µs, so a cell only misses it once a queue
/// is growing somewhere.
pub const SLO_BUDGET: Duration = Duration::from_micros(500);

/// A window of `latency` over `issued` requests against the SLO: met when
/// p99 ≤ [`SLO_BUDGET`] with ≥99% of issued requests within it.
pub fn slo_report(latency: &simcore::Histogram, issued: u64) -> SloReport {
    SloReport::evaluate(latency, issued, SloBudget::p99(SLO_BUDGET))
}

/// Population seed (decoupled from the sim seed so the workload is pinned
/// by `SF` alone).
pub const POP_SEED: u64 = 42;

/// Media payload per post (matches Fig. 11).
pub const MEDIA: usize = 8192;

const WARMUP: Duration = Duration::from_millis(1);
const WINDOW: Duration = Duration::from_millis(5);

/// The SF=10 knee this sweep finds. The chaos `slo-social` case offers a
/// multiple of it, so it has to be a constant; [`run`] gates that the
/// measured knee still equals it.
pub const SF10_KNEE_RPS: f64 = 2400e3;

/// Knee multiples driven in phase 2 (overload ON vs OFF at each).
pub const OVERLOAD_MULTIPLES: [f64; 2] = [2.0, 8.0];

/// Overload control for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overload {
    /// No window: every arrival is let in.
    Off,
    /// The front door admits at most [`FRONT_WINDOW`] requests at a time.
    On,
}

impl Overload {
    fn label(self) -> &'static str {
        match self {
            Overload::Off => "off",
            Overload::On => "on",
        }
    }
}

/// Requests in flight the front door admits with overload control on:
/// bounding end-to-end concurrency bounds every NIC and CPU queue a
/// request crosses behind it. (Also the chaos `slo-social` case's window.)
pub const FRONT_WINDOW: u64 = 32;

/// What one cell measured, flattened for transport out of the sweep.
pub struct CellOut {
    /// Achieved completions per second.
    pub achieved_rps: f64,
    /// Completions-within-budget per second (the SLO goodput).
    pub slo_goodput_rps: f64,
    /// `within_budget / issued`.
    pub goodput_frac: f64,
    /// Fraction of issued requests shed by overload control.
    pub rejected_frac: f64,
    /// p50 latency in µs.
    pub p50_us: f64,
    /// p99 latency in µs.
    pub p99_us: f64,
    /// p99.9 latency in µs.
    pub p999_us: f64,
    /// Whether the SLO held.
    pub met: bool,
    /// The busiest node resource over warm-up and window.
    pub bottleneck: Utilization,
    /// Datagrams the fabric delivered during the window per request issued
    /// in it.
    pub datagrams_per_req: f64,
}

/// One (SF, rate, overload) cell: an independent simulation.
pub fn run_point(sf: u32, rate: f64, overload: Overload) -> CellOut {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 11);
        let pop = Population::new(sf, POP_SEED);
        let window = (overload == Overload::On).then_some(FRONT_WINDOW);
        let app = Rc::new(build_social_scaled(&cluster, pop, MEDIA, 3, window).await);
        app.preload(200).await.expect("preload");
        let ledger = cluster.utilization_over(WARMUP + WINDOW);
        let net = cluster.net.clone();
        let window_datagrams = simcore::spawn(async move {
            simcore::sleep(WARMUP).await;
            let at_start = net.delivered();
            simcore::sleep(WINDOW).await;
            net.delivered() - at_start
        });
        let a2 = app.clone();
        let m = run_open_loop_classified(
            rate,
            WARMUP,
            WINDOW,
            SimRng::new(rate as u64 ^ (sf as u64) << 32 ^ 0xBEEF),
            Rc::new(move |_n| {
                let app = a2.clone();
                async move { app.mixed_request().await }
            }),
            Rc::new(|e: &DmError| matches!(e, DmError::Busy)),
        )
        .await;
        let bottleneck = ledger.await.swap_remove(0);
        let slo = slo_report(&m.latency, m.issued);
        CellOut {
            achieved_rps: m.throughput_rps(),
            slo_goodput_rps: m.goodput_rps(SLO_BUDGET),
            goodput_frac: slo.goodput,
            rejected_frac: if m.issued == 0 {
                0.0
            } else {
                m.rejected as f64 / m.issued as f64
            },
            p50_us: slo.p50_ns as f64 / 1e3,
            p99_us: slo.p99_ns as f64 / 1e3,
            p999_us: slo.p999_ns as f64 / 1e3,
            met: slo.met,
            bottleneck,
            datagrams_per_req: window_datagrams.await as f64 / m.issued.max(1) as f64,
        }
    })
}

/// Fraction of a knee's SLO goodput the controlled system must retain
/// past it.
pub const MIN_RETAINED_FRAC: f64 = 0.5;

/// Run the sweep and emit both artifacts.
pub fn run() {
    // ---- phase 1: knee search (overload control OFF) ----------------------
    let searches = crate::pool::sweep(&SCALE_FACTORS, |&sf| {
        find_knee(|rate| {
            let cell = run_point(sf, rate, Overload::Off);
            (cell.met, cell)
        })
    });

    let mut t = Table::new(
        "xtra_slo_scale",
        &[
            "sf",
            "users",
            "offered_krps",
            "overload",
            "achieved_krps",
            "slo_goodput_krps",
            "goodput_frac",
            "rejected_frac",
            "p50_us",
            "p99_us",
            "p999_us",
            "slo_met",
            "bottleneck_node",
            "bottleneck_resource",
            "bottleneck_util",
            "datagrams_per_req",
        ],
    )
    .trajectory("slo_scale");
    t.meta("slo_p99_us", SLO_BUDGET.as_micros());
    t.meta("users_per_sf", loadgen::USERS_PER_SF);
    t.meta(
        "knee_bracket_krps",
        format!("{}-{}", KNEE_BRACKET.0 / 1e3, KNEE_BRACKET.1 / 1e3),
    );
    t.meta("knee_tol_krps", KNEE_TOL / 1e3);
    let row = |t: &mut Table, sf: u32, rate: f64, mode: Overload, c: &CellOut| {
        t.row(&[
            &sf,
            &(sf * loadgen::USERS_PER_SF),
            &f2(rate / 1e3),
            &mode.label(),
            &f2(c.achieved_rps / 1e3),
            &f2(c.slo_goodput_rps / 1e3),
            &f2(c.goodput_frac),
            &f2(c.rejected_frac),
            &f2(c.p50_us),
            &f2(c.p99_us),
            &f2(c.p999_us),
            &(c.met as u8),
            &c.bottleneck.node,
            &c.bottleneck.resource,
            &f2(c.bottleneck.utilization),
            &f2(c.datagrams_per_req),
        ]);
    };

    // One row per probe, in rate order.
    let mut knees: Vec<(u32, f64, f64)> = Vec::new();
    for (&sf, s) in SCALE_FACTORS.iter().zip(&searches) {
        let mut probes: Vec<&(f64, CellOut)> = s.probes.iter().collect();
        probes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (rate, c) in probes {
            row(&mut t, sf, *rate, Overload::Off, c);
        }
        let (rate, at) = (s.knee.rate, s.at_knee());
        knees.push((sf, rate, at.slo_goodput_rps));
        t.headline(&format!("sf{sf}_knee_krps"), f2(rate / 1e3));
        t.headline(
            &format!("sf{sf}_knee_slo_goodput_krps"),
            f2(at.slo_goodput_rps / 1e3),
        );
        t.headline(&format!("sf{sf}_knee_bottleneck"), &at.bottleneck);
        t.gate(
            &format!("sf{sf}_knee_inside_bracket"),
            f64::from(u8::from(s.knee.edge == Edge::Inside)),
            Bound::AtLeast(1.0),
        );
        if sf == 10 {
            t.gate(
                "sf10_knee_off_chaos_pin_krps",
                (rate - SF10_KNEE_RPS).abs() / 1e3,
                Bound::AtMost(0.0),
            );
        }
    }

    // ---- phase 2: past the knee, overload control OFF vs ON ---------------
    // 2x knee is the acceptance point (graceful degradation); 8x knee is
    // deep overload.
    let cells2: Vec<(u32, f64, Overload)> = knees
        .iter()
        .flat_map(|&(sf, knee, _)| {
            OVERLOAD_MULTIPLES.iter().flat_map(move |&mult| {
                [Overload::Off, Overload::On]
                    .into_iter()
                    .map(move |m| (sf, mult * knee, m))
            })
        })
        .collect();
    let phase2 = crate::pool::sweep(&cells2, |&(sf, rate, mode)| run_point(sf, rate, mode));
    for (&(sf, rate, mode), c) in cells2.iter().zip(&phase2) {
        row(&mut t, sf, rate, mode, c);
    }

    // The controlled system must plateau: at least half of the knee's SLO
    // goodput retained at 2x AND at 8x the knee. (The uncontrolled OFF
    // cells are reported but not gated — their absolute within-budget
    // counts mix the pre-collapse transient with the collapsed steady
    // state, so only their goodput_frac / p99 columns tell the collapse
    // story.)
    let per_sf = 2 * OVERLOAD_MULTIPLES.len();
    for (&(sf, knee, knee_goodput), cells) in knees.iter().zip(phase2.chunks(per_sf)) {
        let [off2, on2, off8, on8] = cells else {
            unreachable!("two multiples x off/on per SF")
        };
        let retained = |c: &CellOut| c.slo_goodput_rps / knee_goodput.max(1.0);
        println!(
            "  SF {sf}: knee {:.0} krps, SLO goodput {:.1} krps; 2x knee off {:.1} / on {:.1} krps \
             ({:.0}% of knee retained); 8x knee off {:.1} / on {:.1} krps",
            knee / 1e3,
            knee_goodput / 1e3,
            off2.slo_goodput_rps / 1e3,
            on2.slo_goodput_rps / 1e3,
            retained(on2) * 100.0,
            off8.slo_goodput_rps / 1e3,
            on8.slo_goodput_rps / 1e3,
        );
        for (mult, on) in [(2, on2), (8, on8)] {
            t.gate(
                &format!("sf{sf}_on_{mult}x_retained_frac"),
                retained(on),
                Bound::AtLeast(MIN_RETAINED_FRAC),
            );
        }
    }
    t.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_knee_in_the_2400_krps_step_is_found_by_five_probes_at_pinned_rates() {
        // The chaos `slo-social` rate follows SF10_KNEE_RPS, which these
        // probes' cells decide: a bracket or tolerance edit that moves a
        // probe can move the pin.
        for knee in [2400e3, 2450e3, 2499e3] {
            let s = find_knee(|rate| (rate <= knee, ()));
            let seen: Vec<f64> = s.probes.iter().map(|p| p.0).collect();
            assert_eq!(seen, [1700e3, 2500e3, 2100e3, 2300e3, 2400e3], "{knee}");
            let k = s.knee;
            assert_eq!((k.rate, k.edge, k.probes), (2400e3, Edge::Inside, 5));
        }
        assert_eq!(SF10_KNEE_RPS, 2400e3);
    }
}
