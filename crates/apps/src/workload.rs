//! Load generators and measurement plumbing shared by every experiment:
//! closed-loop (fixed concurrency) and open-loop (Poisson arrivals at an
//! offered rate) drivers with warmup handling and latency histograms.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use simcore::{Histogram, SimRng, SimTime};

/// Results of one measured run.
#[derive(Clone)]
pub struct Measured {
    /// Latency of completed operations, in nanoseconds. Open-loop runs
    /// measure from the *intended* Poisson arrival time, so queueing and
    /// admission delay are included (no coordinated omission).
    pub latency: Histogram,
    /// Operations completed inside the measurement window.
    pub completed: u64,
    /// Operations that returned a real error.
    pub errors: u64,
    /// Operations refused by overload control (a typed `Busy` rejection
    /// or a front-door shed) — deliberate load-shedding, kept distinct
    /// from `errors` so goodput math doesn't conflate the two.
    pub rejected: u64,
    /// In-window operations issued by the driver (open loop: intended
    /// arrivals; closed loop: ops both started and finished in-window).
    pub issued: u64,
    /// Length of the measurement window.
    pub window: Duration,
}

impl Measured {
    /// Completed operations per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.window.as_secs_f64()
    }

    /// Goodput in bits/second given `bytes` moved per operation.
    pub fn throughput_gbps(&self, bytes_per_op: u64) -> f64 {
        self.throughput_rps() * bytes_per_op as f64 * 8.0 / 1e9
    }

    /// SLO goodput: completed operations whose latency (from intended
    /// arrival) stayed within `budget`, per second. The metric overload
    /// control optimizes — requests served late count for nothing.
    pub fn goodput_rps(&self, budget: Duration) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.latency.count_below(budget.as_nanos() as u64) as f64 / self.window.as_secs_f64()
    }

    /// Mean latency in microseconds.
    pub fn avg_latency_us(&self) -> f64 {
        self.latency.mean() / 1000.0
    }

    /// Latency quantile in microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        self.latency.quantile(q) as f64 / 1000.0
    }
}

/// Run `op` from `workers` closed-loop workers for `warmup + window`,
/// recording latencies only inside the window.
///
/// `op(worker, iteration)` returns `Ok(())` or an error (counted).
pub async fn run_closed_loop<F, Fut, E>(
    workers: usize,
    warmup: Duration,
    window: Duration,
    op: Rc<F>,
) -> Measured
where
    F: Fn(usize, u64) -> Fut + 'static,
    Fut: Future<Output = Result<(), E>> + 'static,
{
    let start = simcore::now();
    let measure_from = start + warmup;
    let end = measure_from + window;
    let latency = Histogram::new();
    let completed = Rc::new(Cell::new(0u64));
    let errors = Rc::new(Cell::new(0u64));

    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let op = op.clone();
        let latency = latency.clone();
        let completed = completed.clone();
        let errors = errors.clone();
        handles.push(simcore::spawn(async move {
            let mut iter = 0u64;
            loop {
                let t0 = simcore::now();
                if t0 >= end {
                    break;
                }
                let r = op(w, iter).await;
                iter += 1;
                let t1 = simcore::now();
                if t0 >= measure_from && t1 <= end {
                    match r {
                        Ok(()) => {
                            latency.record((t1 - t0).as_nanos() as u64);
                            completed.set(completed.get() + 1);
                        }
                        Err(_) => errors.set(errors.get() + 1),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.await;
    }
    Measured {
        latency,
        completed: completed.get(),
        errors: errors.get(),
        rejected: 0,
        issued: completed.get() + errors.get(),
        window,
    }
}

/// Run `op` under an open-loop Poisson arrival process at `rate_rps` for
/// `warmup + window`. Returns measured stats; in-flight requests at window
/// end are awaited (their latencies count if they started in the window).
///
/// Every error counts as a real error; see
/// [`run_open_loop_classified`] to separate overload rejections.
pub async fn run_open_loop<F, Fut, E>(
    rate_rps: f64,
    warmup: Duration,
    window: Duration,
    rng: SimRng,
    op: Rc<F>,
) -> Measured
where
    F: Fn(u64) -> Fut + 'static,
    Fut: Future<Output = Result<(), E>> + 'static,
    E: 'static,
{
    run_open_loop_classified(rate_rps, warmup, window, rng, op, Rc::new(|_: &E| false)).await
}

/// [`run_open_loop`] with an error classifier: errors for which
/// `is_rejection` returns true are counted as [`Measured::rejected`]
/// (deliberately shed load) instead of [`Measured::errors`].
///
/// Latency is measured from each request's **intended Poisson arrival
/// time**, not from whenever its task first ran — the classic
/// coordinated-omission fix: under overload, delay between when a
/// request *should* have been issued and when it made progress is
/// queueing the user experienced and must show in the percentiles. The
/// arrival clock accumulates exact inter-arrival gaps, so the sleep
/// schedule (and thus the event schedule) is identical to the historical
/// sleep-per-gap driver.
pub async fn run_open_loop_classified<F, Fut, E>(
    rate_rps: f64,
    warmup: Duration,
    window: Duration,
    rng: SimRng,
    op: Rc<F>,
    is_rejection: Rc<dyn Fn(&E) -> bool>,
) -> Measured
where
    F: Fn(u64) -> Fut + 'static,
    Fut: Future<Output = Result<(), E>> + 'static,
    E: 'static,
{
    assert!(rate_rps > 0.0, "open loop needs a positive rate");
    let start = simcore::now();
    let measure_from = start + warmup;
    let end = measure_from + window;
    let latency = Histogram::new();
    let completed = Rc::new(Cell::new(0u64));
    let errors = Rc::new(Cell::new(0u64));
    let rejected = Rc::new(Cell::new(0u64));
    let mean_gap_ns = 1e9 / rate_rps;

    let mut handles = Vec::new();
    let mut seq = 0u64;
    let mut issued = 0u64;
    let mut next_arrival = start;
    loop {
        let gap = rng.gen_exp(mean_gap_ns);
        next_arrival += Duration::from_nanos(gap as u64);
        let now = simcore::now();
        if next_arrival > now {
            simcore::sleep(next_arrival - now).await;
        }
        if next_arrival >= end {
            break;
        }
        let op = op.clone();
        let latency = latency.clone();
        let completed = completed.clone();
        let errors = errors.clone();
        let rejected = rejected.clone();
        let is_rejection = is_rejection.clone();
        let in_window = next_arrival >= measure_from;
        if in_window {
            issued += 1;
        }
        let arrival = next_arrival;
        let n = seq;
        seq += 1;
        handles.push(simcore::spawn(async move {
            let r = op(n).await;
            let t1 = simcore::now();
            if in_window {
                match r {
                    Ok(()) => {
                        latency.record((t1 - arrival).as_nanos() as u64);
                        completed.set(completed.get() + 1);
                    }
                    Err(e) if is_rejection(&e) => rejected.set(rejected.get() + 1),
                    Err(_) => errors.set(errors.get() + 1),
                }
            }
        }));
    }
    for h in handles {
        h.await;
    }
    Measured {
        latency,
        completed: completed.get(),
        errors: errors.get(),
        rejected: rejected.get(),
        issued,
        window,
    }
}

/// Measure a single operation's latency (paper-style unloaded latency).
pub async fn measure_once<F, Fut, T>(op: F) -> (T, Duration)
where
    F: FnOnce() -> Fut,
    Fut: Future<Output = T>,
{
    let t0 = simcore::now();
    let out = op().await;
    (out, simcore::now() - t0)
}

/// Helper: elapsed virtual time since `t0`.
pub fn since(t0: SimTime) -> Duration {
    simcore::now() - t0
}

/// Where the knee lies relative to the searched bracket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Edge {
    /// Some rate in the bracket meets the SLO and some rate does not.
    Inside,
    /// Not even the lowest rate meets the SLO; the knee is reported as it.
    NoRateMeets,
    /// Even the highest rate meets the SLO; the knee is reported as it.
    AllRatesMeet,
}

/// The SLO knee: the highest offered rate that still meets the latency
/// limit without a growing backlog, as [`bisect`] found it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Knee {
    /// Highest rate known to meet the SLO (the bracket's low end when none does).
    pub rate: f64,
    /// Where that rate lies relative to the bracket.
    pub edge: Edge,
    /// How many rates were probed.
    pub probes: u32,
}

/// Bisect `[lo, hi]` until the bracket is at most `tol` wide, assuming
/// `meets` is monotone (true below the knee, false above). The ends are
/// probed only when every interior probe agreed, so the common case costs
/// `ceil(log2((hi - lo) / tol))` probes.
pub fn bisect(mut meets: impl FnMut(f64) -> bool, lo: f64, hi: f64, tol: f64) -> Knee {
    assert!(lo < hi && tol > 0.0, "degenerate bracket");
    let (mut good, mut bad) = (lo, hi);
    let mut probes = 0;
    let mut probe = |rate: f64| {
        probes += 1;
        meets(rate)
    };
    while bad - good > tol {
        let mid = (good + bad) / 2.0;
        if probe(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    let edge = if good == lo && !probe(lo) {
        Edge::NoRateMeets
    } else if bad == hi && probe(hi) {
        good = hi;
        Edge::AllRatesMeet
    } else {
        Edge::Inside
    };
    Knee {
        rate: good,
        edge,
        probes,
    }
}

/// A [`bisect`] that keeps what each probe measured.
pub struct Search<T> {
    /// The knee found.
    pub knee: Knee,
    /// `(offered rate, what the probe measured)`, in probe order.
    pub probes: Vec<(f64, T)>,
}

impl<T> Search<T> {
    /// What the probe at the knee measured (every knee rate is a probed
    /// one).
    pub fn at_knee(&self) -> &T {
        let at = self.probes.iter().find(|(rate, _)| *rate == self.knee.rate);
        &at.expect("the knee is a probed rate").1
    }
}

/// [`bisect`] `[lo, hi]` to `tol` with a `probe` that returns whether the
/// rate meets the SLO and what it measured there.
pub fn search<T>(mut probe: impl FnMut(f64) -> (bool, T), lo: f64, hi: f64, tol: f64) -> Search<T> {
    let mut probes = Vec::new();
    let knee = bisect(
        |rate| {
            let (met, out) = probe(rate);
            probes.push((rate, out));
            met
        },
        lo,
        hi,
        tol,
    );
    Search { knee, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    #[test]
    fn closed_loop_counts_only_window_ops() {
        let sim = Sim::new();
        let m = sim.block_on(async {
            run_closed_loop(
                2,
                Duration::from_micros(100),
                Duration::from_micros(1000),
                Rc::new(|_w, _i| async {
                    simcore::sleep(Duration::from_micros(10)).await;
                    Ok::<(), ()>(())
                }),
            )
            .await
        });
        // 2 workers, 10us per op, 1000us window => ~200 ops.
        assert!(
            (190..=200).contains(&m.completed),
            "completed {}",
            m.completed
        );
        assert_eq!(m.errors, 0);
        let tp = m.throughput_rps();
        assert!((tp - 200_000.0).abs() / 200_000.0 < 0.1, "tp {tp}");
        // Latency is exactly 10us.
        assert!((m.avg_latency_us() - 10.0).abs() < 0.5);
    }

    #[test]
    fn closed_loop_counts_errors() {
        let sim = Sim::new();
        let m = sim.block_on(async {
            run_closed_loop(
                1,
                Duration::ZERO,
                Duration::from_micros(100),
                Rc::new(|_w, i| async move {
                    simcore::sleep(Duration::from_micros(10)).await;
                    if i % 2 == 0 {
                        Err(())
                    } else {
                        Ok(())
                    }
                }),
            )
            .await
        });
        assert!(m.errors > 0);
        assert!(m.completed > 0);
    }

    #[test]
    fn open_loop_offers_requested_rate() {
        let sim = Sim::new();
        let m = sim.block_on(async {
            run_open_loop(
                100_000.0, // 100k rps
                Duration::from_millis(1),
                Duration::from_millis(20),
                SimRng::new(9),
                Rc::new(|_n| async {
                    simcore::sleep(Duration::from_micros(2)).await;
                    Ok::<(), ()>(())
                }),
            )
            .await
        });
        let tp = m.throughput_rps();
        assert!((tp - 100_000.0).abs() / 100_000.0 < 0.1, "tp {tp}");
        assert!((m.avg_latency_us() - 2.0).abs() < 0.2);
    }

    #[test]
    fn open_loop_latency_grows_when_saturated() {
        // A single-server queue at 2x its service rate must show queueing.
        let sim = Sim::new();
        let m = sim.block_on(async {
            let cpu = simcore::CpuPool::new(1);
            run_open_loop(
                200_000.0, // offered 200k rps
                Duration::ZERO,
                Duration::from_millis(5),
                SimRng::new(9),
                Rc::new(move |_n| {
                    let cpu = cpu.clone();
                    async move {
                        cpu.execute(Duration::from_micros(10)).await; // cap 100k
                        Ok::<(), ()>(())
                    }
                }),
            )
            .await
        });
        assert!(
            m.avg_latency_us() > 100.0,
            "saturated queue should back up: {}us",
            m.avg_latency_us()
        );
    }

    #[test]
    fn open_loop_p99_includes_queueing_delay() {
        // Coordinated-omission regression: a single-server queue offered
        // 2x its service rate builds a standing queue that grows through
        // the window; measuring from the *intended arrival* must surface
        // that wait in the tail, orders of magnitude above the 10us
        // service time (an uncorrected driver that timed only the op
        // body would report ~10us forever).
        let sim = Sim::new();
        let m = sim.block_on(async {
            let cpu = simcore::CpuPool::new(1);
            run_open_loop(
                200_000.0, // offered 200k rps
                Duration::ZERO,
                Duration::from_millis(5),
                SimRng::new(9),
                Rc::new(move |_n| {
                    let cpu = cpu.clone();
                    async move {
                        cpu.execute(Duration::from_micros(10)).await; // cap 100k
                        Ok::<(), ()>(())
                    }
                }),
            )
            .await
        });
        let p99 = m.latency_us(0.99);
        assert!(
            p99 > 1_000.0,
            "p99 must show the ~2.5ms standing queue, got {p99}us"
        );
        assert!(
            m.latency_us(0.5) > 100.0,
            "even the median queues at 2x overload: {}us",
            m.latency_us(0.5)
        );
        // SLO goodput: almost nothing completed within a 50us budget.
        let slo = m.goodput_rps(Duration::from_micros(50));
        assert!(slo < 20_000.0, "SLO goodput under overload: {slo}");
    }

    #[test]
    fn open_loop_separates_rejections_from_errors() {
        #[derive(Debug)]
        enum OpErr {
            Shed,
            Real,
        }
        let sim = Sim::new();
        let m = sim.block_on(async {
            run_open_loop_classified(
                100_000.0,
                Duration::ZERO,
                Duration::from_millis(2),
                SimRng::new(5),
                Rc::new(|n| async move {
                    simcore::sleep(Duration::from_micros(1)).await;
                    match n % 4 {
                        0 => Err(OpErr::Shed),
                        1 => Err(OpErr::Real),
                        _ => Ok(()),
                    }
                }),
                Rc::new(|e: &OpErr| matches!(e, OpErr::Shed)),
            )
            .await
        });
        assert!(m.rejected > 0, "shed ops counted separately");
        assert!(m.errors > 0, "real errors still counted");
        assert!(
            (m.rejected as i64 - m.errors as i64).abs() <= 2,
            "1-in-4 each: rejected {} vs errors {}",
            m.rejected,
            m.errors
        );
        assert_eq!(m.issued, m.completed + m.errors + m.rejected);
    }

    #[test]
    fn measure_once_returns_duration() {
        let sim = Sim::new();
        let (v, d) = sim.block_on(async {
            measure_once(|| async {
                simcore::sleep(Duration::from_micros(7)).await;
                42
            })
            .await
        });
        assert_eq!(v, 42);
        assert_eq!(d, Duration::from_micros(7));
    }

    #[test]
    fn finds_the_knee_of_a_monotone_curve() {
        for knee in [101.0, 137.5, 212.0, 299.0] {
            let k = bisect(|r| r <= knee, 100.0, 300.0, 5.0);
            assert_eq!(k.edge, Edge::Inside, "{knee}");
            assert!(k.rate <= knee && knee - k.rate <= 5.0, "{knee}: {k:?}");
            // 200 / 2^6 = 3.125 <= 5; one end probe when the knee hugs an edge.
            assert!((6..=7).contains(&k.probes), "{knee}: {k:?}");
        }
    }

    #[test]
    fn reports_both_edges() {
        let none = bisect(|_| false, 100.0, 300.0, 5.0);
        assert_eq!((none.rate, none.edge), (100.0, Edge::NoRateMeets));
        let all = bisect(|_| true, 100.0, 300.0, 5.0);
        assert_eq!((all.rate, all.edge), (300.0, Edge::AllRatesMeet));
        // The low end itself meets, nothing above it does.
        let at_lo = bisect(|r| r <= 100.0, 100.0, 300.0, 5.0);
        assert_eq!((at_lo.rate, at_lo.edge), (100.0, Edge::Inside));
    }

    #[test]
    fn probes_the_same_rates_whatever_the_answers() {
        // Probe rates depend on earlier answers only, never on a clock or
        // an RNG: the same curve gives the same probe sequence.
        let run = || {
            let mut seen = Vec::new();
            bisect(
                |r| {
                    seen.push(r);
                    r <= 212.0
                },
                100.0,
                300.0,
                5.0,
            );
            seen
        };
        assert_eq!(run(), run());
        assert_eq!(run()[..2], [200.0, 250.0]);
    }

    #[test]
    fn a_search_keeps_every_probe_and_finds_the_knees_own() {
        // Inside, and at both edges, the knee is a rate the probe saw.
        for (knee, edge) in [
            (212.0, Edge::Inside),
            (50.0, Edge::NoRateMeets),
            (400.0, Edge::AllRatesMeet),
        ] {
            let s = search(|r| (r <= knee, r * 2.0), 100.0, 300.0, 5.0);
            assert_eq!(s.knee.edge, edge, "{knee}");
            assert_eq!(s.probes.len(), s.knee.probes as usize, "{knee}");
            assert!(s.probes.iter().all(|&(r, out)| out == r * 2.0));
            assert_eq!(*s.at_knee(), s.knee.rate * 2.0, "{knee}");
        }
    }
}
