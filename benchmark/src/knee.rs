//! The SLO knee: the highest offered rate that still meets the latency
//! limit without a growing backlog, found by bisection.

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

#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Knee {
    /// Highest rate known to meet the SLO (the bracket's low end when none does).
    pub rate: f64,
    pub edge: Edge,
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
