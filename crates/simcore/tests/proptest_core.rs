//! Property tests for simcore's measurement and synchronization primitives.

use proptest::prelude::*;
use simcore::{Histogram, Sim, SimRng};
use std::rc::Rc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles are within the documented ~1.6% + 1 relative
    /// error bound of the true quantile (two-sided: interpolation inside
    /// the resolved sub-bucket can land on either side of the truth, but
    /// never outside the sub-bucket that holds it).
    #[test]
    fn histogram_quantile_error_bound(
        mut values in proptest::collection::vec(0u64..10_000_000_000, 10..500),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in qs {
            let est = h.quantile(q);
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let bound = truth as f64 / 32.0 + 1.0;
            prop_assert!(
                (est as f64 - truth as f64).abs() <= bound,
                "quantile({q}) = {est}, true {truth}, off by more than {bound}"
            );
        }
        // Mean is exact.
        let mean_true = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        prop_assert!((h.mean() - mean_true).abs() < 1e-6 * mean_true.max(1.0));
        prop_assert_eq!(h.min(), values[0]);
        prop_assert_eq!(h.max(), *values.last().unwrap());
    }

    /// Merging per-node histograms is equivalent to recording every value
    /// into a single histogram: identical counts, extrema, mean, and
    /// quantiles at any rank.
    #[test]
    fn histogram_merge_equals_sequential_record(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000_000_000, 0..200),
            1..6,
        ),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let merged = Histogram::new();
        let sequential = Histogram::new();
        for part in &parts {
            let node = Histogram::new();
            for &v in part {
                node.record(v);
                sequential.record(v);
            }
            merged.merge(&node);
        }
        prop_assert_eq!(merged.count(), sequential.count());
        prop_assert_eq!(merged.min(), sequential.min());
        prop_assert_eq!(merged.max(), sequential.max());
        prop_assert_eq!(merged.mean(), sequential.mean());
        for q in qs {
            prop_assert_eq!(merged.quantile(q), sequential.quantile(q), "q = {}", q);
        }
    }

    /// Sleeps complete in exactly deadline order regardless of spawn order.
    #[test]
    fn sleeps_complete_in_deadline_order(delays in proptest::collection::vec(0u64..1_000_000, 1..40)) {
        let sim = Sim::new();
        let order: Rc<std::cell::RefCell<Vec<(u64, usize)>>> = Rc::new(std::cell::RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let order = order.clone();
            sim.spawn(async move {
                simcore::sleep(Duration::from_nanos(d)).await;
                order.borrow_mut().push((simcore::now().nanos(), i));
            });
        }
        sim.run();
        let fired = order.borrow();
        prop_assert_eq!(fired.len(), delays.len());
        // Completion times are the requested delays, in sorted order; ties
        // broken by spawn index.
        let mut expect: Vec<(u64, usize)> = delays.iter().copied().zip(0..).collect();
        expect.sort();
        prop_assert_eq!(&fired[..], &expect[..]);
    }

    /// The RNG's weighted pick covers exactly the declared support.
    #[test]
    fn pick_weighted_in_range(weights in proptest::collection::vec(0.01f64..10.0, 1..6), seed in any::<u64>()) {
        let rng = SimRng::new(seed);
        for _ in 0..100 {
            let i = rng.pick_weighted(&weights);
            prop_assert!(i < weights.len());
        }
    }

    /// A `CpuPool` of `k` cores serves ops like a FIFO k-server: ops start
    /// in arrival order (same-instant ties in request order), each once
    /// fewer than `k` of the ops before it are unfinished.
    #[test]
    fn cpu_pool_matches_a_fifo_k_server(
        k in 1u64..=4,
        mut ops in proptest::collection::vec(
            (0u64..40, prop_oneof![Just(0u64), 1u64..120]),
            1..40,
        ),
    ) {
        ops.sort_by_key(|&(arrival, _)| arrival);
        // Reference: the k-th latest finish among earlier ops frees a core.
        let mut starts: Vec<u64> = Vec::new();
        let mut dones: Vec<u64> = Vec::new();
        for &(arrival, work) in &ops {
            let mut earlier = dones.clone();
            earlier.sort_unstable_by(|a, b| b.cmp(a));
            let core_free = earlier.get(k as usize - 1).copied().unwrap_or(0);
            let in_order = starts.last().copied().unwrap_or(0);
            let start = arrival.max(core_free).max(in_order);
            starts.push(start);
            dones.push(start + work);
        }

        let sim = Sim::new();
        let pool = simcore::CpuPool::new(k);
        let finished = Rc::new(std::cell::RefCell::new(vec![None; ops.len()]));
        {
            let (pool, finished, ops) = (pool.clone(), finished.clone(), ops.clone());
            sim.spawn(async move {
                for (i, (arrival, work)) in ops.into_iter().enumerate() {
                    simcore::sleep_until(simcore::SimTime::from_nanos(arrival)).await;
                    let (pool, finished) = (pool.clone(), finished.clone());
                    simcore::spawn(async move {
                        pool.execute(Duration::from_nanos(work)).await;
                        finished.borrow_mut()[i] = Some(simcore::now().nanos());
                    });
                }
            });
        }
        sim.run();
        let want: Vec<Option<u64>> = dones.iter().copied().map(Some).collect();
        prop_assert_eq!(&*finished.borrow(), &want);
        let work: u64 = ops.iter().map(|&(_, w)| w).sum();
        let wait: u64 = starts.iter().zip(&ops).map(|(s, &(a, _))| s - a).sum();
        prop_assert_eq!(pool.busy_time(), Duration::from_nanos(work));
        prop_assert_eq!(pool.ops(), ops.len() as u64);
        prop_assert_eq!(pool.wait_time(), Duration::from_nanos(wait));
    }
}
