//! Shared scoped thread-pool: the one parallelism idiom for every bench
//! harness.
//!
//! PR 3's chaos sweep introduced round-robin work assignment over
//! `std::thread::scope` with results merged in index order, gated on
//! byte-identical per-seed fingerprints. This module extracts that idiom
//! so the chaos sweep and the per-figure cell parallelism ([`sweep`],
//! `SIM_THREADS`) share one implementation: work item `i` runs on thread
//! `i mod threads`, and results come back in index order, so output
//! (tables, CSVs, fingerprints) never depends on the thread count.

/// Run `f(i)` for every `i in 0..n` across up to `threads` scoped OS
/// threads and return the results in index order. Each worker owns its
/// indices exclusively (`i mod threads`), so `f` needs no locking for
/// per-item state; panics in `f` propagate to the caller.
///
/// `threads <= 1` (or `n <= 1`) degrades to a plain serial loop on the
/// calling thread — the zero-risk default.
pub fn scoped_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<(usize, T)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// Run `f(cell)` for every cell across the `SIM_THREADS` workers and
/// return the results in cell order: the one way a harness fans out its
/// independent simulations, so tables and CSVs never depend on the thread
/// count.
pub fn sweep<C: Sync, T: Send>(cells: &[C], f: impl Fn(&C) -> T + Sync) -> Vec<T> {
    scoped_map(cells.len(), knobs().sim_threads, |i| f(&cells[i]))
}

/// Worker threads when `SIM_THREADS` is unset: every core the host has.
fn host_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment knobs the harness takes, checked once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Knobs {
    /// `SIM_THREADS`: worker threads for [`sweep`]. Unset means as wide as
    /// the host (`available_parallelism`); results come back in cell order
    /// either way, and CI pins 1 and 8 and byte-diffs the two.
    pub sim_threads: usize,
    /// `CHAOS_SEEDS`: seeds per fault class in `bench chaos` (default 100).
    pub chaos_seeds: u64,
}

impl Knobs {
    /// Parse the knobs out of `var` (the process environment, or a fake
    /// in tests). A knob that is set must be a positive integer with
    /// nothing around it: a typo in `ci.yml` must not silently turn the
    /// 8-thread regeneration into a second serial run.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        let positive = |name: &str| match var(name) {
            None => Ok(None),
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(format!("{name}={raw:?}: expected a positive integer")),
            },
        };
        Ok(Knobs {
            sim_threads: positive("SIM_THREADS")?.map_or_else(host_width, |n| n as usize),
            chaos_seeds: positive("CHAOS_SEEDS")?.unwrap_or(100),
        })
    }
}

/// The process's [`Knobs`]: the one place the harness reads its
/// environment. A set-but-malformed knob ends the process with status 2;
/// the driver calls this before any experiment runs.
pub fn knobs() -> Knobs {
    static KNOBS: std::sync::OnceLock<Knobs> = std::sync::OnceLock::new();
    *KNOBS.get_or_init(|| {
        Knobs::parse(|name| std::env::var(name).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order_at_any_thread_count() {
        let serial = scoped_map(17, 1, |i| i * i);
        for threads in [2, 3, 8, 32] {
            assert_eq!(scoped_map(17, threads, |i| i * i), serial);
        }
        assert_eq!(scoped_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn knobs_default_when_unset_and_reject_what_they_cannot_read() {
        let with = |name: &'static str, raw: &'static str| {
            Knobs::parse(move |n| (n == name).then(|| raw.to_string()))
        };
        let unset = Knobs::parse(|_| None).unwrap();
        assert_eq!((unset.sim_threads, unset.chaos_seeds), (host_width(), 100));
        assert_eq!(with("SIM_THREADS", "1").unwrap().sim_threads, 1);
        assert_eq!(with("SIM_THREADS", "8").unwrap().sim_threads, 8);
        assert_eq!(with("CHAOS_SEEDS", "20").unwrap().chaos_seeds, 20);
        for (name, raw) in [
            ("SIM_THREADS", "0"),
            ("SIM_THREADS", "8 "),
            ("SIM_THREADS", "-1"),
            ("CHAOS_SEEDS", "abc"),
            ("CHAOS_SEEDS", ""),
        ] {
            let err = with(name, raw).unwrap_err();
            assert!(err.contains(name), "{err} must name {name}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            scoped_map(4, 2, |i| {
                if i == 3 {
                    panic!("boom {i}");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
