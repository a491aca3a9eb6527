//! Cost-model resources: rate-limited servers and CPU pools.
//!
//! A [`RateResource`] models a single FIFO server with a fixed per-operation
//! overhead and a byte rate — the canonical model for a NIC transmit path or
//! a memory controller. Operations reserve the next free slot on the resource
//! and sleep until their completion instant, so concurrent users are
//! automatically serialized and the resource's utilization emerges naturally.
//!
//! A [`CpuPool`] models `n` identical cores with a FIFO run queue, used for
//! per-request application processing time.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use crate::executor::{now, sleep_until};
use crate::stats::Counter;
use crate::sync::Semaphore;
use crate::time::{transfer_time, SimTime};

/// A FIFO rate-limited resource (link, memory channel, disk...).
#[derive(Clone)]
pub struct RateResource {
    inner: Rc<RateInner>,
}

struct RateInner {
    name: String,
    bytes_per_sec: Cell<f64>,
    per_op_overhead: Cell<Duration>,
    next_free: Cell<SimTime>,
    busy: Cell<Duration>,
    ops: Counter,
    bytes: Counter,
}

impl RateResource {
    /// Create a resource serving `bytes_per_sec` with `per_op_overhead`
    /// charged on every operation regardless of size.
    pub fn new(name: impl Into<String>, bytes_per_sec: f64, per_op_overhead: Duration) -> Self {
        RateResource {
            inner: Rc::new(RateInner {
                name: name.into(),
                bytes_per_sec: Cell::new(bytes_per_sec),
                per_op_overhead: Cell::new(per_op_overhead),
                next_free: Cell::new(SimTime::ZERO),
                busy: Cell::new(Duration::ZERO),
                ops: Counter::new(),
                bytes: Counter::new(),
            }),
        }
    }

    /// Resource name (for reports).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Occupy the resource for `bytes` and wait until the operation
    /// completes. Returns the completion instant.
    pub async fn access(&self, bytes: u64) -> SimTime {
        let finish = self.reserve(bytes);
        sleep_until(finish).await;
        finish
    }

    /// Reserve service for `bytes` starting no earlier than now, without
    /// waiting. Returns the completion instant. Useful when the caller wants
    /// to overlap the wait with other work.
    pub fn reserve(&self, bytes: u64) -> SimTime {
        let t = now();
        let start = self.inner.next_free.get().max(t);
        let service =
            self.inner.per_op_overhead.get() + transfer_time(bytes, self.inner.bytes_per_sec.get());
        let finish = start + service;
        self.inner.next_free.set(finish);
        self.inner.busy.set(self.inner.busy.get() + service);
        self.inner.ops.add(1);
        self.inner.bytes.add(bytes);
        finish
    }

    /// Change the service rate (e.g. Fig. 12's memory-latency sweep).
    pub fn set_rate(&self, bytes_per_sec: f64) {
        self.inner.bytes_per_sec.set(bytes_per_sec);
    }

    /// Configured service rate in bytes/second.
    pub fn rate(&self) -> f64 {
        self.inner.bytes_per_sec.get()
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> Duration {
        self.inner.busy.get()
    }

    /// Total operations served.
    pub fn ops(&self) -> u64 {
        self.inner.ops.get()
    }

    /// Total bytes served.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.get()
    }

    /// Utilization over `elapsed` (clamped to 1.0).
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.busy_time().as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
    }

    /// Reset counters (between measurement phases).
    pub fn reset_stats(&self) {
        self.inner.busy.set(Duration::ZERO);
        self.inner.ops.reset();
        self.inner.bytes.reset();
    }
}

/// A pool of identical CPU cores with FIFO admission.
#[derive(Clone)]
pub struct CpuPool {
    cores: Semaphore,
    n_cores: u64,
    busy: Rc<Cell<Duration>>,
    ops: Counter,
}

impl CpuPool {
    /// Create a pool of `n_cores` cores.
    pub fn new(n_cores: u64) -> CpuPool {
        assert!(n_cores > 0, "CpuPool needs at least one core");
        CpuPool {
            cores: Semaphore::new(n_cores),
            n_cores,
            busy: Rc::new(Cell::new(Duration::ZERO)),
            ops: Counter::new(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> u64 {
        self.n_cores
    }

    /// Execute `work` of CPU time on one core (queueing if all are busy).
    pub async fn execute(&self, work: Duration) {
        let _permit = self.cores.acquire_one().await;
        crate::executor::sleep(work).await;
        self.busy.set(self.busy.get() + work);
        self.ops.add(1);
    }

    /// Total CPU busy time across all cores.
    pub fn busy_time(&self) -> Duration {
        self.busy.get()
    }

    /// Completed executions.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Average core utilization over `elapsed`.
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.busy_time().as_secs_f64() / (elapsed.as_secs_f64() * self.n_cores as f64)).min(1.0)
    }

    /// Reset counters (between measurement phases).
    pub fn reset_stats(&self) {
        self.busy.set(Duration::ZERO);
        self.ops.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, Sim};
    use std::cell::RefCell;

    #[test]
    fn rate_resource_serializes_concurrent_users() {
        let sim = Sim::new();
        // 1 GB/s, zero overhead: 1000 bytes = 1us.
        let res = RateResource::new("link", 1e9, Duration::ZERO);
        let finishes: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let res = res.clone();
            let finishes = finishes.clone();
            sim.spawn(async move {
                res.access(1000).await;
                finishes.borrow_mut().push(now().nanos());
            });
        }
        sim.run();
        assert_eq!(&*finishes.borrow(), &[1_000, 2_000, 3_000]);
        assert_eq!(res.ops(), 3);
        assert_eq!(res.bytes(), 3000);
        assert_eq!(res.busy_time(), Duration::from_micros(3));
    }

    #[test]
    fn rate_resource_per_op_overhead() {
        let sim = Sim::new();
        let res = RateResource::new("nic", 1e9, Duration::from_nanos(250));
        let t = sim.block_on(async move {
            res.access(1000).await;
            now().nanos()
        });
        assert_eq!(t, 1250);
    }

    #[test]
    fn rate_resource_idle_gap_not_counted_busy() {
        let sim = Sim::new();
        let res = RateResource::new("link", 1e9, Duration::ZERO);
        let res2 = res.clone();
        sim.block_on(async move {
            res2.access(500).await;
            crate::executor::sleep(Duration::from_micros(10)).await;
            res2.access(500).await;
        });
        assert_eq!(res.busy_time(), Duration::from_micros(1));
        assert!(res.utilization(Duration::from_micros(11)) < 0.1);
    }

    #[test]
    fn reserve_without_wait_advances_queue() {
        let sim = Sim::new();
        let res = RateResource::new("link", 1e9, Duration::ZERO);
        sim.block_on(async move {
            let f1 = res.reserve(1000);
            let f2 = res.reserve(1000);
            assert_eq!(f1.nanos(), 1_000);
            assert_eq!(f2.nanos(), 2_000);
        });
    }

    #[test]
    fn set_rate_affects_future_ops() {
        let sim = Sim::new();
        let res = RateResource::new("mem", 1e9, Duration::ZERO);
        sim.block_on(async move {
            res.access(1000).await;
            assert_eq!(now().nanos(), 1_000);
            res.set_rate(2e9);
            res.access(1000).await;
            assert_eq!(now().nanos(), 1_500);
        });
    }

    #[test]
    fn cpu_pool_parallelism() {
        let sim = Sim::new();
        let pool = CpuPool::new(2);
        for _ in 0..4 {
            let pool = pool.clone();
            sim.spawn(async move {
                pool.execute(Duration::from_micros(1)).await;
            });
        }
        let end = sim.run();
        // 4 tasks, 2 cores, 1us each -> 2us makespan.
        assert_eq!(end.nanos(), 2_000);
        assert_eq!(pool.ops(), 4);
        assert_eq!(pool.busy_time(), Duration::from_micros(4));
        assert!((pool.utilization(Duration::from_micros(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn cpu_pool_zero_cores_panics() {
        let _ = CpuPool::new(0);
    }
}
