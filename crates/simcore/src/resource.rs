//! Cost-model resources: rate-limited servers and CPU pools.
//!
//! A [`RateResource`] models a single FIFO server with a fixed per-operation
//! overhead and a byte rate — the canonical model for a NIC transmit path or
//! a memory controller. Operations reserve the next free slot on the resource
//! and sleep until their completion instant, so concurrent users are
//! automatically serialized and the resource's utilization emerges naturally.
//!
//! A [`CpuPool`] models `n` identical cores with a FIFO run queue, used for
//! per-request application processing time; it books a core the same way.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use crate::executor::{now, sleep_until};
use crate::stats::Counter;
use crate::time::{duration_nanos, transfer_time, SimTime};

/// A FIFO rate-limited resource (link, memory channel, disk...).
#[derive(Clone)]
pub struct RateResource {
    inner: Rc<RateInner>,
}

struct RateInner {
    name: String,
    bytes_per_sec: f64,
    per_op_overhead: Duration,
    next_free: Cell<SimTime>,
    /// `(bytes, service ns)` of the last booking: a NIC books one size for
    /// every full packet, so the division is done once per size change.
    last: Cell<(u64, u64)>,
    /// Summed service and queueing wait, in ns, operations and bytes:
    /// plain adds per booking.
    busy_ns: Cell<u64>,
    wait_ns: Cell<u64>,
    ops: Cell<u64>,
    bytes: Cell<u64>,
}

impl RateResource {
    /// Create a resource serving `bytes_per_sec` with `per_op_overhead`
    /// charged on every operation regardless of size.
    pub fn new(name: impl Into<String>, bytes_per_sec: f64, per_op_overhead: Duration) -> Self {
        RateResource {
            inner: Rc::new(RateInner {
                name: name.into(),
                bytes_per_sec,
                per_op_overhead,
                next_free: Cell::new(SimTime::ZERO),
                last: Cell::new((0, duration_nanos(per_op_overhead))),
                busy_ns: Cell::new(0),
                wait_ns: Cell::new(0),
                ops: Cell::new(0),
                bytes: Cell::new(0),
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
        self.book(now(), bytes)
    }

    /// [`RateResource::reserve`] at `now`, the instant the caller already
    /// holds.
    #[inline]
    pub fn book(&self, now: SimTime, bytes: u64) -> SimTime {
        let inner = &*self.inner;
        let service = self.service_ns(bytes);
        let start = inner.next_free.get().max(now);
        let finish = SimTime::from_nanos(start.nanos().saturating_add(service));
        inner.next_free.set(finish);
        let add = |c: &Cell<u64>, n: u64| c.set(c.get().saturating_add(n));
        add(&inner.busy_ns, service);
        add(&inner.wait_ns, start.nanos() - now.nanos());
        add(&inner.ops, 1);
        add(&inner.bytes, bytes);
        finish
    }

    /// [`RateResource::book`] for `k` operations of `bytes` each, the first
    /// requested at `at` and each next one a service time after it: a FIFO
    /// fed at its own rate, where each waits as long as the first. Returns
    /// the first one's start; the `j`-th is done `j + 1` services after it.
    pub fn book_run(&self, at: SimTime, bytes: u64, k: u64) -> SimTime {
        let inner = &*self.inner;
        let service = self.service_ns(bytes);
        let start = inner.next_free.get().max(at);
        let busy = service.saturating_mul(k);
        inner
            .next_free
            .set(SimTime::from_nanos(start.nanos().saturating_add(busy)));
        let add = |c: &Cell<u64>, n: u64| c.set(c.get().saturating_add(n));
        add(&inner.busy_ns, busy);
        add(
            &inner.wait_ns,
            (start.nanos() - at.nanos()).saturating_mul(k),
        );
        add(&inner.ops, k);
        add(&inner.bytes, bytes.saturating_mul(k));
        start
    }

    /// How long one operation of `bytes` holds the resource.
    #[inline]
    pub fn service(&self, bytes: u64) -> Duration {
        Duration::from_nanos(self.service_ns(bytes))
    }

    #[inline]
    fn service_ns(&self, bytes: u64) -> u64 {
        let inner = &*self.inner;
        match inner.last.get() {
            (last, ns) if last == bytes => ns,
            _ => {
                let service = inner.per_op_overhead + transfer_time(bytes, inner.bytes_per_sec);
                let ns = duration_nanos(service);
                inner.last.set((bytes, ns));
                ns
            }
        }
    }

    /// Configured service rate in bytes/second.
    pub fn rate(&self) -> f64 {
        self.inner.bytes_per_sec
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> Duration {
        Duration::from_nanos(self.inner.busy_ns.get())
    }

    /// Total queueing wait accumulated: for each operation, its service
    /// start minus the instant it was requested.
    pub fn wait_time(&self) -> Duration {
        Duration::from_nanos(self.inner.wait_ns.get())
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
        self.inner.busy_ns.set(0);
        self.inner.wait_ns.set(0);
        self.inner.ops.set(0);
        self.inner.bytes.set(0);
    }
}

/// A pool of identical CPU cores serving operations in arrival order.
///
/// Like a [`RateResource`], a pool is a booking: each [`CpuPool::execute`]
/// takes the core that frees first, starts at `max(now, free_at)` and sleeps
/// until `start + work` (the FIFO k-server recursion), so no queue of
/// waiters is kept and nothing is woken but the op's own timer.
#[derive(Clone)]
pub struct CpuPool {
    inner: Rc<CpuInner>,
}

struct CpuInner {
    /// The instant each core is next free.
    free_at: RefCell<Vec<SimTime>>,
    busy: Cell<Duration>,
    /// Summed queueing wait, in ns.
    wait_ns: Cell<u64>,
    ops: Counter,
}

impl CpuPool {
    /// Create a pool of `n_cores` cores.
    pub fn new(n_cores: u64) -> CpuPool {
        assert!(n_cores > 0, "CpuPool needs at least one core");
        CpuPool {
            inner: Rc::new(CpuInner {
                free_at: RefCell::new(vec![SimTime::ZERO; n_cores as usize]),
                busy: Cell::new(Duration::ZERO),
                wait_ns: Cell::new(0),
                ops: Counter::new(),
            }),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> u64 {
        self.inner.free_at.borrow().len() as u64
    }

    /// Execute `work` of CPU time on one core, after every op booked
    /// before it has started (queueing if all cores are busy).
    ///
    /// The core is booked when the future is first polled; a future
    /// dropped before the work is done keeps its booking, and its busy
    /// time, wait and op are never counted.
    pub async fn execute(&self, work: Duration) {
        let t = now();
        let start = {
            let mut free_at = self.inner.free_at.borrow_mut();
            let core = free_at.iter_mut().min().expect("a pool has a core");
            let start = (*core).max(t);
            *core = start + work;
            start
        };
        sleep_until(start + work).await;
        let inner = &self.inner;
        let waited = start.nanos() - t.nanos();
        inner.busy.set(inner.busy.get() + work);
        inner.wait_ns.set(inner.wait_ns.get() + waited);
        inner.ops.add(1);
    }

    /// Total CPU busy time across all cores, of completed executions.
    pub fn busy_time(&self) -> Duration {
        self.inner.busy.get()
    }

    /// Total queueing wait of completed executions: for each, its start on
    /// a core minus the instant it was requested.
    pub fn wait_time(&self) -> Duration {
        Duration::from_nanos(self.inner.wait_ns.get())
    }

    /// Completed executions.
    pub fn ops(&self) -> u64 {
        self.inner.ops.get()
    }

    /// Average core utilization over `elapsed`.
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.busy_time().as_secs_f64() / (elapsed.as_secs_f64() * self.cores() as f64)).min(1.0)
    }

    /// Reset counters (between measurement phases).
    pub fn reset_stats(&self) {
        self.inner.busy.set(Duration::ZERO);
        self.inner.wait_ns.set(0);
        self.inner.ops.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, Sim};

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
        assert_eq!(res.wait_time(), Duration::from_micros(1 + 2));
        res.reset_stats();
        assert_eq!(res.wait_time(), Duration::ZERO);
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
        assert_eq!(
            res.wait_time(),
            Duration::ZERO,
            "an idle resource makes no one wait"
        );
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
        // 4 tasks, 2 cores, 1us each -> 2us makespan; two waited 1us each.
        assert_eq!(end.nanos(), 2_000);
        assert_eq!(pool.ops(), 4);
        assert_eq!(pool.busy_time(), Duration::from_micros(4));
        assert_eq!(pool.wait_time(), Duration::from_micros(2));
        assert!((pool.utilization(Duration::from_micros(2)) - 1.0).abs() < 1e-9);
        pool.reset_stats();
        assert_eq!(pool.wait_time(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn cpu_pool_zero_cores_panics() {
        let _ = CpuPool::new(0);
    }
}
