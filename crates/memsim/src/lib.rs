//! # memsim — server memory-subsystem model
//!
//! Charges virtual time and records traffic for every modeled memory
//! operation: heap `memcpy`s performed by RPC stacks and applications,
//! DM-server page copies, and CXL `load`/`store` accesses.
//!
//! Latency classes follow the paper's calibration (§VI-A):
//!
//! | class | latency | source |
//! |---|---|---|
//! | local DDR | 75 ns | \[33\], \[67\] |
//! | cross-socket (UPI) | 125 ns | §VI-A |
//! | CXL pool (device + switch) | 265 ns | \[60\], \[43\], \[3\] |
//!
//! The CXL latency is a live knob ([`ModelParams::set_cxl_latency`]) so the
//! Fig. 12 sweep (75–400 ns) can re-run the same workload under different
//! pool latencies.
//!
//! Traffic counters reproduce what the paper measures with Intel PCM
//! (Fig. 6b memory-bandwidth occupation, Fig. 7c DM traffic per request).

#![warn(missing_docs)]

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use simcore::{Counter, RateResource};

/// Where a memory access lands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemClass {
    /// Same-socket DRAM.
    Local,
    /// Other socket's DRAM over UPI.
    CrossSocket,
    /// The disaggregated CXL pool, through the CXL switch.
    Cxl,
}

/// Shared latency/bandwidth parameters (one per simulation, typically).
#[derive(Clone)]
pub struct ModelParams {
    inner: Rc<ParamsInner>,
}

struct ParamsInner {
    local_latency: Cell<Duration>,
    cross_socket_latency: Cell<Duration>,
    cxl_latency: Cell<Duration>,
    /// Single-thread copy bandwidth (bytes/s) for modeled memcpy.
    copy_bandwidth: f64,
    /// G-FAM data-path bandwidth (bytes/s): one resource that every host
    /// on the fabric shares, not a link per host.
    cxl_bandwidth: Cell<f64>,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            inner: Rc::new(ParamsInner {
                local_latency: Cell::new(Duration::from_nanos(75)),
                cross_socket_latency: Cell::new(Duration::from_nanos(125)),
                cxl_latency: Cell::new(Duration::from_nanos(265)),
                copy_bandwidth: 12e9,
                cxl_bandwidth: Cell::new(64e9),
            }),
        }
    }
}

impl ModelParams {
    /// Default paper calibration.
    pub fn new() -> ModelParams {
        ModelParams::default()
    }

    /// Latency for one access of the given class.
    pub fn latency(&self, class: MemClass) -> Duration {
        match class {
            MemClass::Local => self.inner.local_latency.get(),
            MemClass::CrossSocket => self.inner.cross_socket_latency.get(),
            MemClass::Cxl => self.inner.cxl_latency.get(),
        }
    }

    /// Set the CXL pool latency (Fig. 12 sweep).
    pub fn set_cxl_latency(&self, l: Duration) {
        self.inner.cxl_latency.set(l);
    }

    /// Current CXL pool latency.
    pub fn cxl_latency(&self) -> Duration {
        self.inner.cxl_latency.get()
    }

    /// Single-thread copy bandwidth in bytes/s.
    pub fn copy_bandwidth(&self) -> f64 {
        self.inner.copy_bandwidth
    }

    /// G-FAM data-path bandwidth in bytes/s, shared by every host on the
    /// fabric: `dmcxl::GFam` charges all hosts' accesses to one resource.
    pub fn cxl_bandwidth(&self) -> f64 {
        self.inner.cxl_bandwidth.get()
    }

    /// Duration of a modeled memcpy of `bytes` (latency + streaming time).
    pub fn copy_time(&self, bytes: u64) -> Duration {
        self.latency(MemClass::Local) + simcore::transfer_time(bytes, self.copy_bandwidth())
    }

    /// Duration of one access of `bytes` to the given class, assuming the
    /// initial-latency + streaming model.
    pub fn access_time(&self, class: MemClass, bytes: u64) -> Duration {
        let bw = match class {
            MemClass::Cxl => self.cxl_bandwidth(),
            _ => self.copy_bandwidth(),
        };
        self.latency(class) + simcore::transfer_time(bytes, bw)
    }
}

/// Per-node memory subsystem: a bandwidth resource plus traffic counters.
#[derive(Clone)]
pub struct NodeMemory {
    params: ModelParams,
    /// Aggregate DRAM bandwidth of the node (all channels).
    bw: RateResource,
    /// Bytes moved through this node's memory system.
    traffic: Counter,
}

impl NodeMemory {
    /// Create a node memory with `dram_bandwidth` bytes/s of aggregate DRAM
    /// bandwidth.
    pub fn new(name: impl Into<String>, params: ModelParams, dram_bandwidth: f64) -> NodeMemory {
        NodeMemory {
            params,
            bw: RateResource::new(
                format!("{}.mem", name.into()),
                dram_bandwidth,
                Duration::ZERO,
            ),
            traffic: Counter::new(),
        }
    }

    /// Node memory with the paper's default aggregate bandwidth (~60 GB/s
    /// per socket of DDR4-2400).
    pub fn with_defaults(name: impl Into<String>, params: ModelParams) -> NodeMemory {
        NodeMemory::new(name, params, 60e9)
    }

    /// The shared parameter set.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Model a memcpy of `bytes` on this node: counts 2×`bytes` of traffic
    /// (read + write) and occupies DRAM bandwidth accordingly.
    pub async fn memcpy(&self, bytes: u64) {
        self.traffic.add(2 * bytes);
        self.bw.access(2 * bytes).await;
        simcore::sleep(self.params.latency(MemClass::Local)).await;
    }

    /// Model touching (reading or writing once) `bytes` on this node.
    pub async fn touch(&self, bytes: u64) {
        self.traffic.add(bytes);
        self.bw.access(bytes).await;
        simcore::sleep(self.params.latency(MemClass::Local)).await;
    }

    /// Account traffic without charging time (used when the time cost is
    /// charged elsewhere, e.g. on a shared device resource).
    pub fn account(&self, bytes: u64) {
        self.traffic.add(bytes);
    }

    /// Bytes of memory traffic recorded on this node.
    pub fn traffic_bytes(&self) -> u64 {
        self.traffic.get()
    }

    /// Memory-bandwidth occupation in bytes/s over `elapsed`.
    pub fn bandwidth_occupation(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.traffic.get() as f64 / elapsed.as_secs_f64()
    }

    /// Reset counters (between warmup and measurement).
    pub fn reset_stats(&self) {
        self.traffic.reset();
        self.bw.reset_stats();
    }
}

/// Timing model of one durable-media device (the log device of the
/// DESIGN.md §12 persistence backend): an append-only device with a fixed
/// per-sync latency plus streaming bandwidth, modeled as a FIFO
/// [`RateResource`] so concurrent appenders serialize naturally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DurableMediaParams {
    /// Fixed latency charged per synced append (the fsync / flush cost).
    /// `ZERO` together with an infinite `bandwidth` makes the device
    /// *zero-cost*: appends are recorded but charge no virtual time and
    /// schedule no events, so an attached durable tier cannot perturb the
    /// executor schedule.
    pub sync_latency: Duration,
    /// Streaming bandwidth in bytes/s. `f64::INFINITY` disables the
    /// per-byte charge.
    pub bandwidth: f64,
}

impl DurableMediaParams {
    /// Paper-era NVMe-class log device: ~5 µs per sync, 2 GB/s streaming.
    pub fn nvme() -> DurableMediaParams {
        DurableMediaParams {
            sync_latency: Duration::from_micros(5),
            bandwidth: 2e9,
        }
    }

    /// A zero-cost device: durability bookkeeping with no time charge (the
    /// `DM_DURABLE=1` schedule-neutral mode).
    pub fn zero_cost() -> DurableMediaParams {
        DurableMediaParams {
            sync_latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
        }
    }

    /// Whether this device charges no virtual time at all.
    pub fn is_zero_cost(&self) -> bool {
        self.sync_latency.is_zero() && self.bandwidth.is_infinite()
    }
}

/// A simulated durable-media device: charges virtual time for appends and
/// recovery scans and counts traffic. The *contents* of the device live
/// with its owner (e.g. `dmnet::wal::Wal`); this object models only time
/// and accounting, so it can be shared by writers and the recovery path.
#[derive(Clone)]
pub struct DurableMedia {
    params: DurableMediaParams,
    dev: RateResource,
    appends: Counter,
    bytes_appended: Counter,
    bytes_scanned: Counter,
}

impl DurableMedia {
    /// Create a device with the given timing parameters.
    pub fn new(name: impl Into<String>, params: DurableMediaParams) -> DurableMedia {
        // An infinite-bandwidth RateResource would produce NaN transfer
        // times; clamp to a finite-but-huge rate for the resource and skip
        // it entirely on the zero-cost path.
        let rate = if params.bandwidth.is_finite() {
            params.bandwidth
        } else {
            1e18
        };
        DurableMedia {
            params,
            dev: RateResource::new(name, rate, params.sync_latency),
            appends: Counter::new(),
            bytes_appended: Counter::new(),
            bytes_scanned: Counter::new(),
        }
    }

    /// The timing parameters.
    pub fn params(&self) -> DurableMediaParams {
        self.params
    }

    /// Durably append `bytes`: counts the traffic and, unless the device
    /// is zero-cost, occupies the device for the sync latency plus the
    /// streaming time. Zero-cost appends complete without yielding, so
    /// they cannot perturb the executor schedule.
    pub async fn append(&self, bytes: u64) {
        self.appends.add(1);
        self.bytes_appended.add(bytes);
        if self.params.is_zero_cost() {
            return;
        }
        self.dev.access(bytes).await;
    }

    /// Record an append without charging time (background bookkeeping
    /// paths such as lease-reclaim records, whose latency is not on any
    /// acknowledged request's critical path).
    pub fn append_untimed(&self, bytes: u64) {
        self.appends.add(1);
        self.bytes_appended.add(bytes);
    }

    /// Charge a recovery scan of `bytes` (reading the log back after a
    /// crash). Zero-cost devices charge nothing.
    pub async fn scan(&self, bytes: u64) {
        self.bytes_scanned.add(bytes);
        if self.params.is_zero_cost() {
            return;
        }
        self.dev.access(bytes).await;
    }

    /// Synced appends so far.
    pub fn appends(&self) -> u64 {
        self.appends.get()
    }

    /// Bytes appended so far.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended.get()
    }

    /// Bytes read back by recovery scans so far.
    pub fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    #[test]
    fn default_latencies_match_paper() {
        let p = ModelParams::new();
        assert_eq!(p.latency(MemClass::Local), Duration::from_nanos(75));
        assert_eq!(p.latency(MemClass::CrossSocket), Duration::from_nanos(125));
        assert_eq!(p.latency(MemClass::Cxl), Duration::from_nanos(265));
    }

    #[test]
    fn cxl_latency_knob() {
        let p = ModelParams::new();
        p.set_cxl_latency(Duration::from_nanos(400));
        assert_eq!(p.latency(MemClass::Cxl), Duration::from_nanos(400));
        // Clones share the knob (it's one simulation-wide parameter set).
        let q = p.clone();
        q.set_cxl_latency(Duration::from_nanos(75));
        assert_eq!(p.cxl_latency(), Duration::from_nanos(75));
    }

    #[test]
    fn copy_time_scales_with_size() {
        let p = ModelParams::new();
        let t1 = p.copy_time(4096);
        let t2 = p.copy_time(8192);
        assert!(t2 > t1);
        // 4096B at 12GB/s = ~342ns + 75ns latency.
        assert_eq!(t1, Duration::from_nanos(75 + 342));
    }

    #[test]
    fn access_time_uses_class_latency_and_bw() {
        let p = ModelParams::new();
        let cxl = p.access_time(MemClass::Cxl, 4096);
        let loc = p.access_time(MemClass::Local, 4096);
        assert_eq!(cxl, Duration::from_nanos(265 + 64)); // 4096B @ 64GB/s
        assert_eq!(loc, Duration::from_nanos(75 + 342)); // 4096B @ 12GB/s
                                                         // For small (cacheline-scale) accesses latency dominates: CXL slower.
        assert!(p.access_time(MemClass::Cxl, 64) > p.access_time(MemClass::Local, 64));
    }

    #[test]
    fn memcpy_counts_double_traffic_and_charges_time() {
        let sim = Sim::new();
        let mem = NodeMemory::with_defaults("n0", ModelParams::new());
        let m2 = mem.clone();
        let t = sim.block_on(async move {
            m2.memcpy(6000).await;
            simcore::now().nanos()
        });
        assert_eq!(mem.traffic_bytes(), 12_000);
        // 12000B at 60GB/s = 200ns + 75ns latency.
        assert_eq!(t, 275);
    }

    #[test]
    fn account_is_free_of_time() {
        let sim = Sim::new();
        let mem = NodeMemory::with_defaults("n0", ModelParams::new());
        let m2 = mem.clone();
        let t = sim.block_on(async move {
            m2.account(1_000_000);
            simcore::now().nanos()
        });
        assert_eq!(t, 0);
        assert_eq!(mem.traffic_bytes(), 1_000_000);
    }

    #[test]
    fn durable_media_zero_cost_charges_no_time_but_counts() {
        let sim = Sim::new();
        let dev = DurableMedia::new("wal0", DurableMediaParams::zero_cost());
        let d2 = dev.clone();
        let t = sim.block_on(async move {
            d2.append(4096).await;
            d2.append(128).await;
            d2.scan(4224).await;
            simcore::now().nanos()
        });
        assert_eq!(t, 0, "zero-cost device charged virtual time");
        assert_eq!(dev.appends(), 2);
        assert_eq!(dev.bytes_appended(), 4224);
        assert_eq!(dev.bytes_scanned(), 4224);
    }

    #[test]
    fn durable_media_nvme_charges_sync_latency_plus_streaming() {
        let sim = Sim::new();
        let dev = DurableMedia::new("wal0", DurableMediaParams::nvme());
        let d2 = dev.clone();
        let t = sim.block_on(async move {
            d2.append(2000).await;
            simcore::now().nanos()
        });
        // 5 µs sync + 2000 B at 2 GB/s = 1 µs streaming.
        assert_eq!(t, 6_000);
        // Untimed appends count traffic but never touch the device clock.
        dev.append_untimed(500);
        assert_eq!(dev.appends(), 2);
        assert_eq!(dev.bytes_appended(), 2500);
    }

    #[test]
    fn bandwidth_occupation_reports_rate() {
        let mem = NodeMemory::with_defaults("n0", ModelParams::new());
        mem.account(10_000_000);
        let occ = mem.bandwidth_occupation(Duration::from_millis(1));
        assert!((occ - 1e10).abs() / 1e10 < 1e-9);
        mem.reset_stats();
        assert_eq!(mem.traffic_bytes(), 0);
    }
}
