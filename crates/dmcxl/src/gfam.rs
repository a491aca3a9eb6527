//! The G-FAM device: Global Fabric-Attached Memory (paper §II-B2, §V-B1).
//!
//! One Device-Physical-Address (DPA) space shared by every host on the CXL
//! fabric. The device holds:
//!
//! * the CXL physical pages themselves (real bytes);
//! * the per-page **reference counts**, stored in device memory and updated
//!   with atomic operations ("CXL 3.0 allows each host to perform arbitrary
//!   ISA-supported atomic operations on its connected CXL memory");
//! * a shared bandwidth resource modeling the device + switch data path,
//!   with the latency knob driven by [`memsim::ModelParams`] (Fig. 12).
//!
//! Refcounts use real `AtomicU32`s to mirror the fabric-atomic semantics
//! even though the simulation itself is single-threaded.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use dmcommon::PAGE_SIZE;
use memsim::{MemClass, ModelParams};
use simcore::{Counter, RateResource, SimTime};

/// CXL physical page number (index into the DPA space).
pub type Ppn = u32;

/// The shared G-FAM device. Every host holds an `Rc<GFam>`.
pub struct GFam {
    /// Device pages, materialized lazily on first touch (host-RAM saving;
    /// invisible to the model).
    pages: Vec<RefCell<Option<Box<[u8]>>>>,
    refcounts: Vec<AtomicU32>,
    params: ModelParams,
    /// Device + switch data-path bandwidth, shared by all hosts.
    bw: RateResource,
    traffic: Counter,
    atomics: Counter,
}

impl GFam {
    /// Create a device with `capacity_pages` CXL physical pages.
    pub fn new(capacity_pages: usize, params: ModelParams) -> Rc<GFam> {
        let bw = RateResource::new("gfam", params.cxl_bandwidth(), Duration::ZERO);
        Rc::new(GFam {
            pages: (0..capacity_pages).map(|_| RefCell::new(None)).collect(),
            refcounts: (0..capacity_pages).map(|_| AtomicU32::new(0)).collect(),
            params,
            bw,
            traffic: Counter::new(),
            atomics: Counter::new(),
        })
    }

    /// Number of CXL physical pages.
    pub fn capacity_pages(&self) -> usize {
        self.pages.len()
    }

    /// The shared model parameters (CXL latency knob).
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Total bytes moved through the device.
    pub fn traffic_bytes(&self) -> u64 {
        self.traffic.get()
    }

    /// Total fabric atomic operations performed.
    pub fn atomic_ops(&self) -> u64 {
        self.atomics.get()
    }

    /// Reset traffic counters (between warmup and measurement).
    pub fn reset_stats(&self) {
        self.traffic.reset();
        self.atomics.reset();
    }

    // -- data path ---------------------------------------------------------

    /// Charge one CXL access of `bytes` (latency + shared device bandwidth)
    /// and wait until it completes. Returns the completion instant.
    pub async fn access(&self, bytes: u64) -> SimTime {
        self.access_alongside(bytes, Duration::ZERO).await
    }

    /// [`GFam::access`] with other requests (fabric atomics) taking `issue`
    /// to send beside the data: one completion wait, one CXL latency after
    /// the later of the two has gone out.
    pub async fn access_alongside(&self, bytes: u64, issue: Duration) -> SimTime {
        self.traffic.add(bytes);
        let sent = self.bw.reserve(bytes).max(simcore::now() + issue);
        let done = sent + self.params.latency(MemClass::Cxl);
        simcore::sleep_until(done).await;
        done
    }

    fn ensure(&self, ppn: Ppn) {
        let mut slot = self.pages[ppn as usize].borrow_mut();
        if slot.is_none() {
            *slot = Some(vec![0u8; PAGE_SIZE].into_boxed_slice());
        }
    }

    /// Raw read of device bytes (time must be charged separately via
    /// [`GFam::access`]). Untouched pages read as zeros.
    pub fn read_page(&self, ppn: Ppn, offset: usize, out: &mut [u8]) {
        match self.pages[ppn as usize].borrow().as_deref() {
            Some(p) => out.copy_from_slice(&p[offset..offset + out.len()]),
            None => out.fill(0),
        }
    }

    /// Raw write of device bytes.
    pub fn write_page(&self, ppn: Ppn, offset: usize, data: &[u8]) {
        self.ensure(ppn);
        let mut p = self.pages[ppn as usize].borrow_mut();
        let p = p.as_deref_mut().expect("ensured");
        p[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Copy one whole page `src` → `dst` on the device (COW data move).
    pub fn copy_page(&self, src: Ppn, dst: Ppn) {
        assert_ne!(src, dst);
        self.ensure(src);
        self.ensure(dst);
        let s = self.pages[src as usize].borrow();
        let mut d = self.pages[dst as usize].borrow_mut();
        d.as_deref_mut()
            .expect("ensured")
            .copy_from_slice(s.as_deref().expect("ensured"));
    }

    /// Drop a page's backing storage (called when the page returns to a
    /// free list; it reads as zeros until re-materialized).
    pub fn discard_page(&self, ppn: Ppn) {
        *self.pages[ppn as usize].borrow_mut() = None;
    }

    /// Zero a page (fresh mapping).
    pub fn zero_page(&self, ppn: Ppn) {
        if let Some(p) = self.pages[ppn as usize].borrow_mut().as_deref_mut() {
            p.fill(0);
        }
        // Unmaterialized pages already read as zeros.
    }

    // -- fabric atomics on refcounts ----------------------------------------

    /// Atomically increment a page's refcount; returns the new value.
    pub fn rc_inc(&self, ppn: Ppn) -> u32 {
        self.atomics.incr();
        self.refcounts[ppn as usize].fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Atomically decrement a page's refcount; returns the new value.
    pub fn rc_dec(&self, ppn: Ppn) -> u32 {
        self.atomics.incr();
        let prev = self.refcounts[ppn as usize].fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "refcount underflow on CXL page {ppn}");
        prev - 1
    }

    /// Read a page's refcount.
    pub fn rc_get(&self, ppn: Ppn) -> u32 {
        self.atomics.incr();
        self.refcounts[ppn as usize].load(Ordering::Acquire)
    }

    /// Set a freshly-granted page's refcount to 1 (first mapping; paper
    /// §V-B3: "When a CXL physical page is mapped to a CXL virtual address,
    /// its ref count would be initialized to one").
    pub fn rc_init(&self, ppn: Ppn) {
        self.atomics.incr();
        let prev = self.refcounts[ppn as usize].swap(1, Ordering::AcqRel);
        assert_eq!(prev, 0, "initializing refcount of in-use CXL page {ppn}");
    }

    /// Whether every one of `pages` is a device page with at least one pin.
    /// Not counted as atomics: a host reads these words in an access or
    /// beside the atomics it issues anyway.
    pub fn all_pinned(&self, pages: &[Ppn]) -> bool {
        pages.iter().all(|&p| {
            self.refcounts
                .get(p as usize)
                .is_some_and(|rc| rc.load(Ordering::Acquire) > 0)
        })
    }

    /// Non-counting refcount peek for invariant checks.
    pub fn rc_peek(&self, ppn: Ppn) -> u32 {
        self.refcounts[ppn as usize].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    #[test]
    fn page_data_roundtrip() {
        let g = GFam::new(4, ModelParams::new());
        g.write_page(1, 100, b"hello");
        let mut buf = [0u8; 5];
        g.read_page(1, 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn copy_and_zero() {
        let g = GFam::new(4, ModelParams::new());
        g.write_page(0, 0, &[7u8; PAGE_SIZE]);
        g.copy_page(0, 2);
        let mut buf = [0u8; 4];
        g.read_page(2, 4000, &mut buf);
        assert_eq!(buf, [7u8; 4]);
        g.zero_page(2);
        g.read_page(2, 4000, &mut buf);
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn refcount_atomics() {
        let g = GFam::new(2, ModelParams::new());
        g.rc_init(0);
        assert_eq!(g.rc_get(0), 1);
        assert_eq!(g.rc_inc(0), 2);
        assert_eq!(g.rc_dec(0), 1);
        assert_eq!(g.rc_dec(0), 0);
        assert!(g.atomic_ops() >= 5);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn refcount_underflow_panics() {
        let g = GFam::new(1, ModelParams::new());
        g.rc_dec(0);
    }

    #[test]
    fn access_charges_cxl_latency_and_bandwidth() {
        let sim = Sim::new();
        let params = ModelParams::new();
        let g = GFam::new(1, params.clone());
        let g2 = g.clone();
        let t = sim.block_on(async move {
            g2.access(4096).await;
            simcore::now().nanos()
        });
        // 4096B @ 64GB/s = 64ns + 265ns CXL latency.
        assert_eq!(t, 64 + 265);
        assert_eq!(g.traffic_bytes(), 4096);
    }

    #[test]
    fn latency_knob_applies_immediately() {
        let sim = Sim::new();
        let params = ModelParams::new();
        params.set_cxl_latency(Duration::from_nanos(75));
        let g = GFam::new(1, params);
        let t = sim.block_on(async move {
            g.access(0).await;
            simcore::now().nanos()
        });
        assert_eq!(t, 75);
    }

    #[test]
    fn concurrent_hosts_share_device_bandwidth() {
        let sim = Sim::new();
        let g = GFam::new(1, ModelParams::new());
        for _ in 0..2 {
            let g = g.clone();
            sim.spawn(async move {
                g.access(64_000).await; // 1us each at 64GB/s
            });
        }
        let end = sim.run();
        // Serialized on the device: 2us + latency, not 1us + latency.
        assert!(end.nanos() >= 2000 + 265, "end = {end}");
    }
}
