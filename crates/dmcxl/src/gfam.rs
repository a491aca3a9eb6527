//! The G-FAM device: Global Fabric-Attached Memory (paper §II-B2, §V-B1).
//!
//! One Device-Physical-Address (DPA) space shared by every host on the CXL
//! fabric. The device holds:
//!
//! * the CXL physical pages themselves (real bytes), in the [`PageStore`]
//!   a DM server keeps its pages in: views of the buffers they were
//!   published from until written (DESIGN.md §6.6);
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

use bytes::Bytes;
use dmcommon::page_store::{Page, PageStore};
use memsim::{MemClass, ModelParams};
use simcore::{Counter, RateResource, SimTime};

/// CXL physical page number (index into the DPA space).
pub type Ppn = u32;

/// The shared G-FAM device. Every host holds an `Rc<GFam>`.
pub struct GFam {
    /// Device pages: bytes only while pinned and written or published, an
    /// empty slot reading as zeros (host RAM only; invisible to the model).
    pages: RefCell<PageStore>,
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
            pages: RefCell::new(PageStore::new(capacity_pages)),
            refcounts: (0..capacity_pages).map(|_| AtomicU32::new(0)).collect(),
            params,
            bw,
            traffic: Counter::new(),
            atomics: Counter::new(),
        })
    }

    /// Number of CXL physical pages.
    pub fn capacity_pages(&self) -> usize {
        self.refcounts.len()
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

    /// Bytes host reads got as a view of the buffer the pages lie in.
    pub fn read_viewed_bytes(&self) -> u64 {
        self.pages.borrow().read_bytes().0
    }

    /// Bytes host reads gathered into a new buffer instead.
    pub fn read_gathered_bytes(&self) -> u64 {
        self.pages.borrow().read_bytes().1
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

    /// Raw read of device bytes, charged separately via [`GFam::access`]
    /// ([`PageStore::read`]: a view when the pages are one run of a buffer).
    pub fn read(&self, start: u64, len: u64, page_at: impl Fn(u64) -> Option<Ppn>) -> Bytes {
        self.pages.borrow().read(start, len, page_at)
    }

    /// Raw write of device bytes ([`PageStore::write`]).
    pub fn write_page(&self, ppn: Ppn, offset: usize, data: &[u8]) {
        self.pages.borrow_mut().write(ppn, offset, data);
    }

    /// Make `page` the bytes of `ppn` (a publish, no copy).
    pub fn put_page(&self, ppn: Ppn, page: Page) {
        *self.pages.borrow_mut().slot_mut(ppn) = Some(page);
    }

    /// Copy one whole page `src` → `dst` on the device (COW data move):
    /// `dst` becomes a second view of `src`'s bytes until either is written.
    pub fn copy_page(&self, src: Ppn, dst: Ppn) {
        assert_ne!(src, dst);
        let mut pages = self.pages.borrow_mut();
        *pages.slot_mut(dst) = pages.get(src).cloned();
    }

    /// Drop a page's bytes (called when the page returns to a free list; it
    /// reads as zeros until written or published again).
    pub fn discard_page(&self, ppn: Ppn) {
        *self.pages.borrow_mut().slot_mut(ppn) = None;
    }

    /// Whether `ppn` holds bytes (invariant checks: only pinned pages do).
    pub fn holds_bytes(&self, ppn: Ppn) -> bool {
        self.pages.borrow().get(ppn).is_some()
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

    use dmcommon::PAGE_SIZE;

    #[test]
    fn page_data_roundtrip() {
        let g = GFam::new(4, ModelParams::new());
        g.write_page(1, 100, b"hello");
        assert_eq!(&g.read(100, 5, |_| Some(1))[..], b"hello");
        assert_eq!(&g.read(100, 5, |_| Some(2))[..], &[0; 5], "untouched");
    }

    #[test]
    fn copy_shares_until_a_write_and_discard_zeroes() {
        let g = GFam::new(4, ModelParams::new());
        let data = Bytes::from(vec![7u8; PAGE_SIZE]);
        g.put_page(0, Page::views_of(data.clone()).next().unwrap());
        g.copy_page(0, 2);
        let copy = g.read(0, PAGE_SIZE as u64, |_| Some(2));
        assert_eq!(copy.as_ptr(), data.as_ptr(), "the copy is a view");
        g.write_page(2, 4000, &[1; 4]);
        assert_eq!(&g.read(4000, 4, |_| Some(2))[..], &[1; 4]);
        assert_eq!(&g.read(4000, 4, |_| Some(0))[..], &[7; 4], "src untouched");
        assert_eq!(copy, data, "a read keeps what it showed");
        g.discard_page(2);
        assert!(!g.holds_bytes(2));
        assert_eq!(&g.read(4000, 4, |_| Some(2))[..], &[0; 4]);
        // Every read but the last was one run of one buffer, the written
        // page's own included.
        let viewed = PAGE_SIZE as u64 + 8;
        assert_eq!(
            (g.read_viewed_bytes(), g.read_gathered_bytes()),
            (viewed, 4)
        );
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
