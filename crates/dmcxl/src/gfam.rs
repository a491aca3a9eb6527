//! The G-FAM device: Global Fabric-Attached Memory (paper §II-B2, §V-B1).
//!
//! One Device-Physical-Address (DPA) space shared by every host on the CXL
//! fabric. The device holds:
//!
//! * the CXL physical pages themselves (real bytes) and their per-page
//!   **reference counts**, in the [`PageStore`] a DM server keeps its pages
//!   in: a page is there while its count is above zero, its bytes views of
//!   the buffers they were published from until written (DESIGN.md §6.6);
//!   hosts update the counts with fabric atomics ("CXL 3.0 allows each host
//!   to perform arbitrary ISA-supported atomic operations on its connected
//!   CXL memory"), each one counted and charged;
//! * a shared bandwidth resource modeling the device + switch data path,
//!   with the latency knob driven by [`memsim::ModelParams`] (Fig. 12).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::page_store::{Page, PageStore};
use memsim::{MemClass, ModelParams};
use simcore::{Counter, RateResource, SimTime};

/// CXL physical page number (index into the DPA space).
pub type Ppn = u32;

/// The shared G-FAM device. Every host holds an `Rc<GFam>`.
pub struct GFam {
    /// Refcount and bytes of every pinned device page; a page holds bytes
    /// only once written or published, reading as zeros before (host RAM
    /// only; invisible to the model).
    pages: RefCell<PageStore>,
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
            params,
            bw,
            traffic: Counter::new(),
            atomics: Counter::new(),
        })
    }

    /// Number of CXL physical pages.
    pub fn capacity_pages(&self) -> usize {
        self.pages.borrow().capacity()
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

    /// Time the shared data path has been busy (the bandwidth booking).
    pub fn busy_time(&self) -> Duration {
        self.bw.busy_time()
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

    /// Make `page` the bytes of the pinned `ppn` (a publish, no copy).
    pub fn put_page(&self, ppn: Ppn, page: Page) {
        self.pages.borrow_mut().put(ppn, page);
    }

    /// Copy one whole page `src` → `dst` on the device (COW data move):
    /// `dst` becomes a second view of `src`'s bytes until either is written.
    pub fn copy_page(&self, src: Ppn, dst: Ppn) {
        assert_ne!(src, dst);
        self.pages.borrow_mut().copy(src, dst);
    }

    /// Every pinned page as `(ppn, refcount)`, in ascending `ppn`
    /// (invariant checks; not counted as atomics).
    pub fn pinned_pages(&self) -> Vec<(Ppn, u32)> {
        let pages = self.pages.borrow();
        pages.live().into_iter().map(|(p, rc, _)| (p, rc)).collect()
    }

    // -- fabric atomics on refcounts ----------------------------------------

    /// Atomically increment a page's refcount; returns the new value.
    pub fn rc_inc(&self, ppn: Ppn) -> u32 {
        self.atomics.incr();
        self.pages.borrow_mut().pin(ppn)
    }

    /// Atomically decrement a page's refcount; returns the new value. The
    /// last pin drops the page's bytes: it reads as zeros until written or
    /// published again.
    pub fn rc_dec(&self, ppn: Ppn) -> u32 {
        self.atomics.incr();
        self.pages.borrow_mut().unpin(ppn)
    }

    /// Read a page's refcount.
    pub fn rc_get(&self, ppn: Ppn) -> u32 {
        self.atomics.incr();
        self.rc_peek(ppn)
    }

    /// Set a freshly-granted page's refcount to 1 (first mapping; paper
    /// §V-B3: "When a CXL physical page is mapped to a CXL virtual address,
    /// its ref count would be initialized to one").
    pub fn rc_init(&self, ppn: Ppn) {
        self.atomics.incr();
        let rc = self.pages.borrow_mut().pin(ppn);
        assert_eq!(rc, 1, "initializing refcount of in-use CXL page {ppn}");
    }

    /// Whether every one of `pages` is a device page with at least one pin.
    /// Not counted as atomics: a host reads these words in an access or
    /// beside the atomics it issues anyway.
    pub fn all_pinned(&self, pages: &[Ppn]) -> bool {
        let store = self.pages.borrow();
        pages
            .iter()
            .all(|&p| (p as usize) < store.capacity() && store.refcount(p) > 0)
    }

    /// Non-counting refcount peek for invariant checks.
    pub fn rc_peek(&self, ppn: Ppn) -> u32 {
        self.pages.borrow().refcount(ppn)
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
        g.rc_init(1);
        g.write_page(1, 100, b"hello");
        assert_eq!(&g.read(100, 5, |_| Some(1))[..], b"hello");
        assert_eq!(&g.read(100, 5, |_| Some(2))[..], &[0; 5], "untouched");
    }

    #[test]
    fn copy_shares_until_a_write_and_discard_zeroes() {
        let g = GFam::new(4, ModelParams::new());
        let data = Bytes::from(vec![7u8; PAGE_SIZE]);
        g.rc_init(0);
        g.rc_init(2);
        g.put_page(0, Page::views_of(data.clone()).next().unwrap());
        g.copy_page(0, 2);
        let copy = g.read(0, PAGE_SIZE as u64, |_| Some(2));
        assert_eq!(copy.as_ptr(), data.as_ptr(), "the copy is a view");
        g.write_page(2, 4000, &[1; 4]);
        assert_eq!(&g.read(4000, 4, |_| Some(2))[..], &[1; 4]);
        assert_eq!(&g.read(4000, 4, |_| Some(0))[..], &[7; 4], "src untouched");
        assert_eq!(copy, data, "a read keeps what it showed");
        // The last pin drops the bytes: pinned again, the page reads zeros.
        assert_eq!(g.rc_dec(2), 0);
        assert!(g.pinned_pages().iter().all(|&(p, _)| p != 2));
        g.rc_init(2);
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
        assert!(g.all_pinned(&[0]));
        assert!(
            !g.all_pinned(&[0, 2]),
            "a ppn past the device is not pinned"
        );
        assert_eq!(g.rc_dec(0), 0);
        assert!(!g.all_pinned(&[0]));
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
