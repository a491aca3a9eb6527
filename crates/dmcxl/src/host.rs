//! The per-process DM layer on a compute server (paper §V-B1..3).
//!
//! Each process gets a `CxlHost`: a VMA tree of CXL virtual addresses, a
//! page table with permission flags, a FIFO of owned free CXL physical
//! pages (refilled from / returned to the [`crate::coordinator`] in
//! batches), and the fault-driven **distributed copy-on-write**:
//!
//! * store to an unmapped page → fault: take an owned free page, map
//!   writable, refcount 1;
//! * store to a read-only page with refcount > 1 → COW: copy the page on
//!   the device (unless the store covers it whole), retarget the PTE,
//!   atomically decrement the old refcount;
//! * store to a read-only page with refcount 1 → just flip the permission
//!   flag (sole owner);
//! * store to a writable page → no fault at all (the common case — this is
//!   why DmRPC-CXL accesses are usually as cheap as plain CXL loads/stores).
//!
//! An op that takes pages *reserves* them (coordinator refills), changes
//! the page table and refcounts in one synchronous *body*, then *charges*
//! its time: an op that does not fit changes nothing, and no two ops of a
//! process interleave their changes, so no page needs a fault lock.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::page_store::Page;
use dmcommon::va_tree::VaTree;
use dmcommon::{CopyMode, DmError, DmResult, Ref, PAGE_SIZE};
use rpclib::Rpc;
use simcore::Counter;
use simnet::Addr;
use telemetry::SpanKind;

use crate::coordinator::{self, encode_pages, encode_request};
use crate::gfam::{GFam, Ppn};

/// Issue cost of one pipelined fabric atomic.
const ATOMIC_ISSUE: Duration = Duration::from_nanos(20);

/// Kernel page-fault handling CPU cost.
const FAULT_CPU: Duration = Duration::from_nanos(400);

/// CPU cost per PTE update.
const PTE_CPU: Duration = Duration::from_nanos(30);

/// Host DM-layer tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CxlHostConfig {
    /// Refill from the coordinator when owned free pages drop below this.
    pub low_watermark: usize,
    /// Return pages to the coordinator when owned free pages exceed this.
    pub high_watermark: usize,
    /// Pages requested per coordinator round-trip.
    pub request_batch: usize,
    /// COW (DmRPC) or eager copy at `create_ref` (the `-copy` ablation).
    pub copy_mode: CopyMode,
}

impl Default for CxlHostConfig {
    fn default() -> Self {
        CxlHostConfig {
            low_watermark: 16,
            high_watermark: 512,
            request_batch: 64,
            copy_mode: CopyMode::CopyOnWrite,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Pte {
    ppn: Ppn,
    writable: bool,
}

/// Host-side statistics.
#[derive(Clone, Default)]
pub struct CxlHostStats {
    /// Page faults taken (first-touch mappings).
    pub faults: Counter,
    /// COW page copies performed.
    pub cow_copies: Counter,
    /// Coordinator round-trips for page ownership.
    pub coord_rpcs: Counter,
}

/// One process's DM layer on a compute server.
pub struct CxlHost {
    gfam: Rc<GFam>,
    rpc: Rc<Rpc>,
    coord: Addr,
    vma: RefCell<VaTree>,
    page_table: RefCell<HashMap<u64, Pte>>,
    free: RefCell<VecDeque<Ppn>>,
    config: CxlHostConfig,
    stats: CxlHostStats,
    refilling: Cell<bool>,
}

impl CxlHost {
    /// Create the DM layer for one process. `rpc` is the process's RPC
    /// endpoint (used only for the coordinator ownership protocol).
    pub fn new(
        gfam: Rc<GFam>,
        rpc: Rc<Rpc>,
        coordinator: Addr,
        config: CxlHostConfig,
    ) -> Rc<CxlHost> {
        Rc::new(CxlHost {
            gfam,
            rpc,
            coord: coordinator,
            vma: RefCell::new(VaTree::new()),
            page_table: RefCell::new(HashMap::new()),
            free: RefCell::new(VecDeque::new()),
            config,
            stats: CxlHostStats::default(),
            refilling: Cell::new(false),
        })
    }

    /// Stats counters.
    pub fn stats(&self) -> &CxlHostStats {
        &self.stats
    }

    /// Owned free pages (tests).
    pub fn owned_free_pages(&self) -> usize {
        self.free.borrow().len()
    }

    /// Live PTEs, as `(vpn, ppn, writable)` (invariant checks).
    pub fn pte_snapshot(&self) -> Vec<(u64, u32, bool)> {
        self.page_table
            .borrow()
            .iter()
            .map(|(&vpn, pte)| (vpn, pte.ppn, pte.writable))
            .collect()
    }

    /// Snapshot of owned free pages (invariant checks).
    pub fn free_snapshot(&self) -> Vec<Ppn> {
        self.free.borrow().iter().copied().collect()
    }

    fn node_id(&self) -> u32 {
        self.rpc.addr().node.0
    }

    // -- ownership protocol --------------------------------------------------

    async fn coordinator_request(&self, n: usize) -> DmResult<Vec<Ppn>> {
        self.stats.coord_rpcs.incr();
        // DM-control span over the ownership round trip; the nested
        // `rpc.call` contributes its own client/transport spans.
        let _grant = telemetry::span(SpanKind::DmOp, "cxl.page_grant", self.node_id());
        let resp = self
            .rpc
            .call(
                self.coord,
                coordinator::req::REQUEST_PAGES,
                encode_request(n as u32),
            )
            .await
            .map_err(|_| DmError::Transport)?;
        coordinator::decode_pages(&resp.into_bytes()).ok_or(DmError::Malformed)
    }

    /// The reserve step of an op: refill the owned FIFO, one
    /// `request_batch` grant at a time, until it holds the `need()` pages
    /// the op's body will pop. `need` recounts after every await, since
    /// other tasks of the process may have taken pages or changed the page
    /// table meanwhile, and may refuse the op. A grant that comes back
    /// empty is `OutOfMemory`, and the op has taken no page.
    async fn reserve(self: &Rc<Self>, need: impl Fn() -> DmResult<usize>) -> DmResult<()> {
        // While it waits, the op keeps the pages it found out of the FIFO
        // and puts them back in front when it is done: the process's other
        // ops and refills see the FIFO, and the body pops pages in the
        // order they would have if the op had popped each on its way.
        let mut held = Vec::new();
        let reserved = loop {
            let owned = self.free.borrow().len() + held.len();
            match need() {
                Ok(need) if owned >= need => break Ok(()),
                Ok(_) => {}
                Err(e) => break Err(e),
            }
            if !self.free.borrow().is_empty() {
                held.extend(self.free.borrow_mut().drain(..));
                // The FIFO ran dry: a background refill starts beside this
                // one, as it would at the pops.
                self.maybe_background_refill();
            }
            match self.coordinator_request(self.config.request_batch).await {
                Ok(grant) if !grant.is_empty() => self.free.borrow_mut().extend(grant),
                Ok(_) => break Err(DmError::OutOfMemory),
                Err(e) => break Err(e),
            }
        };
        let mut free = self.free.borrow_mut();
        held.into_iter().rev().for_each(|p| free.push_front(p));
        reserved
    }

    /// Pop an owned free page the op reserved and pin it at refcount 1.
    fn take_page(self: &Rc<Self>) -> Ppn {
        let p = self.free.borrow_mut().pop_front().expect("page reserved");
        self.maybe_background_refill();
        // A free page holds no bytes (its last pin dropped them), so a
        // fresh mapping reads as zeros without zeroing anything.
        self.gfam.rc_init(p);
        p
    }

    /// A fresh page holding a copy of `ppn` (charged by the caller).
    fn copy_of(self: &Rc<Self>, ppn: Ppn) -> Ppn {
        let newp = self.take_page();
        self.gfam.copy_page(ppn, newp);
        newp
    }

    fn maybe_background_refill(self: &Rc<Self>) {
        if self.free.borrow().len() >= self.config.low_watermark || self.refilling.get() {
            return;
        }
        self.refilling.set(true);
        let host = self.clone();
        simcore::spawn_detached(async move {
            let r = host.coordinator_request(host.config.request_batch).await;
            if let Ok(grant) = r {
                host.free.borrow_mut().extend(grant);
            }
            host.refilling.set(false);
        });
    }

    fn give_back_page(self: &Rc<Self>, p: Ppn) {
        let mut free = self.free.borrow_mut();
        free.push_back(p);
        if free.len() > self.config.high_watermark {
            let surplus = free.len() - self.config.high_watermark / 2;
            let pages: Vec<Ppn> = (0..surplus)
                .map(|_| free.pop_back().expect("surplus <= len"))
                .collect();
            drop(free);
            let host = self.clone();
            simcore::spawn_detached(async move {
                host.stats.coord_rpcs.incr();
                let _ = host
                    .rpc
                    .call(
                        host.coord,
                        coordinator::req::RETURN_PAGES,
                        encode_pages(&pages),
                    )
                    .await;
            });
        }
    }

    // -- Table II API --------------------------------------------------------

    /// Allocate `len` bytes of CXL virtual address space (no pages mapped —
    /// paper §V-B2 "At this time, no CXL physical pages are mapped").
    pub fn alloc(&self, len: u64) -> DmResult<u64> {
        self.vma.borrow_mut().alloc(len, PAGE_SIZE as u64)
    }

    /// Release a region (paper §V-B3 "Memory release").
    pub fn free(self: &Rc<Self>, va: u64) -> DmResult<()> {
        let (start, len) = self.vma.borrow().lookup(va)?;
        if start != va {
            return Err(DmError::InvalidAddress);
        }
        for vpn in (start / PAGE_SIZE as u64)..((start + len) / PAGE_SIZE as u64) {
            let pte = self.page_table.borrow_mut().remove(&vpn);
            if let Some(pte) = pte {
                self.unpin(pte.ppn);
            }
        }
        self.vma.borrow_mut().free(start)?;
        Ok(())
    }

    /// Charge the time of `n` pipelined fabric atomics: one CXL round trip
    /// plus a per-atomic issue cost.
    async fn charge_atomics(&self, n: usize) {
        let lat = self.gfam.params().latency(memsim::MemClass::Cxl);
        simcore::sleep(lat + ATOMIC_ISSUE * n as u32).await;
    }

    /// Charge `n` whole-page device copies, one read and one write of a
    /// page each, under one `name` span.
    async fn charge_copies(&self, name: &'static str, n: usize) {
        let mut cow = telemetry::leaf_span(SpanKind::Cow, name, self.node_id());
        if let Some(s) = cow.as_mut() {
            s.attr("bytes_copied", (n * PAGE_SIZE) as u64);
        }
        for _ in 0..n {
            self.gfam.access(2 * PAGE_SIZE as u64).await;
        }
    }

    /// The length and pages of `r` if it is a live CXL ref: a page per
    /// `PAGE_SIZE` of its non-zero length, each on the device and pinned.
    /// Anything else, a released ref included, is `InvalidRef`, as
    /// DmRPC-net answers. A released page that another ref has re-owned
    /// since cannot be told apart (DESIGN.md §6).
    fn live_pages<'r>(&self, r: &'r Ref) -> DmResult<(u64, &'r [Ppn])> {
        match r {
            Ref::Cxl { len, pages }
                if *len > 0
                    && pages.len() as u64 == len.div_ceil(PAGE_SIZE as u64)
                    && self.gfam.all_pinned(pages) =>
            {
                Ok((*len, pages))
            }
            _ => Err(DmError::InvalidRef),
        }
    }

    /// The PTE of `vpn`, if mapped.
    fn pte(&self, vpn: u64) -> Option<Pte> {
        self.page_table.borrow().get(&vpn).copied()
    }

    /// Install `vpn → ppn` in the page table.
    fn map(&self, vpn: u64, ppn: Ppn, writable: bool) {
        self.page_table
            .borrow_mut()
            .insert(vpn, Pte { ppn, writable });
    }

    /// Drop one pin on `ppn`; the last owner reclaims the page.
    fn unpin(self: &Rc<Self>, ppn: Ppn) {
        if self.gfam.rc_dec(ppn) == 0 {
            self.give_back_page(ppn);
        }
    }

    /// The pages of `[va, va + len)` once its bounds check out.
    fn vpns(&self, va: u64, len: u64) -> DmResult<Range<u64>> {
        self.vma.borrow().check_range(va, len)?;
        Ok(va / PAGE_SIZE as u64..(va + len).div_ceil(PAGE_SIZE as u64))
    }

    /// `store`: write `data` at `va` through plain CXL stores, taking page
    /// faults as described in paper §V-B3. The call knows its range before
    /// its first store lands, so a COW fault on a page the range covers
    /// whole skips the copy.
    pub async fn store(self: &Rc<Self>, va: u64, data: &[u8]) -> DmResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let len = data.len() as u64;
        // An unmapped page takes a page, and so does a shared one (COW).
        let takes = |pte: Option<Pte>| {
            pte.is_none_or(|pte| !pte.writable && self.gfam.rc_peek(pte.ppn) > 1)
        };
        self.reserve(|| Ok(self.vpns(va, len)?.filter(|&v| takes(self.pte(v))).count()))
            .await?;
        let (mut off, mut fault_cpu, mut copies) = (0, Duration::ZERO, 0);
        for vpn in self.vpns(va, len)? {
            let in_page = ((va + off as u64) % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let ppn = match self.pte(vpn) {
                // Writable: no fault.
                Some(pte) if pte.writable => pte.ppn,
                pte => {
                    self.stats.faults.incr();
                    fault_cpu += FAULT_CPU + PTE_CPU;
                    let ppn = match pte {
                        None => self.take_page(),
                        // Sole owner: flip the permission flag.
                        Some(pte) if self.gfam.rc_get(pte.ppn) == 1 => pte.ppn,
                        // Shared: COW, copying on the device unless the
                        // store replaces the whole page.
                        Some(pte) => {
                            let newp = if n < PAGE_SIZE {
                                copies += 1;
                                self.copy_of(pte.ppn)
                            } else {
                                self.take_page()
                            };
                            self.unpin(pte.ppn);
                            newp
                        }
                    };
                    self.map(vpn, ppn, true);
                    ppn
                }
            };
            self.gfam.write_page(ppn, in_page, &data[off..off + n]);
            off += n;
        }
        for _ in 0..copies {
            self.stats.cow_copies.incr();
            self.charge_copies("cxl.cow_copy", 1).await;
        }
        if !fault_cpu.is_zero() {
            simcore::sleep(fault_cpu).await;
        }
        // The stores themselves stream over the CXL link.
        self.gfam.access(len).await;
        Ok(())
    }

    /// `load`: read `len` bytes at `va` through plain CXL loads (paper
    /// §V-B3: "completely the same as regular memory"). Unmapped pages read
    /// as zeros. Pages that are one run of one buffer come back as a view
    /// of it.
    pub async fn load(self: &Rc<Self>, va: u64, len: u64) -> DmResult<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        let first = self.vpns(va, len)?.start;
        let out = {
            let pt = self.page_table.borrow();
            let ppn_at = |n: u64| pt.get(&(first + n)).map(|pte| pte.ppn);
            self.gfam.read(va % PAGE_SIZE as u64, len, ppn_at)
        };
        self.gfam.access(len).await;
        Ok(out)
    }

    /// `create_ref` (paper §V-B3): atomically bump each page's refcount and
    /// mark the creator's PTEs read-only; the Ref carries the physical page
    /// numbers. In the `-copy` ablation the region is copied instead.
    pub async fn create_ref(self: &Rc<Self>, va: u64, len: u64) -> DmResult<Ref> {
        if len == 0 || !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(DmError::InvalidAddress);
        }
        self.vpns(va, len)?;
        let mut op = telemetry::span(SpanKind::DmOp, "cxl.create_ref", self.node_id());
        if let Some(s) = op.as_mut() {
            s.attr("len", len);
        }
        let copies = match self.config.copy_mode {
            CopyMode::CopyOnWrite => 0,
            CopyMode::Eager => len.div_ceil(PAGE_SIZE as u64) as usize,
        };
        // A virgin page takes a page, and so does each eager copy.
        let virgin = |v: &u64| self.pte(*v).is_none();
        self.reserve(|| Ok(self.vpns(va, len)?.filter(virgin).count() + copies))
            .await?;
        let pages: Vec<(u64, Ppn)> = self
            .vpns(va, len)?
            .map(|vpn| match self.pte(vpn) {
                Some(pte) => (vpn, pte.ppn),
                // Virgin page inside the ref'd region: map a zero page.
                None => {
                    let p = self.take_page();
                    self.map(vpn, p, true);
                    self.stats.faults.incr();
                    (vpn, p)
                }
            })
            .collect();
        let n = pages.len();
        let shared = if copies > 0 {
            let shared = pages.iter().map(|&(_, ppn)| self.copy_of(ppn)).collect();
            self.charge_copies("cxl.eager_copy", n).await;
            shared
        } else {
            for &(vpn, ppn) in &pages {
                self.gfam.rc_inc(ppn);
                // Mark read-only so the next creator write COWs.
                self.map(vpn, ppn, false);
            }
            simcore::sleep(PTE_CPU * n as u32).await;
            self.charge_atomics(n).await;
            pages.into_iter().map(|(_, ppn)| ppn).collect()
        };
        Ok(Ref::Cxl { len, pages: shared })
    }

    /// Fast path: publish `data` as a new reference in one step, the twin
    /// of DmRPC-net's `PUT_REF`. Each page comes from the owned free FIFO
    /// and is stored in place (on the host, a view of `data`'s buffer, as
    /// `PageManager::put_ref_bytes` keeps it); its refcount stays at 1, the
    /// ref's own pin, which is where `alloc` + `store` + `create_ref` +
    /// `free` end. The creator never maps the pages, so there is no VMA, no
    /// PTE and no fault, and the copy mode does not apply: there is no
    /// mapping to copy away from. The N refcount initialisations go out
    /// beside the stores and one completion wait covers both: the pages sit
    /// in this host's owned free FIFO, so no other host reads their
    /// refcount words before the `Ref` exists.
    pub async fn put_ref(self: &Rc<Self>, data: Bytes) -> DmResult<Ref> {
        let len = data.len() as u64;
        if len == 0 {
            return Err(DmError::InvalidAddress);
        }
        let mut op = telemetry::span(SpanKind::DmOp, "cxl.put_ref", self.node_id());
        if let Some(s) = op.as_mut() {
            s.attr("len", len);
        }
        self.reserve(|| Ok(data.len().div_ceil(PAGE_SIZE))).await?;
        let pages: Vec<Ppn> = Page::views_of(data)
            .map(|view| {
                let p = self.take_page();
                self.gfam.put_page(p, view);
                p
            })
            .collect();
        self.gfam
            .access_alongside(len, ATOMIC_ISSUE * pages.len() as u32)
            .await;
        Ok(Ref::Cxl { len, pages })
    }

    /// Fast path: a whole reference's bytes straight from G-FAM, the twin
    /// of DmRPC-net's `READ_REF`: one access of its length, with no VMA, no
    /// PTE and no pin. The caller holds the ref for the duration of the
    /// read. The refcount words ride the same access, so a released ref is
    /// `InvalidRef` at no extra round trip. A never-written ref reads back
    /// as a view of the buffer it was published from.
    pub async fn read_ref(&self, r: &Ref) -> DmResult<Bytes> {
        let (len, pages) = self.live_pages(r)?;
        let _op = telemetry::span(SpanKind::DmOp, "cxl.read_ref", self.node_id());
        let out = self.gfam.read(0, len, |n| Some(pages[n as usize]));
        self.gfam.access(len).await;
        Ok(out)
    }

    /// `map_ref` (paper §V-B3): allocate a CXL virtual range and install
    /// read-only PTEs onto the shared physical pages.
    pub async fn map_ref(self: &Rc<Self>, r: &Ref) -> DmResult<u64> {
        let (len, pages) = self.live_pages(r)?;
        let _op = telemetry::span(SpanKind::DmOp, "cxl.map_ref", self.node_id());
        let va = self.vma.borrow_mut().alloc(len, PAGE_SIZE as u64)?;
        for (i, &ppn) in pages.iter().enumerate() {
            self.gfam.rc_inc(ppn);
            self.map(va / PAGE_SIZE as u64 + i as u64, ppn, false);
        }
        simcore::sleep(PTE_CPU * pages.len() as u32).await;
        self.charge_atomics(pages.len()).await;
        Ok(va)
    }

    /// Release a reference's pin on its pages (API extension; DESIGN.md §6).
    pub async fn release_ref(self: &Rc<Self>, r: &Ref) -> DmResult<()> {
        let (_, pages) = self.live_pages(r)?;
        let _op = telemetry::span(SpanKind::DmOp, "cxl.release_ref", self.node_id());
        for &ppn in pages {
            self.unpin(ppn);
        }
        self.charge_atomics(pages.len()).await;
        Ok(())
    }
}
