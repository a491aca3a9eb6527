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
//!   the device, retarget the PTE, atomically decrement the old refcount;
//! * store to a read-only page with refcount 1 → just flip the permission
//!   flag (sole owner);
//! * store to a writable page → no fault at all (the common case — this is
//!   why DmRPC-CXL accesses are usually as cheap as plain CXL loads/stores).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::va_tree::VaTree;
use dmcommon::{CopyMode, DmError, DmResult, Ref, PAGE_SIZE};
use rpclib::Rpc;
use simcore::sync::Notify;
use simcore::Counter;
use simnet::Addr;
use telemetry::SpanKind;

use crate::coordinator::{self, encode_request, encode_return};
use crate::gfam::{GFam, Ppn};

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
    /// Kernel page-fault handling CPU cost.
    pub fault_cpu: Duration,
    /// CPU cost per PTE update.
    pub pte_cpu: Duration,
}

impl Default for CxlHostConfig {
    fn default() -> Self {
        CxlHostConfig {
            low_watermark: 16,
            high_watermark: 512,
            request_batch: 64,
            copy_mode: CopyMode::CopyOnWrite,
            fault_cpu: Duration::from_nanos(400),
            pte_cpu: Duration::from_nanos(30),
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
    /// Per-VPN fault serialization: the kernel handles one fault per page
    /// at a time. Fault paths contain awaits (coordinator refills, device
    /// copies), so without this two tasks of the same process could both
    /// COW one page and double-release the original.
    faulting: RefCell<std::collections::HashSet<u64>>,
    fault_done: Notify,
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
            faulting: RefCell::new(std::collections::HashSet::new()),
            fault_done: Notify::new(),
        })
    }

    /// Stats counters.
    pub fn stats(&self) -> &CxlHostStats {
        &self.stats
    }

    /// The shared G-FAM device.
    pub fn gfam(&self) -> &Rc<GFam> {
        &self.gfam
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
        coordinator::decode_grant(&resp.into_bytes()).ok_or(DmError::Malformed)
    }

    async fn take_page(self: &Rc<Self>) -> DmResult<Ppn> {
        loop {
            let popped = self.free.borrow_mut().pop_front();
            if let Some(p) = popped {
                self.maybe_background_refill();
                self.gfam.rc_init(p);
                return Ok(p);
            }
            // Synchronous refill when empty.
            let grant = self.coordinator_request(self.config.request_batch).await?;
            if grant.is_empty() {
                return Err(DmError::OutOfMemory);
            }
            self.free.borrow_mut().extend(grant);
        }
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
        self.gfam.discard_page(p);
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
                        encode_return(&pages),
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
                if self.gfam.rc_dec(pte.ppn) == 0 {
                    // Last owner reclaims the page.
                    self.give_back_page(pte.ppn);
                }
            }
        }
        self.vma.borrow_mut().free(start)?;
        Ok(())
    }

    /// Acquire the fault lock for `vpn` (FIFO-ish; re-checks on wake).
    async fn lock_vpn(&self, vpn: u64) {
        loop {
            if self.faulting.borrow_mut().insert(vpn) {
                return;
            }
            self.fault_done.notified().await;
        }
    }

    fn unlock_vpn(&self, vpn: u64) {
        self.faulting.borrow_mut().remove(&vpn);
        self.fault_done.notify_all();
    }

    /// Charge the time of `n` pipelined fabric atomics: one CXL round trip
    /// plus a per-atomic issue cost.
    async fn charge_atomics(&self, n: usize) {
        if n == 0 {
            return;
        }
        let lat = self.gfam.params().latency(memsim::MemClass::Cxl);
        simcore::sleep(lat + Duration::from_nanos(20) * n as u32).await;
    }

    fn check_bounds(&self, va: u64, len: u64) -> DmResult<()> {
        self.vma.borrow().check_range(va, len)
    }

    /// `store`: write `data` at `va` through plain CXL stores, taking page
    /// faults as described in paper §V-B3.
    pub async fn store(self: &Rc<Self>, va: u64, data: &[u8]) -> DmResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.check_bounds(va, data.len() as u64)?;
        let mut off = 0usize;
        let mut fault_cpu = Duration::ZERO;
        while off < data.len() {
            let cur = va + off as u64;
            let vpn = cur / PAGE_SIZE as u64;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let pte = self.page_table.borrow().get(&vpn).copied();
            let ppn = match pte {
                // Case 3 fast path: writable — no fault, no lock.
                Some(pte) if pte.writable => pte.ppn,
                // Cases 1 and 2 take the per-VPN fault lock and re-read the
                // PTE: another task may have resolved the fault while we
                // waited.
                _ => {
                    self.lock_vpn(vpn).await;
                    let r = self.handle_store_fault(vpn).await;
                    self.unlock_vpn(vpn);
                    match r {
                        Ok((ppn, cpu)) => {
                            fault_cpu += cpu;
                            ppn
                        }
                        Err(e) => return Err(e),
                    }
                }
            };
            self.gfam.write_page(ppn, in_page, &data[off..off + n]);
            off += n;
        }
        if !fault_cpu.is_zero() {
            simcore::sleep(fault_cpu).await;
        }
        // The stores themselves stream over the CXL link.
        self.gfam.access(data.len() as u64).await;
        Ok(())
    }

    /// Resolve a store fault on `vpn` (fault lock held). Returns the target
    /// PPN and the CPU time to charge.
    async fn handle_store_fault(self: &Rc<Self>, vpn: u64) -> DmResult<(Ppn, Duration)> {
        let pte = self.page_table.borrow().get(&vpn).copied();
        match pte {
            // Resolved by a concurrent fault while we queued on the lock.
            Some(pte) if pte.writable => Ok((pte.ppn, Duration::ZERO)),
            // Unmapped — take an owned free page.
            None => {
                let p = self.take_page().await?;
                self.gfam.zero_page(p);
                self.page_table.borrow_mut().insert(
                    vpn,
                    Pte {
                        ppn: p,
                        writable: true,
                    },
                );
                self.stats.faults.incr();
                Ok((p, self.config.fault_cpu + self.config.pte_cpu))
            }
            // Read-only page.
            Some(pte) => {
                self.stats.faults.incr();
                let cpu = self.config.fault_cpu + self.config.pte_cpu;
                if self.gfam.rc_get(pte.ppn) > 1 {
                    // COW: allocate, copy on the device, retarget PTE.
                    let newp = self.take_page().await?;
                    let mut cow =
                        telemetry::leaf_span(SpanKind::Cow, "cxl.cow_copy", self.node_id());
                    if let Some(s) = cow.as_mut() {
                        s.attr("bytes_copied", PAGE_SIZE as u64);
                    }
                    self.gfam.copy_page(pte.ppn, newp);
                    self.gfam.access(2 * PAGE_SIZE as u64).await;
                    drop(cow);
                    self.stats.cow_copies.incr();
                    self.page_table.borrow_mut().insert(
                        vpn,
                        Pte {
                            ppn: newp,
                            writable: true,
                        },
                    );
                    if self.gfam.rc_dec(pte.ppn) == 0 {
                        self.give_back_page(pte.ppn);
                    }
                    Ok((newp, cpu))
                } else {
                    // Sole owner: flip the permission flag.
                    self.page_table.borrow_mut().insert(
                        vpn,
                        Pte {
                            ppn: pte.ppn,
                            writable: true,
                        },
                    );
                    Ok((pte.ppn, cpu))
                }
            }
        }
    }

    /// `load`: read `len` bytes at `va` through plain CXL loads (paper
    /// §V-B3: "completely the same as regular memory"). Unmapped pages read
    /// as zeros.
    pub async fn load(self: &Rc<Self>, va: u64, len: u64) -> DmResult<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        self.check_bounds(va, len)?;
        let mut out = vec![0u8; len as usize];
        let mut off = 0usize;
        while off < len as usize {
            let cur = va + off as u64;
            let vpn = cur / PAGE_SIZE as u64;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(len as usize - off);
            if let Some(pte) = self.page_table.borrow().get(&vpn) {
                self.gfam
                    .read_page(pte.ppn, in_page, &mut out[off..off + n]);
            }
            off += n;
        }
        self.gfam.access(len).await;
        Ok(Bytes::from(out))
    }

    /// `create_ref` (paper §V-B3): atomically bump each page's refcount and
    /// mark the creator's PTEs read-only; the Ref carries the physical page
    /// numbers. In the `-copy` ablation the region is copied instead.
    pub async fn create_ref(self: &Rc<Self>, va: u64, len: u64) -> DmResult<Ref> {
        if len == 0 || !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(DmError::InvalidAddress);
        }
        self.check_bounds(va, len)?;
        let mut op = telemetry::span(SpanKind::DmOp, "cxl.create_ref", self.node_id());
        if let Some(s) = op.as_mut() {
            s.attr("len", len);
        }
        let n_pages = len.div_ceil(PAGE_SIZE as u64);
        let mut pages = Vec::with_capacity(n_pages as usize);
        for i in 0..n_pages {
            let vpn = va / PAGE_SIZE as u64 + i;
            let pte = self.page_table.borrow().get(&vpn).copied();
            let ppn = match pte {
                Some(pte) => pte.ppn,
                None => {
                    // Virgin page inside the ref'd region: materialize it.
                    let p = self.take_page().await?;
                    self.gfam.zero_page(p);
                    self.page_table.borrow_mut().insert(
                        vpn,
                        Pte {
                            ppn: p,
                            writable: true,
                        },
                    );
                    self.stats.faults.incr();
                    p
                }
            };
            pages.push((vpn, ppn));
        }
        let shared: Vec<Ppn> = match self.config.copy_mode {
            CopyMode::CopyOnWrite => {
                let mut out = Vec::with_capacity(pages.len());
                for &(vpn, ppn) in &pages {
                    self.gfam.rc_inc(ppn);
                    // Mark read-only so the next creator write COWs.
                    self.page_table.borrow_mut().insert(
                        vpn,
                        Pte {
                            ppn,
                            writable: false,
                        },
                    );
                    out.push(ppn);
                }
                simcore::sleep(self.config.pte_cpu * pages.len() as u32).await;
                self.charge_atomics(pages.len()).await;
                out
            }
            CopyMode::Eager => {
                let mut out = Vec::with_capacity(pages.len());
                let mut cow = telemetry::leaf_span(SpanKind::Cow, "cxl.eager_copy", self.node_id());
                if let Some(s) = cow.as_mut() {
                    s.attr("bytes_copied", pages.len() as u64 * PAGE_SIZE as u64);
                }
                for &(_vpn, ppn) in &pages {
                    let newp = self.take_page().await?;
                    self.gfam.copy_page(ppn, newp);
                    self.gfam.access(2 * PAGE_SIZE as u64).await;
                    out.push(newp);
                }
                drop(cow);
                out
            }
        };
        Ok(Ref::Cxl { len, pages: shared })
    }

    /// `map_ref` (paper §V-B3): allocate a CXL virtual range and install
    /// read-only PTEs onto the shared physical pages.
    pub async fn map_ref(self: &Rc<Self>, r: &Ref) -> DmResult<u64> {
        let Ref::Cxl { len, pages } = r else {
            return Err(DmError::InvalidRef);
        };
        let _op = telemetry::span(SpanKind::DmOp, "cxl.map_ref", self.node_id());
        let va = self.vma.borrow_mut().alloc(*len, PAGE_SIZE as u64)?;
        for (i, &ppn) in pages.iter().enumerate() {
            self.gfam.rc_inc(ppn);
            self.page_table.borrow_mut().insert(
                va / PAGE_SIZE as u64 + i as u64,
                Pte {
                    ppn,
                    writable: false,
                },
            );
        }
        simcore::sleep(self.config.pte_cpu * pages.len() as u32).await;
        self.charge_atomics(pages.len()).await;
        Ok(va)
    }

    /// Release a reference's pin on its pages (API extension; DESIGN.md §6).
    pub async fn release_ref(self: &Rc<Self>, r: &Ref) -> DmResult<()> {
        let Ref::Cxl { pages, .. } = r else {
            return Err(DmError::InvalidRef);
        };
        let _op = telemetry::span(SpanKind::DmOp, "cxl.release_ref", self.node_id());
        for &ppn in pages {
            if self.gfam.rc_dec(ppn) == 0 {
                self.give_back_page(ppn);
            }
        }
        self.charge_atomics(pages.len()).await;
        Ok(())
    }
}
