//! The Page manager (paper §V-A1).
//!
//! Owns the pinned memory of one DM server:
//!
//! * a fixed pool of pinned pages managed in a **FIFO** free list;
//! * a 4-byte **reference count** per page ("stored linearly in the
//!   memory");
//! * per-process **VA allocation trees** ([`crate::va_tree::VaTree`]);
//! * the **`Ref` map** from `create_ref` keys to the pinned pages they
//!   share;
//! * the **hash-table translation** ([`crate::translator::Translator`]).
//!
//! Every operation is a pure in-memory state transition on real bytes; each
//! returns an [`OpCost`] describing the work done (pages faulted, bytes
//! copied, translation lookups) so the server layer can charge virtual time
//! and memory bandwidth for it.
//!
//! What the model charges and what the host does are kept apart. A page
//! published by `PUT_REF` is a *view* into the buffer the request arrived
//! in ([`PageManager::put_ref_bytes`]): no allocation and no copy on the
//! host, while [`OpCost`] still reports every page faulted. The view
//! becomes a private 4 KiB buffer only when somebody writes the page, and
//! since `Bytes` are immutable nobody can tell the difference (DESIGN.md
//! §6.1). A read goes the same way back: a range that is one run of one
//! buffer — every never-written ref is — is answered with a view of that
//! buffer, and only a range that crosses buffers, unmapped pages or a short
//! page is gathered into a new one. A view handed out keeps what it shows:
//! a later write finds the buffer shared and moves the page first.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

use bytes::{Bytes, SharedBuf};
use dmcommon::{CopyMode, DmError, DmResult, GlobalPid, PAGE_SIZE};
use simcore::FastMap;

use crate::proto::{Reader, Writer};
use crate::shard::GKEY_BIT;
use crate::translator::{PageIdx, Translator};
use crate::va_tree::VaTree;

/// Work performed by one Page-manager operation, for cost charging.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct OpCost {
    /// Bytes physically copied (COW page copies, eager-copy page copies).
    pub bytes_copied: u64,
    /// Pages newly taken from the free FIFO.
    pub pages_faulted: u64,
    /// Pages whose refcount was touched.
    pub refcount_updates: u64,
}

impl OpCost {
    /// Accumulate another operation's cost (used by composite operations
    /// and the bench harnesses when aggregating per-request work).
    pub fn add(&mut self, other: OpCost) {
        self.bytes_copied += other.bytes_copied;
        self.pages_faulted += other.pages_faulted;
        self.refcount_updates += other.refcount_updates;
    }
}

struct RefEntry {
    pages: Vec<PageIdx>,
    len: u64,
    /// PID that created the ref, for lease-based reclamation: when the
    /// owning process's lease expires its unconsumed refs are released.
    /// `None` for refs with no attributable owner.
    owner: Option<u32>,
}

/// The bytes of one pinned page: a view of at most [`PAGE_SIZE`] bytes into
/// a shared buffer, reading as zeros past its stored length. A page somebody
/// wrote is a whole-page view of a buffer nobody else holds; a published
/// page is a slice of the message it arrived in, and its tail page is short.
struct Page {
    buf: SharedBuf,
    /// `offset << 16 | len`: where in `buf` the view starts and how many
    /// bytes it stores.
    span: u64,
}

// The pool builds one slot per page up front (65 536 × 2 servers by
// default), so a slot wider than two words is resident memory on every
// workload: `share_cow` reads ~8 MiB at 16 bytes and 11 MiB at 40.
const _: () = assert!(std::mem::size_of::<Option<Page>>() == 16);

impl Page {
    fn view(buf: SharedBuf, off: usize, len: usize) -> Page {
        debug_assert!(len <= PAGE_SIZE && (off as u64) < 1 << 48);
        Page {
            buf,
            span: (off as u64) << 16 | len as u64,
        }
    }

    /// A private whole page holding `stored`, then zeros.
    fn private(stored: &[u8]) -> Page {
        let mut page = Vec::with_capacity(PAGE_SIZE);
        page.extend_from_slice(stored);
        page.resize(PAGE_SIZE, 0);
        Page::view(page.into(), 0, PAGE_SIZE)
    }

    /// Where in `buf` the stored bytes lie.
    fn range(&self) -> Range<usize> {
        let off = (self.span >> 16) as usize;
        off..off + (self.span & 0xFFFF) as usize
    }

    /// The stored bytes; the rest of the page reads as zeros.
    fn stored(&self) -> &[u8] {
        &self.buf.as_slice()[self.range()]
    }

    /// The whole page, writable in place. A view that is short, or whose
    /// buffer something else still holds, moves to a private page first.
    fn make_mut(&mut self) -> &mut [u8] {
        if self.range().len() != PAGE_SIZE || self.buf.get_mut().is_none() {
            *self = Page::private(self.stored());
        }
        let whole = self.range();
        &mut self.buf.get_mut().expect("sole handle")[whole]
    }
}

/// The state of one DM server's Page manager.
pub struct PageManager {
    /// Pinned pages: `Some` exactly while the page's refcount is non-zero,
    /// so huge pools do not consume host RAM up front (the paper pins
    /// eagerly; the distinction is invisible to the model).
    pages: Vec<Option<Page>>,
    refcounts: Vec<u32>,
    free: VecDeque<PageIdx>,
    translator: Translator,
    processes: HashMap<u32, VaTree>,
    next_pid: u32,
    refs: FastMap<u64, RefEntry>,
    next_key: u64,
    copy_mode: CopyMode,
    /// Bytes reads returned as a view of a page buffer, and bytes they had
    /// to gather into a new one (volatile, like the translator's counters).
    read_viewed: Cell<u64>,
    read_gathered: Cell<u64>,
}

impl PageManager {
    /// Create a Page manager with `capacity_pages` pinned pages.
    pub fn new(capacity_pages: usize, copy_mode: CopyMode) -> PageManager {
        PageManager {
            pages: (0..capacity_pages).map(|_| None).collect(),
            refcounts: vec![0; capacity_pages],
            free: (0..capacity_pages as u32).collect(),
            translator: Translator::new(),
            processes: HashMap::new(),
            next_pid: 1,
            refs: FastMap::default(),
            next_key: 1,
            copy_mode,
            read_viewed: Cell::new(0),
            read_gathered: Cell::new(0),
        }
    }

    /// Bytes served by reads so far: `(viewed, gathered)` — returned as a
    /// view of the buffer the pages already lie in, or copied out of them.
    pub fn read_bytes(&self) -> (u64, u64) {
        (self.read_viewed.get(), self.read_gathered.get())
    }

    /// Free pages remaining.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Total pinned pages.
    pub fn capacity_pages(&self) -> usize {
        self.pages.len()
    }

    /// The translator (for overhead statistics).
    pub fn translator(&self) -> &Translator {
        &self.translator
    }

    /// Register a new process, assigning its global PID (paper §V-A: "the
    /// global PID is assigned by our software running on DM servers").
    pub fn register_process(&mut self) -> GlobalPid {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes.insert(pid, VaTree::new());
        GlobalPid(pid)
    }

    fn tree(&mut self, pid: GlobalPid) -> DmResult<&mut VaTree> {
        self.processes
            .get_mut(&pid.0)
            .ok_or(DmError::InvalidAddress)
    }

    /// Allocate `len` bytes of DM virtual address space. Pages are mapped
    /// lazily on first write (paper §V-A1 `ralloc`), so regions may
    /// over-commit what is free — but a single region larger than the
    /// whole pool could never be backed and is `OutOfMemory` (Linux's
    /// heuristic overcommit refuses the same request). With it, no region,
    /// and so no per-page loop over one, is longer than the pool.
    pub fn ralloc(&mut self, pid: GlobalPid, len: u64) -> DmResult<u64> {
        let pool_pages = self.pages.len() as u64;
        let tree = self.tree(pid)?;
        if len.div_ceil(PAGE_SIZE as u64) > pool_pages {
            return Err(DmError::OutOfMemory);
        }
        tree.alloc(len, PAGE_SIZE as u64)
    }

    /// Release a region: clear translations, unref pages, free the VA range
    /// (paper §V-A1 `rfree`).
    pub fn rfree(&mut self, pid: GlobalPid, va: u64) -> DmResult<OpCost> {
        let (start, len) = self.tree(pid)?.lookup(va)?;
        if start != va {
            return Err(DmError::InvalidAddress);
        }
        let mut cost = OpCost::default();
        for vpn in (start / PAGE_SIZE as u64)..((start + len) / PAGE_SIZE as u64) {
            if let Some(p) = self.translator.remove(pid, vpn) {
                self.unref(p);
                cost.refcount_updates += 1;
            }
        }
        self.tree(pid)?.free(start)?;
        Ok(cost)
    }

    fn unref(&mut self, p: PageIdx) {
        let rc = &mut self.refcounts[p as usize];
        debug_assert!(*rc > 0, "unref of free page");
        *rc -= 1;
        if *rc == 0 {
            self.free.push_back(p);
            // De-materialize: FIFO rotation would otherwise touch every
            // slot of a large pool and pin host RAM for the whole capacity.
            self.pages[p as usize] = None;
        }
    }

    /// Pop the next free page and give it `page`'s bytes, at refcount 1.
    fn take_free_page(&mut self, page: Page) -> DmResult<PageIdx> {
        let p = self.free.pop_front().ok_or(DmError::OutOfMemory)?;
        debug_assert_eq!(self.refcounts[p as usize], 0);
        self.refcounts[p as usize] = 1;
        self.pages[p as usize] = Some(page);
        Ok(p)
    }

    fn stored(&self, p: PageIdx) -> &[u8] {
        self.pages[p as usize]
            .as_ref()
            .expect("page materialized")
            .stored()
    }

    /// Fault-in a zeroed page for `(pid, vpn)`.
    fn fault_in(&mut self, pid: GlobalPid, vpn: u64, cost: &mut OpCost) -> DmResult<PageIdx> {
        let p = self.take_free_page(Page::private(&[]))?;
        self.translator.insert(pid, vpn, p);
        cost.pages_faulted += 1;
        Ok(p)
    }

    /// Write `data` at `(pid, va)`, faulting pages in and performing
    /// copy-on-write on shared pages (paper §V-A2 "How to serve a write
    /// request").
    pub fn write(&mut self, pid: GlobalPid, va: u64, data: &[u8]) -> DmResult<OpCost> {
        if data.is_empty() {
            return Ok(OpCost::default());
        }
        self.tree(pid)?.check_range(va, data.len() as u64)?;
        let mut cost = OpCost::default();
        let mut off = 0usize;
        while off < data.len() {
            let cur = va + off as u64;
            let vpn = cur / PAGE_SIZE as u64;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let p = match self.translator.lookup(pid, vpn) {
                None => self.fault_in(pid, vpn, &mut cost)?,
                Some(p) if self.refcounts[p as usize] > 1 => {
                    // Copy-on-write: pop a new page, copy the old content,
                    // retarget the translation, unref the old page.
                    let newp = self.take_free_page(Page::private(self.stored(p)))?;
                    cost.bytes_copied += PAGE_SIZE as u64;
                    cost.pages_faulted += 1;
                    self.translator.insert(pid, vpn, newp);
                    self.unref(p);
                    cost.refcount_updates += 1;
                    newp
                }
                Some(p) => p,
            };
            let page = self.pages[p as usize].as_mut().expect("page materialized");
            page.make_mut()[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
        Ok(cost)
    }

    /// Read `len` bytes at `(pid, va)`. Unmapped pages read as zeros
    /// (anonymous-memory semantics). Reads never check refcounts (paper
    /// §V-A2 "How to serve a read request").
    pub fn read(&mut self, pid: GlobalPid, va: u64, len: u64) -> DmResult<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        self.tree(pid)?.check_range(va, len)?;
        // One translation per page, whichever way the bytes come out.
        let first = va / PAGE_SIZE as u64;
        let mapped: Vec<Option<PageIdx>> = (first..=(va + len - 1) / PAGE_SIZE as u64)
            .map(|vpn| self.translator.lookup(pid, vpn))
            .collect();
        Ok(self.read_pages(va, len, |vpn| mapped[(vpn - first) as usize]))
    }
    /// Create a shareable reference over `[va, va+len)` (paper §V-A1
    /// `create_ref`). In COW mode this bumps each page's refcount; in the
    /// `-copy` ablation it copies the whole region into fresh pages.
    ///
    /// Returns `(key, cost)`.
    pub fn create_ref(&mut self, pid: GlobalPid, va: u64, len: u64) -> DmResult<(u64, OpCost)> {
        if len == 0 || !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(DmError::InvalidAddress);
        }
        self.tree(pid)?.check_range(va, len)?;
        let mut cost = OpCost::default();
        let first_vpn = va / PAGE_SIZE as u64;
        let mapped: Vec<Option<PageIdx>> = (first_vpn..first_vpn + len.div_ceil(PAGE_SIZE as u64))
            .map(|vpn| self.translator.lookup(pid, vpn))
            .collect();
        // All or nothing: running out of pages half-way would strand the
        // ones already taken (an eager copy belongs to no ref until the
        // last one succeeds).
        let virgin = mapped.iter().filter(|p| p.is_none()).count();
        let copies = match self.copy_mode {
            CopyMode::CopyOnWrite => 0,
            CopyMode::Eager => mapped.len(),
        };
        if self.free.len() < virgin + copies {
            return Err(DmError::OutOfMemory);
        }
        let mut pages = Vec::with_capacity(mapped.len());
        for (vpn, p) in (first_vpn..).zip(mapped) {
            // A ref must point at concrete pages; fault in still-virgin ones.
            pages.push(match p {
                Some(p) => p,
                None => self.fault_in(pid, vpn, &mut cost)?,
            });
        }
        let shared = match self.copy_mode {
            CopyMode::CopyOnWrite => {
                for &p in &pages {
                    self.refcounts[p as usize] += 1;
                    cost.refcount_updates += 1;
                }
                pages
            }
            CopyMode::Eager => {
                let mut copies = Vec::with_capacity(pages.len());
                for &p in &pages {
                    let newp = self.take_free_page(Page::private(self.stored(p)))?;
                    cost.bytes_copied += PAGE_SIZE as u64;
                    cost.pages_faulted += 1;
                    copies.push(newp);
                }
                copies
            }
        };
        let key = self.mint_key();
        self.refs.insert(
            key,
            RefEntry {
                pages: shared,
                len,
                owner: Some(pid.0),
            },
        );
        Ok((key, cost))
    }

    /// The next ref key. Keys are a counter from 1 and never reach bit 63,
    /// which is what leaves [`GKEY_BIT`] to client-minted global keys.
    fn mint_key(&mut self) -> u64 {
        let key = self.next_key;
        assert!(key & GKEY_BIT == 0, "local ref keys exhausted");
        self.next_key += 1;
        key
    }

    /// Map a reference into `pid`'s address space (paper §V-A1 `map_ref`).
    /// Returns `(va, len, cost)`.
    pub fn map_ref(&mut self, pid: GlobalPid, key: u64) -> DmResult<(u64, u64, OpCost)> {
        let (pages, len) = {
            let e = self.refs.get(&key).ok_or(DmError::InvalidRef)?;
            (e.pages.clone(), e.len)
        };
        let va = self.tree(pid)?.alloc(len, PAGE_SIZE as u64)?;
        let mut cost = OpCost::default();
        for (i, &p) in pages.iter().enumerate() {
            self.translator
                .insert(pid, va / PAGE_SIZE as u64 + i as u64, p);
            self.refcounts[p as usize] += 1;
            cost.refcount_updates += 1;
        }
        Ok((va, len, cost))
    }

    /// Drop a reference, unpinning its pages (extension to the paper's API:
    /// the `Ref` itself holds one refcount per page, which must eventually
    /// be released — see DESIGN.md §6).
    pub fn release_ref(&mut self, key: u64) -> DmResult<OpCost> {
        let e = self.refs.remove(&key).ok_or(DmError::InvalidRef)?;
        let mut cost = OpCost::default();
        for p in e.pages {
            self.unref(p);
            cost.refcount_updates += 1;
        }
        Ok(cost)
    }

    /// One-shot publish: `data` becomes fresh pages owned directly by a new
    /// reference (no creator VA mapping at all — the `PUT_REF` fast path).
    /// `owner` attributes the ref for lease-based reclamation. Returns
    /// `(key, cost)`. Copies `data` once; [`Self::put_ref_bytes`] does the
    /// work.
    pub fn put_ref(&mut self, data: &[u8], owner: Option<GlobalPid>) -> DmResult<(u64, OpCost)> {
        self.put_ref_bytes(Bytes::copy_from_slice(data), owner)
    }

    /// [`Self::put_ref`] without the copy: each page is a view of at most a
    /// page into `data`'s storage, which stays alive while any of them
    /// does. All or nothing — a publish that does not fit takes no page.
    pub fn put_ref_bytes(
        &mut self,
        data: Bytes,
        owner: Option<GlobalPid>,
    ) -> DmResult<(u64, OpCost)> {
        if data.is_empty() {
            return Err(DmError::InvalidAddress);
        }
        let len = data.len();
        let n_pages = len.div_ceil(PAGE_SIZE);
        if self.free.len() < n_pages {
            return Err(DmError::OutOfMemory);
        }
        let (buf, base) = data.into_shared();
        let mut pages = Vec::with_capacity(n_pages);
        for lo in (0..len).step_by(PAGE_SIZE) {
            let view = Page::view(buf.clone(), base + lo, PAGE_SIZE.min(len - lo));
            pages.push(self.take_free_page(view)?);
        }
        let cost = OpCost {
            pages_faulted: n_pages as u64,
            ..OpCost::default()
        };
        let key = self.mint_key();
        self.refs.insert(
            key,
            RefEntry {
                pages,
                len: len as u64,
                owner: owner.map(|p| p.0),
            },
        );
        Ok((key, cost))
    }

    /// Read `len` bytes at `off` within a reference's pages, without
    /// installing a mapping (the `READ_REF` fast path).
    pub fn read_ref(&self, key: u64, off: u64, len: u64) -> DmResult<Bytes> {
        let e = self.refs.get(&key).ok_or(DmError::InvalidRef)?;
        if off.checked_add(len).is_none_or(|end| end > e.len) {
            return Err(DmError::OutOfBounds);
        }
        Ok(self.read_pages(off, len, |i| Some(e.pages[i as usize])))
    }

    /// The `len` bytes at byte offset `start` of a page sequence whose
    /// `n`-th page is `page_at(n)`: a view when they lie in one buffer as
    /// they are ([`run_of_one_buffer`]), a gathered copy otherwise. The one
    /// body behind every read.
    fn read_pages(&self, start: u64, len: u64, page_at: impl Fn(u64) -> Option<PageIdx>) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        if let Some(view) = run_of_one_buffer(&self.pages, start, len, &page_at) {
            self.read_viewed.set(self.read_viewed.get() + len);
            return view;
        }
        self.read_gathered.set(self.read_gathered.get() + len);
        let mut out = Vec::with_capacity(len as usize);
        gather(&self.pages, start, len, page_at, &mut out);
        Bytes::from(out)
    }

    /// Reclaim everything a (crashed) process pinned: every translation of
    /// `pid` is removed and its page unreferenced, every ref the process
    /// created and never handed off is released, and the VA tree is
    /// discarded. This is the lease-expiry path — the server calls it when
    /// a client stops renewing — and it must restore refcount conservation
    /// exactly as if the process had politely `rfree`d and `release_ref`d
    /// everything.
    pub fn release_process(&mut self, pid: GlobalPid) -> DmResult<OpCost> {
        if self.processes.remove(&pid.0).is_none() {
            return Err(DmError::InvalidAddress);
        }
        let mut cost = OpCost::default();
        // Drop the process's mappings (the fallback when the VaTree is gone:
        // enumerate the translation table rather than walking regions).
        // Sorted: pages drain into the free FIFO in an order determined by
        // logical state alone, so WAL replay of a `ReleaseProcess` record
        // reproduces the live FIFO exactly (hash-map iteration order is
        // per-instance and would diverge between live and recovered PMs).
        let mut vpns: Vec<u64> = self
            .translator
            .iter()
            .filter(|&((p, _), _)| p == pid.0)
            .map(|((_, vpn), _)| vpn)
            .collect();
        vpns.sort_unstable();
        for vpn in vpns {
            if let Some(p) = self.translator.remove(pid, vpn) {
                self.unref(p);
                cost.refcount_updates += 1;
            }
        }
        // Release refs it created that nobody consumed yet (sorted for the
        // same replay-determinism reason as the mappings above).
        for key in self.keys_owned_by(pid) {
            cost.add(self.release_ref(key)?);
        }
        Ok(cost)
    }

    /// Length of the region a ref covers.
    pub fn ref_len(&self, key: u64) -> DmResult<u64> {
        self.refs
            .get(&key)
            .map(|e| e.len)
            .ok_or(DmError::InvalidRef)
    }

    /// PID a ref is attributed to for lease reclamation (`None` for
    /// unowned refs). Migration forwards the attribution to the target
    /// server.
    pub fn ref_owner(&self, key: u64) -> DmResult<Option<GlobalPid>> {
        self.refs
            .get(&key)
            .map(|e| e.owner.map(GlobalPid))
            .ok_or(DmError::InvalidRef)
    }

    /// Keys of every live ref attributed to `pid`, sorted (the coherence
    /// plane enumerates a dying process's refs for targeted invalidation
    /// and needs a deterministic order).
    pub fn keys_owned_by(&self, pid: GlobalPid) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .refs
            .iter()
            .filter(|&(_, e)| e.owner == Some(pid.0))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Verify internal invariants; panics with a description on violation.
    /// Used by unit and property tests.
    pub fn check_invariants(&self) {
        let cap = self.pages.len();
        // 1. Free pages have rc == 0 and appear exactly once in the FIFO.
        let mut seen = vec![false; cap];
        for &p in &self.free {
            assert!(!seen[p as usize], "page {p} twice in free FIFO");
            seen[p as usize] = true;
            assert_eq!(self.refcounts[p as usize], 0, "free page {p} has rc != 0");
        }
        // 2. Non-free pages have rc > 0, and exactly they hold bytes.
        for (p, &rc) in self.refcounts.iter().enumerate() {
            if !seen[p] {
                assert!(rc > 0, "lost page {p}: rc == 0 but not in free FIFO");
            }
            assert_eq!(
                self.pages[p].is_some(),
                rc > 0,
                "page {p}: bytes vs rc {rc}"
            );
        }
        // 3. Refcount conservation: rc(p) == #translations(p) + #refs(p).
        let mut expected = vec![0u32; cap];
        for (_, p) in self.translator.iter() {
            expected[p as usize] += 1;
        }
        for e in self.refs.values() {
            for &p in &e.pages {
                expected[p as usize] += 1;
            }
        }
        for (p, (&rc, &exp)) in self.refcounts.iter().zip(&expected).enumerate() {
            assert_eq!(rc, exp, "page {p}: rc {rc} != mappings+refs {exp}");
        }
    }

    /// Append a canonical snapshot of the full state to `w` (the durable
    /// tier's checkpoint payload, DESIGN.md §12). Canonical means two
    /// managers with equal logical state produce identical bytes: hash-map
    /// backed collections are emitted in sorted order, while the free FIFO
    /// is emitted in queue order because its order *is* logical state
    /// (future allocations pop from the front). The translator's
    /// lookup/miss statistics are volatile and excluded.
    pub fn snapshot_into(&self, w: Writer) -> Writer {
        let mut w = w
            .u32(self.pages.len() as u32)
            .u8(match self.copy_mode {
                CopyMode::CopyOnWrite => 0,
                CopyMode::Eager => 1,
            })
            .u32(self.next_pid)
            .u64(self.next_key)
            .u32(self.free.len() as u32);
        for &p in &self.free {
            w = w.u32(p);
        }
        let used = || (0..self.pages.len() as u32).filter(|&p| self.refcounts[p as usize] > 0);
        w = w.u32(used().count() as u32);
        for p in used() {
            // Whole pages whatever the storage: equal logical state, equal
            // bytes, so a manager rebuilt by replay digests the same.
            let mut buf = w.u32(p).u32(self.refcounts[p as usize]).into_vec();
            let end = buf.len() + PAGE_SIZE;
            buf.extend_from_slice(self.stored(p));
            buf.resize(end, 0);
            w = Writer::from(buf);
        }
        let mut pids: Vec<u32> = self.processes.keys().copied().collect();
        pids.sort_unstable();
        w = w.u32(pids.len() as u32);
        for pid in pids {
            let tree = &self.processes[&pid];
            w = w.u32(pid).u32(tree.len() as u32);
            for (start, len) in tree.iter() {
                w = w.u64(start).u64(len);
            }
        }
        let mut xlations: Vec<((u32, u64), PageIdx)> = self.translator.iter().collect();
        xlations.sort_unstable_by_key(|&(k, _)| k);
        w = w.u32(xlations.len() as u32);
        for ((pid, vpn), p) in xlations {
            w = w.u32(pid).u64(vpn).u32(p);
        }
        let mut keys: Vec<u64> = self.refs.keys().copied().collect();
        keys.sort_unstable();
        w = w.u32(keys.len() as u32);
        for key in keys {
            let e = &self.refs[&key];
            w = w
                .u64(key)
                .u64(e.len)
                .u8(e.owner.is_some() as u8)
                .u32(e.owner.unwrap_or(0))
                .u32(e.pages.len() as u32);
            for &p in &e.pages {
                w = w.u32(p);
            }
        }
        w
    }

    /// Canonical snapshot as a fresh buffer (see [`Self::snapshot_into`]).
    pub fn snapshot(&self) -> Vec<u8> {
        self.snapshot_into(Writer::new()).into_vec()
    }

    /// Rebuild a manager from a snapshot produced by
    /// [`Self::snapshot_into`], leaving `r` behind the consumed bytes.
    /// `Malformed` on any malformed input.
    pub fn restore_from(r: &mut Reader<'_>) -> DmResult<PageManager> {
        let capacity = r.u32()? as usize;
        let copy_mode = match r.u8()? {
            0 => CopyMode::CopyOnWrite,
            1 => CopyMode::Eager,
            _ => return Err(DmError::Malformed),
        };
        let page_idx = |r: &mut Reader<'_>| match r.u32()? {
            p if (p as usize) < capacity => Ok(p),
            _ => Err(DmError::Malformed),
        };
        let mut pm = PageManager::new(capacity, copy_mode);
        pm.next_pid = r.u32()?;
        pm.next_key = r.u64()?;
        pm.free.clear();
        for _ in 0..r.u32()? {
            pm.free.push_back(page_idx(r)?);
        }
        for _ in 0..r.u32()? {
            let p = page_idx(r)? as usize;
            pm.refcounts[p] = r.u32()?;
            pm.pages[p] = Some(Page::private(&r.take(PAGE_SIZE)?));
        }
        for _ in 0..r.u32()? {
            let pid = r.u32()?;
            let mut tree = VaTree::new();
            for _ in 0..r.u32()? {
                tree.restore_range(r.u64()?, r.u64()?);
            }
            pm.processes.insert(pid, tree);
        }
        for _ in 0..r.u32()? {
            let (pid, vpn) = (r.u32()?, r.u64()?);
            pm.translator.insert(GlobalPid(pid), vpn, page_idx(r)?);
        }
        for _ in 0..r.u32()? {
            let (key, len) = (r.u64()?, r.u64()?);
            let has_owner = r.u8()? != 0;
            let owner = r.u32()?;
            let pages = (0..r.u32()?)
                .map(|_| page_idx(r))
                .collect::<DmResult<_>>()?;
            pm.refs.insert(
                key,
                RefEntry {
                    pages,
                    len,
                    owner: has_owner.then_some(owner),
                },
            );
        }
        Ok(pm)
    }

    /// FNV-1a digest of the canonical snapshot — equal digests mean equal
    /// logical state (recovery oracles compare recovered vs shadow).
    pub fn state_digest(&self) -> u64 {
        crate::wal::fnv1a(&self.snapshot())
    }
}

/// The `len > 0` bytes at byte offset `start` of a page sequence as one view
/// of the buffer they already lie in: every page of the range is a view of
/// the same buffer, each a page further on than the one before, and stores
/// every byte the range wants from it. `None` when a page is unmapped, was
/// written (its buffer is its own), came from another message, or is a short
/// tail the range reads past.
fn run_of_one_buffer(
    pages: &[Option<Page>],
    start: u64,
    len: u64,
    page_at: impl Fn(u64) -> Option<PageIdx>,
) -> Option<Bytes> {
    const PS: u64 = PAGE_SIZE as u64;
    let page = |n: u64| pages[page_at(n)? as usize].as_ref();
    let (first, end) = (start / PS, start + len);
    let head = page(first)?;
    let base = head.range().start;
    for n in first..=(end - 1) / PS {
        let p = page(n)?;
        let stored = p.range();
        let wanted = (end - n * PS).min(PS) as usize;
        let in_place = stored.start == base + ((n - first) * PS) as usize;
        if !in_place || stored.len() < wanted || !p.buf.ptr_eq(&head.buf) {
            return None;
        }
    }
    let lo = base + (start % PS) as usize;
    Some(head.buf.slice(lo..lo + len as usize))
}

/// Append the `len` bytes at byte offset `start` of a page sequence to `out`:
/// `page_at(n)` is the sequence's `n`-th page, an unmapped page reads as
/// zeros and so does a page past its stored length. The one copy loop behind
/// every read that cannot be a view.
fn gather(
    pages: &[Option<Page>],
    start: u64,
    len: u64,
    page_at: impl Fn(u64) -> Option<PageIdx>,
    out: &mut Vec<u8>,
) {
    let (mut cur, end) = (start, start + len);
    while cur < end {
        let in_page = (cur % PAGE_SIZE as u64) as usize;
        let n = (PAGE_SIZE - in_page).min((end - cur) as usize);
        let stored = page_at(cur / PAGE_SIZE as u64).map_or(&[][..], |p| {
            pages[p as usize]
                .as_ref()
                .expect("page materialized")
                .stored()
        });
        let have = stored.get(in_page..).unwrap_or(&[]);
        let have = &have[..n.min(have.len())];
        out.extend_from_slice(have);
        out.resize(out.len() + n - have.len(), 0);
        cur += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: u64 = PAGE_SIZE as u64;

    fn pm() -> (PageManager, GlobalPid) {
        let mut pm = PageManager::new(64, CopyMode::CopyOnWrite);
        let pid = pm.register_process();
        (pm, pid)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        let data: Vec<u8> = (0..3 * PS).map(|i| (i % 255) as u8).collect();
        pm.write(pid, va, &data).unwrap();
        assert_eq!(pm.read(pid, va, 3 * PS).unwrap(), data);
        // Sub-range, unaligned.
        assert_eq!(pm.read(pid, va + 100, 50).unwrap(), &data[100..150]);
        pm.check_invariants();
    }

    #[test]
    fn lazy_mapping_on_first_write() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        let va = pm.ralloc(pid, 4 * PS).unwrap();
        assert_eq!(pm.free_pages(), free0, "ralloc maps nothing");
        // Reading an unmapped region returns zeros without faulting.
        assert_eq!(pm.read(pid, va, 10).unwrap(), vec![0; 10]);
        assert_eq!(pm.free_pages(), free0);
        // First write faults exactly the touched pages.
        let cost = pm.write(pid, va + PS, &[1, 2, 3]).unwrap();
        assert_eq!(cost.pages_faulted, 1);
        assert_eq!(pm.free_pages(), free0 - 1);
        pm.check_invariants();
    }

    #[test]
    fn rfree_returns_pages() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        pm.write(pid, va, &vec![9u8; 2 * PAGE_SIZE]).unwrap();
        assert_eq!(pm.free_pages(), free0 - 2);
        pm.rfree(pid, va).unwrap();
        assert_eq!(pm.free_pages(), free0);
        assert!(pm.read(pid, va, 1).is_err(), "region gone");
        pm.check_invariants();
    }

    #[test]
    fn create_ref_shares_pages_cow_on_writer() {
        let (mut pm, pid) = pm();
        let writer = pm.register_process();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        let original: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 13) as u8).collect();
        pm.write(pid, va, &original).unwrap();

        let (key, cost) = pm.create_ref(pid, va, 2 * PS).unwrap();
        assert_eq!(cost.bytes_copied, 0, "COW create_ref copies nothing");

        let (wva, wlen, _) = pm.map_ref(writer, key).unwrap();
        assert_eq!(wlen, 2 * PS);
        // Reader sees the creator's bytes without any copy.
        assert_eq!(pm.read(writer, wva, 2 * PS).unwrap(), original);

        // Writer writes one byte into page 0: COW copies exactly one page.
        let wcost = pm.write(writer, wva + 5, &[0xFF]).unwrap();
        assert_eq!(wcost.bytes_copied, PS);
        // Writer sees its own write...
        assert_eq!(pm.read(writer, wva + 5, 1).unwrap(), vec![0xFF]);
        // ...creator still sees the original (isolation).
        assert_eq!(pm.read(pid, va, 2 * PS).unwrap(), original);
        // Page 1 is still physically shared: another writer write to page 1
        // COWs again, page 0 write by the same writer now does not.
        let wcost2 = pm.write(writer, wva + 6, &[0xEE]).unwrap();
        assert_eq!(wcost2.bytes_copied, 0, "already-private page");
        pm.check_invariants();
    }

    #[test]
    fn creator_write_after_create_ref_is_isolated() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        pm.write(pid, va, b"before").unwrap();
        let (key, _) = pm.create_ref(pid, va, PS).unwrap();
        // Creator's own write must also COW (the ref pinned the old page).
        let cost = pm.write(pid, va, b"after!").unwrap();
        assert_eq!(cost.bytes_copied, PS);
        let reader = pm.register_process();
        let (rva, _, _) = pm.map_ref(reader, key).unwrap();
        assert_eq!(&pm.read(reader, rva, 6).unwrap()[..], b"before");
        assert_eq!(&pm.read(pid, va, 6).unwrap()[..], b"after!");
        pm.check_invariants();
    }

    #[test]
    fn ref_survives_creator_rfree() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        pm.write(pid, va, b"persist").unwrap();
        let (key, _) = pm.create_ref(pid, va, PS).unwrap();
        pm.rfree(pid, va).unwrap();
        let reader = pm.register_process();
        let (rva, _, _) = pm.map_ref(reader, key).unwrap();
        assert_eq!(&pm.read(reader, rva, 7).unwrap()[..], b"persist");
        pm.check_invariants();
    }

    #[test]
    fn release_ref_frees_pages_when_last() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        pm.write(pid, va, &vec![1u8; 2 * PAGE_SIZE]).unwrap();
        let (key, _) = pm.create_ref(pid, va, 2 * PS).unwrap();
        pm.rfree(pid, va).unwrap();
        assert_eq!(pm.free_pages(), free0 - 2, "ref still pins pages");
        pm.release_ref(key).unwrap();
        assert_eq!(pm.free_pages(), free0, "all pages reclaimed");
        assert!(pm.release_ref(key).is_err(), "double release rejected");
        pm.check_invariants();
    }

    #[test]
    fn eager_copy_mode_copies_at_create_ref() {
        let mut pm = PageManager::new(64, CopyMode::Eager);
        let pid = pm.register_process();
        let va = pm.ralloc(pid, 4 * PS).unwrap();
        pm.write(pid, va, &vec![7u8; 4 * PAGE_SIZE]).unwrap();
        let (key, cost) = pm.create_ref(pid, va, 4 * PS).unwrap();
        assert_eq!(
            cost.bytes_copied,
            4 * PS,
            "-copy ablation copies everything"
        );
        // Creator's subsequent writes need no COW: pages are private again.
        let wcost = pm.write(pid, va, &[0u8; 8]).unwrap();
        assert_eq!(wcost.bytes_copied, 0);
        let reader = pm.register_process();
        let (rva, _, _) = pm.map_ref(reader, key).unwrap();
        assert_eq!(pm.read(reader, rva, 8).unwrap(), vec![7u8; 8]);
        pm.check_invariants();
    }

    #[test]
    fn out_of_memory_reported() {
        let mut pm = PageManager::new(2, CopyMode::CopyOnWrite);
        let pid = pm.register_process();
        // VA ok, pages lazy: two regions over-commit the two-page pool.
        let (a, b) = (pm.ralloc(pid, 2 * PS).unwrap(), pm.ralloc(pid, PS).unwrap());
        pm.write(pid, a, &vec![1u8; 2 * PAGE_SIZE]).unwrap();
        assert_eq!(pm.write(pid, b, &[1]).unwrap_err(), DmError::OutOfMemory);
        // One region the whole pool could not back is refused up front.
        assert_eq!(
            pm.ralloc(pid, 2 * PS + 1).unwrap_err(),
            DmError::OutOfMemory
        );
        pm.check_invariants();
    }

    #[test]
    fn publish_that_does_not_fit_takes_no_page() {
        let mut pm = PageManager::new(4, CopyMode::CopyOnWrite);
        let r = pm.put_ref(&[1u8; 6 * PAGE_SIZE], None);
        assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
        assert_eq!(pm.free_pages(), 4, "a refused publish keeps no page");
        pm.check_invariants();
        pm.put_ref(&[1u8; 4 * PAGE_SIZE], None)
            .expect("the pool is whole");
    }

    #[test]
    fn create_ref_that_does_not_fit_takes_no_page() {
        // Eager: three mapped pages need three copies, two pages are free.
        let mut pm = PageManager::new(5, CopyMode::Eager);
        let pid = pm.register_process();
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        pm.write(pid, va, &vec![7u8; 3 * PAGE_SIZE]).unwrap();
        let r = pm.create_ref(pid, va, 3 * PS);
        assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
        assert_eq!(pm.free_pages(), 2, "no copy outlives a refused ref");
        pm.check_invariants();

        // Copy-on-write: two virgin pages to fault in, one page is free.
        let mut pm = PageManager::new(3, CopyMode::CopyOnWrite);
        let pid = pm.register_process();
        let other = pm.ralloc(pid, PS).unwrap();
        pm.write(pid, other, &[7u8]).unwrap();
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        pm.write(pid, va, &[7u8]).unwrap();
        let r = pm.create_ref(pid, va, 3 * PS);
        assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
        assert_eq!(
            pm.free_pages(),
            1,
            "no page is faulted in for a refused ref"
        );
        pm.check_invariants();
    }

    #[test]
    fn bounds_checked() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        assert_eq!(
            pm.write(pid, va + PS - 1, &[1, 2]).unwrap_err(),
            DmError::OutOfBounds
        );
        assert_eq!(pm.read(pid, va, PS + 1).unwrap_err(), DmError::OutOfBounds);
        assert!(pm.read(pid, va + 7, 0).is_ok());
    }

    #[test]
    fn wire_fed_lengths_are_refused_not_wrapped() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        pm.write(pid, va, b"live").unwrap();
        let free = pm.free_pages();
        // `va + len` wraps past zero: out of bounds, not a 2^52-page ref.
        for len in [u64::MAX, u64::MAX - va, u64::MAX - va + 1] {
            let r = pm.create_ref(pid, va, len);
            assert_eq!(r.unwrap_err(), DmError::OutOfBounds, "len {len:#x}");
        }
        // A write whose end wraps, at the highest address that can be live.
        let top = u64::MAX - PS + 1;
        pm.processes
            .get_mut(&pid.0)
            .unwrap()
            .restore_range(top - PS, PS);
        let r = pm.write(pid, top - 1, &[1; PAGE_SIZE + 1]);
        assert_eq!(r.unwrap_err(), DmError::OutOfBounds);
        let r = pm.read(pid, top - 1, PS + 1);
        assert_eq!(r.unwrap_err(), DmError::OutOfBounds);
        // Lengths no pool backs, up to the one whose page rounding overflows.
        for len in [65 * PS, 1 << 48, 1 << 63, u64::MAX] {
            let r = pm.ralloc(pid, len);
            assert_eq!(r.unwrap_err(), DmError::OutOfMemory, "len {len:#x}");
        }
        assert_eq!(pm.free_pages(), free, "a refused op takes no page");
        assert_eq!(&pm.read(pid, va, 4).unwrap()[..], b"live");
        pm.check_invariants();
    }

    #[test]
    fn map_ref_unknown_key_rejected() {
        let (mut pm, pid) = pm();
        assert_eq!(pm.map_ref(pid, 999).unwrap_err(), DmError::InvalidRef);
    }

    #[test]
    fn multiple_mappers_share_then_diverge() {
        let (mut pm, creator) = pm();
        let a = pm.register_process();
        let b = pm.register_process();
        let va = pm.ralloc(creator, PS).unwrap();
        pm.write(creator, va, b"shared").unwrap();
        let (key, _) = pm.create_ref(creator, va, PS).unwrap();
        let (ava, _, _) = pm.map_ref(a, key).unwrap();
        let (bva, _, _) = pm.map_ref(b, key).unwrap();
        pm.write(a, ava, b"AAAAAA").unwrap();
        pm.write(b, bva, b"BBBBBB").unwrap();
        assert_eq!(&pm.read(creator, va, 6).unwrap()[..], b"shared");
        assert_eq!(&pm.read(a, ava, 6).unwrap()[..], b"AAAAAA");
        assert_eq!(&pm.read(b, bva, 6).unwrap()[..], b"BBBBBB");
        pm.check_invariants();
    }

    #[test]
    fn release_process_reclaims_all_pins() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        // Mappings + an unconsumed ref + a put_ref, all owned by `pid`.
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        pm.write(pid, va, &vec![5u8; 3 * PAGE_SIZE]).unwrap();
        pm.create_ref(pid, va, 2 * PS).unwrap();
        pm.put_ref(&[1u8; 100], Some(pid)).unwrap();
        assert!(pm.free_pages() < free0);
        pm.release_process(pid).unwrap();
        assert_eq!(pm.free_pages(), free0, "all pins reclaimed");
        assert!(pm.ralloc(pid, PS).is_err(), "process is gone");
        assert!(
            pm.release_process(pid).is_err(),
            "double release is rejected"
        );
        pm.check_invariants();
    }

    #[test]
    fn release_process_keeps_other_processes_pins() {
        let (mut pm, crasher) = pm();
        let survivor = pm.register_process();
        let va = pm.ralloc(crasher, PS).unwrap();
        pm.write(crasher, va, b"handoff").unwrap();
        let (key, _) = pm.create_ref(crasher, va, PS).unwrap();
        // Survivor maps the ref (its own pin) before the crasher dies.
        let (sva, _, _) = pm.map_ref(survivor, key).unwrap();
        pm.release_process(crasher).unwrap();
        // The survivor's mapping keeps the page alive and readable.
        assert_eq!(&pm.read(survivor, sva, 7).unwrap()[..], b"handoff");
        // The crasher's own ref pin is gone.
        assert_eq!(pm.release_ref(key).unwrap_err(), DmError::InvalidRef);
        pm.check_invariants();
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_everything() {
        let (mut pm, pid) = pm();
        let mapper = pm.register_process();
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        pm.write(pid, va, &data).unwrap();
        let (key, _) = pm.create_ref(pid, va, 2 * PS).unwrap();
        let (mva, _, _) = pm.map_ref(mapper, key).unwrap();
        pm.write(mapper, mva, b"cow!").unwrap(); // diverge one page
        pm.put_ref(&[7u8; 100], Some(mapper)).unwrap();

        let snap = pm.snapshot();
        let mut r = Reader::new(&snap);
        let mut back = PageManager::restore_from(&mut r).unwrap();
        assert!(r.is_empty(), "restore consumes the whole snapshot");
        back.check_invariants();
        assert_eq!(back.state_digest(), pm.state_digest());
        // Logical state identical: reads, free count, and future behavior.
        assert_eq!(back.read(pid, va, 3 * PS).unwrap(), data);
        assert_eq!(&back.read(mapper, mva, 4).unwrap()[..], b"cow!");
        assert_eq!(back.free_pages(), pm.free_pages());
        assert_eq!(
            back.register_process().0,
            pm.register_process().0,
            "next_pid restored"
        );
        // Free-FIFO order restored: identical allocation sequence.
        let (ka, _) = back.put_ref(&[1], None).unwrap();
        let (kb, _) = pm.put_ref(&[1], None).unwrap();
        assert_eq!(ka, kb, "next_key restored");
        assert_eq!(back.state_digest(), pm.state_digest());
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        pm.write(pid, va, b"x").unwrap();
        let snap = pm.snapshot();
        // Truncations at every boundary fail cleanly.
        for cut in [0, 1, 4, snap.len() / 2, snap.len() - 1] {
            assert!(
                PageManager::restore_from(&mut Reader::new(&snap[..cut])).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Out-of-range page index fails.
        let mut bad = snap.clone();
        bad[0] = 1; // capacity 1 page, but indices reference more
        bad[1] = 0;
        bad[2] = 0;
        bad[3] = 0;
        assert!(PageManager::restore_from(&mut Reader::new(&bad)).is_err());
    }

    #[test]
    fn unaligned_create_ref_rejected() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        assert_eq!(
            pm.create_ref(pid, va + 1, PS).unwrap_err(),
            DmError::InvalidAddress
        );
        assert_eq!(
            pm.create_ref(pid, va, 0).unwrap_err(),
            DmError::InvalidAddress
        );
    }
}
