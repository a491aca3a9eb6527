//! The page table behind both DM backends, a DM server's pinned pages and
//! G-FAM's device pages alike (DESIGN.md §6.1, §6.6): for each page whose
//! refcount is above zero, that count and the page's bytes. Host work only:
//! each backend charges the model for the faults, copies, atomics and
//! accesses it stands for, whatever the table does. A page leaves the table
//! with its last pin, bytes and all, so the host holds memory for live pages
//! only, however large the pool, and a page pinned again reads as zeros.
//! `Bytes` are immutable, so a view handed out keeps what it shows: a write
//! finds the buffer shared and moves the page first ([`Page::make_mut`]).

use std::cell::Cell;
use std::ops::Range;

use bytes::{Bytes, SharedBuf};
use simcore::FastMap;

use crate::PAGE_SIZE;

/// The bytes of one page: a view of at most [`PAGE_SIZE`] bytes into a
/// shared buffer, reading as zeros past its stored length. A written page
/// is a whole-page buffer nobody else holds; a published page is a slice of
/// the buffer it came in, its tail page short. A clone is a second view.
#[derive(Clone)]
pub struct Page {
    buf: SharedBuf,
    /// `offset << 16 | len`: where in `buf` the view starts and how many
    /// bytes it stores.
    span: u64,
}

impl Page {
    /// The `len <= PAGE_SIZE` bytes at `off` of `buf`.
    #[inline]
    fn view(buf: SharedBuf, off: usize, len: usize) -> Page {
        debug_assert!(len <= PAGE_SIZE && (off as u64) < 1 << 48);
        Page {
            buf,
            span: (off as u64) << 16 | len as u64,
        }
    }

    /// A private whole page holding `stored`, then zeros.
    #[inline]
    pub fn private(stored: &[u8]) -> Page {
        let mut page = Vec::with_capacity(PAGE_SIZE);
        page.extend_from_slice(stored);
        page.resize(PAGE_SIZE, 0);
        Page::view(page.into(), 0, PAGE_SIZE)
    }

    /// `data` as pages: a view of each [`PAGE_SIZE`] of its storage, the
    /// last one short. No copy; the storage lives while any page does.
    #[inline]
    pub fn views_of(data: Bytes) -> impl Iterator<Item = Page> {
        let len = data.len();
        let (buf, base) = data.into_shared();
        (0..len)
            .step_by(PAGE_SIZE)
            .map(move |lo| Page::view(buf.clone(), base + lo, PAGE_SIZE.min(len - lo)))
    }

    /// Where in `buf` the stored bytes lie.
    #[inline]
    fn range(&self) -> Range<usize> {
        let off = (self.span >> 16) as usize;
        off..off + (self.span & 0xFFFF) as usize
    }

    /// The stored bytes; the rest of the page reads as zeros.
    #[inline]
    pub fn stored(&self) -> &[u8] {
        &self.buf.as_slice()[self.range()]
    }

    /// The whole page, writable in place. A view that is short, or whose
    /// buffer something else still holds, moves to a private page first.
    #[inline]
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.range().len() != PAGE_SIZE || self.buf.get_mut().is_none() {
            *self = Page::private(self.stored());
        }
        let whole = self.range();
        &mut self.buf.get_mut().expect("sole handle")[whole]
    }
}

/// The live pages of one pool of `capacity` pages (a DM server's pinned
/// pages, a G-FAM device's physical pages), keyed by page index: a page is
/// in the table exactly while its refcount is above zero, with the bytes it
/// holds, if any (a pinned page without bytes reads as zeros). An index past
/// the pool panics. Also counts the bytes reads served as views and as
/// gathered copies.
pub struct PageStore {
    capacity: usize,
    live: FastMap<u32, Live>,
    read_viewed: Cell<u64>,
    read_gathered: Cell<u64>,
}

/// One live page: its refcount (above zero) and bytes.
struct Live {
    rc: u32,
    page: Option<Page>,
}

impl PageStore {
    /// An empty table over a pool of `capacity` pages (allocates nothing).
    pub fn new(capacity: usize) -> PageStore {
        PageStore {
            capacity,
            live: FastMap::default(),
            read_viewed: Cell::new(0),
            read_gathered: Cell::new(0),
        }
    }

    /// Pages in the pool, live or not.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn check(&self, p: u32) {
        assert!(
            (p as usize) < self.capacity,
            "page {p} past a pool of {} pages",
            self.capacity
        );
    }

    #[inline]
    fn live_mut(&mut self, p: u32) -> &mut Live {
        self.check(p);
        self.live
            .get_mut(&p)
            .unwrap_or_else(|| panic!("page {p} is not pinned"))
    }

    /// Page `p`'s refcount, 0 when it is not live.
    #[inline]
    pub fn refcount(&self, p: u32) -> u32 {
        self.check(p);
        self.live.get(&p).map_or(0, |l| l.rc)
    }

    /// The bytes of page `p`, if it is live and holds any.
    #[inline]
    pub fn get(&self, p: u32) -> Option<&Page> {
        self.check(p);
        self.live.get(&p)?.page.as_ref()
    }

    /// Add one pin to page `p`; returns the new refcount. A page pinned from
    /// zero enters the table holding no bytes.
    #[inline]
    pub fn pin(&mut self, p: u32) -> u32 {
        self.check(p);
        let live = self.live.entry(p).or_insert(Live { rc: 0, page: None });
        live.rc += 1;
        live.rc
    }

    /// Drop one pin from page `p`; returns the new refcount. The last pin
    /// takes the page out of the table, bytes and all.
    #[inline]
    pub fn unpin(&mut self, p: u32) -> u32 {
        self.check(p);
        let Some(live) = self.live.get_mut(&p) else {
            panic!("refcount underflow on page {p}");
        };
        live.rc -= 1;
        let rc = live.rc;
        if rc == 0 {
            self.live.remove(&p);
        }
        rc
    }

    /// Make `page` the bytes of the pinned page `p`.
    #[inline]
    pub fn put(&mut self, p: u32, page: Page) {
        self.live_mut(p).page = Some(page);
    }

    /// Make the pinned page `dst` a second view of `src`'s bytes (none if
    /// `src` holds none).
    #[inline]
    pub fn copy(&mut self, src: u32, dst: u32) {
        let page = self.get(src).cloned();
        self.live_mut(dst).page = page;
    }

    /// Write `data` at byte `off` of the pinned page `p`; a page without
    /// bytes becomes a zeroed private page first.
    #[inline]
    pub fn write(&mut self, p: u32, off: usize, data: &[u8]) {
        let page = self
            .live_mut(p)
            .page
            .get_or_insert_with(|| Page::private(&[]));
        page.make_mut()[off..off + data.len()].copy_from_slice(data);
    }

    /// Restore page `p` at refcount `rc` holding `page` (a checkpoint's
    /// used page). `false`, changing nothing, when `rc` is 0 or `p` is
    /// already live.
    pub fn restore(&mut self, p: u32, rc: u32, page: Page) -> bool {
        self.check(p);
        if rc == 0 || self.live.contains_key(&p) {
            return false;
        }
        self.live.insert(
            p,
            Live {
                rc,
                page: Some(page),
            },
        );
        true
    }

    /// How many pages are live.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Every live page as `(index, refcount, bytes)`, in ascending index.
    pub fn live(&self) -> Vec<(u32, u32, Option<&Page>)> {
        let mut live: Vec<_> = self
            .live
            .iter()
            .map(|(&p, l)| (p, l.rc, l.page.as_ref()))
            .collect();
        live.sort_unstable_by_key(|&(p, ..)| p);
        live
    }

    /// Bytes served by reads so far: `(viewed, gathered)` — returned as a
    /// view of the buffer the pages already lie in, or copied out of them.
    pub fn read_bytes(&self) -> (u64, u64) {
        (self.read_viewed.get(), self.read_gathered.get())
    }

    /// The `len` bytes at byte offset `start` of a page sequence whose
    /// `n`-th page is `page_at(n)` (`None`: unmapped, reads as zeros): a
    /// view when they lie in one buffer as they are (`run_of_one_buffer`),
    /// a gathered copy otherwise. The one body behind every read.
    #[inline]
    pub fn read(&self, start: u64, len: u64, page_at: impl Fn(u64) -> Option<u32>) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        let page = |n: u64| self.get(page_at(n)?);
        if let Some(view) = run_of_one_buffer(start, len, page) {
            self.read_viewed.set(self.read_viewed.get() + len);
            return view;
        }
        let mut out = Vec::with_capacity(len as usize);
        gather(start, len, page, &mut out);
        self.read_gathered.set(self.read_gathered.get() + len);
        Bytes::from(out)
    }
}

/// The `len > 0` bytes at byte offset `start` of a page sequence as one view
/// of the buffer they lie in: every page a view of the same buffer, each a
/// page further on, storing every byte the range wants from it. `None` when
/// a page is empty, written, from another buffer, or a short tail read past.
#[inline]
fn run_of_one_buffer<'a>(
    start: u64,
    len: u64,
    page: impl Fn(u64) -> Option<&'a Page>,
) -> Option<Bytes> {
    const PS: u64 = PAGE_SIZE as u64;
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

/// Append the `len` bytes at byte offset `start` of a page sequence to `out`,
/// an empty page and a page past its stored length reading as zeros.
#[inline]
fn gather<'a>(start: u64, len: u64, page: impl Fn(u64) -> Option<&'a Page>, out: &mut Vec<u8>) {
    let (mut cur, end) = (start, start + len);
    while cur < end {
        let in_page = (cur % PAGE_SIZE as u64) as usize;
        let n = (PAGE_SIZE - in_page).min((end - cur) as usize);
        let stored = page(cur / PAGE_SIZE as u64).map_or(&[][..], Page::stored);
        let have = stored.get(in_page..).unwrap_or(&[]);
        let have = &have[..n.min(have.len())];
        out.extend_from_slice(have);
        out.resize(out.len() + n - have.len(), 0);
        cur += n as u64;
    }
}
