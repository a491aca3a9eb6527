//! Property test: the sparse page table against the dense model it replaced,
//! a refcount and an optional page per index of the pool. Random sequences
//! of put, write, copy, pin, unpin, discard and read drive both; after every
//! step the table must read, count and report what the dense model does,
//! hold an entry for exactly the pages pinned, and panic on every index past
//! the pool, where the dense arrays' indexing panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use dmcommon::page_store::{Page, PageStore};
use dmcommon::PAGE_SIZE;
use proptest::prelude::*;

const PS: usize = PAGE_SIZE;
/// Pages in the pool; ops draw indices from `0..CAP + 2`.
const CAP: u32 = 6;

#[derive(Clone, Debug)]
enum Op {
    /// Publish one `len`-byte buffer over `pages`, a page each.
    Put {
        pages: Vec<u32>,
        len: usize,
        fill: u8,
    },
    Write {
        p: u32,
        off: usize,
        len: usize,
        fill: u8,
    },
    Copy {
        src: u32,
        dst: u32,
    },
    Pin(u32),
    Unpin(u32),
    /// Drop every pin: the page goes back to a free list.
    Discard(u32),
    /// Read `len` bytes at `start` of `pages` (of the last put's pages when
    /// `last_put`).
    Read {
        pages: Vec<u32>,
        last_put: bool,
        start: u64,
        len: u64,
    },
}

fn page() -> impl Strategy<Value = u32> {
    0..CAP + 2
}

fn op() -> impl Strategy<Value = Op> {
    let pages = || proptest::collection::vec(page(), 1..4);
    prop_oneof![
        (pages(), any::<u16>(), any::<u8>()).prop_map(|(pages, len, fill)| {
            let lo = (pages.len() - 1) * PS + 1;
            let len = lo + len as usize % (pages.len() * PS + 1 - lo);
            Op::Put { pages, len, fill }
        }),
        (page(), 0..PS, 1usize..200, any::<u8>()).prop_map(|(p, off, len, fill)| Op::Write {
            p,
            off,
            len: len.min(PS - off),
            fill
        }),
        (page(), page()).prop_map(|(src, dst)| Op::Copy { src, dst }),
        page().prop_map(Op::Pin),
        page().prop_map(Op::Pin),
        page().prop_map(Op::Unpin),
        page().prop_map(Op::Discard),
        (pages(), any::<bool>(), any::<u64>(), any::<u64>()).prop_map(
            |(pages, last_put, start, len)| Op::Read {
                pages,
                last_put,
                start,
                len
            }
        ),
    ]
}

/// The dense model's page: which buffer it views (an id), where in it, and
/// the bytes it stores. Plain bytes, so the model holds no handle on the
/// table's buffers and cannot change whether a write finds one shared.
#[derive(Clone, Debug, PartialEq)]
struct DensePage {
    buf: u64,
    off: usize,
    bytes: Vec<u8>,
}

#[derive(Default)]
struct Dense {
    rc: Vec<u32>,
    slots: Vec<Option<DensePage>>,
    next_buf: u64,
    viewed: u64,
    gathered: u64,
}

impl Dense {
    fn new() -> Dense {
        Dense {
            rc: vec![0; CAP as usize],
            slots: vec![None; CAP as usize],
            ..Dense::default()
        }
    }

    fn fresh_buf(&mut self) -> u64 {
        self.next_buf += 1;
        self.next_buf
    }

    fn pinned(&self, p: u32) -> bool {
        p < CAP && self.rc[p as usize] > 0
    }

    /// `Page::make_mut`: a short page, or one whose buffer another page
    /// still views, moves to a private whole page first.
    fn write(&mut self, p: u32, off: usize, data: &[u8]) {
        let fresh = self.fresh_buf();
        let slot = &self.slots[p as usize];
        let handles = |buf| self.slots.iter().flatten().filter(|s| s.buf == buf).count();
        let mut page = match slot {
            None => DensePage {
                buf: fresh,
                off: 0,
                bytes: vec![0; PS],
            },
            Some(s) if s.bytes.len() != PS || handles(s.buf) > 1 => DensePage {
                buf: fresh,
                off: 0,
                bytes: [&s.bytes[..], &vec![0; PS - s.bytes.len()]].concat(),
            },
            Some(s) => s.clone(),
        };
        page.bytes[off..off + data.len()].copy_from_slice(data);
        self.slots[p as usize] = Some(page);
    }

    /// The bytes at `start` of `pages`, and whether they are one run of one
    /// buffer (the table's view rule) or a gathered copy.
    fn read(&mut self, pages: &[u32], start: u64, len: u64) -> Vec<u8> {
        let page = |n: u64| self.slots[pages[n as usize] as usize].as_ref();
        let (first, end) = (start / PS as u64, start + len);
        let last = (end - 1) / PS as u64;
        let viewed = page(first).is_some_and(|head| {
            (first..=last).all(|n| {
                page(n).is_some_and(|s| {
                    s.buf == head.buf
                        && s.off == head.off + (n - first) as usize * PS
                        && s.bytes.len() as u64 >= (end - n * PS as u64).min(PS as u64)
                })
            })
        });
        let mut out = Vec::new();
        for n in first..=last {
            let lo = if n == first { start as usize % PS } else { 0 };
            let hi = (end - n * PS as u64).min(PS as u64) as usize;
            let stored = page(n).map_or(&[][..], |s| &s.bytes[..]);
            out.extend((lo..hi).map(|i| stored.get(i).copied().unwrap_or(0)));
        }
        if viewed {
            self.viewed += len;
        } else {
            self.gathered += len;
        }
        out
    }
}

fn panics(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

fn data(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add((i / 7) as u8)).collect()
}

/// Apply `op` to both; `Err` names the first disagreement.
fn step(t: &mut PageStore, d: &mut Dense, op: &Op, last_put: &mut Vec<u32>) -> Result<(), String> {
    let refused = |what: &str, did_panic: bool| match did_panic {
        true => Ok(()),
        false => Err(format!("{what} did not panic")),
    };
    match op {
        Op::Pin(p) if *p >= CAP => refused(
            "pin past the pool",
            panics(|| {
                t.pin(*p);
            }),
        )?,
        Op::Pin(p) => {
            d.rc[*p as usize] += 1;
            if t.pin(*p) != d.rc[*p as usize] {
                return Err(format!("pin {p}"));
            }
        }
        Op::Unpin(p) if !d.pinned(*p) => refused(
            "unpin of a free page",
            panics(|| {
                t.unpin(*p);
            }),
        )?,
        Op::Unpin(p) => {
            let rc = &mut d.rc[*p as usize];
            *rc -= 1;
            if *rc == 0 {
                d.slots[*p as usize] = None;
            }
            if t.unpin(*p) != d.rc[*p as usize] {
                return Err(format!("unpin {p}"));
            }
        }
        Op::Discard(p) if *p >= CAP => refused(
            "discard past the pool",
            panics(|| {
                t.unpin(*p);
            }),
        )?,
        Op::Discard(p) => {
            while d.rc[*p as usize] > 0 {
                d.rc[*p as usize] -= 1;
                t.unpin(*p);
            }
            d.slots[*p as usize] = None;
        }
        Op::Put { pages, len, fill } => {
            let bytes = data(*len, *fill);
            let buf = d.fresh_buf();
            let views = Page::views_of(Bytes::from(bytes.clone()));
            for (i, (&p, view)) in pages.iter().zip(views).enumerate() {
                if !d.pinned(p) {
                    refused("a put on a page nobody pins", panics(|| t.put(p, view)))?;
                    break;
                }
                t.put(p, view);
                let stored = bytes[i * PS..bytes.len().min((i + 1) * PS)].to_vec();
                d.slots[p as usize] = Some(DensePage {
                    buf,
                    off: i * PS,
                    bytes: stored,
                });
            }
            *last_put = pages.clone();
        }
        Op::Write { p, off, len, fill } => {
            let bytes = data(*len, *fill);
            if !d.pinned(*p) {
                refused(
                    "a write to a page nobody pins",
                    panics(|| t.write(*p, *off, &bytes)),
                )?;
            } else {
                t.write(*p, *off, &bytes);
                d.write(*p, *off, &bytes);
            }
        }
        Op::Copy { src, dst } => {
            if *src >= CAP || !d.pinned(*dst) {
                refused(
                    "a copy past the pool or to a free page",
                    panics(|| t.copy(*src, *dst)),
                )?;
            } else {
                t.copy(*src, *dst);
                d.slots[*dst as usize] = d.slots[*src as usize].clone();
            }
        }
        Op::Read {
            pages,
            last_put: from_put,
            start,
            len,
        } => {
            let pages = if *from_put && !last_put.is_empty() {
                last_put.clone()
            } else {
                pages.clone()
            };
            let total = (pages.len() * PS) as u64;
            let start = start % total;
            let len = 1 + len % (total - start);
            let (first, last) = (start / PS as u64, (start + len - 1) / PS as u64);
            let page_at = |n: u64| Some(pages[n as usize]);
            if pages[first as usize..=last as usize]
                .iter()
                .any(|&p| p >= CAP)
            {
                refused(
                    "a read past the pool",
                    panics(|| drop(t.read(start, len, page_at))),
                )?;
            } else {
                let got = t.read(start, len, page_at);
                if got[..] != d.read(&pages, start, len)[..] {
                    return Err(format!("read {start}+{len} of {pages:?}"));
                }
            }
        }
    }
    Ok(())
}

/// The whole table against the model: refcounts, bytes, the live entries
/// and the read counters.
fn agree(t: &PageStore, d: &Dense) -> Result<(), String> {
    let stored = |p: Option<&Page>| p.map(|p| p.stored().to_vec());
    for p in 0..CAP {
        let (rc, bytes) = (d.rc[p as usize], d.slots[p as usize].as_ref());
        if bytes.is_some() && rc == 0 {
            return Err(format!("model: free page {p} holds bytes"));
        }
        if t.refcount(p) != rc || stored(t.get(p)) != bytes.map(|s| s.bytes.clone()) {
            return Err(format!("page {p}"));
        }
    }
    let live: Vec<_> = t
        .live()
        .into_iter()
        .map(|(p, rc, pg)| (p, rc, stored(pg)))
        .collect();
    let want: Vec<_> = (0..CAP)
        .filter(|&p| d.rc[p as usize] > 0)
        .map(|p| {
            let bytes = d.slots[p as usize].as_ref().map(|s| s.bytes.clone());
            (p, d.rc[p as usize], bytes)
        })
        .collect();
    if live != want || t.live_count() != want.len() {
        return Err("live entries".into());
    }
    if t.read_bytes() != (d.viewed, d.gathered) {
        return Err(format!(
            "read bytes {:?} != {:?}",
            t.read_bytes(),
            (d.viewed, d.gathered)
        ));
    }
    Ok(())
}

proptest! {
    #[test]
    fn the_sparse_table_behaves_as_the_dense_arrays(ops in proptest::collection::vec(op(), 1..60)) {
        let (mut t, mut d) = (PageStore::new(CAP as usize), Dense::new());
        let mut last_put = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let r = step(&mut t, &mut d, op, &mut last_put).and_then(|()| agree(&t, &d));
            prop_assert!(r.is_ok(), "step {} {:?}: {}", i, op, r.unwrap_err());
        }
        prop_assert!(panics(|| { t.refcount(CAP); }) && panics(|| { t.get(CAP); }));
    }
}
