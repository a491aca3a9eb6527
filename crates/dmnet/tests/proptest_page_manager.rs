//! Model-based property tests for the Page manager.
//!
//! A reference model tracks, in plain `Vec<u8>`s, what every live region
//! and every live `Ref` snapshot must contain. Random operation sequences
//! are applied to both the real [`PageManager`] and the model; after every
//! step reads must agree, and the page-pool invariants (refcount
//! conservation, free-list exclusivity) must hold.
//!
//! Every sequence runs on two managers at once ([`Twin`]): one is fed
//! publishes through the aliasing entry (`put_ref_bytes`, with `Bytes`
//! carved at odd offsets out of larger buffers, so its pages are unaligned
//! views and its tail pages short), the other through the copying
//! `put_ref(&[u8])` and is rebuilt from its own checkpoint after every op,
//! so each page it holds is a private 4 KiB buffer. Whether a page shares
//! its storage with the message it arrived in must be unobservable: every
//! result, every `OpCost` and the canonical snapshot after every op are
//! required to be equal.
//!
//! A read may hand out a view of the very buffer a page lies in, and a reply
//! holds it for as long as it likes (the server awaits before it answers,
//! `rpclib` keeps the answered packets). So the sequence keeps every view
//! the aliasing manager ever returned and checks after every later op that
//! each still shows the bytes it was read as: a write, COW fault, release or
//! free that followed moved the page rather than the view. That this
//! host-side move is no part of the model is the twin's job — the other
//! manager holds no views, and costs and snapshots must still agree.
//!
//! A publisher may also keep what it published and publish it again (the
//! social network's media table does, one buffer per distinct payload), so
//! one buffer backs the pages of several live refs. The sequence keeps such
//! buffers too and checks them, and every ref published from them, the same
//! way.

use std::fmt::Debug;

use bytes::Bytes;
use dmcommon::{CopyMode, DmError, DmResult, GlobalPid, PAGE_SIZE};
use dmnet::proto::Reader;
use dmnet::{OpCost, PageManager};
use proptest::prelude::*;

const PS: u64 = PAGE_SIZE as u64;

/// The manager under test twice over: pages aliasing what was published in
/// one, private in the other.
struct Twin {
    alias: PageManager,
    owned: PageManager,
    /// Reads of `alias` kept alive, each with a copy of what it showed.
    held: Vec<(Bytes, Vec<u8>)>,
    /// Buffers the publisher keeps after publishing them, each with a copy
    /// of what it holds.
    kept: Vec<(Bytes, Vec<u8>)>,
}

impl Twin {
    fn new(capacity_pages: usize, copy_mode: CopyMode) -> Twin {
        Twin {
            alias: PageManager::new(capacity_pages, copy_mode),
            owned: PageManager::new(capacity_pages, copy_mode),
            held: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// A read on both managers; the aliasing one's answer stays held.
    fn read(&mut self, op: impl Fn(&mut PageManager) -> DmResult<Bytes>) -> DmResult<Bytes> {
        let got = self.both(op)?;
        self.held.push((got.clone(), got.to_vec()));
        Ok(got)
    }

    /// Equal snapshots are equal `state_digest()`s: the digest is a hash
    /// of the snapshot. Every view handed out so far still reads as it did,
    /// and every buffer the publisher kept holds what it published.
    fn check(&mut self) {
        for (view, seen) in &self.held {
            assert!(view[..] == seen[..], "a held read changed under its holder");
        }
        for (buf, published) in &self.kept {
            assert!(
                buf[..] == published[..],
                "a kept buffer changed under its publisher"
            );
        }
        self.alias.check_invariants();
        self.owned.check_invariants();
        let snap = self.owned.snapshot();
        assert!(self.alias.snapshot() == snap, "aliased and owned diverged");
        self.owned = PageManager::restore_from(&mut Reader::new(&snap)).expect("own snapshot");
    }

    /// Run `op` on both managers; results, errors and costs must agree.
    fn both<R: PartialEq + Debug>(&mut self, op: impl Fn(&mut PageManager) -> R) -> R {
        let (a, b) = (op(&mut self.alias), op(&mut self.owned));
        assert_eq!(a, b, "aliased vs owned result");
        self.check();
        a
    }

    /// [`Twin::both`] for an op that may be refused: one that is leaves
    /// the pages as they were.
    fn apply<T: PartialEq + Debug>(
        &mut self,
        op: impl Fn(&mut PageManager) -> DmResult<T>,
    ) -> DmResult<T> {
        let before = self.alias.state_digest();
        let r = self.both(op);
        if r.is_err() {
            assert_eq!(
                self.alias.state_digest(),
                before,
                "a refused op changed the pages"
            );
        }
        r
    }

    /// Publish `data` by its buffer on one side, as a plain slice on the
    /// other.
    fn put(&mut self, data: Bytes, owner: Option<GlobalPid>) -> DmResult<(u64, OpCost)> {
        let before = self.alias.state_digest();
        let b = self.owned.put_ref(&data, owner);
        let a = self.alias.put_ref_bytes(data, owner);
        assert_eq!(a, b, "aliased vs owned publish");
        self.check();
        if a.is_err() {
            assert_eq!(
                self.alias.state_digest(),
                before,
                "a refused publish changed the pages"
            );
        }
        a
    }
}

/// `data` as a view `skew` bytes into a larger buffer.
fn carve(data: &[u8], skew: usize) -> Bytes {
    let mut big = vec![0xA5u8; skew];
    big.extend_from_slice(data);
    big.extend_from_slice(&[0x5A; 7]);
    Bytes::from(big).slice(skew..skew + data.len())
}

/// `len` bytes no two pages of which look alike.
fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (i as u8)
                .wrapping_mul(31)
                .wrapping_add((i / PAGE_SIZE) as u8)
                ^ seed
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    Alloc {
        pages: u64,
    },
    Write {
        region: usize,
        off: u64,
        len: usize,
        fill: u8,
        /// `write`, which copies every shared page it touches, rather than
        /// the `overwrite` the server runs.
        copying: bool,
    },
    Read {
        region: usize,
        off: u64,
        len: usize,
    },
    CreateRef {
        region: usize,
    },
    MapRef {
        r: usize,
    },
    ReadRefDirect {
        r: usize,
    },
    /// Publish a fresh buffer and drop it.
    PutRef {
        len: usize,
        skew: usize,
        seed: u8,
    },
    /// Publish the `which`th buffer the publisher keeps again, or, past the
    /// last one, a fresh buffer it keeps.
    PutKept {
        which: usize,
        len: usize,
        skew: usize,
        seed: u8,
    },
    Free {
        region: usize,
    },
    ReleaseRef {
        r: usize,
    },
}

/// A write's `(offset, length)`: page-aligned half the time and up to three
/// pages long, so writes cover shared pages whole (no copy) as well as in
/// part (a copy).
fn write_range() -> impl Strategy<Value = (u64, usize)> {
    let aligned = (0u64..3).prop_map(|page| page * PS);
    (prop_oneof![aligned, 0u64..3 * PS], 1usize..=3 * PAGE_SIZE)
}

/// An index counted back from the newest entry, 0 (the newest) half the
/// time.
fn newest_first() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 0usize..8]
}

/// The entry `back` places before the newest of `len`.
fn back_from_newest(len: usize, back: usize) -> usize {
    len - 1 - back % len
}

/// Half the ops are the four that build the kept-buffer shape — publish a
/// kept buffer, map its ref, release the ref, write through the mapping —
/// which the sequence must hit to reach a page whose buffer its publisher
/// still holds with no other holder of the page left.
fn op_strategy() -> impl Strategy<Value = Op> {
    let kept_shape = prop_oneof![
        (
            0usize..3,
            1usize..3 * PAGE_SIZE + 2,
            0usize..40,
            any::<u8>()
        )
            .prop_map(|(which, len, skew, seed)| Op::PutKept {
                which,
                len,
                skew: 2 * skew + 1,
                seed,
            }),
        newest_first().prop_map(|r| Op::MapRef { r }),
        newest_first().prop_map(|r| Op::ReleaseRef { r }),
        (newest_first(), write_range(), any::<u8>(), any::<bool>()).prop_map(
            |(region, (off, len), fill, copying)| Op::Write {
                region,
                off,
                len,
                fill,
                copying,
            }
        ),
    ];
    let rest = prop_oneof![
        (1u64..4).prop_map(|pages| Op::Alloc { pages }),
        (0usize..8, 0u64..3 * PS, 1usize..2000).prop_map(|(region, off, len)| Op::Read {
            region,
            off,
            len
        }),
        (0usize..8).prop_map(|region| Op::CreateRef { region }),
        (0usize..8).prop_map(|r| Op::ReadRefDirect { r }),
        (1usize..3 * PAGE_SIZE + 2, 0usize..40, any::<u8>()).prop_map(|(len, skew, seed)| {
            Op::PutRef {
                len,
                skew: 2 * skew + 1,
                seed,
            }
        }),
        (0usize..8).prop_map(|region| Op::Free { region }),
    ];
    prop_oneof![kept_shape, rest]
}

/// A live region in the model: its owner, VA, length, and expected bytes.
struct ModelRegion {
    pid: GlobalPid,
    va: u64,
    len: u64,
    data: Vec<u8>,
}

/// A live ref in the model: key plus the immutable snapshot it must serve.
struct ModelRef {
    key: u64,
    snapshot: Vec<u8>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a roomy pool and on one a few regions fill: a write, ref or
    /// publish that does not fit is refused and leaves the model as it is.
    #[test]
    fn page_manager_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        copy_mode in prop_oneof![Just(CopyMode::CopyOnWrite), Just(CopyMode::Eager)],
        capacity_pages in prop_oneof![Just(512), Just(8)],
    ) {
        let mut pm = Twin::new(capacity_pages, copy_mode);
        let pid = pm.both(|pm| pm.register_process());
        let mapper = pm.both(|pm| pm.register_process());
        let mut regions: Vec<ModelRegion> = Vec::new();
        let mut refs: Vec<ModelRef> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc { pages } => {
                    if let Ok(va) = pm.apply(|pm| pm.ralloc(pid, pages * PS)) {
                        regions.push(ModelRegion {
                            pid,
                            va,
                            len: pages * PS,
                            data: vec![0u8; (pages * PS) as usize],
                        });
                    }
                }
                Op::Write { region, off, len, fill, copying } => {
                    if regions.is_empty() { continue; }
                    let idx = back_from_newest(regions.len(), region);
                    let r = &mut regions[idx];
                    if off + len as u64 > r.len { continue; }
                    let buf = vec![fill; len];
                    let write = if copying { PageManager::write } else { PageManager::overwrite };
                    match pm.apply(|pm| write(pm, r.pid, r.va + off, &buf)) {
                        Ok(_) => r.data[off as usize..off as usize + len].copy_from_slice(&buf),
                        Err(e) => prop_assert_eq!(e, DmError::OutOfMemory),
                    }
                }
                Op::Read { region, off, len } => {
                    if regions.is_empty() { continue; }
                    let r = &regions[region % regions.len()];
                    if off + len as u64 > r.len { continue; }
                    let got = pm.read(|pm| pm.read(r.pid, r.va + off, len as u64)).expect("in-bounds read");
                    prop_assert_eq!(&got[..], &r.data[off as usize..off as usize + len]);
                }
                Op::CreateRef { region } => {
                    if regions.is_empty() { continue; }
                    let r = &regions[region % regions.len()];
                    if let Ok((key, _)) = pm.apply(|pm| pm.create_ref(r.pid, r.va, r.len)) {
                        refs.push(ModelRef { key, snapshot: r.data.clone() });
                    }
                }
                Op::MapRef { r } => {
                    if refs.is_empty() { continue; }
                    let mr = &refs[back_from_newest(refs.len(), r)];
                    if let Ok((va, len, _)) = pm.apply(|pm| pm.map_ref(mapper, mr.key)) {
                        // A new region for the mapper, seeded with the
                        // snapshot (shared until written). It spans whole
                        // pages: what lies past a published ref's last
                        // byte reads as zeros.
                        let len = len.div_ceil(PS) * PS;
                        let mut data = mr.snapshot.clone();
                        data.resize(len as usize, 0);
                        regions.push(ModelRegion { pid: mapper, va, len, data });
                    }
                }
                Op::ReadRefDirect { r } => {
                    if refs.is_empty() { continue; }
                    let mr = &refs[r % refs.len()];
                    let got = pm
                        .read(|pm| pm.read_ref(mr.key, 0, mr.snapshot.len() as u64))
                        .expect("ref read");
                    prop_assert_eq!(&got[..], &mr.snapshot[..]);
                }
                Op::PutRef { len, skew, seed } => {
                    let data = pattern(len, seed);
                    if let Ok((key, cost)) = pm.put(carve(&data, skew), Some(pid)) {
                        prop_assert_eq!(cost.pages_faulted, len.div_ceil(PAGE_SIZE) as u64);
                        refs.push(ModelRef { key, snapshot: data });
                    }
                }
                Op::PutKept { which, len, skew, seed } => {
                    if which >= pm.kept.len() {
                        let data = pattern(len, seed);
                        pm.kept.push((carve(&data, skew), data));
                    }
                    let (buf, data) = pm.kept[which.min(pm.kept.len() - 1)].clone();
                    if let Ok((key, cost)) = pm.put(buf, Some(pid)) {
                        prop_assert_eq!(cost.pages_faulted, data.len().div_ceil(PAGE_SIZE) as u64);
                        refs.push(ModelRef { key, snapshot: data });
                    }
                }
                Op::Free { region } => {
                    if regions.is_empty() { continue; }
                    let idx = region % regions.len();
                    let r = regions.remove(idx);
                    pm.both(|pm| pm.rfree(r.pid, r.va)).expect("free live region");
                }
                Op::ReleaseRef { r } => {
                    if refs.is_empty() { continue; }
                    let idx = back_from_newest(refs.len(), r);
                    let mr = refs.remove(idx);
                    pm.both(|pm| pm.release_ref(mr.key)).expect("release live ref");
                }
            }
        }

        // A checkpoint of the aliasing manager restores to the same state.
        let back = PageManager::restore_from(&mut Reader::new(&pm.alias.snapshot())).expect("own snapshot");
        back.check_invariants();
        prop_assert_eq!(back.state_digest(), pm.alias.state_digest());
        prop_assert_eq!(back.state_digest(), pm.owned.state_digest());

        // Every ref snapshot must still read back exactly, no matter what
        // writes happened elsewhere (COW isolation).
        for mr in &refs {
            let got = pm.read(|pm| pm.read_ref(mr.key, 0, mr.snapshot.len() as u64)).expect("ref read");
            prop_assert_eq!(&got[..], &mr.snapshot[..]);
        }
        // And every live region must still read back its model contents.
        for r in &regions {
            let got = pm.read(|pm| pm.read(r.pid, r.va, r.len)).expect("region read");
            prop_assert_eq!(&got[..], &r.data[..]);
        }

        // Tear everything down: the pool must fully recover.
        for r in regions {
            pm.both(|pm| pm.rfree(r.pid, r.va)).expect("final free");
        }
        for mr in refs {
            pm.both(|pm| pm.release_ref(mr.key)).expect("final release");
        }
        prop_assert_eq!(pm.alias.free_pages(), pm.alias.capacity_pages());
        // The pool is empty and every read ever made still shows its bytes.
        pm.check();
    }

    #[test]
    fn va_allocations_never_overlap(
        sizes in proptest::collection::vec(1u64..100_000, 1..40),
        free_mask in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let mut pm = PageManager::new(16, CopyMode::CopyOnWrite);
        let pid = pm.register_process();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            if let Ok(va) = pm.ralloc(pid, sz) {
                let len = sz.div_ceil(PS) * PS;
                for &(ova, olen) in &live {
                    prop_assert!(
                        va + len <= ova || ova + olen <= va,
                        "overlap: [{va},{}) vs [{ova},{})", va + len, ova + olen
                    );
                }
                live.push((va, len));
            }
            if free_mask.get(i).copied().unwrap_or(false) && !live.is_empty() {
                let (va, _) = live.remove(i % live.len());
                pm.rfree(pid, va).expect("free");
            }
        }
    }
}

/// A ref of two whole pages and a ten-byte tail, mapped by a second process.
/// Returns `(twin, mapper, key, va, data)`.
fn published_and_mapped(copy_mode: CopyMode) -> (Twin, GlobalPid, u64, u64, Vec<u8>) {
    let mut pm = Twin::new(16, copy_mode);
    let owner = pm.both(|pm| pm.register_process());
    let mapper = pm.both(|pm| pm.register_process());
    let data = pattern(2 * PAGE_SIZE + 10, 9);
    let (key, _) = pm.put(carve(&data, 3), Some(owner)).unwrap();
    let (va, len, _) = pm.both(|pm| pm.map_ref(mapper, key)).unwrap();
    assert_eq!(len, data.len() as u64);
    (pm, mapper, key, va, data)
}

#[test]
fn short_tail_page_reads_zero_padded() {
    let (mut pm, mapper, key, va, data) = published_and_mapped(CopyMode::CopyOnWrite);
    // Through the mapping the region spans three whole pages; the publisher
    // dropped its buffer before this first read.
    let mut padded = data.clone();
    padded.resize(3 * PAGE_SIZE, 0);
    assert_eq!(pm.both(|pm| pm.read(mapper, va, 3 * PS)).unwrap(), padded);
    assert_eq!(
        pm.both(|pm| pm.read(mapper, va + 3 * PS - 1, 1)).unwrap(),
        [0][..]
    );
    // Through the ref the last byte is the last byte, and there is no next.
    let last = data.len() as u64 - 1;
    assert_eq!(
        pm.both(|pm| pm.read_ref(key, last, 1)).unwrap(),
        data[last as usize..]
    );
    assert_eq!(pm.both(|pm| pm.read_ref(key, 0, last + 1)).unwrap(), data);
    assert_eq!(
        pm.both(|pm| pm.read_ref(key, last, 2)),
        Err(DmError::OutOfBounds)
    );
    assert_eq!(
        pm.both(|pm| pm.read_ref(key, u64::MAX, 2)),
        Err(DmError::OutOfBounds)
    );
}

#[test]
fn cow_fault_on_an_aliased_page_copies_its_bytes_and_spares_the_ref() {
    let (mut pm, mapper, key, va, data) = published_and_mapped(CopyMode::CopyOnWrite);
    // One byte into the short tail page, past its stored bytes.
    let at = 2 * PS + 100;
    let cost = pm.both(|pm| pm.write(mapper, va + at, &[0xEE])).unwrap();
    assert_eq!((cost.bytes_copied, cost.pages_faulted), (PS, 1));
    let mut expect = data.clone();
    expect.resize(3 * PAGE_SIZE, 0);
    expect[at as usize] = 0xEE;
    assert_eq!(pm.both(|pm| pm.read(mapper, va, 3 * PS)).unwrap(), expect);
    assert_eq!(
        pm.both(|pm| pm.read_ref(key, 0, data.len() as u64))
            .unwrap(),
        data
    );
}

/// An `overwrite` that covers a shared page whole takes a fresh page and
/// copies nothing into it, where `write` copies the page first; one byte
/// into the next shared page is copied either way. The ref reads what was
/// published throughout.
#[test]
fn a_whole_page_overwrite_of_a_shared_page_copies_nothing() {
    let (mut pm, mapper, key, va, data) = published_and_mapped(CopyMode::CopyOnWrite);
    let cow = |bytes_copied| OpCost {
        bytes_copied,
        pages_faulted: 1,
        refcount_updates: 1,
    };
    let whole = [0xEE; PAGE_SIZE];
    assert_eq!(pm.both(|pm| pm.overwrite(mapper, va, &whole)), Ok(cow(0)));
    let again = pm.both(|pm| pm.map_ref(mapper, key)).unwrap().0;
    assert_eq!(pm.both(|pm| pm.write(mapper, again, &whole)), Ok(cow(PS)));
    pm.both(|pm| pm.rfree(mapper, again)).unwrap();
    let one = pm.both(|pm| pm.overwrite(mapper, va + PS, &[0xEE]));
    assert_eq!(one, Ok(cow(PS)));
    let mut expect = data.clone();
    expect.resize(3 * PAGE_SIZE, 0);
    expect[..=PAGE_SIZE].fill(0xEE);
    assert_eq!(pm.both(|pm| pm.read(mapper, va, 3 * PS)).unwrap(), expect);
    assert_eq!(
        pm.both(|pm| pm.read_ref(key, 0, data.len() as u64))
            .unwrap(),
        data
    );
}

/// A never-written ref reads back as the buffer it was published in; a range
/// that leaves that buffer (zero padding, a written page) is gathered. A view
/// handed out pins what it showed: the page it came from moves before a
/// write lands, and the model is charged nothing for the move.
#[test]
fn reads_are_views_of_the_published_buffer_until_a_page_is_written() {
    let mut pm = PageManager::new(16, CopyMode::CopyOnWrite);
    let mapper = pm.register_process();
    let data = Bytes::from(pattern(2 * PAGE_SIZE + 10, 9));
    let (key, _) = pm.put_ref_bytes(data.clone(), None).unwrap();
    let (va, _, _) = pm.map_ref(mapper, key).unwrap();
    // Whole, unaligned and across a page boundary: all the publisher's bytes.
    for (off, len) in [(0, data.len()), (7, 100), (PAGE_SIZE - 3, PAGE_SIZE + 9)] {
        let got = pm.read_ref(key, off as u64, len as u64).unwrap();
        assert_eq!(got.as_ptr(), data[off..].as_ptr(), "read_ref({off}, {len})");
        let got = pm.read(mapper, va + off as u64, len as u64).unwrap();
        assert_eq!(got.as_ptr(), data[off..].as_ptr(), "read({off}, {len})");
    }
    assert_eq!(pm.read_bytes().1, 0, "nothing gathered so far");
    // Past the stored tail the mapping reads zeros nobody published.
    let padded = pm.read(mapper, va + 2 * PS, PS).unwrap();
    assert_eq!(
        (&padded[..10], &padded[10..]),
        (&data[2 * PAGE_SIZE..], &[0; PAGE_SIZE - 10][..])
    );
    assert_eq!(pm.read_bytes().1, PS);
    // The ref goes: the mapping is the pages' only holder and may write in
    // place — but `held` (and `data`) still show the first page.
    let held = pm.read_ref(key, 0, PS).unwrap();
    pm.release_ref(key).unwrap();
    let cost = pm.write(mapper, va, &[0xEE; 8]).unwrap();
    assert_eq!(
        cost,
        OpCost::default(),
        "the host-side move is not the model's COW"
    );
    assert_eq!(
        held,
        data.slice(..PAGE_SIZE),
        "the view kept what it showed"
    );
    assert_eq!(
        &pm.read(mapper, va, 9).unwrap()[..],
        &[[0xEE; 8].as_slice(), &data[8..9]].concat()[..]
    );
    // A range over the written page and its untouched neighbour is two buffers.
    let (_, gathered) = pm.read_bytes();
    assert_eq!(
        pm.read(mapper, va, 2 * PS).unwrap()[PAGE_SIZE..],
        data[PAGE_SIZE..2 * PAGE_SIZE]
    );
    assert_eq!(pm.read_bytes().1, gathered + 2 * PS);
    pm.check_invariants();
}

#[test]
fn write_in_place_to_an_aliased_page_at_refcount_one() {
    let (mut pm, mapper, key, va, data) = published_and_mapped(CopyMode::CopyOnWrite);
    // The ref goes; the mapping is now the pages' only holder, and they
    // are still views into the published buffer.
    pm.both(|pm| pm.release_ref(key)).unwrap();
    let cost = pm
        .both(|pm| pm.write(mapper, va + PS - 2, &[1, 2, 3, 4]))
        .unwrap();
    assert_eq!(cost, OpCost::default(), "no fault, no copy charged");
    let mut expect = data.clone();
    expect.resize(3 * PAGE_SIZE, 0);
    expect[PAGE_SIZE - 2..PAGE_SIZE + 2].copy_from_slice(&[1, 2, 3, 4]);
    assert_eq!(pm.both(|pm| pm.read(mapper, va, 3 * PS)).unwrap(), expect);
    pm.both(|pm| pm.rfree(mapper, va)).unwrap();
    assert_eq!(pm.alias.free_pages(), pm.alias.capacity_pages());
}

/// The media table's shape, pinned: one buffer the publisher keeps,
/// published as two refs. Once the first ref is released its mapping is
/// the pages' only holder and writes without a fault, yet the second ref
/// and the kept buffer still show what was published.
#[test]
fn a_buffer_kept_and_published_twice_survives_a_write_in_place() {
    let mut pm = Twin::new(16, CopyMode::CopyOnWrite);
    let owner = pm.both(|pm| pm.register_process());
    let mapper = pm.both(|pm| pm.register_process());
    let data = pattern(2 * PAGE_SIZE + 10, 5);
    let buf = carve(&data, 3);
    pm.kept.push((buf.clone(), data.clone()));
    let (first, _) = pm.put(buf.clone(), Some(owner)).unwrap();
    let (second, _) = pm.put(buf, Some(owner)).unwrap();
    let (va, _, _) = pm.both(|pm| pm.map_ref(mapper, first)).unwrap();
    pm.both(|pm| pm.release_ref(first)).unwrap();
    let cost = pm.both(|pm| pm.write(mapper, va, &[0xEE; 8])).unwrap();
    assert_eq!(cost, OpCost::default(), "no fault, no copy charged");
    assert_eq!(pm.both(|pm| pm.read(mapper, va, 8)).unwrap(), [0xEE; 8][..]);
    let len = data.len() as u64;
    assert_eq!(pm.both(|pm| pm.read_ref(second, 0, len)).unwrap(), data);
    pm.both(|pm| pm.rfree(mapper, va)).unwrap();
    pm.both(|pm| pm.release_ref(second)).unwrap();
    assert_eq!(pm.alias.free_pages(), pm.alias.capacity_pages());
}

#[test]
fn eager_copy_of_aliased_pages_pads_the_tail() {
    let (mut pm, mapper, key, va, data) = published_and_mapped(CopyMode::Eager);
    let (copy, cost) = pm.both(|pm| pm.create_ref(mapper, va, 3 * PS)).unwrap();
    assert_eq!((cost.bytes_copied, cost.pages_faulted), (3 * PS, 3));
    pm.both(|pm| pm.release_ref(key)).unwrap();
    let mut padded = data.clone();
    padded.resize(3 * PAGE_SIZE, 0);
    assert_eq!(pm.both(|pm| pm.read_ref(copy, 0, 3 * PS)).unwrap(), padded);
}
