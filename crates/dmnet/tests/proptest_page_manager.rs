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
}

impl Twin {
    fn new(capacity_pages: usize, copy_mode: CopyMode) -> Twin {
        Twin {
            alias: PageManager::new(capacity_pages, copy_mode),
            owned: PageManager::new(capacity_pages, copy_mode),
            held: Vec::new(),
        }
    }

    /// A read on both managers; the aliasing one's answer stays held.
    fn read(&mut self, op: impl Fn(&mut PageManager) -> DmResult<Bytes>) -> DmResult<Bytes> {
        let got = self.both(op)?;
        self.held.push((got.clone(), got.to_vec()));
        Ok(got)
    }

    /// Equal snapshots are equal `state_digest()`s: the digest is a hash
    /// of the snapshot. Every view handed out so far still reads as it did.
    fn check(&mut self) {
        for (view, seen) in &self.held {
            assert!(view[..] == seen[..], "a held read changed under its holder");
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

    /// Publish `data`: a view `skew` bytes into a larger buffer (dropped by
    /// the publisher at once) on one side, a plain slice on the other.
    fn put(
        &mut self,
        data: &[u8],
        skew: usize,
        owner: Option<GlobalPid>,
    ) -> DmResult<(u64, OpCost)> {
        let mut big = vec![0xA5u8; skew];
        big.extend_from_slice(data);
        big.extend_from_slice(&[0x5A; 7]);
        let carved = Bytes::from(big).slice(skew..skew + data.len());
        let a = self.alias.put_ref_bytes(carved, owner);
        let b = self.owned.put_ref(data, owner);
        assert_eq!(a, b, "aliased vs owned publish");
        self.check();
        a
    }
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
    PutRef {
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

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..4).prop_map(|pages| Op::Alloc { pages }),
        (0usize..8, 0u64..3 * PS, 1usize..2000, any::<u8>()).prop_map(
            |(region, off, len, fill)| Op::Write {
                region,
                off,
                len,
                fill
            }
        ),
        (0usize..8, 0u64..3 * PS, 1usize..2000).prop_map(|(region, off, len)| Op::Read {
            region,
            off,
            len
        }),
        (0usize..8).prop_map(|region| Op::CreateRef { region }),
        (0usize..8).prop_map(|r| Op::MapRef { r }),
        (0usize..8).prop_map(|r| Op::ReadRefDirect { r }),
        (1usize..3 * PAGE_SIZE + 2, 0usize..40, any::<u8>()).prop_map(|(len, skew, seed)| {
            Op::PutRef {
                len,
                skew: 2 * skew + 1,
                seed,
            }
        }),
        (0usize..8).prop_map(|region| Op::Free { region }),
        (0usize..8).prop_map(|r| Op::ReleaseRef { r }),
    ]
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

    #[test]
    fn page_manager_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        copy_mode in prop_oneof![Just(CopyMode::CopyOnWrite), Just(CopyMode::Eager)],
    ) {
        let mut pm = Twin::new(512, copy_mode);
        let pid = pm.both(|pm| pm.register_process());
        let mapper = pm.both(|pm| pm.register_process());
        let mut regions: Vec<ModelRegion> = Vec::new();
        let mut refs: Vec<ModelRef> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc { pages } => {
                    if let Ok(va) = pm.both(|pm| pm.ralloc(pid, pages * PS)) {
                        regions.push(ModelRegion {
                            pid,
                            va,
                            len: pages * PS,
                            data: vec![0u8; (pages * PS) as usize],
                        });
                    }
                }
                Op::Write { region, off, len, fill } => {
                    if regions.is_empty() { continue; }
                    let idx = region % regions.len();
                    let r = &mut regions[idx];
                    if off + len as u64 > r.len { continue; }
                    let buf = vec![fill; len];
                    pm.both(|pm| pm.write(r.pid, r.va + off, &buf)).expect("in-bounds write");
                    r.data[off as usize..off as usize + len].copy_from_slice(&buf);
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
                    if let Ok((key, _)) = pm.both(|pm| pm.create_ref(r.pid, r.va, r.len)) {
                        refs.push(ModelRef { key, snapshot: r.data.clone() });
                    }
                }
                Op::MapRef { r } => {
                    if refs.is_empty() { continue; }
                    let mr = &refs[r % refs.len()];
                    if let Ok((va, len, _)) = pm.both(|pm| pm.map_ref(mapper, mr.key)) {
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
                    if let Ok((key, cost)) = pm.put(&data, skew, Some(pid)) {
                        prop_assert_eq!(cost.pages_faulted, len.div_ceil(PAGE_SIZE) as u64);
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
                    let idx = r % refs.len();
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
    let (key, _) = pm.put(&data, 3, Some(owner)).unwrap();
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
