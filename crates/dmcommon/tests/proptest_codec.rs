//! Property tests: wire codecs round-trip for all inputs, and the VA tree
//! maintains allocation discipline under arbitrary interleavings.

use dmcommon::va_tree::VaTree;
use dmcommon::{DmServerId, Ref};
use proptest::prelude::*;

proptest! {
    #[test]
    fn net_ref_roundtrips(server in any::<u8>(), key in any::<u64>(), len in any::<u64>()) {
        let r = Ref::Net {
            server: DmServerId(server),
            key,
            len,
        };
        let enc = r.encode();
        prop_assert_eq!(enc.len(), r.wire_bytes());
        prop_assert_eq!(Ref::decode(&enc).unwrap(), r);
    }

    #[test]
    fn cxl_ref_roundtrips(len in any::<u64>(), pages in proptest::collection::vec(any::<u32>(), 0..300)) {
        let r = Ref::Cxl { len, pages };
        let enc = r.encode();
        prop_assert_eq!(enc.len(), r.wire_bytes());
        prop_assert_eq!(Ref::decode(&enc).unwrap(), r);
    }

    /// Decoding arbitrary bytes never panics, and any successful decode
    /// re-encodes to a prefix-compatible token.
    #[test]
    fn ref_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(r) = Ref::decode(&bytes) {
            let enc = r.encode();
            prop_assert_eq!(&bytes[..enc.len()], &enc[..]);
        }
    }

    /// VA tree: allocations are page-aligned, disjoint, and fully reusable.
    #[test]
    fn va_tree_discipline(ops in proptest::collection::vec((1u64..1_000_000, any::<bool>()), 1..60)) {
        const PS: u64 = 4096;
        let mut t = VaTree::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (size, do_free) in ops {
            let va = t.alloc(size, PS).unwrap();
            let len = size.div_ceil(PS) * PS;
            prop_assert_eq!(va % PS, 0);
            for &(o, ol) in &live {
                prop_assert!(va + len <= o || o + ol <= va, "overlap");
            }
            prop_assert_eq!(t.lookup(va).unwrap(), (va, len));
            prop_assert_eq!(t.lookup(va + len - 1).unwrap(), (va, len));
            live.push((va, len));
            if do_free && !live.is_empty() {
                let (o, _) = live.swap_remove(va as usize % live.len());
                t.free(o).unwrap();
                prop_assert!(t.lookup(o).is_err() || t.lookup(o).unwrap().0 != o);
            }
        }
        let total: u64 = live.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(t.allocated_bytes(), total);
        for (o, _) in live {
            t.free(o).unwrap();
        }
        prop_assert!(t.is_empty());
    }
}
