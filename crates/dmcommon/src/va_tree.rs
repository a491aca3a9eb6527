//! Per-process remote-VA range allocator.
//!
//! The paper (§V-A1): "For each process leveraging the DM, Page manager
//! maintains a VA allocation tree that records allocated VA ranges, similar
//! to the Linux vma tree." This is that tree: an ordered map of allocated
//! `[start, start+len)` ranges with first-fit allocation and containment
//! lookup.

use std::collections::BTreeMap;

use crate::{DmError, DmResult};

/// Lowest VA handed out (0 is reserved as a null-like value).
pub const VA_BASE: u64 = 0x1000;

/// First-fit VA range allocator over one process's remote address space.
#[derive(Debug, Default)]
pub struct VaTree {
    /// start -> len of allocated ranges (non-overlapping, page-aligned).
    ranges: BTreeMap<u64, u64>,
}

impl VaTree {
    /// Create an empty tree.
    pub fn new() -> VaTree {
        VaTree::default()
    }

    /// Allocate a page-aligned range of `len` bytes (rounded up to pages).
    /// Returns the starting VA; a length the address space cannot hold is
    /// `OutOfMemory` (`len` comes off the wire: every sum is checked).
    pub fn alloc(&mut self, len: u64, page_size: u64) -> DmResult<u64> {
        if len == 0 {
            return Err(DmError::InvalidAddress);
        }
        let need = len
            .div_ceil(page_size)
            .checked_mul(page_size)
            .ok_or(DmError::OutOfMemory)?;
        let mut candidate = VA_BASE;
        for (&start, &rlen) in &self.ranges {
            if candidate.checked_add(need).is_some_and(|end| end <= start) {
                break;
            }
            candidate = candidate.max(start + rlen);
        }
        if candidate.checked_add(need).is_none() {
            return Err(DmError::OutOfMemory);
        }
        self.ranges.insert(candidate, need);
        Ok(candidate)
    }

    /// Free the range starting exactly at `start`; returns its length.
    pub fn free(&mut self, start: u64) -> DmResult<u64> {
        self.ranges.remove(&start).ok_or(DmError::InvalidAddress)
    }

    /// Find the allocated range containing `va`. Returns `(start, len)`.
    pub fn lookup(&self, va: u64) -> DmResult<(u64, u64)> {
        let (&start, &len) = self
            .ranges
            .range(..=va)
            .next_back()
            .ok_or(DmError::InvalidAddress)?;
        if va < start + len {
            Ok((start, len))
        } else {
            Err(DmError::InvalidAddress)
        }
    }

    /// `[va, va+len)` must lie inside one allocated range: `InvalidAddress`
    /// when `va` is in none, `OutOfBounds` when the range runs past the end
    /// of the one it starts in — or past the end of the address space
    /// (`len` comes off the wire).
    pub fn check_range(&self, va: u64, len: u64) -> DmResult<()> {
        let (start, rlen) = self.lookup(va)?;
        match va.checked_add(len) {
            Some(end) if end <= start + rlen => Ok(()),
            _ => Err(DmError::OutOfBounds),
        }
    }

    /// Number of allocated ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no ranges are allocated.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.ranges.values().sum()
    }

    /// Iterate allocated `(start, len)` ranges in address order (snapshot
    /// encoding for the durable tier).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &l)| (s, l))
    }

    /// Re-insert a range verbatim (crash-recovery restore path). The range
    /// must come from a prior [`VaTree::iter`] of a consistent tree; no
    /// overlap checking is performed.
    pub fn restore_range(&mut self, start: u64, len: u64) {
        self.ranges.insert(start, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: u64 = 4096;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut t = VaTree::new();
        let a = t.alloc(100, PS).unwrap();
        let b = t.alloc(5000, PS).unwrap();
        assert_eq!(a % PS, 0);
        assert_eq!(b % PS, 0);
        assert!(b >= a + PS, "ranges must not overlap");
        assert_eq!(t.allocated_bytes(), PS + 2 * PS);
    }

    #[test]
    fn freed_range_is_reused() {
        let mut t = VaTree::new();
        let a = t.alloc(PS, PS).unwrap();
        let _b = t.alloc(PS, PS).unwrap();
        t.free(a).unwrap();
        let c = t.alloc(PS, PS).unwrap();
        assert_eq!(c, a, "first-fit reuses the freed gap");
    }

    #[test]
    fn lookup_finds_containing_range() {
        let mut t = VaTree::new();
        let a = t.alloc(3 * PS, PS).unwrap();
        assert_eq!(t.lookup(a).unwrap(), (a, 3 * PS));
        assert_eq!(t.lookup(a + 2 * PS + 17).unwrap(), (a, 3 * PS));
        assert!(t.lookup(a + 3 * PS).is_err());
        assert!(t.lookup(0).is_err());
    }

    #[test]
    fn wire_fed_lengths_are_refused_not_wrapped() {
        let mut t = VaTree::new();
        // Rounding `u64::MAX` up to pages overflows.
        assert_eq!(t.alloc(u64::MAX, PS), Err(DmError::OutOfMemory));
        // So does the end of a range that is one page short of 2^64, both
        // in an empty tree and in front of an existing range.
        assert_eq!(t.alloc(u64::MAX - PS, PS), Err(DmError::OutOfMemory));
        let a = t.alloc(PS, PS).unwrap();
        assert_eq!(t.alloc(u64::MAX - PS, PS), Err(DmError::OutOfMemory));
        assert_eq!(t.len(), 1, "a refused allocation inserts nothing");
        // `va + len` wrapping past zero is out of bounds, not inside.
        assert_eq!(t.check_range(a, u64::MAX), Err(DmError::OutOfBounds));
        assert_eq!(t.check_range(a + 1, PS), Err(DmError::OutOfBounds));
        assert_eq!(t.check_range(a + PS, 1), Err(DmError::InvalidAddress));
        assert_eq!(t.check_range(a, PS), Ok(()));
    }

    #[test]
    fn free_unknown_start_errors() {
        let mut t = VaTree::new();
        let a = t.alloc(PS, PS).unwrap();
        assert!(t.free(a + PS).is_err());
        assert!(t.free(a).is_ok());
        assert!(t.free(a).is_err(), "double free rejected");
    }

    #[test]
    fn zero_len_alloc_rejected() {
        let mut t = VaTree::new();
        assert!(t.alloc(0, PS).is_err());
    }

    #[test]
    fn iter_restore_roundtrip() {
        let mut t = VaTree::new();
        let a = t.alloc(PS, PS).unwrap();
        let b = t.alloc(3 * PS, PS).unwrap();
        let mut u = VaTree::new();
        for (s, l) in t.iter() {
            u.restore_range(s, l);
        }
        assert_eq!(u.lookup(a).unwrap(), t.lookup(a).unwrap());
        assert_eq!(u.lookup(b).unwrap(), t.lookup(b).unwrap());
        assert_eq!(u.allocated_bytes(), t.allocated_bytes());
        // First-fit behaves identically after restore.
        assert_eq!(u.alloc(PS, PS).unwrap(), t.alloc(PS, PS).unwrap());
    }

    #[test]
    fn gap_filling_first_fit() {
        let mut t = VaTree::new();
        let a = t.alloc(PS, PS).unwrap();
        let b = t.alloc(4 * PS, PS).unwrap();
        let c = t.alloc(PS, PS).unwrap();
        t.free(b).unwrap();
        // A 2-page request fits in the 4-page hole before c.
        let d = t.alloc(2 * PS, PS).unwrap();
        assert_eq!(d, b);
        // Another 2-page request fits in the remainder of the hole.
        let e = t.alloc(2 * PS, PS).unwrap();
        assert_eq!(e, b + 2 * PS);
        assert!(e + 2 * PS <= c);
        let _ = a;
    }
}
