//! In-repo stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build environment for this repository has no network access to
//! crates.io, so the handful of `bytes` APIs the workspace actually uses are
//! reimplemented here and wired in via a workspace path dependency. The
//! semantics mirror the real crate where the APIs overlap:
//!
//! * [`Bytes`] — an immutable, reference-counted byte buffer. `clone` and
//!   [`Bytes::slice`] are O(1) and share the underlying storage (this is what
//!   makes the RPC layer's zero-copy fragmentation genuinely copy-free).
//! * [`BytesMut`] — a growable buffer that converts into `Bytes` with
//!   [`BytesMut::freeze`].
//! * [`BufMut`] — the little-endian `put_*` appenders used by the codecs.
//!
//! Two deliberate extensions over the real crate:
//! [`Bytes::try_unsplit`] merges two slices that are adjacent views of the
//! same allocation back into one `Bytes` without copying. `rpclib`'s
//! reassembly path uses it to return the original message buffer when all
//! fragments are contiguous slices of one send (`BytesMut::unsplit` is the
//! upstream analogue, but only for mutable buffers). [`SharedBuf`] is a
//! one-pointer handle on a `Bytes`' storage ([`Bytes::into_shared`], and
//! back through [`SharedBuf::slice`]) for holders of many small views;
//! `dmnet`'s page store is the user.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The backing storage of a [`Bytes`]: either a borrowed `'static` slice
/// (no refcount) or a shared heap allocation.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Repr {
    #[inline]
    fn as_full_slice(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s,
            Repr::Shared(a) => a.as_slice(),
        }
    }

    /// Whether two reprs point at the same underlying storage.
    #[inline]
    fn same_storage(&self, other: &Repr) -> bool {
        match (self, other) {
            (Repr::Static(a), Repr::Static(b)) => std::ptr::eq(*a, *b),
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A cheaply cloneable, immutable slice of reference-counted bytes.
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[inline]
    pub const fn new() -> Bytes {
        Bytes {
            repr: Repr::Static(&[]),
            off: 0,
            len: 0,
        }
    }

    /// Wrap a `'static` slice without copying or allocating.
    #[inline]
    pub const fn from_static(s: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(s),
            off: 0,
            len: s.len(),
        }
    }

    /// Copy an arbitrary slice into a fresh shared buffer.
    #[inline]
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    /// Number of bytes in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-slice sharing the same storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            lo <= hi && hi <= self.len,
            "slice range {lo}..{hi} out of bounds for Bytes of length {}",
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + lo,
            len: hi - lo,
        }
    }

    /// Copy this view into a fresh `Vec<u8>`.
    #[inline]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.repr.as_full_slice()[self.off..self.off + self.len]
    }

    /// Merge two adjacent views of the same storage into one, without
    /// copying. Returns `Err((self, next))` unchanged if the views are not
    /// contiguous slices of a single allocation.
    ///
    /// This is how reassembled RPC messages hand the receiver the *original*
    /// sender-side buffer when every fragment was a [`Bytes::slice`] of one
    /// message (the zero-copy wire path; see `rpclib::wire`).
    pub fn try_unsplit(self, next: Bytes) -> Result<Bytes, (Bytes, Bytes)> {
        if self.is_empty() {
            return Ok(next);
        }
        if next.is_empty() {
            return Ok(self);
        }
        if self.repr.same_storage(&next.repr) && self.off + self.len == next.off {
            Ok(Bytes {
                len: self.len + next.len,
                ..self
            })
        } else {
            Err((self, next))
        }
    }
}

impl Default for Bytes {
    #[inline]
    fn default() -> Bytes {
        Bytes::new()
    }
}

/// A one-pointer handle on the heap allocation behind a [`Bytes`] (the
/// second extension over the real crate). A holder that keeps many small
/// views of few large buffers — the DM server's page store keeps one per
/// 4 KiB page — stores this plus its own offset and length instead of a
/// four-word `Bytes` per view. The handle is immutable while shared;
/// [`SharedBuf::get_mut`] hands out the bytes once it is the only one left.
#[derive(Clone)]
pub struct SharedBuf(Arc<Vec<u8>>);

impl SharedBuf {
    /// The whole allocation.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// The whole allocation, mutably — `None` while any other handle or
    /// `Bytes` view of it is alive.
    #[inline]
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(&mut self.0).map(Vec::as_mut_slice)
    }

    /// Whether `self` and `other` are handles on one allocation.
    #[inline]
    pub fn ptr_eq(&self, other: &SharedBuf) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A [`Bytes`] view of `range` of the allocation, sharing it — the
    /// inverse of [`Bytes::into_shared`]. No copy.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.0.len(),
            "slice range {range:?} out of bounds for SharedBuf of length {}",
            self.0.len()
        );
        Bytes {
            repr: Repr::Shared(self.0.clone()),
            off: range.start,
            len: range.len(),
        }
    }
}

impl From<Vec<u8>> for SharedBuf {
    #[inline]
    fn from(v: Vec<u8>) -> SharedBuf {
        SharedBuf(Arc::new(v))
    }
}

impl Bytes {
    /// Split this view into its storage and the offset it starts at there;
    /// the view is `storage.as_slice()[offset..offset + len]`. No copy,
    /// except that a `'static` view moves to the heap first.
    pub fn into_shared(self) -> (SharedBuf, usize) {
        match self.repr {
            Repr::Shared(a) => (SharedBuf(a), self.off),
            Repr::Static(s) => (
                SharedBuf::from(s[self.off..self.off + self.len].to_vec()),
                0,
            ),
        }
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Bytes {
        Bytes {
            repr: self.repr.clone(),
            off: self.off,
            len: self.len,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    #[inline]
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    #[inline]
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<String> for Bytes {
    #[inline]
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    #[inline]
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    #[inline]
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Bytes {
    #[inline]
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    #[inline]
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[inline]
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with pre-reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no bytes have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reserve additional capacity.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Resize, filling with `value`.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    /// Truncate to `len` bytes.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Convert into an immutable [`Bytes`] (no copy).
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.buf).fmt(f)
    }
}

impl From<Vec<u8>> for BytesMut {
    #[inline]
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

/// Little-endian appenders for building wire messages.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
    }

    #[test]
    fn try_unsplit_rejoins_adjacent_slices() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let lo = b.slice(0..40);
        let hi = b.slice(40..100);
        let joined = lo.try_unsplit(hi).expect("adjacent");
        assert_eq!(joined, b);
    }

    #[test]
    fn try_unsplit_rejects_gaps_and_foreign_buffers() {
        let b = Bytes::from(vec![0u8; 10]);
        let lo = b.slice(0..4);
        let hi = b.slice(5..10); // gap at index 4
        assert!(lo.try_unsplit(hi).is_err());
        let other = Bytes::from(vec![0u8; 10]);
        assert!(b.slice(0..5).try_unsplit(other.slice(5..10)).is_err());
    }

    #[test]
    fn try_unsplit_with_empty_side_passes_through() {
        let b = Bytes::from(vec![9u8; 4]);
        assert_eq!(Bytes::new().try_unsplit(b.clone()).unwrap(), b);
        assert_eq!(b.clone().try_unsplit(Bytes::new()).unwrap(), b);
    }

    #[test]
    fn shared_buf_aliases_until_it_is_the_last_handle() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let view = b.slice(10..20);
        let (mut buf, off) = view.into_shared();
        assert_eq!(
            std::mem::size_of::<Option<SharedBuf>>(),
            8,
            "thin, with a niche"
        );
        assert_eq!(off, 10);
        assert_eq!(&buf.as_slice()[off..off + 10], &b[10..20]);
        assert!(buf.get_mut().is_none(), "`b` still sees the storage");
        // And back: a view of the storage is the bytes it came from.
        let back = buf.slice(off + 2..off + 6);
        assert_eq!(back.as_ptr(), b[12..].as_ptr());
        assert_eq!(back, b.slice(12..16));
        assert!(buf.ptr_eq(&back.clone().into_shared().0));
        drop((b, back));
        buf.get_mut().expect("last handle")[10] = 0xFF;
        assert_eq!(buf.as_slice()[10], 0xFF);
        // A static view has no heap storage to share: it is copied once.
        let (buf, off) = Bytes::from_static(b"hello").slice(1..3).into_shared();
        assert_eq!((&buf.as_slice()[off..], off), (&b"el"[..], 0));
    }

    #[test]
    fn freeze_and_bufmut_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u16_le(258);
        m.put_u32_le(1);
        m.put_u64_le(u64::MAX);
        m.extend_from_slice(b"xy");
        let b = m.freeze();
        assert_eq!(b.len(), 1 + 2 + 4 + 8 + 2);
        assert_eq!(b[0], 7);
        assert_eq!(u16::from_le_bytes(b[1..3].try_into().unwrap()), 258);
        assert_eq!(&b[15..], b"xy");
    }

    #[test]
    fn equality_and_static() {
        let a = Bytes::from_static(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a, b"hello"[..]);
        assert!(a.slice(0..0).is_empty());
    }
}
