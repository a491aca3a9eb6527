//! [`Message`]: what an RPC carries — a small owned head in front of a
//! shared body.
//!
//! A layer that puts a prefix on a payload (a status word, an op byte, a
//! value tag) writes the prefix into the head and leaves the payload where
//! it is: the transmit path slices packets across the pair
//! ([`crate::wire::fragment`]) and the receiver gets the head and the
//! sender's body buffer back ([`crate::wire::Reassembly::assemble`]). This
//! is eRPC's msgbuf — header room in front of a payload the caller owns —
//! with the seam kept out of the wire format: a message *means* the
//! concatenation `head ‖ body`, packets carry exactly those bytes, and a
//! decoder must give the same answer wherever the seam falls (a datagram
//! from outside this stack arrives with all of it in one part).

use std::cell::Cell;

use bytes::Bytes;

thread_local! {
    static FLATTENED: Cell<u64> = const { Cell::new(0) };
}

/// Messages this thread had to make contiguous by copying: a
/// [`Message::into_bytes`] with bytes on both sides of the seam, or a
/// reassembly of fragments that are not views of one buffer. Zero on every
/// path this stack produces; a simulation runs on one thread, so a delta of
/// this across a run is that run's count.
pub fn flattened() -> u64 {
    FLATTENED.with(Cell::get)
}

pub(crate) fn count_flatten() {
    FLATTENED.with(|c| c.set(c.get() + 1));
}

/// One RPC message: `head ‖ body`. Cloning bumps two refcounts.
#[derive(Clone, Default, Debug)]
pub struct Message {
    /// Bytes in front of the body, built by the sender (copied once into
    /// the message's packet-header block, so keep it small).
    pub head: Bytes,
    /// The payload: shared, never copied on the way.
    pub body: Bytes,
}

impl Message {
    /// `head ‖ body`.
    pub fn new(head: impl Into<Bytes>, body: Bytes) -> Message {
        Message {
            head: head.into(),
            body,
        }
    }

    /// Total length.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Whether the message has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The two parts, in order.
    pub fn parts(&self) -> [&[u8]; 2] {
        [&self.head, &self.body]
    }

    /// Byte `i` of the message.
    pub fn get(&self, i: usize) -> Option<u8> {
        match i.checked_sub(self.head.len()) {
            None => self.head.get(i).copied(),
            Some(j) => self.body.get(j).copied(),
        }
    }

    /// The `N` bytes at offset `at` — a fixed-width field, read across the
    /// seam if it falls inside.
    pub fn array<const N: usize>(&self, at: usize) -> Option<[u8; N]> {
        let mut out = [0u8; N];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.get(at.checked_add(i)?)?;
        }
        Some(out)
    }

    /// The message without its first `n` bytes (all of it gone when `n`
    /// exceeds the length). No copy.
    pub fn skip(&self, n: usize) -> Message {
        match n.checked_sub(self.head.len()) {
            None => Message {
                head: self.head.slice(n..),
                body: self.body.clone(),
            },
            Some(m) => Message {
                head: Bytes::new(),
                body: self.body.slice(m.min(self.body.len())..),
            },
        }
    }

    /// `prefix ‖ self`: the prefix joins the head (both are copied into a new
    /// one, so keep them small); the body is left where it is.
    pub fn prefixed(self, prefix: &[u8]) -> Message {
        Message::new([prefix, &self.head].concat(), self.body)
    }

    /// The message as one buffer: the part that holds all of it, or — only
    /// when both parts hold bytes — one concatenating copy, counted in
    /// [`flattened`].
    pub fn into_bytes(self) -> Bytes {
        if self.head.is_empty() {
            return self.body;
        }
        if self.body.is_empty() {
            return self.head;
        }
        count_flatten();
        let mut whole = Vec::with_capacity(self.len());
        whole.extend_from_slice(&self.head);
        whole.extend_from_slice(&self.body);
        Bytes::from(whole)
    }
}

impl From<Bytes> for Message {
    /// A message that is all body.
    fn from(body: Bytes) -> Message {
        Message {
            head: Bytes::new(),
            body,
        }
    }
}

impl From<&Bytes> for Message {
    fn from(body: &Bytes) -> Message {
        body.clone().into()
    }
}

/// Messages are equal when their concatenations are, wherever the seams.
impl PartialEq for Message {
    fn eq(&self, other: &Message) -> bool {
        self.len() == other.len()
            && self
                .parts()
                .into_iter()
                .flatten()
                .eq(other.parts().into_iter().flatten())
    }
}

impl Eq for Message {}

impl PartialEq<[u8]> for Message {
    fn eq(&self, other: &[u8]) -> bool {
        self.len() == other.len() && self.parts().into_iter().flatten().eq(other)
    }
}

impl PartialEq<Bytes> for Message {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(head: &'static [u8], body: &'static [u8]) -> Message {
        Message::new(head, Bytes::from_static(body))
    }

    #[test]
    fn equality_and_indexing_ignore_the_seam() {
        let whole = b"status-and-payload";
        for cut in 0..=whole.len() {
            let m = msg(&whole[..cut], &whole[cut..]);
            assert_eq!(m, whole[..], "cut {cut}");
            assert_eq!(m, msg(whole, b""), "cut {cut}");
            assert_eq!(m.len(), whole.len());
            for (i, &b) in whole.iter().enumerate() {
                assert_eq!(m.get(i), Some(b), "cut {cut} byte {i}");
            }
            assert_eq!(m.get(whole.len()), None);
            assert_eq!(m.array(3), Some(*b"tus-an"), "cut {cut}");
            assert_eq!(m.array::<4>(whole.len() - 3), None);
            assert_eq!(m.array::<2>(usize::MAX), None);
            for n in 0..=whole.len() + 1 {
                assert_eq!(m.skip(n), whole[n.min(whole.len())..], "cut {cut} skip {n}");
            }
        }
        assert_eq!(msg(b"cd", b"ef").prefixed(b"ab"), b"abcdef"[..]);
        assert_ne!(msg(b"ab", b"c"), msg(b"ab", b"d"));
        assert_ne!(msg(b"ab", b"c"), msg(b"ab", b""));
    }

    #[test]
    fn into_bytes_copies_only_across_a_seam() {
        let body = Bytes::from(vec![7u8; 64]);
        let before = flattened();
        let out = Message::from(&body).into_bytes();
        assert_eq!(out.as_ptr(), body.as_ptr(), "all body: the body itself");
        let out = Message::new(&b"head"[..], Bytes::new()).into_bytes();
        assert_eq!(&out[..], b"head");
        // Skipping exactly the head leaves the body's own buffer.
        let out = Message::new(&b"head"[..], body.clone())
            .skip(4)
            .into_bytes();
        assert_eq!(out.as_ptr(), body.as_ptr());
        assert_eq!(flattened(), before, "no copy so far");
        let out = Message::new(&b"head"[..], body.clone()).into_bytes();
        assert_eq!((&out[..4], &out[4..]), (&b"head"[..], &body[..]));
        assert_eq!(flattened(), before + 1);
    }
}
