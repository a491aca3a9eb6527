//! Multi-op message framing: pack several sub-messages into one RPC
//! message body and unpack them zero-copy.
//!
//! The transport ([`crate::wire`]) moves opaque message bodies; batching
//! layers above it (e.g. the DM client's control-op coalescer) need to put
//! *several* logical operations inside one body. This module is that
//! framing, shared so every protocol that batches uses the same layout
//! and the same hostile-input hardening:
//!
//! * **Tagged** (requests): `[count u32][tag u8][len u32][bytes]...` —
//!   each sub-message carries a one-byte type tag, and the leading count
//!   lets the decoder pre-validate against forged headers.
//! * **Plain** (responses): `[len u32][bytes]...` to end of buffer — the
//!   sub-response order mirrors the request, so no tags are needed.
//!
//! Decoding slices the input [`Bytes`] instead of copying: each returned
//! sub-message shares the received buffer's storage. Encoding copies every
//! sub-message into the frame, head and body alike — framing is for small
//! control operations; a payload travels as a message of its own.

use bytes::{BufMut, Bytes, BytesMut};

use crate::message::Message;

/// Per-item framing overhead of the tagged layout (tag byte + u32 length).
const TAGGED_ITEM_HEADER: usize = 5;

/// Frame tagged sub-messages into one body.
pub fn encode_tagged(items: &[(u8, Bytes)]) -> Bytes {
    let len = 4 + items
        .iter()
        .map(|(_, b)| TAGGED_ITEM_HEADER + b.len())
        .sum::<usize>();
    let mut out = BytesMut::with_capacity(len);
    out.put_u32_le(items.len() as u32);
    for (tag, body) in items {
        out.put_u8(*tag);
        out.put_u32_le(body.len() as u32);
        out.extend_from_slice(body);
    }
    out.freeze()
}

/// Decode a tagged body into `(tag, sub-message)` items, zero-copy.
/// Returns `None` on any malformed input (short buffer, absurd count,
/// trailing garbage).
pub fn decode_tagged(body: &Bytes) -> Option<Vec<(u8, Bytes)>> {
    let mut pos = 0usize;
    let n = read_u32(body, &mut pos)? as usize;
    // Each item needs at least its frame header: a cheap sanity bound so
    // a hostile count cannot trigger a huge allocation.
    if n > body.len() / TAGGED_ITEM_HEADER {
        return None;
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = *body.get(pos)?;
        pos += 1;
        let len = read_u32(body, &mut pos)? as usize;
        items.push((tag, take(body, &mut pos, len)?));
    }
    if pos != body.len() {
        return None;
    }
    Some(items)
}

/// Bytes [`encode_plain_into`] appends for `items`.
pub fn plain_len(items: &[Message]) -> usize {
    items.iter().map(|m| 4 + m.len()).sum()
}

/// Frame untagged sub-messages behind whatever `out` already holds (a
/// caller's own header), so the frame is built in its final buffer.
pub fn encode_plain_into(items: &[Message], out: &mut Vec<u8>) {
    for item in items {
        out.put_u32_le(item.len() as u32);
        for part in item.parts() {
            out.extend_from_slice(part);
        }
    }
}

/// Decode an untagged body into its sub-messages, zero-copy. Returns
/// `None` on malformed input.
pub fn decode_plain(body: &Bytes) -> Option<Vec<Bytes>> {
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < body.len() {
        let len = read_u32(body, &mut pos)? as usize;
        out.push(take(body, &mut pos, len)?);
    }
    Some(out)
}

fn read_u32(body: &Bytes, pos: &mut usize) -> Option<u32> {
    let b = body.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(b.try_into().expect("len checked")))
}

fn take(body: &Bytes, pos: &mut usize, len: usize) -> Option<Bytes> {
    let end = pos.checked_add(len)?;
    if end > body.len() {
        return None;
    }
    let out = body.slice(*pos..end);
    *pos = end;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_plain(items: &[Bytes]) -> Bytes {
        // A seam inside a sub-message frames like the flat bytes.
        let items: Vec<Message> = items
            .iter()
            .map(|b| Message::new(b.slice(..b.len() / 2), b.slice(b.len() / 2..)))
            .collect();
        let mut out = Vec::with_capacity(plain_len(&items));
        encode_plain_into(&items, &mut out);
        assert_eq!(out.len(), plain_len(&items));
        Bytes::from(out)
    }

    #[test]
    fn tagged_roundtrip() {
        let items = vec![
            (7u8, Bytes::from_static(b"hello")),
            (1, Bytes::new()),
            (255, Bytes::from(vec![9u8; 4096])),
        ];
        assert_eq!(decode_tagged(&encode_tagged(&items)).unwrap(), items);
        assert_eq!(decode_tagged(&encode_tagged(&[])).unwrap(), vec![]);
    }

    #[test]
    fn plain_roundtrip() {
        let items = vec![
            Bytes::from_static(b"a"),
            Bytes::new(),
            Bytes::from_static(b"bcd"),
        ];
        assert_eq!(decode_plain(&encode_plain(&items)).unwrap(), items);
        assert_eq!(
            decode_plain(&encode_plain(&[])).unwrap(),
            vec![] as Vec<Bytes>
        );
    }

    #[test]
    fn decoding_is_zero_copy() {
        let items = vec![(3u8, Bytes::from(vec![5u8; 100]))];
        let body = encode_tagged(&items);
        let decoded = decode_tagged(&body).unwrap();
        assert_eq!(decoded[0].1.as_ptr(), body[9..].as_ptr());
    }

    #[test]
    fn rejects_malformed() {
        // Short / truncated buffers.
        assert!(decode_tagged(&Bytes::from_static(&[1, 2])).is_none());
        assert!(decode_plain(&Bytes::from_static(&[1, 2])).is_none());
        // Count claims more items than the body could hold.
        let huge = Bytes::copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_tagged(&huge).is_none());
        // Item length runs past the end of the buffer.
        let mut bad = encode_tagged(&[(1, Bytes::from_static(b"xy"))]).to_vec();
        bad[5] = 200; // inflate the item length
        assert!(decode_tagged(&Bytes::from(bad)).is_none());
        let mut badp = encode_plain(&[Bytes::from_static(b"xy")]).to_vec();
        badp[0] = 200;
        assert!(decode_plain(&Bytes::from(badp)).is_none());
        // Trailing garbage after the declared items.
        let mut trail = encode_tagged(&[(1, Bytes::from_static(b"xy"))]).to_vec();
        trail.push(0xEE);
        assert!(decode_tagged(&Bytes::from(trail)).is_none());
    }
}
