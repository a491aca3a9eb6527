//! Wire format: a fixed 20-byte packet header, an optional trace-context
//! extension, and a payload fragment.
//!
//! Mirrors eRPC's design: messages are fragmented into MTU-sized packets;
//! the header carries the request number, fragment index and total message
//! length so the receiver can reassemble out-of-order fragments. A
//! [`Message`] is `head ‖ body` and packet `i` carries bytes
//! `[i × MTU, (i + 1) × MTU)` of that concatenation whatever the split:
//! the head bytes a packet covers ride behind its header in the first
//! gather segment, the body bytes are a shared slice in the second. The low
//! [`SLOT_BITS`] of the request number name the caller's session slot, the
//! bits above them a per-endpoint monotonic sequence ([`req_num`]), so a
//! later request on a slot always carries a higher number than an earlier
//! one — which is what lets it acknowledge its predecessor implicitly.
//!
//! Header byte 3 is a flags byte (zero since the first wire revision, so
//! old headers parse as flag-free). [`FLAG_TRACE`] marks a sampled
//! request: a small TLV extension carrying the [`TraceCtx`] follows the
//! fixed header. Unsampled traffic is byte-identical to the pre-telemetry
//! format — tracing that is off cannot perturb the packet schedule.

use bytes::{Bytes, BytesMut};
use telemetry::TraceCtx;

use crate::message::{count_flatten, Message};

/// Packet kind discriminator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Request fragment (client → server).
    Request = 1,
    /// Response fragment (server → client).
    Response = 2,
}

impl Kind {
    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::Request),
            2 => Some(Kind::Response),
            _ => None,
        }
    }
}

/// Magic byte guarding against stray datagrams.
pub const MAGIC: u8 = 0xD7;

/// Fixed header size in bytes (excluding the optional trace extension).
pub const HEADER_BYTES: usize = 20;

/// Low bits of `req_num` that carry the caller's session slot.
pub const SLOT_BITS: u32 = 24;

/// Pack a call's sequence number and session slot into a wire `req_num`.
///
/// # Panics
/// Panics if either does not fit its field: more than 2^24 calls
/// outstanding to one peer, or 2^40 calls issued by one endpoint.
pub fn req_num(seq: u64, slot: u32) -> u64 {
    assert!(slot >> SLOT_BITS == 0, "session slot {slot} out of range");
    assert!(
        seq >> (64 - SLOT_BITS) == 0,
        "request sequence {seq} out of range"
    );
    seq << SLOT_BITS | slot as u64
}

/// The session slot a `req_num` was issued on.
pub fn slot_of(req_num: u64) -> u32 {
    (req_num & ((1 << SLOT_BITS) - 1)) as u32
}

/// Flags-byte bit: a trace-context extension follows the fixed header.
pub const FLAG_TRACE: u8 = 0x01;

/// Serialized trace-extension size: field count byte + 2 × (id + u64).
pub const TRACE_EXT_BYTES: usize = 1 + 2 * 9;

/// Parsed packet header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Header {
    /// Packet kind.
    pub kind: Kind,
    /// Request handler type (application-level method id).
    pub req_type: u8,
    /// Client-assigned request number, unique per client endpoint:
    /// sequence above [`SLOT_BITS`] of session slot (see [`req_num`]).
    pub req_num: u64,
    /// Fragment index in `[0, num_pkts)`.
    pub pkt_idx: u16,
    /// Total number of fragments in the message.
    pub num_pkts: u16,
    /// Total message length in bytes.
    pub msg_len: u32,
    /// Trace context for sampled requests (rides the wire as a TLV
    /// extension after the fixed header; absent on unsampled traffic).
    pub trace: Option<TraceCtx>,
}

impl Header {
    /// Encode the header (and trace extension, if any) into its own
    /// buffer: [`HEADER_BYTES`] long, plus [`TRACE_EXT_BYTES`] when
    /// traced.
    pub fn encode_header(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Bytes [`Header::encode_header`] produces for this header.
    fn encoded_len(&self) -> usize {
        match self.trace {
            Some(_) => HEADER_BYTES + TRACE_EXT_BYTES,
            None => HEADER_BYTES,
        }
    }

    /// Append the encoded header (and trace extension, if any) to `b`.
    fn encode_into(&self, b: &mut BytesMut) {
        let flags = if self.trace.is_some() { FLAG_TRACE } else { 0 };
        b.extend_from_slice(&[MAGIC, self.kind as u8, self.req_type, flags]);
        b.extend_from_slice(&self.req_num.to_le_bytes());
        b.extend_from_slice(&self.pkt_idx.to_le_bytes());
        b.extend_from_slice(&self.num_pkts.to_le_bytes());
        b.extend_from_slice(&self.msg_len.to_le_bytes());
        if let Some(ctx) = self.trace {
            encode_trace_ext(ctx, b);
        }
    }

    /// Encode the header and append the fragment payload into one contiguous
    /// buffer (copies the fragment; the transmit path uses [`Packet`] with a
    /// shared fragment slice instead).
    pub fn encode(&self, fragment: &[u8]) -> Bytes {
        let mut b = BytesMut::with_capacity(HEADER_BYTES + fragment.len());
        b.extend_from_slice(&self.encode_header());
        b.extend_from_slice(fragment);
        b.freeze()
    }

    /// Decode a contiguous packet into `(header, fragment)`. Returns `None`
    /// for malformed packets (wrong magic, short, unknown kind, bad trace
    /// extension).
    pub fn decode(packet: &Bytes) -> Option<(Header, Bytes)> {
        let (hdr, used) = Self::parse(packet)?;
        Some((hdr, packet.slice(used..)))
    }

    /// Decode a packet delivered as two gather segments, the shape the
    /// transmit path produces: the header leads the first, and the fragment
    /// is what is left of the first followed by the second — shared, not
    /// copied. A contiguous packet in either segment (a raw hostile
    /// datagram) decodes identically.
    pub fn decode_split(head: &Bytes, body: &Bytes) -> Option<(Header, Message)> {
        if let Some((hdr, used)) = Self::parse(head) {
            // All header (every packet but a message's first few): no share
            // of the message head to keep the header block alive for.
            let rest = if used == head.len() {
                Bytes::new()
            } else {
                head.slice(used..)
            };
            return Some((hdr, Message::new(rest, body.clone())));
        }
        if head.is_empty() || body.is_empty() {
            let (hdr, frag) = Self::decode(if head.is_empty() { body } else { head })?;
            return Some((hdr, frag.into()));
        }
        // The header itself straddles the segments (never produced by this
        // stack): decode a contiguous copy.
        let mut whole = BytesMut::with_capacity(head.len() + body.len());
        whole.extend_from_slice(head);
        whole.extend_from_slice(body);
        let (hdr, frag) = Self::decode(&whole.freeze())?;
        Some((hdr, frag.into()))
    }

    /// Parse the header (and trace extension, if flagged) at the front of
    /// `buf`. Returns the header and the number of bytes consumed.
    fn parse(buf: &[u8]) -> Option<(Header, usize)> {
        if buf.len() < HEADER_BYTES || buf[0] != MAGIC {
            return None;
        }
        let kind = Kind::from_u8(buf[1])?;
        let req_type = buf[2];
        let flags = buf[3];
        if flags & !FLAG_TRACE != 0 {
            return None; // Unknown flag bits: not ours.
        }
        let req_num = u64::from_le_bytes(buf[4..12].try_into().ok()?);
        let pkt_idx = u16::from_le_bytes(buf[12..14].try_into().ok()?);
        let num_pkts = u16::from_le_bytes(buf[14..16].try_into().ok()?);
        let msg_len = u32::from_le_bytes(buf[16..20].try_into().ok()?);
        if pkt_idx >= num_pkts {
            return None;
        }
        let (trace, used) = if flags & FLAG_TRACE != 0 {
            let (ctx, ext) = decode_trace_ext(&buf[HEADER_BYTES..]).ok()?;
            (Some(ctx), HEADER_BYTES + ext)
        } else {
            (None, HEADER_BYTES)
        };
        Some((
            Header {
                kind,
                req_type,
                req_num,
                pkt_idx,
                num_pkts,
                msg_len,
                trace,
            },
            used,
        ))
    }
}

// ---------------------------------------------------------------------------
// Trace-context extension (TLV).
// ---------------------------------------------------------------------------

/// Trace-extension field id: trace identifier.
const TRACE_FIELD_TRACE_ID: u8 = 1;
/// Trace-extension field id: parent span identifier.
const TRACE_FIELD_SPAN_ID: u8 = 2;
/// Hard cap on the declared field count (hostile-input bound).
const MAX_TRACE_FIELDS: u8 = 4;

/// Why a trace extension failed to decode. Malformed extensions drop the
/// whole packet (the transport treats them like any other garbage
/// datagram); the typed error exists so hardening tests can assert the
/// failure mode instead of fishing for panics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceExtError {
    /// Buffer ended before the declared fields.
    Truncated,
    /// Declared field count exceeds the protocol bound.
    TooManyFields,
    /// The same field id appeared twice.
    DuplicateField,
    /// A field id this revision does not define.
    UnknownField,
    /// A required field (trace id / span id) is absent.
    MissingField,
}

/// Append the TLV trace extension for `ctx` to `out`
/// ([`TRACE_EXT_BYTES`] bytes: `[n=2][id][u64 LE]×2`).
pub fn encode_trace_ext(ctx: TraceCtx, out: &mut BytesMut) {
    out.extend_from_slice(&[2]);
    out.extend_from_slice(&[TRACE_FIELD_TRACE_ID]);
    out.extend_from_slice(&ctx.trace_id.to_le_bytes());
    out.extend_from_slice(&[TRACE_FIELD_SPAN_ID]);
    out.extend_from_slice(&ctx.span_id.to_le_bytes());
}

/// Decode a TLV trace extension from the front of `buf`. Returns the
/// context and the number of bytes consumed. Total function: any input —
/// truncated, oversized, duplicated, unknown — yields a typed error,
/// never a panic.
pub fn decode_trace_ext(buf: &[u8]) -> Result<(TraceCtx, usize), TraceExtError> {
    let n = *buf.first().ok_or(TraceExtError::Truncated)?;
    if n > MAX_TRACE_FIELDS {
        return Err(TraceExtError::TooManyFields);
    }
    let mut pos = 1usize;
    let mut trace_id: Option<u64> = None;
    let mut span_id: Option<u64> = None;
    for _ in 0..n {
        let id = *buf.get(pos).ok_or(TraceExtError::Truncated)?;
        pos += 1;
        let raw = buf
            .get(pos..pos + 8)
            .ok_or(TraceExtError::Truncated)?
            .try_into()
            .expect("len checked");
        pos += 8;
        let v = u64::from_le_bytes(raw);
        let slot = match id {
            TRACE_FIELD_TRACE_ID => &mut trace_id,
            TRACE_FIELD_SPAN_ID => &mut span_id,
            _ => return Err(TraceExtError::UnknownField),
        };
        if slot.replace(v).is_some() {
            return Err(TraceExtError::DuplicateField);
        }
    }
    match (trace_id, span_id) {
        (Some(trace_id), Some(span_id)) => Ok((TraceCtx { trace_id, span_id }, pos)),
        _ => Err(TraceExtError::MissingField),
    }
}

/// One wire packet as a two-part gather list. Keeping the body bytes as a
/// slice of the original message (instead of copying them behind the
/// header) is what makes the transmit path zero-copy.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Encoded header — [`HEADER_BYTES`] long, plus [`TRACE_EXT_BYTES`]
    /// when the packet carries a trace context — followed by the bytes of
    /// the message head this packet covers (packet 0 only, for any head
    /// shorter than the MTU).
    pub head: Bytes,
    /// The bytes of the message body this packet covers: a shared slice.
    pub body: Bytes,
}

impl Packet {
    /// Total serialized length (header + fragment).
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Whether the packet is empty (never true for packets built here).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The longest message [`fragment`] can frame at `mtu`: `num_pkts` is a
/// `u16` and `msg_len` a `u32`. Callers holding a length from outside the
/// program check it against this before building anything.
pub fn max_msg_len(mtu: usize) -> usize {
    (u16::MAX as usize)
        .saturating_mul(mtu)
        .min(u32::MAX as usize)
}

/// Fragment `msg` into MTU-sized packets with the given header template.
/// Always emits at least one packet (possibly carrying nothing). Packet `i`
/// covers bytes `[i × mtu, (i + 1) × mtu)` of `head ‖ body`, so the packets
/// of a message are byte for byte those of its flat concatenation; body
/// bytes are shared slices of `msg.body` — no payload byte is copied — and
/// every first segment is a slice of one block encoded for the whole
/// message: each packet's [`Header::encode_header`] followed by its share
/// of the message head. A trace context, if given, rides every fragment's
/// header so any one surviving packet lets the receiver parent its work
/// correctly.
///
/// # Panics
/// Panics if `msg` is longer than [`max_msg_len`].
pub fn fragment(
    kind: Kind,
    req_type: u8,
    req_num: u64,
    msg: impl Into<Message>,
    mtu: usize,
    trace: Option<TraceCtx>,
) -> Vec<Packet> {
    assert!(mtu > 0, "mtu must be positive");
    let Message { head, body } = msg.into();
    let (h, total) = (head.len(), head.len() + body.len());
    assert!(
        total <= max_msg_len(mtu),
        "message too large to frame: {total} bytes at mtu {mtu}"
    );
    let num_pkts = total.div_ceil(mtu).max(1);
    let mut hdr = Header {
        kind,
        req_type,
        req_num,
        pkt_idx: 0,
        num_pkts: num_pkts as u16,
        msg_len: total as u32,
        trace,
    };
    let hdr_len = hdr.encoded_len();
    // Where packet `i`'s range of the message starts and ends.
    let cut = |i: usize| (i * mtu).min(total);
    let mut block = BytesMut::with_capacity(num_pkts * hdr_len + h);
    for i in 0..num_pkts {
        hdr.pkt_idx = i as u16;
        hdr.encode_into(&mut block);
        if cut(i) < h {
            block.extend_from_slice(&head[cut(i)..cut(i + 1).min(h)]);
        }
    }
    let block = block.freeze();
    (0..num_pkts)
        .map(|i| {
            let (lo, hi) = (cut(i), cut(i + 1));
            Packet {
                head: block.slice(i * hdr_len + lo.min(h)..(i + 1) * hdr_len + hi.min(h)),
                body: body.slice(lo.saturating_sub(h)..hi.saturating_sub(h)),
            }
        })
        .collect()
}

/// Incremental message reassembly from fragments.
pub struct Reassembly {
    slots: Vec<Option<Message>>,
    received: usize,
    msg_len: u32,
}

impl Reassembly {
    /// Start reassembly from the first fragment seen (any index).
    pub fn new(hdr: &Header, frag: impl Into<Message>) -> Reassembly {
        let mut r = Reassembly {
            slots: vec![None; hdr.num_pkts as usize],
            received: 0,
            msg_len: hdr.msg_len,
        };
        r.offer(hdr, frag);
        r
    }

    /// Offer a fragment; duplicates are ignored. Returns `true` when the
    /// message is complete.
    ///
    /// Fragments whose `num_pkts` or `msg_len` disagree with the first
    /// fragment seen are rejected: they belong to a different (possibly
    /// forged) message and previously could corrupt the assembled payload by
    /// landing in a valid slot index.
    pub fn offer(&mut self, hdr: &Header, frag: impl Into<Message>) -> bool {
        if hdr.num_pkts as usize != self.slots.len() || hdr.msg_len != self.msg_len {
            return self.is_complete();
        }
        let idx = hdr.pkt_idx as usize;
        if idx < self.slots.len() && self.slots[idx].is_none() {
            self.slots[idx] = Some(frag.into());
            self.received += 1;
        }
        self.is_complete()
    }

    /// Whether all fragments have arrived.
    pub fn is_complete(&self) -> bool {
        self.received == self.slots.len()
    }

    /// Put the fragments back together.
    ///
    /// The pieces (each fragment's first part, then its second) are merged
    /// wherever they are adjacent views of one buffer. The last merged run
    /// is the body: for the shape [`fragment`] produces and the simulated
    /// fabric preserves, that is the sender's own body buffer, and the one
    /// piece in front of it — packet 0's share of the header block — is the
    /// head, so nothing is copied. Pieces from foreign allocations (e.g.
    /// deserialized from a real socket) leave more than one piece in front;
    /// those are concatenated into the head by one copy, counted in
    /// [`crate::flattened`].
    ///
    /// # Panics
    /// Panics if the message is not complete.
    pub fn assemble(self) -> Message {
        assert!(self.is_complete(), "assembling incomplete message");
        let mut slots = self.slots;
        if slots.len() == 1 {
            // One packet: its two parts are the message's.
            return slots.pop().flatten().expect("slot filled");
        }
        let mut head = Bytes::new();
        let mut spill: Option<Vec<u8>> = None;
        let mut run = Bytes::new();
        let pieces = slots.into_iter().flat_map(|s| {
            let frag = s.expect("slot filled");
            [frag.head, frag.body]
        });
        for piece in pieces {
            run = match run.try_unsplit(piece) {
                Ok(merged) => merged,
                Err((done, next)) => {
                    if head.is_empty() && spill.is_none() {
                        head = done;
                    } else {
                        spill
                            .get_or_insert_with(|| head.to_vec())
                            .extend_from_slice(&done);
                    }
                    next
                }
            };
        }
        if let Some(spill) = spill {
            count_flatten();
            head = Bytes::from(spill);
        }
        Message { head, body: run }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(kind: Kind) -> Header {
        Header {
            kind,
            req_type: 7,
            req_num: 0xDEAD_BEEF_0123,
            pkt_idx: 0,
            num_pkts: 1,
            msg_len: 5,
            trace: None,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = hdr(Kind::Request);
        let pkt = h.encode(b"hello");
        assert_eq!(pkt.len(), HEADER_BYTES + 5);
        let (h2, frag) = Header::decode(&pkt).unwrap();
        assert_eq!(h, h2);
        assert_eq!(&frag[..], b"hello");
    }

    #[test]
    fn traced_header_roundtrip_and_sizes() {
        let ctx = TraceCtx {
            trace_id: 0x1122_3344_5566_7788,
            span_id: 0x99AA_BBCC_DDEE_FF00,
        };
        let mut h = hdr(Kind::Request);
        h.trace = Some(ctx);
        let head = h.encode_header();
        assert_eq!(head.len(), HEADER_BYTES + TRACE_EXT_BYTES);
        let pkt = h.encode(b"hello");
        let (h2, frag) = Header::decode(&pkt).unwrap();
        assert_eq!(h2.trace, Some(ctx));
        assert_eq!(&frag[..], b"hello");
        // Untraced headers keep the exact pre-extension encoding.
        assert_eq!(hdr(Kind::Request).encode_header().len(), HEADER_BYTES);
    }

    #[test]
    fn traced_decode_split_stays_zero_copy() {
        let payload = Bytes::from(vec![42u8; 300]);
        let ctx = TraceCtx {
            trace_id: 1,
            span_id: 2,
        };
        for trace in [None, Some(ctx)] {
            let pkts = fragment(Kind::Request, 1, 5, &payload, 4096, trace);
            assert_eq!(pkts.len(), 1);
            let (h, frag) = Header::decode_split(&pkts[0].head, &pkts[0].body).unwrap();
            assert_eq!(h.trace, trace);
            // Zero-copy: the returned fragment is the body slice itself.
            assert!(frag.head.is_empty());
            assert_eq!(frag.body.as_ptr(), pkts[0].body.as_ptr());
        }
    }

    #[test]
    fn trace_ext_decode_rejects_each_malformation() {
        let ctx = TraceCtx {
            trace_id: 7,
            span_id: 8,
        };
        let mut good = BytesMut::new();
        encode_trace_ext(ctx, &mut good);
        assert_eq!(decode_trace_ext(&good), Ok((ctx, TRACE_EXT_BYTES)));

        assert_eq!(decode_trace_ext(&[]), Err(TraceExtError::Truncated));
        assert_eq!(
            decode_trace_ext(&good[..TRACE_EXT_BYTES - 1]),
            Err(TraceExtError::Truncated)
        );
        assert_eq!(decode_trace_ext(&[5]), Err(TraceExtError::TooManyFields));
        let mut dup = vec![2u8];
        for _ in 0..2 {
            dup.push(1);
            dup.extend_from_slice(&7u64.to_le_bytes());
        }
        assert_eq!(decode_trace_ext(&dup), Err(TraceExtError::DuplicateField));
        let mut unknown = vec![1u8, 9u8];
        unknown.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(decode_trace_ext(&unknown), Err(TraceExtError::UnknownField));
        let mut missing = vec![1u8, 2u8];
        missing.extend_from_slice(&8u64.to_le_bytes());
        assert_eq!(decode_trace_ext(&missing), Err(TraceExtError::MissingField));

        // A header advertising a malformed extension drops cleanly.
        let mut h = hdr(Kind::Request);
        h.trace = Some(ctx);
        let mut raw = h.encode(b"x").to_vec();
        raw[HEADER_BYTES] = 5; // corrupt the field count
        assert!(Header::decode(&Bytes::from(raw)).is_none());
        // Unknown flag bits are rejected outright.
        let mut flags = hdr(Kind::Request).encode(b"x").to_vec();
        flags[3] = 0x80;
        assert!(Header::decode(&Bytes::from(flags)).is_none());
    }

    /// The header block is an allocation detail: every head `fragment`
    /// hands out is the per-packet reference encoding, byte for byte.
    #[test]
    fn fragment_heads_equal_the_per_packet_encoding() {
        const MTU: usize = 64;
        let ctx = TraceCtx {
            trace_id: 0x0102_0304_0506_0708,
            span_id: 0x1112_1314_1516_1718,
        };
        for trace in [None, Some(ctx)] {
            for num_pkts in [1usize, 2, 65] {
                let payload = Bytes::from(vec![5u8; num_pkts * MTU - 3]);
                let pkts = fragment(Kind::Request, 9, req_num(77, 3), &payload, MTU, trace);
                assert_eq!(pkts.len(), num_pkts);
                for (i, p) in pkts.iter().enumerate() {
                    let reference = Header {
                        kind: Kind::Request,
                        req_type: 9,
                        req_num: req_num(77, 3),
                        pkt_idx: i as u16,
                        num_pkts: num_pkts as u16,
                        msg_len: payload.len() as u32,
                        trace,
                    };
                    assert_eq!(
                        p.head,
                        reference.encode_header(),
                        "{num_pkts} pkts, head {i}"
                    );
                }
            }
        }
        assert_eq!(HEADER_BYTES, 20);
    }

    #[test]
    fn trace_ctx_rides_every_fragment() {
        let payload = Bytes::from(vec![9u8; 1000]);
        let ctx = TraceCtx {
            trace_id: 3,
            span_id: 4,
        };
        let pkts = fragment(Kind::Request, 1, 5, &payload, 100, Some(ctx));
        assert_eq!(pkts.len(), 10);
        for p in &pkts {
            let (h, _) = Header::decode_split(&p.head, &p.body).unwrap();
            assert_eq!(h.trace, Some(ctx), "ctx survives on every fragment");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Header::decode(&Bytes::from_static(b"short")).is_none());
        let mut bad = hdr(Kind::Response).encode(b"").to_vec();
        bad[0] = 0x00; // wrong magic
        assert!(Header::decode(&Bytes::from(bad)).is_none());
        // 3 was once a kind (the standalone ACK); it must not decode.
        for kind in [0u8, 3, 99] {
            let mut badkind = hdr(Kind::Response).encode(b"").to_vec();
            badkind[1] = kind;
            assert!(Header::decode(&Bytes::from(badkind)).is_none(), "{kind}");
        }
        // pkt_idx >= num_pkts
        let mut h = hdr(Kind::Request);
        h.pkt_idx = 3;
        h.num_pkts = 2;
        assert!(Header::decode(&h.encode(b"x")).is_none());
    }

    #[test]
    fn req_num_orders_a_slot_by_sequence() {
        let top = (1 << SLOT_BITS) - 1;
        assert_eq!(slot_of(req_num(1, 0)), 0);
        assert_eq!(slot_of(req_num(9, top)), top);
        // A later sequence wins on any slot, whatever the slots were.
        assert!(req_num(2, 0) > req_num(1, top));
        assert_eq!(req_num(5, 3) >> SLOT_BITS, 5);
    }

    #[test]
    fn fragment_empty_payload_one_packet() {
        let pkts = fragment(Kind::Request, 1, 9, Bytes::new(), 100, None);
        assert_eq!(pkts.len(), 1);
        let (h, frag) = Header::decode_split(&pkts[0].head, &pkts[0].body).unwrap();
        assert_eq!(h.num_pkts, 1);
        assert_eq!(h.msg_len, 0);
        assert!(frag.is_empty());
    }

    #[test]
    fn fragment_and_reassemble_multi_packet() {
        let payload: Bytes = (0..10_000u32)
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>()
            .into();
        let pkts = fragment(Kind::Response, 2, 11, &payload, 4096, None);
        assert_eq!(pkts.len(), 10); // 40_000 / 4096 = 9.7 -> 10
                                    // Reassemble out of order with a duplicate.
        let mut parsed: Vec<(Header, Message)> = pkts
            .iter()
            .map(|p| Header::decode_split(&p.head, &p.body).unwrap())
            .collect();
        parsed.rotate_left(3);
        let (h0, f0) = parsed[0].clone();
        let mut r = Reassembly::new(&h0, f0);
        let dup = parsed[0].clone();
        r.offer(&dup.0, dup.1); // duplicate, ignored
        let mut complete = false;
        for (h, f) in parsed.into_iter().skip(1) {
            complete = r.offer(&h, f);
        }
        assert!(complete);
        assert_eq!(r.assemble(), payload);
    }

    #[test]
    fn fragment_sizes_cover_payload_exactly() {
        let payload = Bytes::from(vec![7u8; 8192]);
        let pkts = fragment(Kind::Request, 0, 1, &payload, 4096, None);
        assert_eq!(pkts.len(), 2);
        for p in &pkts {
            assert_eq!(p.body.len(), 4096);
            assert_eq!(p.len(), HEADER_BYTES + 4096);
        }
    }

    /// A head in front of the body moves every cut by its length and
    /// nothing else: same packet sizes, body bytes still shared, and the
    /// receiver gets the head and the sender's body buffer back.
    #[test]
    fn head_rides_packet_zero_and_the_body_comes_back_uncopied() {
        const MTU: usize = 4096;
        let body = Bytes::from((0..10_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let msg = Message::new(&b"nine byte"[..], body.clone());
        let flat = msg.clone().into_bytes();
        let pkts = fragment(Kind::Response, 0, 1, msg, MTU, None);
        let flat_pkts = fragment(Kind::Response, 0, 1, &flat, MTU, None);
        assert_eq!(pkts.len(), flat_pkts.len());
        for (p, f) in pkts.iter().zip(&flat_pkts) {
            let wire = |p: &Packet| Message::new(p.head.clone(), p.body.clone());
            assert_eq!(wire(p), wire(f));
        }
        assert_eq!(pkts[0].head.len(), HEADER_BYTES + 9);
        assert_eq!(pkts[0].body.as_ptr(), body.as_ptr());
        assert_eq!(pkts[1].body.as_ptr(), body[MTU - 9..].as_ptr());
        let before = crate::flattened();
        let mut r: Option<Reassembly> = None;
        for p in pkts.iter().rev() {
            let (h, f) = Header::decode_split(&p.head, &p.body).unwrap();
            match r.as_mut() {
                None => r = Some(Reassembly::new(&h, f)),
                Some(r) => {
                    r.offer(&h, f);
                }
            }
        }
        let out = r.unwrap().assemble();
        assert_eq!(&out.head[..], b"nine byte");
        assert_eq!(out.body.as_ptr(), body.as_ptr());
        assert_eq!(out.body.len(), body.len());
        assert_eq!(crate::flattened(), before);
        // A head longer than the MTU spills into the packets it covers.
        let long = Message::new(vec![3u8; 2 * MTU + 5], body.clone());
        let pkts = fragment(Kind::Request, 0, 2, long.clone(), MTU, None);
        assert_eq!(
            pkts.iter()
                .map(|p| (p.head.len() - HEADER_BYTES, p.body.len()))
                .collect::<Vec<_>>(),
            [
                (MTU, 0),
                (MTU, 0),
                (5, MTU - 5),
                (0, MTU),
                (0, 10_000 - 2 * MTU + 5)
            ]
        );
    }

    #[test]
    fn unframeable_lengths_are_named_not_asserted_on() {
        assert_eq!(max_msg_len(4096), 65_535 * 4096);
        assert_eq!(max_msg_len(16), 65_535 * 16);
        assert_eq!(max_msg_len(1 << 20), u32::MAX as usize);
        let at = Bytes::from(vec![0u8; max_msg_len(16)]);
        assert_eq!(fragment(Kind::Request, 0, 1, &at, 16, None).len(), 65_535);
    }

    #[test]
    fn fragment_bodies_share_payload_storage() {
        let payload = Bytes::from(vec![3u8; 10_000]);
        let pkts = fragment(Kind::Request, 0, 1, &payload, 4096, None);
        // Zero-copy: each body points into the original allocation.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.body.as_ptr(), payload[i * 4096..].as_ptr());
        }
    }

    #[test]
    fn assemble_in_order_recovers_original_without_copy() {
        let payload = Bytes::from(vec![9u8; 20_000]);
        let pkts = fragment(Kind::Response, 0, 5, &payload, 4096, None);
        let parsed: Vec<(Header, Message)> = pkts
            .iter()
            .map(|p| Header::decode_split(&p.head, &p.body).unwrap())
            .collect();
        let (h0, f0) = parsed[0].clone();
        let mut r = Reassembly::new(&h0, f0);
        for (h, f) in parsed.into_iter().skip(1) {
            r.offer(&h, f);
        }
        let out = r.assemble();
        assert_eq!(out, payload);
        // Same backing storage, not a concatenating copy.
        assert!(out.head.is_empty());
        assert_eq!(out.body.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn assemble_out_of_order_still_zero_copy() {
        // Slots are indexed by pkt_idx, so arrival order doesn't matter for
        // the adjacency check.
        let payload = Bytes::from(vec![5u8; 12_000]);
        let pkts = fragment(Kind::Response, 0, 5, &payload, 4096, None);
        let mut parsed: Vec<(Header, Message)> = pkts
            .iter()
            .map(|p| Header::decode_split(&p.head, &p.body).unwrap())
            .collect();
        parsed.reverse();
        let (h0, f0) = parsed[0].clone();
        let mut r = Reassembly::new(&h0, f0);
        for (h, f) in parsed.into_iter().skip(1) {
            r.offer(&h, f);
        }
        let out = r.assemble();
        assert_eq!(out, payload);
        assert_eq!(out.body.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn assemble_foreign_fragments_copies() {
        // Fragments from unrelated allocations still assemble correctly.
        let h = |idx: u16| Header {
            kind: Kind::Request,
            req_type: 0,
            req_num: 1,
            pkt_idx: idx,
            num_pkts: 2,
            msg_len: 8,
            trace: None,
        };
        let mut r = Reassembly::new(&h(0), Bytes::from(vec![1u8; 4]));
        assert!(r.offer(&h(1), Bytes::from(vec![2u8; 4])));
        let before = crate::flattened();
        assert_eq!(r.assemble(), Bytes::from(vec![1, 1, 1, 1, 2, 2, 2, 2]));
        assert_eq!(crate::flattened(), before, "two pieces: a head and a body");
        // A third foreign piece is one more than a message has parts.
        let mut r = Reassembly::new(&h(0), Message::new(vec![1u8; 2], vec![1u8; 2].into()));
        assert!(r.offer(&h(1), Bytes::from(vec![2u8; 4])));
        assert_eq!(r.assemble(), Bytes::from(vec![1, 1, 1, 1, 2, 2, 2, 2]));
        assert_eq!(crate::flattened(), before + 1);
    }

    #[test]
    fn offer_rejects_mismatched_metadata() {
        let payload = Bytes::from(vec![7u8; 8192]);
        let pkts = fragment(Kind::Request, 0, 1, &payload, 4096, None);
        let (h0, f0) = Header::decode_split(&pkts[0].head, &pkts[0].body).unwrap();
        let mut r = Reassembly::new(&h0, f0);

        // Forged fragment claiming a different total packet count.
        let mut bad_pkts = h0;
        bad_pkts.pkt_idx = 1;
        bad_pkts.num_pkts = 3;
        assert!(!r.offer(&bad_pkts, Bytes::from_static(b"evil")));
        assert!(!r.is_complete());

        // Forged fragment claiming a different message length.
        let mut bad_len = h0;
        bad_len.pkt_idx = 1;
        bad_len.msg_len = 99;
        assert!(!r.offer(&bad_len, Bytes::from_static(b"evil")));
        assert!(!r.is_complete());

        // The genuine second fragment still completes the message.
        let (h1, f1) = Header::decode_split(&pkts[1].head, &pkts[1].body).unwrap();
        assert!(r.offer(&h1, f1));
        assert_eq!(r.assemble(), payload);
    }

    #[test]
    fn decode_split_handles_legacy_contiguous_packets() {
        let h = hdr(Kind::Request);
        let contiguous = h.encode(b"hello");
        // Whole packet in the head segment (raw send path).
        let (h2, f2) = Header::decode_split(&contiguous, &Bytes::new()).unwrap();
        assert_eq!(h, h2);
        assert_eq!(f2, b"hello"[..]);
        // Whole packet in the body segment.
        let (h3, f3) = Header::decode_split(&Bytes::new(), &contiguous).unwrap();
        assert_eq!(h, h3);
        assert_eq!(f3, b"hello"[..]);
        // A split inside the header, and one inside the fragment.
        for cut in [10, HEADER_BYTES + 2] {
            let (h4, f4) =
                Header::decode_split(&contiguous.slice(..cut), &contiguous.slice(cut..)).unwrap();
            assert_eq!(h, h4);
            assert_eq!(f4, b"hello"[..], "cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn assemble_incomplete_panics() {
        let payload = Bytes::from(vec![1u8; 100]);
        let pkts = fragment(Kind::Request, 0, 1, &payload, 10, None);
        let (h, f) = Header::decode_split(&pkts[0].head, &pkts[0].body).unwrap();
        let r = Reassembly::new(&h, f);
        let _ = r.assemble();
    }
}
