//! Property tests for the RPC wire layer: fragmentation/reassembly is the
//! identity for every payload, under any delivery order, with duplicates;
//! where a message's head ends changes no byte of any packet; and
//! header/trace-extension decoding is total over hostile input.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use rpclib::wire::{
    decode_trace_ext, encode_trace_ext, fragment, Header, Kind, Packet, Reassembly, TraceExtError,
    TRACE_EXT_BYTES,
};
use rpclib::Message;
use telemetry::TraceCtx;

proptest! {
    #[test]
    fn fragment_reassemble_identity(
        payload in proptest::collection::vec(any::<u8>(), 0..60_000),
        mtu in 1usize..8192,
        req_num in any::<u64>(),
        req_type in any::<u8>(),
        order_seed in any::<u64>(),
        dup_mask in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let payload = Bytes::from(payload);
        let pkts = fragment(Kind::Request, req_type, req_num, &payload, mtu, None);
        prop_assert_eq!(pkts.len(), payload.len().div_ceil(mtu).max(1));

        // Parse and shuffle deterministically.
        let mut parsed: Vec<(Header, Message)> = pkts
            .iter()
            .map(|p| Header::decode_split(&p.head, &p.body).expect("own packets decode"))
            .collect();
        let mut rng = order_seed;
        for i in (1..parsed.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            parsed.swap(i, (rng >> 33) as usize % (i + 1));
        }
        // Inject duplicates.
        let dups: Vec<(Header, Message)> = parsed
            .iter()
            .enumerate()
            .filter(|(i, _)| dup_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, p)| p.clone())
            .collect();

        let (h0, f0) = parsed[0].clone();
        let mut r = Reassembly::new(&h0, f0);
        for (h, f) in parsed.into_iter().skip(1).chain(dups) {
            r.offer(&h, f);
        }
        prop_assert!(r.is_complete());
        prop_assert_eq!(r.assemble(), payload);
    }

    /// The seam is not on the wire: wherever `head ‖ body` is split, traced
    /// or not, every packet carries the bytes the flat message's packet
    /// carries, and the receiver — fed the packets in any rotation — gets
    /// the same message back with the body still the sender's buffer.
    #[test]
    fn packets_of_head_and_body_are_those_of_the_flat_message(
        bytes in proptest::collection::vec(any::<u8>(), 0..20_000),
        seam in any::<u16>(),
        mtu in 1usize..6000,
        traced in any::<bool>(),
        rotate in any::<u16>(),
    ) {
        let flat = Bytes::from(bytes);
        let seam = seam as usize % (flat.len() + 1);
        let trace = traced.then_some(TraceCtx { trace_id: 7, span_id: 9 });
        // The head is the sender's own small buffer, the body shared.
        let body = flat.slice(seam..);
        let msg = Message::new(flat[..seam].to_vec(), body.clone());
        let split = fragment(Kind::Response, 3, 17, msg, mtu, trace);
        let whole = fragment(Kind::Response, 3, 17, &flat, mtu, trace);
        prop_assert_eq!(split.len(), whole.len());
        let wire = |p: &Packet| [&p.head[..], &p.body[..]].concat();
        for (i, (s, w)) in split.iter().zip(&whole).enumerate() {
            prop_assert_eq!(wire(s), wire(w), "packet {}", i);
        }
        let mut parsed: Vec<(Header, Message)> = split
            .iter()
            .map(|p| Header::decode_split(&p.head, &p.body).expect("own packets decode"))
            .collect();
        let by = rotate as usize % parsed.len();
        parsed.rotate_left(by);
        let (h0, f0) = parsed[0].clone();
        let mut r = Reassembly::new(&h0, f0);
        for (h, f) in parsed.into_iter().skip(1) {
            r.offer(&h, f);
        }
        let before = rpclib::flattened();
        let got = r.assemble();
        prop_assert_eq!(&got, &flat);
        if !body.is_empty() && seam <= mtu {
            prop_assert_eq!(got.body.as_ptr(), body.as_ptr(), "the body is not copied");
            prop_assert_eq!(got.head.len(), seam);
            prop_assert_eq!(rpclib::flattened(), before);
        }
    }

    /// Several senders' fragment streams interleaved on one wire — shuffled
    /// and partially duplicated — reassemble independently: each message's
    /// `Reassembly` recovers exactly its own payload, and fragments from the
    /// other streams never complete or corrupt it.
    #[test]
    fn multi_sender_interleaved_streams_reassemble(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..8_000), 2..5),
        mtu in 1usize..2048,
        req_type in any::<u8>(),
        order_seed in any::<u64>(),
        dup_mask in proptest::collection::vec(any::<bool>(), 0..96),
    ) {
        // One message per sender, distinguished by req_num.
        let payloads: Vec<Bytes> = payloads.into_iter().map(Bytes::from).collect();
        let mut wire: Vec<(Header, Message)> = Vec::new();
        for (sender, payload) in payloads.iter().enumerate() {
            for p in fragment(Kind::Request, req_type, sender as u64, payload, mtu, None) {
                wire.push(Header::decode_split(&p.head, &p.body).expect("own packets decode"));
            }
        }

        // Shuffle the combined stream deterministically, then duplicate a
        // prefix-masked subset.
        let mut rng = order_seed;
        for i in (1..wire.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            wire.swap(i, (rng >> 33) as usize % (i + 1));
        }
        let dups: Vec<(Header, Message)> = wire
            .iter()
            .enumerate()
            .filter(|(i, _)| dup_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, p)| p.clone())
            .collect();

        // Demultiplex by req_num, as the endpoint does.
        let mut streams: Vec<Option<Reassembly>> =
            (0..payloads.len()).map(|_| None).collect();
        for (h, f) in wire.into_iter().chain(dups) {
            let slot = &mut streams[h.req_num as usize];
            match slot {
                Some(r) => { r.offer(&h, f); }
                None => *slot = Some(Reassembly::new(&h, f)),
            }
        }
        for (sender, (r, payload)) in streams.into_iter().zip(&payloads).enumerate() {
            let r = r.expect("every stream saw at least one fragment");
            prop_assert!(r.is_complete(), "sender {} incomplete", sender);
            prop_assert_eq!(r.assemble(), payload.clone());
        }
    }

    /// Header decode is total: arbitrary bytes never panic, and valid
    /// headers survive an encode/decode round trip.
    #[test]
    fn header_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Header::decode(&Bytes::from(bytes));
    }

    #[test]
    fn header_roundtrip(
        req_num in any::<u64>(),
        req_type in any::<u8>(),
        num_pkts in 1u16..u16::MAX,
        msg_len in any::<u32>(),
        traced in any::<bool>(),
        trace_id in any::<u64>(),
        span_id in any::<u64>(),
        frag in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let pkt_idx = num_pkts - 1;
        let h = Header {
            kind: Kind::Response,
            req_type,
            req_num,
            pkt_idx,
            num_pkts,
            msg_len,
            trace: traced.then_some(TraceCtx { trace_id, span_id }),
        };
        let enc = h.encode(&frag);
        let (h2, f2) = Header::decode(&enc).expect("valid header decodes");
        prop_assert_eq!(h, h2);
        prop_assert_eq!(&f2[..], &frag[..]);
    }

    /// Trace-extension decode is total: arbitrary bytes yield `Ok` or a
    /// typed error, never a panic.
    #[test]
    fn trace_ext_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_trace_ext(&bytes);
    }

    /// Every strict prefix of a valid extension is `Truncated` — a hostile
    /// sender cannot make us read past the buffer.
    #[test]
    fn trace_ext_truncation_is_typed(
        trace_id in any::<u64>(),
        span_id in any::<u64>(),
        cut in 0usize..TRACE_EXT_BYTES,
    ) {
        let mut b = BytesMut::new();
        encode_trace_ext(TraceCtx { trace_id, span_id }, &mut b);
        prop_assert_eq!(b.len(), TRACE_EXT_BYTES);
        match decode_trace_ext(&b[..cut]) {
            Err(TraceExtError::Truncated) => {}
            // A cut after a complete field set but before the end cannot
            // happen for the 2-field encoding; anything else is a bug.
            other => prop_assert!(false, "prefix of {cut} bytes gave {other:?}"),
        }
    }

    /// An inflated field count is rejected up front (`TooManyFields`), no
    /// matter what bytes follow.
    #[test]
    fn trace_ext_oversized_is_typed(
        n in 5u8..=u8::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut b = vec![n];
        b.extend_from_slice(&tail);
        prop_assert_eq!(decode_trace_ext(&b), Err(TraceExtError::TooManyFields));
    }

    /// A repeated field id is rejected as `DuplicateField`.
    #[test]
    fn trace_ext_duplicate_is_typed(
        id in 1u8..=2,
        v1 in any::<u64>(),
        v2 in any::<u64>(),
    ) {
        let mut b = vec![2u8];
        b.push(id);
        b.extend_from_slice(&v1.to_le_bytes());
        b.push(id);
        b.extend_from_slice(&v2.to_le_bytes());
        prop_assert_eq!(decode_trace_ext(&b), Err(TraceExtError::DuplicateField));
    }

    /// Unknown field ids and missing required fields yield their typed
    /// errors.
    #[test]
    fn trace_ext_unknown_and_missing_are_typed(
        bad_id in 3u8..=u8::MAX,
        v in any::<u64>(),
    ) {
        let mut b = vec![1u8, bad_id];
        b.extend_from_slice(&v.to_le_bytes());
        prop_assert_eq!(decode_trace_ext(&b), Err(TraceExtError::UnknownField));

        let mut only_trace = vec![1u8, 1u8];
        only_trace.extend_from_slice(&v.to_le_bytes());
        prop_assert_eq!(decode_trace_ext(&only_trace), Err(TraceExtError::MissingField));
    }

    /// A corrupted traced header never panics the full decode path, and a
    /// clean one round-trips through the zero-copy split decoder.
    #[test]
    fn traced_header_decode_total(
        trace_id in any::<u64>(),
        span_id in any::<u64>(),
        flip_at in 0usize..39,
        flip_bits in 1u8..=u8::MAX,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let ctx = TraceCtx { trace_id, span_id };
        let pkts = fragment(Kind::Request, 7, 99, Bytes::from(body.clone()), 4096, Some(ctx));
        prop_assert_eq!(pkts.len(), 1);
        let (h, f) = Header::decode_split(&pkts[0].head, &pkts[0].body)
            .expect("traced packet decodes");
        prop_assert_eq!(h.trace, Some(ctx));
        prop_assert_eq!(f, body[..]);

        // Flip bits anywhere in the 39-byte traced header: decode must
        // return (possibly garbage) Ok or None, never panic.
        let mut corrupt = pkts[0].head.to_vec();
        let at = flip_at % corrupt.len();
        corrupt[at] ^= flip_bits;
        let _ = Header::decode_split(&Bytes::from(corrupt), &pkts[0].body);
    }
}
