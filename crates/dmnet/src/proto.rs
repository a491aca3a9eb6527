//! DM wire protocol: request/response encoding over [`rpclib`].
//!
//! Each DM operation is one RPC to the owning DM server. Responses carry a
//! leading status byte followed by the receiving client's *death count*
//! (u64 LE, DESIGN.md §9): how many ref keys this server has listed to that
//! client so far. The status says what the rest is: the op's result
//! ([`STATUS_OK`]), a death list and then the result ([`STATUS_OK_DIED`]),
//! or nothing ([`DmError`] codes), judged by [`crate::coherence::Count`].
//!
//! Requests and responses are [`rpclib::Message`]s: [`Writer`] and
//! [`Response`] write every field into the head and *attach* a payload as
//! the body, so no payload byte is copied to be framed; [`Reader`] and
//! [`split_response`] read across the seam, wherever it falls.

use std::borrow::Cow;

use bytes::{BufMut, Bytes};
use dmcommon::{DmError, DmResult, GlobalPid};
use rpclib::Message;
use simnet::{Addr, NodeId};
use telemetry::TraceCtx;

/// RPC `req_type` values used by the DM protocol.
pub mod req {
    /// Register a process. The reply is where it learns what it has to
    /// share with this server: `[pid u32]([lease ttl u64 ns])`, its global
    /// PID and, only from a server that grants leases, their TTL — so a
    /// default server replies with the pid alone.
    pub const REGISTER: u8 = 10;
    /// Allocate DM virtual address space.
    pub const ALLOC: u8 = 11;
    /// Free a region.
    pub const FREE: u8 = 12;
    /// Create a shared reference.
    pub const CREATE_REF: u8 = 13;
    /// Map a shared reference.
    pub const MAP_REF: u8 = 14;
    /// Read bytes from DM.
    pub const READ: u8 = 15;
    /// Write bytes to DM.
    pub const WRITE: u8 = 16;
    /// Release a shared reference.
    pub const RELEASE_REF: u8 = 17;
    /// Fast path: read a whole ref by key (`[key u64]`) without
    /// installing a mapping.
    pub const READ_REF: u8 = 19;
    /// Fast path: publish data as a new reference in one round trip, with
    /// no creator mapping (server-side allocation).
    pub const PUT_REF: u8 = 20;
    /// Renew this process's lease (only meaningful when the server grants
    /// leases; body = pid). A process whose lease expires has all its pins
    /// reclaimed — see DESIGN.md §8.
    pub const RENEW_LEASE: u8 = 21;
    /// Coalesced releases: `[n u32]`, then `n` ref keys, each released as
    /// by [`RELEASE_REF`] (a key already dead is skipped). A key marked
    /// [`super::TRACED_KEY`] is followed by a trace context. The answer
    /// carries no result.
    pub const BATCH: u8 = 22;
}

/// Well-known port DM servers listen on.
pub const DM_PORT: u16 = 7000;

/// The one table of wire ops — `(code, span name, control-plane)`, codes
/// ascending — that the classifiers below, the handlers a DM server
/// registers and the client's per-type counters are read off. Every op is a
/// client's request to a server: a client serves nothing.
/// *Control-plane* is metadata (registration, pin/unpin, release, lease
/// renewal) as opposed to ops carrying payload bytes; `xtra_rtt_budget`
/// counts the two apart.
pub const OPS: &[(u8, &str, bool)] = &[
    (req::REGISTER, "dm.register", true),
    (req::ALLOC, "dm.alloc", true),
    (req::FREE, "dm.free", true),
    (req::CREATE_REF, "dm.create_ref", true),
    (req::MAP_REF, "dm.map_ref", true),
    (req::READ, "dm.read", false),
    (req::WRITE, "dm.write", false),
    (req::RELEASE_REF, "dm.release_ref", true),
    (req::READ_REF, "dm.read_ref", false),
    (req::PUT_REF, "dm.put_ref", false),
    (req::RENEW_LEASE, "dm.renew_lease", true),
    (req::BATCH, "dm.batch", true),
];

/// One past the highest op code: the size of a per-type counter array.
pub(crate) const N_REQ_TYPES: usize = OPS[OPS.len() - 1].0 as usize + 1;

fn op(ty: u8) -> Option<&'static (u8, &'static str, bool)> {
    OPS.iter().find(|op| op.0 == ty)
}

/// Stable human-readable name for a request type, used as the span name
/// when tracing server-side dispatch.
pub fn req_name(ty: u8) -> &'static str {
    op(ty).map_or("dm.unknown", |op| op.1)
}

/// Whether a request type is control-plane ([`OPS`]); a type the table does
/// not name carries no payload either.
pub fn is_control(ty: u8) -> bool {
    op(ty).is_none_or(|op| op.2)
}

/// The single source of truth for the `DmError` ↔ wire-code mapping.
/// Encode and decode both walk this table, so they cannot disagree and
/// every code a DM server sends (including 5 = `Malformed`) has an explicit
/// entry.
const ERR_TABLE: &[(DmError, u8)] = &[
    (DmError::OutOfMemory, 1),
    (DmError::InvalidAddress, 2),
    (DmError::InvalidRef, 3),
    (DmError::OutOfBounds, 4),
    (DmError::Malformed, 5),
    (DmError::Transport, 6),
    // 7 (a redirect), 8 (a DM server's `Busy`) and 9 (a success carrying
    // per-ref versions) are retired and decode as `Malformed`. `Busy` has
    // no code: it is the social front door's, and no DM server answers
    // with it. 10 is `STATUS_OK_DIED`, a success.
];

fn err_code(e: DmError) -> u8 {
    ERR_TABLE
        .iter()
        .find(|&&(err, _)| err == e)
        .map(|&(_, c)| c)
        .expect("a DM server answers only with errors ERR_TABLE names")
}

fn code_err(c: u8) -> DmError {
    ERR_TABLE
        .iter()
        .find(|&&(_, code)| code == c)
        .map(|&(e, _)| e)
        .unwrap_or(DmError::Malformed)
}

/// Status byte of a success: the op's result follows the count.
pub const STATUS_OK: u8 = 0;

/// Status byte of a success that lists deaths: behind the count come
/// `[n u32]` and `n` ref keys (u64 each) this server tells the client are
/// dead, then the op's result. The count already includes the `n`.
pub const STATUS_OK_DIED: u8 = 10;

/// Bytes in front of every response body: `[status u8][count u64]`. A
/// server checks a wire-fed read length against
/// [`rpclib::wire::max_msg_len`] less this before it builds anything; a
/// death list only takes room a response leaves.
pub(crate) const RESPONSE_HEAD: usize = 9;

/// A response under construction: status and count are reserved up front,
/// small fields are appended behind them, and a payload is *attached* as
/// the body ([`Response::body`] — page bytes straight out of the page
/// store). Status, count and the death list are filled in by the method
/// that finishes it — so a server that awaits between producing the body
/// and answering reports what it knows when it answers, and no body is
/// ever copied to be framed.
pub struct Response {
    head: Vec<u8>,
    body: Bytes,
}

impl Default for Response {
    fn default() -> Self {
        Response::new()
    }
}

impl Response {
    /// Start a response.
    pub fn new() -> Response {
        let mut head = Vec::with_capacity(RESPONSE_HEAD + 16);
        head.resize(RESPONSE_HEAD, 0);
        Response {
            head,
            body: Bytes::new(),
        }
    }

    /// Append a PID.
    pub fn pid(mut self, p: GlobalPid) -> Self {
        self.head.put_u32_le(p.0);
        self
    }

    /// Append a u64.
    pub fn u64(mut self, v: u64) -> Self {
        self.head.put_u64_le(v);
        self
    }

    /// Attach the payload: everything appended so far stays in front of it.
    pub fn body(mut self, body: Bytes) -> Self {
        debug_assert!(self.body.is_empty(), "one payload per response");
        self.body = body;
        self
    }

    /// Bytes the response holds so far, its head included.
    pub(crate) fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// The op's result so far: what follows the status, the count and any
    /// death list once the response is finished.
    pub(crate) fn result(&self) -> Message {
        Message::new(self.head[RESPONSE_HEAD..].to_vec(), self.body.clone())
    }

    fn finish(mut self, status: u8, count: u64) -> Message {
        self.head[0] = status;
        self.head[1..RESPONSE_HEAD].copy_from_slice(&count.to_le_bytes());
        Message::new(self.head, self.body)
    }

    /// Finish as a success carrying the client's death `count` and, in
    /// front of the result, the keys `died` it lists (none: [`STATUS_OK`]).
    pub fn ok(mut self, count: u64, died: &[u64]) -> Message {
        if died.is_empty() {
            return self.finish(STATUS_OK, count);
        }
        let mut list = Vec::with_capacity(4 + 8 * died.len());
        list.put_u32_le(died.len() as u32);
        died.iter().for_each(|&key| list.put_u64_le(key));
        self.head.splice(RESPONSE_HEAD..RESPONSE_HEAD, list);
        self.finish(STATUS_OK_DIED, count)
    }

    /// An error response, carrying the client's death `count`.
    pub fn err(count: u64, e: DmError) -> Message {
        Response::new().finish(err_code(e), count)
    }
}

/// What a response's head tells its client about refs it may have cached
/// (DESIGN.md §9): the running `count` of keys listed to it, and the keys
/// `died` this response lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Deaths {
    /// Keys listed to this client so far, `died` included.
    pub count: u64,
    /// Ref keys this response lists as dead.
    pub died: Vec<u64>,
}

/// Split a response into its [`Deaths`] plus the op's result — the body
/// behind them, or the error — the one response decoder. A response whose
/// head or death list runs past its end decodes as `Malformed` with no
/// `Deaths` at all: nothing of it may be applied.
pub fn split_response(resp: &Message) -> (Option<Deaths>, DmResult<Message>) {
    let mut r = Reader::of(resp);
    let (Ok(status), Ok(count)) = (r.u8(), r.u64()) else {
        return (None, Err(DmError::Malformed));
    };
    let mut died = Vec::new();
    if status == STATUS_OK_DIED {
        let n = r.u32().ok().filter(|&n| n as usize <= resp.len() / 8);
        let keys = n.map(|n| (0..n).map(|_| r.u64()).collect::<DmResult<Vec<_>>>());
        match keys {
            Some(Ok(keys)) => died = keys,
            _ => return (None, Err(DmError::Malformed)),
        }
    }
    let reply = match status {
        STATUS_OK | STATUS_OK_DIED => Ok(resp.skip(r.pos)),
        c => Err(code_err(c)),
    };
    (Some(Deaths { count, died }), reply)
}

/// Bit 63 of a key in a [`req::BATCH`] list: the key is followed by the
/// 16-byte trace context (`trace_id`, `span_id`) of the request that
/// queued its release. No server mints such a key.
pub const TRACED_KEY: u64 = 1 << 63;

/// A [`req::BATCH`] body: `[n u32]`, then the `n` ref keys `releases`
/// names, each one that carries a context marked [`TRACED_KEY`] and
/// followed by it, so a batched release stays attributable to the request
/// that queued it although the flush runs in a timer task.
pub fn encode_releases(releases: &[(u64, Option<TraceCtx>)]) -> Message {
    let w = Writer::new().u32(releases.len() as u32);
    let w = releases.iter().fold(w, |w, &(key, ctx)| match ctx {
        None => w.u64(key),
        Some(c) => w.u64(key | TRACED_KEY).u64(c.trace_id).u64(c.span_id),
    });
    w.finish()
}

/// Decode a [`req::BATCH`] body whole: a list that runs past the body, a
/// traced key without its context, or bytes behind the last key are
/// `Malformed`, so nothing of it is released.
pub fn decode_releases(body: &Message) -> DmResult<Vec<(u64, Option<TraceCtx>)>> {
    let mut r = Reader::of(body);
    // Nothing is allocated up front: a forged count fails at the first key
    // past the body.
    let mut releases = Vec::new();
    for _ in 0..r.u32()? {
        let key = r.u64()?;
        let ctx = if key & TRACED_KEY == 0 {
            None
        } else {
            let trace_id = r.u64()?;
            let span_id = r.u64()?;
            Some(TraceCtx { trace_id, span_id })
        };
        releases.push((key & !TRACED_KEY, ctx));
    }
    if !r.is_empty() {
        return Err(DmError::Malformed);
    }
    Ok(releases)
}

/// Cursor-style reader over a flat buffer (a log record, a snapshot) or over
/// a [`Message`], whose seam it reads across: every method gives the same
/// answer wherever the same bytes are split.
pub struct Reader<'a> {
    parts: [&'a [u8]; 2],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a flat buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            parts: [buf, &[]],
            pos: 0,
        }
    }

    /// Read a message, head then body.
    pub fn of(msg: &'a Message) -> Reader<'a> {
        Reader {
            parts: msg.parts(),
            pos: 0,
        }
    }

    fn len(&self) -> usize {
        self.parts[0].len() + self.parts[1].len()
    }

    fn array<const N: usize>(&mut self) -> DmResult<[u8; N]> {
        let field = self.take(N)?;
        Ok(field.as_ref().try_into().expect("took N bytes"))
    }

    /// Read a u8.
    pub fn u8(&mut self) -> DmResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a u16.
    pub fn u16(&mut self) -> DmResult<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a u32.
    pub fn u32(&mut self) -> DmResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a u64.
    pub fn u64(&mut self) -> DmResult<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a PID.
    pub fn pid(&mut self) -> DmResult<GlobalPid> {
        Ok(GlobalPid(self.u32()?))
    }

    /// Read an endpoint (`[node u32][port u32]`). A port above `u16::MAX`
    /// is `Malformed`: truncated, it would name a port that exists.
    pub fn addr(&mut self) -> DmResult<Addr> {
        let node = NodeId(self.u32()?);
        let port = u16::try_from(self.u32()?).map_err(|_| DmError::Malformed)?;
        Ok(Addr { node, port })
    }

    /// Read the next `n` bytes: borrowed, unless they straddle a message's
    /// seam.
    pub fn take(&mut self, n: usize) -> DmResult<Cow<'a, [u8]>> {
        let [a, b] = self.parts;
        let end = self.pos.checked_add(n).filter(|&end| end <= self.len());
        let end = end.ok_or(DmError::Malformed)?;
        let out = if end <= a.len() {
            Cow::Borrowed(&a[self.pos..end])
        } else if self.pos >= a.len() {
            Cow::Borrowed(&b[self.pos - a.len()..end - a.len()])
        } else {
            Cow::Owned([&a[self.pos..], &b[..end - a.len()]].concat())
        };
        self.pos = end;
        Ok(out)
    }

    /// Remaining bytes; the cursor moves to the end.
    pub fn rest(&mut self) -> Cow<'a, [u8]> {
        self.take(self.len() - self.pos)
            .expect("what is left is there")
    }

    /// [`Self::rest`] as a `Bytes` sharing the storage of `msg`, the
    /// message this reader was opened on: the body itself when the cursor
    /// stands on the seam (where [`Writer::body`] and [`Response::body`]
    /// put it), one counted copy only when bytes on both sides are left.
    pub fn rest_of(&mut self, msg: &Message) -> Bytes {
        assert!(
            std::iter::zip(self.parts, msg.parts()).all(|(a, b)| std::ptr::eq(a, b)),
            "not this reader's message"
        );
        let rest = msg.skip(self.pos).into_bytes();
        self.pos = self.len();
        rest
    }

    /// Whether the cursor has consumed everything.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.len()
    }
}

/// Builder for request bodies, WAL records and checkpoint snapshots
/// (everything little-endian): fields go into the head, a payload is
/// attached behind them, uncopied.
#[derive(Default)]
pub struct Writer {
    head: Vec<u8>,
    body: Bytes,
}

impl From<Vec<u8>> for Writer {
    /// Continue a buffer that already holds bytes.
    fn from(head: Vec<u8>) -> Writer {
        Writer {
            head,
            body: Bytes::new(),
        }
    }
}

impl Writer {
    /// Start an empty message.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Append a u8.
    pub fn u8(mut self, v: u8) -> Self {
        self.head.push(v);
        self
    }

    /// Append a u16.
    pub fn u16(mut self, v: u16) -> Self {
        self.head.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a u32.
    pub fn u32(mut self, v: u32) -> Self {
        self.head.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an endpoint as [`Reader::addr`] reads it.
    pub fn addr(self, a: Addr) -> Self {
        self.u32(a.node.0).u32(a.port as u32)
    }

    /// Append a u64.
    pub fn u64(mut self, v: u64) -> Self {
        self.head.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a PID.
    pub fn pid(self, p: GlobalPid) -> Self {
        self.u32(p.0)
    }

    /// Attach the payload behind the fields, sharing its storage.
    pub fn body(mut self, body: Bytes) -> Self {
        debug_assert!(self.body.is_empty(), "one payload per message");
        self.body = body;
        self
    }

    /// Finish into the message.
    pub fn finish(self) -> Message {
        Message::new(self.head, self.body)
    }

    /// Finish into the fields' buffer (no payload was attached).
    pub fn into_vec(self) -> Vec<u8> {
        debug_assert!(self.body.is_empty(), "a payload does not fit a Vec");
        self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The head of a response that lists `died` under `count`.
    fn deaths(count: u64, died: &[u64]) -> Option<Deaths> {
        let died = died.to_vec();
        Some(Deaths { count, died })
    }

    #[test]
    fn response_roundtrip() {
        let payload = Bytes::from_static(b"abc");
        let ok = Response::new().u64(77).body(payload.clone()).ok(42, &[]);
        let (head, reply) = split_response(&ok);
        assert_eq!(head, deaths(42, &[]));
        // The payload is attached, not copied, and comes back the same way.
        let body = reply.unwrap();
        assert_eq!(body, [&77u64.to_le_bytes()[..], b"abc"].concat()[..]);
        let body = body.skip(8).into_bytes();
        assert_eq!(body.as_ptr(), payload.as_ptr());
        let err = Response::err(7, DmError::OutOfMemory);
        assert_eq!(
            split_response(&err),
            (deaths(7, &[]), Err(DmError::OutOfMemory))
        );
        // Too short to carry a count: malformed, and nothing to apply.
        for short in [Bytes::new(), Bytes::from_static(&[0, 1, 2])] {
            let short = Message::from(short);
            assert_eq!(split_response(&short), (None, Err(DmError::Malformed)));
        }
    }

    /// A death list sits between the count and the op's result, which reads
    /// back unmoved; a list whose `n` or keys run past the response (or a
    /// list with no room for `n` at all) is `Malformed` with nothing to
    /// apply — never the keys that did fit.
    #[test]
    fn a_death_list_roundtrips_and_a_truncated_one_is_malformed_whole() {
        let payload = Bytes::from_static(b"data");
        let ok = Response::new().u64(5).body(payload.clone()).ok(9, &[3, 4]);
        assert_eq!(ok.len(), RESPONSE_HEAD + 4 + 16 + 8 + 4);
        let (head, reply) = split_response(&ok);
        assert_eq!(head, deaths(9, &[3, 4]));
        let body = reply.unwrap();
        assert_eq!(Reader::of(&body).u64(), Ok(5));
        assert_eq!(body.skip(8).into_bytes().as_ptr(), payload.as_ptr());

        let flat = ok.into_bytes();
        let list_end = RESPONSE_HEAD + 4 + 16;
        for cut in RESPONSE_HEAD..list_end {
            let resp = Message::from(flat.slice(..cut));
            assert_eq!(
                split_response(&resp),
                (None, Err(DmError::Malformed)),
                "cut {cut}"
            );
        }
        // `n` claims more keys than the bytes behind it hold.
        for n in [3, u32::MAX] {
            let mut lie = flat.to_vec();
            lie[RESPONSE_HEAD..RESPONSE_HEAD + 4].copy_from_slice(&n.to_le_bytes());
            let resp = Message::from(Bytes::from(lie[..list_end].to_vec()));
            assert_eq!(
                split_response(&resp),
                (None, Err(DmError::Malformed)),
                "n {n}"
            );
        }
    }

    #[test]
    fn all_error_codes_roundtrip() {
        // Every variant must survive encode → decode through the shared
        // table, including Malformed (code 5).
        for &(e, code) in ERR_TABLE {
            assert_eq!(err_code(e), code);
            assert_eq!(code_err(code), e);
            assert_eq!(split_response(&Response::err(0, e)).1, Err(e));
        }
        // Unknown codes (and 0 in error position) decode as Malformed.
        assert_eq!(code_err(0), DmError::Malformed);
        assert_eq!(code_err(99), DmError::Malformed);
    }

    /// A release list reads back with its contexts; a count past the body,
    /// a traced key cut off before its context and trailing bytes are each
    /// `Malformed`.
    #[test]
    fn a_release_list_roundtrips_and_only_a_whole_one_decodes() {
        let ctx = TraceCtx {
            trace_id: 0x1111_2222_3333_4444,
            span_id: 0x5555_6666_7777_8888,
        };
        let releases = vec![(11, Some(ctx)), (22, None), (u64::MAX >> 1, Some(ctx))];
        let body = encode_releases(&releases);
        assert_eq!(body.len(), 4 + 3 * 8 + 2 * 16);
        assert_eq!(decode_releases(&body), Ok(releases));
        assert_eq!(decode_releases(&encode_releases(&[])), Ok(vec![]));

        let flat = body.into_bytes();
        let malformed = |bytes: Vec<u8>| decode_releases(&Bytes::from(bytes).into());
        for n in [4, u32::MAX] {
            let mut lie = flat.to_vec();
            lie[..4].copy_from_slice(&n.to_le_bytes());
            assert_eq!(malformed(lie), Err(DmError::Malformed), "n {n}");
        }
        for cut in [0, 3, 4 + 8, 4 + 8 + 15, flat.len() - 1] {
            let short = flat[..cut].to_vec();
            assert_eq!(malformed(short), Err(DmError::Malformed), "cut {cut}");
        }
        let trailing = [&flat[..], &[0]].concat();
        assert_eq!(malformed(trailing), Err(DmError::Malformed));
    }

    #[test]
    fn op_table_names_each_code_once_and_classifies_it() {
        let data = [15, 16, 19, 20]; // READ WRITE READ_REF PUT_REF
        for (i, a) in OPS.iter().enumerate() {
            assert!(OPS[..i].iter().all(|b| b.0 < a.0 && b.1 != a.1), "{a:?}");
            assert_eq!((req_name(a.0), is_control(a.0)), (a.1, a.2));
            assert_eq!(a.2, !data.contains(&a.0), "{a:?}");
        }
        // A code outside the table: unnamed and payload-free.
        assert_eq!((op(18), req_name(18)), (None, "dm.unknown"));
        assert!(is_control(18));
    }

    /// Every surviving op and status keeps the code it had when the ring's
    /// ops (23–25), the redirect status (7), the `Busy` status (8), the
    /// versioned success (9) and the invalidation push (op 26) were
    /// retired; the retired codes are nobody's.
    #[test]
    fn wire_codes_are_pinned() {
        let codes: Vec<u8> = OPS.iter().map(|op| op.0).collect();
        assert_eq!(codes, [10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 21, 22]);
        assert_eq!((STATUS_OK, STATUS_OK_DIED), (0, 10));
        let errs: Vec<u8> = ERR_TABLE.iter().map(|&(_, c)| c).collect();
        assert_eq!(errs, [1, 2, 3, 4, 5, 6]);
        // A response with a retired status is malformed, whatever follows
        // the count, and `Malformed` is never retried.
        for status in [7u8, 8, 9] {
            for tail in [&[][..], &[0][..], &[42, 0, 0, 0, 0x58, 0x1B]] {
                let flat = [&[status, 9, 0, 0, 0, 0, 0, 0, 0][..], tail].concat();
                let resp = Message::from(Bytes::from(flat));
                assert_eq!(
                    split_response(&resp),
                    (deaths(9, &[]), Err(DmError::Malformed))
                );
            }
        }
    }

    #[test]
    fn reader_writer_roundtrip() {
        let tail = Bytes::from_static(b"tail");
        let body = Writer::new()
            .pid(GlobalPid(9))
            .u64(0xABCD)
            .u32(77)
            .u16(0x0102)
            .u8(3)
            .body(tail.clone())
            .finish();
        let mut r = Reader::of(&body);
        assert_eq!(r.pid().unwrap(), GlobalPid(9));
        assert_eq!(r.u64().unwrap(), 0xABCD);
        assert_eq!(r.u32().unwrap(), 77);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(
            r.rest_of(&body).as_ptr(),
            tail.as_ptr(),
            "attached, not copied"
        );
        assert!(r.is_empty(), "rest_of() consumes the message");
    }

    /// The same bytes read the same wherever they are split — the sender's
    /// seam, none at all (a hostile datagram), or one inside a field.
    #[test]
    fn reader_reads_across_any_seam() {
        let flat = Writer::new().u8(1).u64(0x0102_0304_0506_0708).u16(9);
        let flat = [&flat.into_vec()[..], b"payload"].concat();
        for cut in 0..=flat.len() {
            let msg = Message::new(flat[..cut].to_vec(), flat[cut..].to_vec().into());
            let mut r = Reader::of(&msg);
            assert_eq!(r.u8().unwrap(), 1, "cut {cut}");
            assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708, "cut {cut}");
            assert_eq!(r.u16().unwrap(), 9, "cut {cut}");
            assert_eq!(&r.take(3).unwrap()[..], b"pay", "cut {cut}");
            assert_eq!(&r.rest_of(&msg)[..], b"load", "cut {cut}");
            assert!(r.is_empty());
            let mut r = Reader::of(&msg);
            r.u8().unwrap();
            assert_eq!(&r.rest()[..], &flat[1..], "cut {cut}");
        }
    }

    #[test]
    fn reader_underflow_is_malformed() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u64().unwrap_err(), DmError::Malformed);
        assert_eq!(r.take(usize::MAX).unwrap_err(), DmError::Malformed);
        assert_eq!(r.u16().unwrap(), 0x0201, "a refused read consumes nothing");
    }
}
