//! DM wire protocol: request/response encoding over [`rpclib`].
//!
//! Each DM operation is one RPC to the owning DM server. Responses carry a
//! leading status byte followed by the server's current *invalidation
//! epoch* (u64 LE). The status says what the rest is: a plain success
//! ([`STATUS_OK`]), a success that starts with the per-ref version block of
//! a coherent server ([`STATUS_OK_VERSIONED`], DESIGN.md §15), a redirect
//! ([`CODE_MOVED`]) or a [`DmError`] code — so a client decodes any server's
//! answer without being told how that server was configured. The epoch
//! advances whenever a ref is released (explicitly or by lease
//! reclamation), so a client comparing the piggybacked epoch against the
//! one its cache entries were filled under can tell whether any ref it
//! cached may have died since (DESIGN.md §9).
//!
//! Requests and responses are [`rpclib::Message`]s: [`Writer`] and
//! [`Response`] write every field into the head and *attach* a payload as
//! the body, so no payload byte is copied to be framed; [`Reader`] and
//! [`split_response`] read across the seam, wherever it falls.

use std::borrow::Cow;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use dmcommon::{DmError, DmResult, GlobalPid};
use rpclib::Message;
use simnet::{Addr, NodeId};
use telemetry::TraceCtx;

/// RPC `req_type` values used by the DM protocol.
pub mod req {
    /// Register a process. The reply is where it learns what it has to
    /// share with this server: `[pid u32]([lease ttl u64 ns]([read lease
    /// u64 ns]))`, its global PID and then one trailing field per setting,
    /// sent only when the server has one to state. A later field forces the
    /// earlier one, where 0 says "none"; the read lease is a coherent
    /// server's (the reply's status says whether it is one) and goes out
    /// only when it is not [`super::DEFAULT_READ_LEASE`] — so a default
    /// server replies with the pid alone.
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
    /// Fast path: read a ref's bytes by key without installing a mapping.
    pub const READ_REF: u8 = 19;
    /// Fast path: publish data as a new reference in one round trip, with
    /// no creator mapping (server-side allocation).
    pub const PUT_REF: u8 = 20;
    /// Renew this process's lease (only meaningful when the server grants
    /// leases; body = pid). A process whose lease expires has all its pins
    /// reclaimed — see DESIGN.md §8.
    pub const RENEW_LEASE: u8 = 21;
    /// Batched control ops: `u32` count, then `count` framed sub-requests
    /// (`u8` req type, `u32` body length, body). The response body frames
    /// one full response per sub-request in order. Nested batches are
    /// rejected.
    pub const BATCH: u8 = 22;
    /// Sharded plane (DESIGN.md §13): publish data under a client-minted
    /// global key (`[gkey u64][data]`). The server binds the gkey to a
    /// locally-allocated ref; later ops name the gkey and any server
    /// holding it (or a redirect tombstone for it) can answer.
    pub const PUT_REF_AT: u8 = 23;
    /// Migrate a gkey-bound ref to another server
    /// (`[gkey u64][dst node u32][dst port u32]`). The source transfers
    /// the bytes server-to-server, releases its copy and installs a
    /// redirect tombstone; clients naming the gkey chase one hop.
    pub const MIGRATE: u8 = 24;
    /// Server-to-server half of [`MIGRATE`] (`[gkey u64][owner node u32]
    /// [owner port u32]([version u64])[data]`, the version only between
    /// coherent servers): the destination binds the gkey to a fresh local
    /// ref holding `data`, attributed to its own pid for the owning
    /// endpoint. Both ops refuse a port above `u16::MAX` as `Malformed`.
    pub const MIGRATE_IN: u8 = 25;
    /// Server-to-client targeted invalidation push (`[key u64][ver u64]`,
    /// DESIGN.md §15): the named ref's version advanced (it was released,
    /// reclaimed, or migrated), so any cached copy filled under an older
    /// version must be dropped. Fire-and-forget — a lost push is safe
    /// because cached entries also carry a bounded read lease and a
    /// version check on serve, and ref bytes are immutable while live.
    pub const INVALIDATE: u8 = 26;
}

/// Well-known port DM servers listen on.
pub const DM_PORT: u16 = 7000;

/// The one table of wire ops — `(code, span name, control-plane,
/// admission-exempt)`, codes ascending — that the classifiers below, the
/// handlers a DM server registers and the client's per-type counters are
/// read off. *Control-plane* is metadata (registration, pin/unpin, release,
/// lease renewal) as opposed to ops carrying payload bytes; `xtra_rtt_budget`
/// counts the two apart. *Admission-exempt* ops bypass overload control
/// (DESIGN.md §14): shedding a registration or a lease renewal would turn a
/// latency problem into spurious reclamation, and `BATCH` carries deferred
/// releases whose loss would leak pins.
pub const OPS: &[(u8, &str, bool, bool)] = &[
    (req::REGISTER, "dm.register", true, true),
    (req::ALLOC, "dm.alloc", true, false),
    (req::FREE, "dm.free", true, false),
    (req::CREATE_REF, "dm.create_ref", true, false),
    (req::MAP_REF, "dm.map_ref", true, false),
    (req::READ, "dm.read", false, false),
    (req::WRITE, "dm.write", false, false),
    (req::RELEASE_REF, "dm.release_ref", true, false),
    (req::READ_REF, "dm.read_ref", false, false),
    (req::PUT_REF, "dm.put_ref", false, false),
    (req::RENEW_LEASE, "dm.renew_lease", true, true),
    (req::BATCH, "dm.batch", true, true),
    (req::PUT_REF_AT, "dm.put_ref_at", false, false),
    (req::MIGRATE, "dm.migrate", true, false),
    (req::MIGRATE_IN, "dm.migrate_in", false, false),
    // Served by clients, pushed by servers.
    (req::INVALIDATE, "dm.invalidate", true, false),
];

/// One past the highest op code: the size of a per-type counter array.
pub(crate) const N_REQ_TYPES: usize = OPS[OPS.len() - 1].0 as usize + 1;

fn op(ty: u8) -> Option<&'static (u8, &'static str, bool, bool)> {
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

/// Whether a request type bypasses admission control ([`OPS`]).
pub(crate) fn admission_exempt(ty: u8) -> bool {
    op(ty).is_some_and(|op| op.3)
}

/// The single source of truth for the `DmError` ↔ wire-code mapping.
/// Encode and decode both walk this table, so they cannot disagree and
/// every code (including 5 = `Malformed`) has an explicit entry.
const ERR_TABLE: &[(DmError, u8)] = &[
    (DmError::OutOfMemory, 1),
    (DmError::InvalidAddress, 2),
    (DmError::InvalidRef, 3),
    (DmError::OutOfBounds, 4),
    (DmError::Malformed, 5),
    (DmError::Transport, 6),
    // 7 is CODE_MOVED (a redirect, not an error); Busy takes the next slot.
    (DmError::Busy, 8),
    // 9 is STATUS_OK_VERSIONED.
];

fn err_code(e: DmError) -> u8 {
    ERR_TABLE
        .iter()
        .find(|&&(err, _)| err == e)
        .map(|&(_, c)| c)
        .expect("every DmError variant is in ERR_TABLE")
}

fn code_err(c: u8) -> DmError {
    ERR_TABLE
        .iter()
        .find(|&&(_, code)| code == c)
        .map(|&(e, _)| e)
        .unwrap_or(DmError::Malformed)
}

/// Status byte of a plain success: the op's result follows the epoch.
pub const STATUS_OK: u8 = 0;

/// Status byte of every success from a coherent server (DESIGN.md §15): a
/// version block — `[n u8]`, then `n × ([key u64][ver u64])`, `n = 0` when
/// the op touched no ref — sits between the epoch and the op's result.
pub const STATUS_OK_VERSIONED: u8 = 9;

/// Read lease of a coherent server whose `REGISTER` reply names none.
pub const DEFAULT_READ_LEASE: Duration = Duration::from_micros(50);

/// Bytes in front of every response body: `[status u8][epoch u64]`.
const RESPONSE_HEAD: usize = 9;

/// Bytes a data response carries around its payload: [`RESPONSE_HEAD`], plus
/// the one-ref version block (`[n u8][key u64][ver u64]`) from a coherent
/// server. A server checks a wire-fed read length against
/// [`rpclib::wire::max_msg_len`] less this before it builds anything.
pub(crate) fn data_response_overhead(coherent: bool) -> usize {
    RESPONSE_HEAD + if coherent { 1 + 16 } else { 0 }
}

/// A response under construction: status and epoch are reserved up front,
/// small fields are appended behind them, and a payload is *attached* as
/// the body ([`Response::body`] — page bytes straight out of the page
/// store). Status, epoch and the optional version block are filled in by
/// the method that finishes it — so a server that awaits between producing
/// the body and answering reports the epoch of the answer, and no body is
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

    fn finish(mut self, status: u8, epoch: u64) -> Message {
        self.head[0] = status;
        self.head[1..RESPONSE_HEAD].copy_from_slice(&epoch.to_le_bytes());
        Message::new(self.head, self.body)
    }

    /// Finish as a success carrying the server's current invalidation
    /// `epoch`: [`STATUS_OK`], or with `touched` (what a coherent server
    /// passes, on every success) [`STATUS_OK_VERSIONED`] with the version
    /// block in front of everything appended so far.
    pub fn ok(mut self, epoch: u64, touched: Option<&[(u64, u64)]>) -> Message {
        let Some(touched) = touched else {
            return self.finish(STATUS_OK, epoch);
        };
        assert!(touched.len() <= u8::MAX as usize, "version count is a u8");
        let pairs = touched
            .iter()
            .flat_map(|&(key, ver)| key.to_le_bytes().into_iter().chain(ver.to_le_bytes()));
        let block = std::iter::once(touched.len() as u8).chain(pairs);
        self.head.splice(RESPONSE_HEAD..RESPONSE_HEAD, block);
        self.finish(STATUS_OK_VERSIONED, epoch)
    }

    /// An error response, carrying the server's current `epoch`.
    pub fn err(epoch: u64, e: DmError) -> Message {
        Response::new().finish(err_code(e), epoch)
    }
}

/// What a response decodes to: a result, a one-hop redirect, or an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success.
    Ok {
        /// The op's own result: everything behind the epoch and the
        /// version block, if there was one.
        body: Message,
        /// The `(key, version)` pairs the op touched, from a coherent
        /// server (`Some`, possibly empty); `None` from a server that keeps
        /// the global epoch only.
        versions: Option<Vec<(u64, u64)>>,
    },
    /// The gkey migrated to the server at `node:port`; retry there.
    Moved {
        /// Forwarding fabric node.
        node: u32,
        /// Forwarding port.
        port: u16,
    },
    /// Typed failure.
    Err(DmError),
}

impl Reply {
    /// The body or the error, for requests that cannot be redirected: a
    /// [`CODE_MOVED`] answer to anything but a gkey-routed request is a
    /// protocol violation and reads as `Malformed`.
    pub fn result(self) -> DmResult<Message> {
        match self {
            Reply::Ok { body, .. } => Ok(body),
            Reply::Moved { .. } => Err(DmError::Malformed),
            Reply::Err(e) => Err(e),
        }
    }
}

/// Split a response into its piggybacked epoch plus [`Reply`] — the one
/// response decoder. A response too short to carry an epoch (or a redirect
/// too short to carry its address, or a version block longer than what
/// follows) decodes as `Malformed`, the first with epoch 0.
pub fn split_response(resp: &Message) -> (u64, Reply) {
    let mut r = Reader::of(resp);
    let (Ok(status), Ok(epoch)) = (r.u8(), r.u64()) else {
        return (0, Reply::Err(DmError::Malformed));
    };
    let reply = match status {
        STATUS_OK => Reply::Ok {
            body: resp.skip(RESPONSE_HEAD),
            versions: None,
        },
        STATUS_OK_VERSIONED => match read_versions(&mut r) {
            Ok(versions) => Reply::Ok {
                body: resp.skip(RESPONSE_HEAD + 1 + 16 * versions.len()),
                versions: Some(versions),
            },
            Err(e) => Reply::Err(e),
        },
        CODE_MOVED => match (r.u32(), r.u16()) {
            (Ok(node), Ok(port)) => Reply::Moved { node, port },
            _ => Reply::Err(DmError::Malformed),
        },
        c => Reply::Err(code_err(c)),
    };
    (epoch, reply)
}

fn read_versions(r: &mut Reader<'_>) -> DmResult<Vec<(u64, u64)>> {
    let n = r.u8()?;
    (0..n).map(|_| Ok((r.u64()?, r.u64()?))).collect()
}

/// Status byte of a *redirect* response (DESIGN.md §13): the named gkey
/// migrated away and the body carries the forwarding address. Deliberately
/// not a [`DmError`]: only gkey-routed requests may be answered with it,
/// and [`Reply::result`] maps it to `Malformed` for everything else.
pub const CODE_MOVED: u8 = 7;

/// Encode a redirect response: the gkey now lives at `node:port`.
pub fn moved_response(epoch: u64, node: u32, port: u16) -> Message {
    let mut resp = Response::new();
    resp.head.put_u32_le(node);
    resp.head.put_u16_le(port);
    resp.finish(CODE_MOVED, epoch)
}

/// High bit of a batch item tag: set when the item body starts with a
/// 16-byte trace context (`trace_id` LE u64, `span_id` LE u64) captured
/// where the op was enqueued. Request types stay ≤ [`req::MIGRATE_IN`]
/// (25), so the bit is free; untraced batches are byte-identical to the
/// pre-telemetry encoding.
pub const BATCH_TRACE_BIT: u8 = 0x80;

/// Frame `items` (req type, body) as a [`req::BATCH`] request body
/// (rpclib's tagged multi-op framing), with no trace contexts.
pub fn encode_batch(items: &[(u8, Bytes)]) -> Bytes {
    let untraced: Vec<(u8, Bytes, Option<TraceCtx>)> = items
        .iter()
        .map(|(ty, body)| (*ty, body.clone(), None))
        .collect();
    encode_batch_traced(&untraced)
}

/// Frame `items` (req type, body, optional trace context) as a
/// [`req::BATCH`] request body. Items carrying a context get the
/// [`BATCH_TRACE_BIT`] tag bit and a 16-byte context prefix, so batched
/// control ops stay attributable to the request that enqueued them even
/// though the flush RPC itself runs in a timer task.
pub fn encode_batch_traced(items: &[(u8, Bytes, Option<TraceCtx>)]) -> Bytes {
    let framed: Vec<(u8, Bytes)> = items
        .iter()
        .map(|(ty, body, ctx)| match ctx {
            None => (*ty, body.clone()),
            Some(c) => {
                let mut b = BytesMut::with_capacity(16 + body.len());
                b.extend_from_slice(&c.trace_id.to_le_bytes());
                b.extend_from_slice(&c.span_id.to_le_bytes());
                b.extend_from_slice(body);
                (*ty | BATCH_TRACE_BIT, b.freeze())
            }
        })
        .collect();
    rpclib::multiframe::encode_tagged(&framed)
}

/// Decode a [`req::BATCH`] request body into (req type, body, optional
/// trace context) items. Zero-copy: the returned bodies share the input
/// buffer's storage (traced items slice past their context prefix).
pub fn decode_batch(body: &Bytes) -> DmResult<Vec<(u8, Bytes, Option<TraceCtx>)>> {
    let raw = rpclib::multiframe::decode_tagged(body).ok_or(DmError::Malformed)?;
    raw.into_iter()
        .map(|(tag, body)| {
            if tag & BATCH_TRACE_BIT == 0 {
                return Ok((tag, body, None));
            }
            if body.len() < 16 {
                return Err(DmError::Malformed);
            }
            let trace_id = u64::from_le_bytes(body[..8].try_into().expect("len checked"));
            let span_id = u64::from_le_bytes(body[8..16].try_into().expect("len checked"));
            Ok((
                tag & !BATCH_TRACE_BIT,
                body.slice(16..),
                Some(TraceCtx { trace_id, span_id }),
            ))
        })
        .collect()
}

/// A response that frames the per-sub-request responses of a batch
/// (rpclib's untagged multi-op framing; order mirrors the request).
pub fn batch_response(resps: &[Message]) -> Response {
    let mut resp = Response::new();
    resp.head.reserve(rpclib::multiframe::plain_len(resps));
    rpclib::multiframe::encode_plain_into(resps, &mut resp.head);
    resp
}

/// Decode a batch response body into the framed per-sub-request responses.
pub fn decode_batch_responses(body: &Bytes) -> DmResult<Vec<Bytes>> {
    rpclib::multiframe::decode_plain(body).ok_or(DmError::Malformed)
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

    #[test]
    fn response_roundtrip() {
        let payload = Bytes::from_static(b"abc");
        let ok = Response::new().body(payload.clone()).ok(42, None);
        let (epoch, reply) = split_response(&ok);
        assert_eq!(epoch, 42);
        // The payload is attached, not copied, and comes back the same way.
        let body = reply.result().unwrap().into_bytes();
        assert_eq!(body.as_ptr(), payload.as_ptr());
        let err = Response::err(7, DmError::OutOfMemory);
        assert_eq!(split_response(&err), (7, Reply::Err(DmError::OutOfMemory)));
        // Too short to carry an epoch: malformed, epoch reads as 0.
        for short in [Bytes::new(), Bytes::from_static(&[0, 1, 2])] {
            let short = Message::from(short);
            assert_eq!(split_response(&short), (0, Reply::Err(DmError::Malformed)));
        }
    }

    #[test]
    fn all_error_codes_roundtrip() {
        // Every variant must survive encode → decode through the shared
        // table, including Malformed (code 5).
        for &(e, code) in ERR_TABLE {
            assert_eq!(err_code(e), code);
            assert_eq!(code_err(code), e);
            assert_eq!(split_response(&Response::err(0, e)).1, Reply::Err(e));
        }
        // Unknown codes (and 0 in error position) decode as Malformed.
        assert_eq!(code_err(0), DmError::Malformed);
        assert_eq!(code_err(99), DmError::Malformed);
    }

    #[test]
    fn batch_framing_roundtrip() {
        let items = vec![
            (
                req::RELEASE_REF,
                Writer::new().u64(11).finish().into_bytes(),
            ),
            (
                req::FREE,
                Writer::new()
                    .pid(GlobalPid(3))
                    .u64(22)
                    .finish()
                    .into_bytes(),
            ),
            (req::RELEASE_REF, Bytes::new()),
        ];
        let decoded = decode_batch(&encode_batch(&items)).unwrap();
        let expect: Vec<(u8, Bytes, Option<TraceCtx>)> = items
            .iter()
            .map(|(ty, body)| (*ty, body.clone(), None))
            .collect();
        assert_eq!(decoded, expect);

        let resps = vec![
            Response::new().ok(1, None),
            Response::err(2, DmError::InvalidRef),
        ];
        let framed = split_response(&batch_response(&resps).ok(3, None)).1;
        let back = decode_batch_responses(&framed.result().unwrap().into_bytes()).unwrap();
        let back: Vec<Message> = back.into_iter().map(Message::from).collect();
        assert_eq!(back, resps);
    }

    #[test]
    fn traced_batch_items_roundtrip_and_mix_with_untraced() {
        let ctx = TraceCtx {
            trace_id: 0x1111_2222_3333_4444,
            span_id: 0x5555_6666_7777_8888,
        };
        let items = vec![
            (
                req::RELEASE_REF,
                Writer::new().u64(11).finish().into_bytes(),
                Some(ctx),
            ),
            (
                req::FREE,
                Writer::new()
                    .pid(GlobalPid(3))
                    .u64(22)
                    .finish()
                    .into_bytes(),
                None,
            ),
            (req::RELEASE_REF, Bytes::new(), Some(ctx)),
        ];
        let body = encode_batch_traced(&items);
        assert_eq!(decode_batch(&body).unwrap(), items);

        // An all-untraced batch is byte-identical to the legacy encoding:
        // the trace bit never appears on the wire unless a context rode in.
        let plain = vec![(
            req::RELEASE_REF,
            Writer::new().u64(11).finish().into_bytes(),
        )];
        let traced_none: Vec<(u8, Bytes, Option<TraceCtx>)> =
            plain.iter().map(|(ty, b)| (*ty, b.clone(), None)).collect();
        assert_eq!(encode_batch(&plain), encode_batch_traced(&traced_none));
    }

    #[test]
    fn traced_batch_truncated_context_is_malformed() {
        // Tag claims a context prefix but the body is too short for one.
        let raw = rpclib::multiframe::encode_tagged(&[(
            req::RELEASE_REF | BATCH_TRACE_BIT,
            Bytes::from_static(&[0u8; 15]),
        )]);
        assert_eq!(decode_batch(&raw).unwrap_err(), DmError::Malformed);
    }

    #[test]
    fn batch_decode_rejects_garbage() {
        assert!(decode_batch(&Bytes::from_static(&[1, 2])).is_err());
        // Count claims more items than the body could possibly hold.
        let huge = Writer::new().u32(u32::MAX).finish().into_bytes();
        assert_eq!(decode_batch(&huge).unwrap_err(), DmError::Malformed);
        // Truncated item body.
        let trunc = Writer::new().u32(1).u8(req::FREE).u32(100);
        let trunc = [&trunc.into_vec()[..], b"short"].concat().into();
        assert_eq!(decode_batch(&trunc).unwrap_err(), DmError::Malformed);
    }

    #[test]
    fn op_table_names_each_code_once_and_classifies_it() {
        let data = [15, 16, 19, 20, 23, 25]; // READ WRITE READ_REF PUT_REF PUT_REF_AT MIGRATE_IN
        for (i, a) in OPS.iter().enumerate() {
            assert!(OPS[..i].iter().all(|b| b.0 < a.0 && b.1 != a.1), "{a:?}");
            assert!(a.0 & BATCH_TRACE_BIT == 0, "{a:?} takes the trace bit");
            assert_eq!((req_name(a.0), is_control(a.0)), (a.1, a.2));
            assert_eq!((admission_exempt(a.0), a.2), (a.3, !data.contains(&a.0)));
        }
        // A code outside the table: unnamed, payload-free, never exempt.
        assert_eq!((op(18), req_name(18)), (None, "dm.unknown"));
        assert!(is_control(18) && !admission_exempt(18));
    }

    #[test]
    fn version_block_roundtrip() {
        // Data bytes plus two touched refs: the versions sit in the head,
        // in front of the small fields, and strip without touching the body.
        let payload = Bytes::from_static(b"payload");
        let resp = Response::new()
            .u64(77)
            .body(payload.clone())
            .ok(5, Some(&[(11, 2), (GKEY_TEST, 7)]));
        assert_eq!(resp.body.as_ptr(), payload.as_ptr());
        assert_eq!(resp.head[0], STATUS_OK_VERSIONED);
        let (epoch, reply) = split_response(&resp);
        let Reply::Ok { body, versions } = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(epoch, 5);
        assert_eq!(versions, Some(vec![(11, 2), (GKEY_TEST, 7)]));
        assert_eq!(body, [&77u64.to_le_bytes()[..], b"payload"].concat()[..]);
        // Untouched responses still carry an (empty) block; plain ones none.
        for touched in [Some(&[][..]), None] {
            let reply = split_response(&Response::new().ok(5, touched)).1;
            let (body, versions) = (Message::default(), touched.map(|_| Vec::new()));
            assert_eq!(reply, Reply::Ok { body, versions });
        }
        // A claimed block bigger than the body is malformed.
        for short in [&[3u8, 0, 0][..], &[]] {
            let flat = [&[STATUS_OK_VERSIONED, 5, 0, 0, 0, 0, 0, 0, 0][..], short].concat();
            let short = Message::from(Bytes::from(flat));
            assert_eq!(split_response(&short), (5, Reply::Err(DmError::Malformed)));
        }
    }

    const GKEY_TEST: u64 = 1 << 63 | 42;

    #[test]
    fn moved_response_roundtrip() {
        let m = moved_response(9, 42, 7000);
        assert_eq!(
            split_response(&m),
            (
                9,
                Reply::Moved {
                    node: 42,
                    port: 7000
                }
            )
        );
        // A request that cannot be redirected reads it as Malformed, never Ok.
        assert_eq!(
            split_response(&m).1.result().unwrap_err(),
            DmError::Malformed
        );
        // Truncated redirect body.
        let cut = Message::from(m.into_bytes().slice(..12));
        assert_eq!(split_response(&cut), (9, Reply::Err(DmError::Malformed)));
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
