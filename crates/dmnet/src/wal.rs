//! Log-structured durability for the DM server (DESIGN.md §12).
//!
//! An opt-in write-ahead log of every **acknowledged mutating operation**:
//! the server appends a checksummed [`Record`] to the log *before* the
//! response for the op is sent (log-before-ack), so a crashed server can
//! rebuild the exact acknowledged state — page bytes, refcounts, COW
//! sharing, VA trees, process registrations and the restart count —
//! by replaying the log ([`crate::DmServer::restart_from_log`]).
//!
//! The log is *logical redo*: an op's record is its wire request and the
//! result it answered with ([`Record::Op`]), not physical state, and the
//! [`crate::PageManager`] is deterministic, so replay runs each request
//! through the serving body again, reproduces every internal detail
//! including the FIFO free-list order, and checks each result. Background
//! growth is bounded by **checkpoint compaction**: when the records
//! appended since the last checkpoint exceed both
//! [`WalConfig::compact_threshold_bytes`] and that checkpoint's size, the
//! whole log is replaced by one [`Record::Checkpoint`] carrying a canonical
//! snapshot of the server state. The swap is atomic (the
//! write-new-then-rename idiom of log-structured stores); the modeled
//! failure mode is a *torn tail* of the append stream, which recovery
//! handles by stopping at the last record with a valid checksum.
//!
//! Record framing (all integers little-endian):
//!
//! ```text
//! [len u32][seq u64][crc32 u32][payload: len bytes]
//! ```
//!
//! `crc32` (IEEE) covers `seq || payload`, so a record that is truncated,
//! bit-flipped, or spliced from another position fails validation. `seq`
//! increases by exactly 1 per record and survives compaction, making a
//! stale pre-compaction suffix unspliceable after the checkpoint.
//!
//! Time is charged against a [`memsim::DurableMedia`]; the zero-cost
//! device ([`WalConfig::zero_cost`], selected by `DM_DURABLE=1`) performs
//! all of the bookkeeping with no virtual-time charge and no executor
//! yield, so enabling it cannot perturb the simulation schedule — the CI
//! `results` job proves every committed CSV regenerates
//! byte-identically with it on.

use std::cell::{Cell, RefCell};

use bytes::Bytes;
use dmcommon::{DmError, DmResult};
use memsim::{DurableMedia, DurableMediaParams};
use rpclib::Message;
use simnet::Addr;

use crate::proto::{Reader, Writer};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Slicing-by-8 tables: `[0]` is one byte's worth of the CRC-32 division
/// for every byte value, and `[k]` is that byte followed by `k` zero
/// bytes, so eight bytes fold into the register with eight lookups.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Feed `data` through a running CRC-32 register (pre- and
/// post-inversion are the caller's): `crc32(a ‖ b)` is
/// `!crc32_update(crc32_update(!0, a), b)`.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        // Byte i of the register-folded word is followed by 7 - i more.
        let x = crc as u64 ^ u64::from_le_bytes(w.try_into().expect("8 bytes"));
        crc = (0..8).fold(0, |c, i| c ^ t[7 - i][(x >> (8 * i)) as u8 as usize]);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The checksum a record frame carries: CRC-32 over `seq ‖ payload`.
fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &seq.to_le_bytes()), payload)
}

/// FNV-1a 64-bit hash, used for state digests (recovery oracles compare
/// digests of canonical snapshots).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One logged server mutation. An acknowledged op is its wire request
/// plus the result it answered with, which replay runs again through the
/// same body ([`crate::DmServer`]'s `apply`) and checks against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A mutating wire op of type `ty` from `src` that succeeded.
    Op {
        /// The request type ([`crate::proto::req`]).
        ty: u8,
        /// The requesting endpoint.
        src: Addr,
        /// The request body, as it arrived.
        request: Message,
        /// The result the op answered with (the response behind its
        /// status and death count).
        response: Message,
    },
    /// Lease expiry reclaimed every pin of `pid` (replayed exactly like the
    /// live sweep does it).
    ReleaseProcess {
        /// Reclaimed process.
        pid: u32,
    },
    /// Compaction checkpoint: a canonical snapshot of the full server
    /// state; replay restores it and continues with subsequent records.
    Checkpoint {
        /// Canonical snapshot bytes (see `DmServer::snapshot_bytes`).
        snapshot: Vec<u8>,
    },
    /// The server came back from a crash (`DmServer::restart_from_log`):
    /// one more incarnation, which every later death count carries.
    Restart,
}

mod kind {
    pub const OP: u8 = 1;
    pub const RELEASE_PROCESS: u8 = 9;
    pub const CHECKPOINT: u8 = 10;
    pub const RESTART: u8 = 11;
}

impl Record {
    /// Encode the record payload (no frame) into `out`: an op is
    /// `[kind][ty u8][src][response len u32][response][request]`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let w = Writer::from(std::mem::take(out));
        // The log keeps its own copy of a record's bytes: they follow the
        // fields, appended here rather than through the wire builder.
        let (w, tail): (Writer, [&[u8]; 4]) = match self {
            Record::Op {
                ty,
                src,
                request,
                response,
            } => {
                let w = w.u8(kind::OP).u8(*ty).addr(*src);
                let [a, b] = response.parts();
                let [c, d] = request.parts();
                (w.u32(response.len() as u32), [a, b, c, d])
            }
            Record::ReleaseProcess { pid } => {
                (w.u8(kind::RELEASE_PROCESS).u32(*pid), Default::default())
            }
            Record::Checkpoint { snapshot } => (w.u8(kind::CHECKPOINT), [snapshot, &[], &[], &[]]),
            Record::Restart => (w.u8(kind::RESTART), Default::default()),
        };
        *out = w.into_vec();
        tail.iter().for_each(|part| out.extend_from_slice(part));
    }

    /// Decode one record payload. `None` on any malformed input.
    pub fn decode(payload: &[u8]) -> Option<Record> {
        let mut r = Reader::new(payload);
        let rec = Record::decode_from(&mut r).ok()?;
        // Fixed-size records must consume their payload exactly (the
        // variable-size ones take the rest as their data).
        r.is_empty().then_some(rec)
    }

    fn decode_from(r: &mut Reader<'_>) -> DmResult<Record> {
        let message =
            |bytes: std::borrow::Cow<'_, [u8]>| Message::from(Bytes::from(bytes.into_owned()));
        Ok(match r.u8()? {
            kind::OP => {
                let (ty, src) = (r.u8()?, r.addr()?);
                let n = r.u32()? as usize;
                let response = message(r.take(n)?);
                Record::Op {
                    ty,
                    src,
                    response,
                    request: message(r.rest()),
                }
            }
            kind::RELEASE_PROCESS => Record::ReleaseProcess { pid: r.u32()? },
            kind::CHECKPOINT => Record::Checkpoint {
                snapshot: r.rest().into_owned(),
            },
            kind::RESTART => Record::Restart,
            _ => return Err(DmError::Malformed),
        })
    }
}

/// Durability backend configuration (a field of
/// [`crate::DmServerConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalConfig {
    /// Timing model of the log device.
    pub media: DurableMediaParams,
    /// Compact (checkpoint + truncate) once the records appended since the
    /// last checkpoint exceed this many bytes and the checkpoint's own
    /// size. 0 disables compaction (tests pin log contents with it).
    pub compact_threshold_bytes: u64,
}

impl WalConfig {
    /// Zero-cost durability: full WAL bookkeeping, no virtual-time charge,
    /// no schedule perturbation. This is what `DM_DURABLE=1` selects.
    pub fn zero_cost() -> WalConfig {
        WalConfig {
            media: DurableMediaParams::zero_cost(),
            compact_threshold_bytes: 4 << 20,
        }
    }

    /// NVMe-class timed durability (~5 µs/sync, 2 GB/s streaming).
    pub fn nvme() -> WalConfig {
        WalConfig {
            media: DurableMediaParams::nvme(),
            compact_threshold_bytes: 4 << 20,
        }
    }

    /// The `DM_DURABLE` env hook: with `DM_DURABLE=1` every server built
    /// with `DmServerConfig::default()` gets a zero-cost durable tier,
    /// proving (via the `results` CI job) that durability bookkeeping is
    /// schedule-neutral. Unset or `0` is off; anything else ends the process
    /// with status 2 — a typo in `ci.yml` must not turn the durable pass
    /// into a second non-durable one that proves nothing.
    pub fn from_env() -> Option<WalConfig> {
        let raw = std::env::var_os("DM_DURABLE").map(|v| v.to_string_lossy().into_owned());
        WalConfig::parse_env(raw.as_deref()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// [`Self::from_env`] of what `DM_DURABLE` holds (`None` = unset).
    fn parse_env(raw: Option<&str>) -> Result<Option<WalConfig>, String> {
        match raw {
            None | Some("0") => Ok(None),
            Some("1") => Ok(Some(WalConfig::zero_cost())),
            Some(raw) => Err(format!("DM_DURABLE={raw:?}: expected 0 or 1")),
        }
    }
}

/// What a recovery scan found.
#[derive(Debug)]
pub struct ScanReport {
    /// Records of the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Bytes of the valid prefix.
    pub valid_bytes: usize,
    /// Sequence number the next append should use (last valid + 1), or
    /// `None` when no record validated.
    pub next_seq: Option<u64>,
    /// Whether a torn/corrupt tail was cut off.
    pub torn: bool,
}

/// The write-ahead log of one DM server: the framed record stream (the
/// simulated durable-media *contents*) plus the media timing model.
///
/// Appends are split in two so the record becomes durable atomically with
/// the in-memory mutation it describes (the simulator is single-threaded,
/// so code between awaits is atomic): [`Wal::push`] installs the framed
/// record synchronously, then the caller awaits the media charge before
/// sending the response. A crash between mutation and response therefore
/// never loses an acknowledged op — the modeled torn-tail failure only
/// drops records whose responses were never sent.
pub struct Wal {
    buf: RefCell<Vec<u8>>,
    next_seq: Cell<u64>,
    records: Cell<u64>,
    compactions: Cell<u64>,
    /// Framed size of the checkpoint at the head of the log (0: none).
    checkpoint_bytes: Cell<u64>,
    media: DurableMedia,
    config: WalConfig,
}

impl Wal {
    /// Create an empty log on a fresh media device.
    pub fn new(name: impl Into<String>, config: WalConfig) -> Wal {
        Wal {
            buf: RefCell::new(Vec::new()),
            next_seq: Cell::new(0),
            records: Cell::new(0),
            compactions: Cell::new(0),
            checkpoint_bytes: Cell::new(0),
            media: DurableMedia::new(name, config.media),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> WalConfig {
        self.config
    }

    /// The media timing model (callers charge append/scan time on it).
    pub fn media(&self) -> &DurableMedia {
        &self.media
    }

    /// Frame and append `rec` synchronously; returns the framed size in
    /// bytes (the caller's media charge).
    pub fn push(&self, rec: &Record) -> u64 {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let mut payload = Vec::new();
        rec.encode_into(&mut payload);
        let crc = frame_crc(seq, &payload);
        let mut buf = self.buf.borrow_mut();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&payload);
        self.records.set(self.records.get() + 1);
        (16 + payload.len()) as u64
    }

    /// Whether the records appended since the last checkpoint have
    /// outgrown both the compaction threshold and the checkpoint they would
    /// replace. The second bound amortises a checkpoint: a live state
    /// bigger than the threshold is checksummed again only once as many
    /// bytes of records have followed it.
    pub fn should_compact(&self) -> bool {
        let checkpoint = self.checkpoint_bytes.get();
        let appended = self.log_bytes().saturating_sub(checkpoint);
        let threshold = self.config.compact_threshold_bytes;
        threshold > 0 && appended > threshold.max(checkpoint)
    }

    /// Replace the whole log with one checkpoint record (atomic install —
    /// the write-new-then-rename idiom). Sequence numbers continue, so a
    /// stale pre-compaction suffix can never splice onto the new log.
    /// Returns the framed checkpoint size for the caller's media charge.
    pub fn compact(&self, snapshot: Vec<u8>) -> u64 {
        self.buf.borrow_mut().clear();
        self.records.set(0);
        self.compactions.set(self.compactions.get() + 1);
        let framed = self.push(&Record::Checkpoint { snapshot });
        self.checkpoint_bytes.set(framed);
        framed
    }

    /// Bytes in the live log.
    pub fn log_bytes(&self) -> u64 {
        self.buf.borrow().len() as u64
    }

    /// Records in the live log (post-compaction count).
    pub fn records(&self) -> u64 {
        self.records.get()
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions.get()
    }

    /// Parse the log, validating framing, checksums and sequence
    /// continuity; stops at the first invalid byte. Read-only — pair with
    /// [`Wal::repair`] to actually cut a torn tail.
    pub fn scan(&self) -> ScanReport {
        let buf = self.buf.borrow();
        let mut pos = 0usize;
        let mut records = Vec::new();
        let mut expect_seq: Option<u64> = None;
        let mut torn = false;
        while pos < buf.len() {
            if pos + 16 > buf.len() {
                torn = true;
                break;
            }
            let len =
                u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("len checked")) as usize;
            let seq = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().expect("len checked"));
            let crc = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().expect("len checked"));
            if pos + 16 + len > buf.len() {
                torn = true;
                break;
            }
            let payload = &buf[pos + 16..pos + 16 + len];
            if frame_crc(seq, payload) != crc {
                torn = true;
                break;
            }
            if let Some(e) = expect_seq {
                if seq != e {
                    torn = true;
                    break;
                }
            }
            let Some(rec) = Record::decode(payload) else {
                torn = true;
                break;
            };
            expect_seq = Some(seq + 1);
            records.push(rec);
            pos += 16 + len;
        }
        ScanReport {
            records,
            valid_bytes: pos,
            next_seq: expect_seq,
            torn,
        }
    }

    /// Cut the torn tail a [`Wal::scan`] found: truncate the log to the
    /// valid prefix and realign the sequence/record counters.
    pub fn repair(&self, report: &ScanReport) {
        self.buf.borrow_mut().truncate(report.valid_bytes);
        // A checkpoint heads the log; a tear inside it leaves none.
        let valid = report.valid_bytes as u64;
        self.checkpoint_bytes
            .set(self.checkpoint_bytes.get().min(valid));
        if let Some(next) = report.next_seq {
            self.next_seq.set(next);
        }
        self.records.set(report.records.len() as u64);
    }

    /// Raw log bytes (corruption-injection tests).
    pub fn raw(&self) -> Vec<u8> {
        self.buf.borrow().clone()
    }

    /// Replace the raw log bytes (corruption-injection tests). Counters
    /// are left stale on purpose — a following [`Wal::scan`] +
    /// [`Wal::repair`] (as `restart_from_log` performs) realigns them.
    pub fn set_raw(&self, bytes: Vec<u8>) {
        *self.buf.borrow_mut() = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::req;

    fn op(ty: u8, request: Writer, response: Writer) -> Record {
        Record::Op {
            ty,
            src: Addr {
                node: simnet::NodeId(3),
                port: 7000,
            },
            request: request.finish(),
            response: response.finish(),
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            op(req::REGISTER, Writer::new(), Writer::new().u32(7)),
            op(
                req::ALLOC,
                Writer::new().u32(7).u64(8192),
                Writer::new().u64(0x1000),
            ),
            // A payload attached behind the fields, as a client frames it.
            op(
                req::WRITE,
                Writer::new()
                    .u32(7)
                    .u64(0x1000)
                    .body(Bytes::from(vec![0xAB; 5])),
                Writer::new(),
            ),
            op(req::RELEASE_REF, Writer::new().u64(1), Writer::new()),
            Record::ReleaseProcess { pid: 7 },
            Record::Checkpoint {
                snapshot: vec![9, 9, 9],
            },
            Record::Restart,
        ]
    }

    #[test]
    fn record_roundtrip_every_kind() {
        for rec in sample_records() {
            let mut p = Vec::new();
            rec.encode_into(&mut p);
            assert_eq!(Record::decode(&p).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Record::decode(&[]), None);
        assert_eq!(Record::decode(&[99]), None, "unknown kind");
        assert_eq!(Record::decode(&[kind::OP, 1]), None, "truncated");
        // A response length that runs past the payload.
        let mut p = Vec::new();
        op(req::ALLOC, Writer::new(), Writer::new().u64(1)).encode_into(&mut p);
        p.truncate(p.len() - 1);
        assert_eq!(Record::decode(&p), None, "response cut short");
        // Trailing garbage on a fixed-size record.
        let mut p = Vec::new();
        Record::ReleaseProcess { pid: 1 }.encode_into(&mut p);
        p.push(0);
        assert_eq!(Record::decode(&p), None);
    }

    #[test]
    fn golden_wire_format() {
        // Pins the on-media wire format: frame header layout, field order,
        // little-endian encoding, CRC-32/IEEE over seq||payload — the one
        // record layout (DESIGN.md §12).
        let w = Wal::new("golden", WalConfig::zero_cost());
        w.push(&op(
            req::ALLOC,
            Writer::new().u32(5).u64(4096),
            Writer::new().u64(0x1000),
        ));
        let raw = w.raw();
        let expect: Vec<u8> = [
            &34u32.to_le_bytes()[..],           // payload length
            &0u64.to_le_bytes()[..],            // seq 0
            &0x54DF_83B0u32.to_le_bytes()[..],  // crc32(seq || payload)
            &[super::kind::OP, req::ALLOC][..], // kind, request type
            &3u32.to_le_bytes()[..],            // src node
            &7000u32.to_le_bytes()[..],         // src port
            &8u32.to_le_bytes()[..],            // response length
            &0x1000u64.to_le_bytes()[..],       // response: va
            &5u32.to_le_bytes()[..],            // request: pid
            &4096u64.to_le_bytes()[..],         // request: len
        ]
        .concat();
        assert_eq!(raw, expect, "wire format drifted");
    }

    #[test]
    fn scan_roundtrips_clean_log() {
        let w = Wal::new("t", WalConfig::zero_cost());
        let recs = sample_records();
        for r in &recs {
            w.push(r);
        }
        let report = w.scan();
        assert!(!report.torn);
        assert_eq!(report.records, recs);
        assert_eq!(report.valid_bytes as u64, w.log_bytes());
        assert_eq!(report.next_seq, Some(recs.len() as u64));
    }

    #[test]
    fn scan_stops_at_truncated_tail() {
        let w = Wal::new("t", WalConfig::zero_cost());
        for r in sample_records() {
            w.push(r.as_ref());
        }
        let clean = w.scan();
        let mut raw = w.raw();
        raw.truncate(raw.len() - 3); // tear the final record
        w.set_raw(raw);
        let report = w.scan();
        assert!(report.torn);
        assert_eq!(report.records.len(), clean.records.len() - 1);
        w.repair(&report);
        assert!(!w.scan().torn, "repair cut the torn tail");
        assert_eq!(w.records(), report.records.len() as u64);
    }

    #[test]
    fn scan_stops_at_bit_flip() {
        let w = Wal::new("t", WalConfig::zero_cost());
        for r in sample_records() {
            w.push(r.as_ref());
        }
        let mut raw = w.raw();
        let n = raw.len();
        raw[n - 1] ^= 0x10; // flip one bit in the last record's payload
        w.set_raw(raw);
        let report = w.scan();
        assert!(report.torn);
        assert_eq!(report.records.len(), sample_records().len() - 1);
        // A flip in the *middle* cuts everything after it too.
        let w2 = Wal::new("t2", WalConfig::zero_cost());
        for r in sample_records() {
            w2.push(r.as_ref());
        }
        let mut raw = w2.raw();
        raw[20] ^= 0x01; // inside record 0's frame
        w2.set_raw(raw);
        let report = w2.scan();
        assert!(report.torn);
        assert!(report.records.is_empty());
        assert_eq!(report.next_seq, None);
    }

    #[test]
    fn sequence_discontinuity_is_torn() {
        // Splicing a stale record after a newer one fails the seq check
        // even though its checksum is fine.
        let a = Wal::new("a", WalConfig::zero_cost());
        a.push(&Record::ReleaseProcess { pid: 1 });
        let stale = a.raw();
        let b = Wal::new("b", WalConfig::zero_cost());
        b.push(&Record::ReleaseProcess { pid: 2 });
        b.push(&Record::ReleaseProcess { pid: 3 });
        let mut spliced = b.raw();
        spliced.extend_from_slice(&stale); // seq 0 after seq 1
        b.set_raw(spliced);
        let report = b.scan();
        assert!(report.torn);
        assert_eq!(report.records.len(), 2);
    }

    #[test]
    fn compaction_replaces_log_and_continues_seq() {
        let w = Wal::new(
            "t",
            WalConfig {
                compact_threshold_bytes: 64,
                ..WalConfig::zero_cost()
            },
        );
        for _ in 0..10 {
            w.push(&Record::ReleaseProcess { pid: 9 });
        }
        assert!(w.should_compact());
        let before = w.log_bytes();
        w.compact(vec![1, 2, 3, 4]);
        assert!(w.log_bytes() < before, "compaction must shrink the log");
        assert_eq!(w.compactions(), 1);
        assert_eq!(w.records(), 1);
        let report = w.scan();
        assert!(!report.torn);
        assert_eq!(report.records.len(), 1);
        assert!(matches!(report.records[0], Record::Checkpoint { .. }));
        // Seq continued across compaction: next push is seq 11.
        assert_eq!(report.next_seq, Some(11));
    }

    #[test]
    fn a_checkpoint_over_the_threshold_does_not_compact_again() {
        let w = Wal::new(
            "t",
            WalConfig {
                compact_threshold_bytes: 64,
                ..WalConfig::zero_cost()
            },
        );
        assert_eq!(w.compact(vec![7; 256]), 273);
        // 16 + 5 B per record: the fourth passes the 64 B threshold, but a
        // checkpoint is replaced only once the records outgrow it too, and
        // the thirteenth reaches 273 B.
        for n in 1..=14 {
            w.push(&Record::ReleaseProcess { pid: 9 });
            assert_eq!(w.should_compact(), n == 14, "{n} records after it");
        }
        // A torn checkpoint leaves no checkpoint to discount.
        let mut raw = w.raw();
        raw.truncate(100);
        w.set_raw(raw);
        w.repair(&w.scan());
        assert_eq!(w.log_bytes(), 0);
        for _ in 0..4 {
            w.push(&Record::ReleaseProcess { pid: 9 });
        }
        assert!(w.should_compact());
    }

    impl AsRef<Record> for Record {
        fn as_ref(&self) -> &Record {
            self
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE check value: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn eight_bytes_at_a_time_equals_one_bit_at_a_time() {
        // The definition: shift one bit at a time, folding the polynomial in.
        let bitwise = |data: &[u8]| {
            let mut crc = !0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..40u32).map(|i| (i * 97 + 13) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn the_running_crc_equals_the_crc_of_the_concatenation() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for seq in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let whole = [&seq.to_le_bytes()[..], &payload].concat();
            assert_eq!(frame_crc(seq, &payload), crc32(&whole), "seq {seq}");
            assert_eq!(frame_crc(seq, &[]), crc32(&seq.to_le_bytes()));
        }
        let (a, b) = b"123456789".split_at(4);
        assert_eq!(!crc32_update(crc32_update(!0, a), b), 0xCBF4_3926);
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn dm_durable_is_off_on_or_refused() {
        assert_eq!(WalConfig::parse_env(None), Ok(None));
        assert_eq!(WalConfig::parse_env(Some("0")), Ok(None));
        assert_eq!(
            WalConfig::parse_env(Some("1")),
            Ok(Some(WalConfig::zero_cost()))
        );
        for raw in ["true", "yes", "1 ", "", "2", "\u{fffd}"] {
            let err = WalConfig::parse_env(Some(raw)).unwrap_err();
            assert!(err.contains("DM_DURABLE"), "{err} must name the variable");
        }
    }
}
