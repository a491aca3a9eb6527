//! Log-structured durability for the DM server (DESIGN.md §12).
//!
//! An opt-in write-ahead log of every **acknowledged mutating operation**:
//! the server appends a checksummed [`Record`] to the log *before* the
//! response for the op is sent (log-before-ack), so a crashed server can
//! rebuild the exact acknowledged state — page bytes, refcounts, COW
//! sharing, VA trees, process registrations and the invalidation epoch —
//! by replaying the log ([`crate::DmServer::restart_from_log`]).
//!
//! The log is *logical redo*: records name operations, not physical state,
//! and the [`crate::PageManager`] is deterministic, so replay reproduces
//! every internal detail including the FIFO free-list order. Background
//! growth is bounded by **checkpoint compaction**: when the live log
//! exceeds [`WalConfig::compact_threshold_bytes`], the whole log is
//! replaced by one [`Record::Checkpoint`] carrying a canonical snapshot of
//! the server state. The swap is atomic (the write-new-then-rename idiom
//! of log-structured stores); the modeled failure mode is a *torn tail* of
//! the append stream, which recovery handles by stopping at the last
//! record with a valid checksum.
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

use dmcommon::{DmError, DmResult};
use memsim::{DurableMedia, DurableMediaParams};

use crate::proto::{Reader, Writer};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise — no
/// table, no dependency; the log is not on any hot path.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
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

/// One logged server mutation. Fields record enough to replay the op
/// deterministically plus the values the original execution returned
/// (`va`, `key`), which replay asserts against to catch divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// `REGISTER`: a process registered from `node:port`.
    Register {
        /// Fabric node id of the registering endpoint.
        node: u32,
        /// Port of the registering endpoint.
        port: u16,
    },
    /// `ALLOC` for `pid`; the VA tree returned `va`.
    Alloc {
        /// Allocating process.
        pid: u32,
        /// Requested length in bytes.
        len: u64,
        /// VA the original execution returned.
        va: u64,
    },
    /// `FREE` of the region at `va`.
    Free {
        /// Freeing process.
        pid: u32,
        /// Region start.
        va: u64,
    },
    /// `WRITE` of `data` at `va` (COW decisions replay deterministically).
    Write {
        /// Writing process.
        pid: u32,
        /// Write offset.
        va: u64,
        /// The written bytes.
        data: Vec<u8>,
    },
    /// `CREATE_REF` over `[va, va+len)`; the key space returned `key`.
    CreateRef {
        /// Creating process.
        pid: u32,
        /// Region start.
        va: u64,
        /// Region length.
        len: u64,
        /// Key the original execution returned.
        key: u64,
    },
    /// `MAP_REF` of `key` into `pid`; the VA tree returned `va`.
    MapRef {
        /// Mapping process.
        pid: u32,
        /// Mapped ref key.
        key: u64,
        /// VA the original execution returned.
        va: u64,
    },
    /// `RELEASE_REF` of `key` (advances the invalidation epoch on replay).
    ReleaseRef {
        /// Released ref key.
        key: u64,
    },
    /// `PUT_REF` of `data` owned by `pid`; the key space returned `key`.
    PutRef {
        /// Owning process.
        pid: u32,
        /// Key the original execution returned.
        key: u64,
        /// The published bytes.
        data: Vec<u8>,
    },
    /// Lease expiry reclaimed every pin of `pid` (advances the epoch on
    /// replay, exactly like the live sweep does).
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
    /// Sharded plane (DESIGN.md §13): global key `gkey` bound to the
    /// local ref `key` (a `PUT_REF_AT` or `MIGRATE_IN`; the paired
    /// `PutRef` record replays the underlying allocation).
    GBind {
        /// Client-minted global key (bit 63 set).
        gkey: u64,
        /// Page-manager ref key the gkey resolves to.
        key: u64,
    },
    /// Global key `gkey` released (`RELEASE_REF` naming a gkey; the
    /// paired `ReleaseRef` record replays the underlying release).
    GUnbind {
        /// The released global key.
        gkey: u64,
    },
    /// Global key `gkey` migrated away to `node:port`; replay reinstalls
    /// the redirect tombstone (the paired `ReleaseRef` record replays the
    /// local release).
    GMoved {
        /// The migrated global key.
        gkey: u64,
        /// Destination fabric node.
        node: u32,
        /// Destination port.
        port: u16,
    },
    /// Coherence plane (DESIGN.md §15): `gkey` arrived by MIGRATE_IN
    /// carrying per-ref version `ver` (versions travel with ownership;
    /// only non-creation versions are logged — creation is the implicit
    /// version 1).
    GVer {
        /// The migrated-in global key.
        gkey: u64,
        /// Its transferred version (always ≥ 2).
        ver: u64,
    },
}

mod kind {
    pub const REGISTER: u8 = 1;
    pub const ALLOC: u8 = 2;
    pub const FREE: u8 = 3;
    pub const WRITE: u8 = 4;
    pub const CREATE_REF: u8 = 5;
    pub const MAP_REF: u8 = 6;
    pub const RELEASE_REF: u8 = 7;
    pub const PUT_REF: u8 = 8;
    pub const RELEASE_PROCESS: u8 = 9;
    pub const CHECKPOINT: u8 = 10;
    pub const GBIND: u8 = 11;
    pub const GUNBIND: u8 = 12;
    pub const GMOVED: u8 = 13;
    pub const GVER: u8 = 14;
}

impl Record {
    /// Encode the record payload (no frame) into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let w = Writer::from(std::mem::take(out));
        // The log keeps its own copy of a record's bytes: they follow the
        // fields, appended here rather than through the wire builder.
        let mut tail: &[u8] = &[];
        *out = match self {
            Record::Register { node, port } => w.u8(kind::REGISTER).u32(*node).u16(*port),
            Record::Alloc { pid, len, va } => w.u8(kind::ALLOC).u32(*pid).u64(*len).u64(*va),
            Record::Free { pid, va } => w.u8(kind::FREE).u32(*pid).u64(*va),
            Record::Write { pid, va, data } => {
                tail = data;
                w.u8(kind::WRITE).u32(*pid).u64(*va)
            }
            Record::CreateRef { pid, va, len, key } => w
                .u8(kind::CREATE_REF)
                .u32(*pid)
                .u64(*va)
                .u64(*len)
                .u64(*key),
            Record::MapRef { pid, key, va } => w.u8(kind::MAP_REF).u32(*pid).u64(*key).u64(*va),
            Record::ReleaseRef { key } => w.u8(kind::RELEASE_REF).u64(*key),
            Record::PutRef { pid, key, data } => {
                tail = data;
                w.u8(kind::PUT_REF).u32(*pid).u64(*key)
            }
            Record::ReleaseProcess { pid } => w.u8(kind::RELEASE_PROCESS).u32(*pid),
            Record::Checkpoint { snapshot } => {
                tail = snapshot;
                w.u8(kind::CHECKPOINT)
            }
            Record::GBind { gkey, key } => w.u8(kind::GBIND).u64(*gkey).u64(*key),
            Record::GUnbind { gkey } => w.u8(kind::GUNBIND).u64(*gkey),
            Record::GMoved { gkey, node, port } => {
                w.u8(kind::GMOVED).u64(*gkey).u32(*node).u16(*port)
            }
            Record::GVer { gkey, ver } => w.u8(kind::GVER).u64(*gkey).u64(*ver),
        }
        .into_vec();
        out.extend_from_slice(tail);
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
        Ok(match r.u8()? {
            kind::REGISTER => Record::Register {
                node: r.u32()?,
                port: r.u16()?,
            },
            kind::ALLOC => Record::Alloc {
                pid: r.u32()?,
                len: r.u64()?,
                va: r.u64()?,
            },
            kind::FREE => Record::Free {
                pid: r.u32()?,
                va: r.u64()?,
            },
            kind::WRITE => Record::Write {
                pid: r.u32()?,
                va: r.u64()?,
                data: r.rest().into_owned(),
            },
            kind::CREATE_REF => Record::CreateRef {
                pid: r.u32()?,
                va: r.u64()?,
                len: r.u64()?,
                key: r.u64()?,
            },
            kind::MAP_REF => Record::MapRef {
                pid: r.u32()?,
                key: r.u64()?,
                va: r.u64()?,
            },
            kind::RELEASE_REF => Record::ReleaseRef { key: r.u64()? },
            kind::PUT_REF => Record::PutRef {
                pid: r.u32()?,
                key: r.u64()?,
                data: r.rest().into_owned(),
            },
            kind::RELEASE_PROCESS => Record::ReleaseProcess { pid: r.u32()? },
            kind::CHECKPOINT => Record::Checkpoint {
                snapshot: r.rest().into_owned(),
            },
            kind::GBIND => Record::GBind {
                gkey: r.u64()?,
                key: r.u64()?,
            },
            kind::GUNBIND => Record::GUnbind { gkey: r.u64()? },
            kind::GMOVED => Record::GMoved {
                gkey: r.u64()?,
                node: r.u32()?,
                port: r.u16()?,
            },
            kind::GVER => Record::GVer {
                gkey: r.u64()?,
                ver: r.u64()?,
            },
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
    /// Compact (checkpoint + truncate) once the live log exceeds this many
    /// bytes. 0 disables compaction (tests pin log contents with it).
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
        let mut check = Vec::with_capacity(8 + payload.len());
        check.extend_from_slice(&seq.to_le_bytes());
        check.extend_from_slice(&payload);
        let crc = crc32(&check);
        let mut buf = self.buf.borrow_mut();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&payload);
        self.records.set(self.records.get() + 1);
        (16 + payload.len()) as u64
    }

    /// Whether the live log has outgrown the compaction threshold.
    pub fn should_compact(&self) -> bool {
        self.config.compact_threshold_bytes > 0
            && self.buf.borrow().len() as u64 > self.config.compact_threshold_bytes
    }

    /// Replace the whole log with one checkpoint record (atomic install —
    /// the write-new-then-rename idiom). Sequence numbers continue, so a
    /// stale pre-compaction suffix can never splice onto the new log.
    /// Returns the framed checkpoint size for the caller's media charge.
    pub fn compact(&self, snapshot: Vec<u8>) -> u64 {
        self.buf.borrow_mut().clear();
        self.records.set(0);
        self.compactions.set(self.compactions.get() + 1);
        self.push(&Record::Checkpoint { snapshot })
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
            let mut check = Vec::with_capacity(8 + len);
            check.extend_from_slice(&seq.to_le_bytes());
            check.extend_from_slice(payload);
            if crc32(&check) != crc {
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

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Register {
                node: 3,
                port: 7000,
            },
            Record::Alloc {
                pid: 7,
                len: 8192,
                va: 0x1000,
            },
            Record::Write {
                pid: 7,
                va: 0x1000,
                data: vec![0xAB; 5],
            },
            Record::CreateRef {
                pid: 7,
                va: 0x1000,
                len: 8192,
                key: 1,
            },
            Record::MapRef {
                pid: 8,
                key: 1,
                va: 0x3000,
            },
            Record::ReleaseRef { key: 1 },
            Record::PutRef {
                pid: 7,
                key: 2,
                data: vec![1, 2, 3],
            },
            Record::Free { pid: 7, va: 0x1000 },
            Record::ReleaseProcess { pid: 7 },
            Record::Checkpoint {
                snapshot: vec![9, 9, 9],
            },
            Record::GBind {
                gkey: (1 << 63) | 77,
                key: 5,
            },
            Record::GUnbind {
                gkey: (1 << 63) | 77,
            },
            Record::GMoved {
                gkey: (1 << 63) | 78,
                node: 4,
                port: 7000,
            },
            Record::GVer {
                gkey: (1 << 63) | 78,
                ver: 3,
            },
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
        assert_eq!(Record::decode(&[kind::ALLOC, 1]), None, "truncated");
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
        w.push(&Record::Alloc {
            pid: 5,
            len: 4096,
            va: 0x1000,
        });
        let raw = w.raw();
        let expect: Vec<u8> = [
            &21u32.to_le_bytes()[..],          // payload length
            &0u64.to_le_bytes()[..],           // seq 0
            &0xE7A6_17C5u32.to_le_bytes()[..], // crc32(seq || payload)
            &[super::kind::ALLOC][..],         // kind
            &5u32.to_le_bytes()[..],           // pid
            &4096u64.to_le_bytes()[..],        // len
            &0x1000u64.to_le_bytes()[..],      // va
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
