//! Durable tier (DESIGN.md §12): log-before-ack persistence, the
//! whole-server checkpoint snapshot, replay, and
//! [`DmServer::restart_from_log`]. Replay arms that have a live
//! counterpart call the same function the live path calls
//! (`register_process`, `reclaim_process`, `refs_died`), so the two
//! cannot drift apart.

use std::rc::Rc;

use dmcommon::GlobalPid;
use simnet::{Addr, NodeId};
use telemetry::SpanKind;

use super::{DmServer, NO_OWNER_PID};
use crate::page_manager::PageManager;
use crate::proto::{Reader, Writer};
use crate::wal::{Record, Wal};

/// Version byte of the whole-server checkpoint snapshot (DESIGN.md §12).
/// Version 2 appends the sharded plane's gkey-binding and tombstone
/// tables (DESIGN.md §13); version 3 additionally appends the coherence
/// plane's per-ref version table (DESIGN.md §15). A server whose tables
/// are empty still emits version 1, byte-identical to pre-sharding
/// checkpoints.
const SNAPSHOT_VERSION: u8 = 1;
const SNAPSHOT_VERSION_SHARDED: u8 = 2;
const SNAPSHOT_VERSION_COHERENT: u8 = 3;

/// What [`DmServer::restart_from_log`] did.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Records replayed from the valid log prefix.
    pub records_replayed: usize,
    /// Whether a torn/corrupt tail was truncated.
    pub torn_tail: bool,
    /// Log size after repair.
    pub log_bytes: u64,
}

/// `(key, value)` pairs of a table in key order: snapshots are canonical.
fn sorted<V: Copy>(table: &std::collections::HashMap<u64, V>) -> Vec<(u64, V)> {
    let mut rows: Vec<(u64, V)> = table.iter().map(|(&k, &v)| (k, v)).collect();
    rows.sort_unstable_by_key(|&(k, _)| k);
    rows
}

impl DmServer {
    /// The write-ahead log, when durability is on (tests and chaos use it
    /// for corruption injection and log statistics).
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Completed [`DmServer::restart_from_log`] recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// FNV-1a digest of every shard's canonical page-manager snapshot —
    /// the whole memory-plane state (pages, refcounts, VA trees, refs,
    /// free-list order) excluding volatile serving state (epoch, leases,
    /// owners, the round-robin allocation cursor). Recovery oracles
    /// compare this across crash/restart: log-before-ack makes the
    /// mutation and its record atomic, so the digest after
    /// `restart_from_log` equals the digest at the instant of a clean
    /// crash.
    pub fn pages_digest(&self) -> u64 {
        let mut buf = Vec::new();
        for s in &self.shards {
            s.pm.borrow().snapshot_into(&mut buf);
        }
        crate::wal::fnv1a(&buf)
    }

    /// Canonical whole-server checkpoint: version, shard count, epoch,
    /// owner table (sorted by pid), then each shard's page-manager
    /// snapshot. Leases and the allocation cursor are volatile by design —
    /// recovery re-grants full-TTL leases and restarts the cursor (failed
    /// ops advance the cursor without producing records, so it is not
    /// reconstructible from the log; it is only a placement hint).
    fn snapshot_bytes(&self) -> Vec<u8> {
        let gmap = self.gmap.borrow();
        let moved = self.moved.borrow();
        // A server that never served the sharded plane emits the version-1
        // layout, byte-for-byte — log sizes of pre-sharding workloads (and
        // the CSVs derived from them) cannot shift. Likewise a coherent
        // server with an empty version table (no live migrated refs)
        // emits the pre-coherence layout.
        let versions = self.versions.borrow();
        let sharded_plane = !gmap.is_empty() || !moved.is_empty();
        let coherent_plane = !versions.is_empty();
        let version = if coherent_plane {
            SNAPSHOT_VERSION_COHERENT
        } else if sharded_plane {
            SNAPSHOT_VERSION_SHARDED
        } else {
            SNAPSHOT_VERSION
        };
        let mut owners: Vec<(u32, Addr)> =
            self.owners.borrow().iter().map(|(&p, &a)| (p, a)).collect();
        owners.sort_unstable_by_key(|&(p, _)| p);
        let mut w = Writer::new()
            .u8(version)
            .u16(self.shards.len() as u16)
            .u64(self.epoch.get())
            .u32(owners.len() as u32);
        for (pid, addr) in owners {
            w = w.u32(pid).u32(addr.node.0).u16(addr.port);
        }
        if sharded_plane || coherent_plane {
            w = w.u32(gmap.len() as u32);
            for (gkey, key) in sorted(&gmap) {
                w = w.u64(gkey).u64(key);
            }
            w = w.u32(moved.len() as u32);
            for (gkey, addr) in sorted(&moved) {
                w = w.u64(gkey).u32(addr.node.0).u16(addr.port);
            }
        }
        if coherent_plane {
            w = w.u32(versions.len() as u32);
            for (gkey, ver) in sorted(&versions) {
                w = w.u64(gkey).u64(ver);
            }
        }
        let mut out = w.into_vec();
        for s in &self.shards {
            s.pm.borrow().snapshot_into(&mut out);
        }
        out
    }

    /// Inverse of [`Self::snapshot_bytes`], applied during replay of a
    /// [`Record::Checkpoint`]. Panics on malformed input: the checkpoint
    /// sits under the log's CRC, so damage here means the scan accepted a
    /// record it should not have.
    fn restore_snapshot(&self, buf: &[u8]) {
        const BAD: &str = "replay: corrupt checkpoint";
        let mut r = Reader::new(buf);
        let version = r.u8().expect(BAD);
        assert!(
            (SNAPSHOT_VERSION..=SNAPSHOT_VERSION_COHERENT).contains(&version),
            "{BAD}"
        );
        assert_eq!(r.u16().expect(BAD) as usize, self.shards.len(), "{BAD}");
        self.epoch.set(r.u64().expect(BAD));
        let addr = |r: &mut Reader| Addr {
            node: NodeId(r.u32().expect(BAD)),
            port: r.u16().expect(BAD),
        };
        let mut owners = self.owners.borrow_mut();
        owners.clear();
        for _ in 0..r.u32().expect(BAD) {
            owners.insert(r.u32().expect(BAD), addr(&mut r));
        }
        let mut gmap = self.gmap.borrow_mut();
        let mut moved = self.moved.borrow_mut();
        let mut versions = self.versions.borrow_mut();
        gmap.clear();
        moved.clear();
        versions.clear();
        if version >= SNAPSHOT_VERSION_SHARDED {
            for _ in 0..r.u32().expect(BAD) {
                gmap.insert(r.u64().expect(BAD), r.u64().expect(BAD));
            }
            for _ in 0..r.u32().expect(BAD) {
                moved.insert(r.u64().expect(BAD), addr(&mut r));
            }
        }
        if version >= SNAPSHOT_VERSION_COHERENT {
            for _ in 0..r.u32().expect(BAD) {
                versions.insert(r.u64().expect(BAD), r.u64().expect(BAD));
            }
        }
        let pages = r.rest();
        let mut pos = 0;
        for s in &self.shards {
            *s.pm.borrow_mut() = PageManager::restore_from(pages, &mut pos).expect(BAD);
        }
        assert_eq!(pos, pages.len(), "{BAD}");
    }

    /// Install an op's records and return the media bytes to charge. All of
    /// them land before the compaction check, so a checkpoint can never
    /// split one op's records (replay would double-apply half of it).
    fn log(&self, w: &Wal, records: &[Record]) -> u64 {
        let mut n: u64 = records.iter().map(|rec| w.push(rec)).sum();
        if w.should_compact() {
            n += w.compact(self.snapshot_bytes());
        }
        n
    }

    /// Append the records of one op to the log synchronously (atomic with
    /// the mutation the caller just applied — the simulator is
    /// single-threaded), then charge the media time. Zero-cost media
    /// returns without yielding, so the executor schedule is untouched.
    /// `make` runs only when durability is on: records own copies of the
    /// op's data, which a non-durable server must not pay for.
    pub(super) async fn persist(&self, make: impl FnOnce() -> Vec<Record>) {
        let Some(w) = &self.wal else { return };
        let n = self.log(w, &make());
        w.media().append(n).await;
    }

    /// Synchronous persist for non-request paths (the lease sweeper): the
    /// record is installed and counted but the media time is not awaited.
    pub(super) fn persist_untimed(&self, record: Record) {
        let Some(w) = &self.wal else { return };
        w.media().append_untimed(self.log(w, &[record]));
    }

    /// Apply one replayed record. Mutations `expect`: the record passed
    /// the CRC/sequence scan, so it describes an op that succeeded before
    /// the crash, and the deterministic page managers must accept it
    /// again. Recorded result values (`va`, `key`) are divergence
    /// witnesses checked under `debug_assertions`.
    fn replay(&self, rec: &Record) {
        let pm = |shard: &u16| self.shards[*shard as usize].pm.borrow_mut();
        match rec {
            Record::Register { node, port } => {
                self.register_process(Addr {
                    node: NodeId(*node),
                    port: *port,
                });
            }
            Record::Alloc {
                shard,
                pid,
                len,
                va,
            } => {
                let got = pm(shard)
                    .ralloc(GlobalPid(*pid), *len)
                    .expect("replay: ralloc");
                debug_assert_eq!(got, *va, "replay: alloc divergence");
            }
            Record::Free { shard, pid, va } => {
                pm(shard)
                    .rfree(GlobalPid(*pid), *va)
                    .expect("replay: rfree");
            }
            Record::Write {
                shard,
                pid,
                va,
                data,
            } => {
                pm(shard)
                    .write(GlobalPid(*pid), *va, data)
                    .expect("replay: write");
            }
            Record::CreateRef {
                shard,
                pid,
                va,
                len,
                key,
            } => {
                let (got, _) = pm(shard)
                    .create_ref(GlobalPid(*pid), *va, *len)
                    .expect("replay: create_ref");
                debug_assert_eq!(got, *key, "replay: create_ref divergence");
            }
            Record::MapRef {
                shard,
                pid,
                key,
                va,
            } => {
                let (got, _, _) = pm(shard)
                    .map_ref(GlobalPid(*pid), *key)
                    .expect("replay: map_ref");
                debug_assert_eq!(got, *va, "replay: map_ref divergence");
            }
            Record::ReleaseRef { shard, key } => {
                pm(shard).release_ref(*key).expect("replay: release_ref");
                // A gkey's version entry goes with its paired
                // GUnbind/GMoved record; the tagged key never had one.
                self.refs_died(&[self.tag(*shard as usize, *key)], None);
            }
            Record::PutRef {
                shard,
                pid,
                key,
                data,
            } => {
                // The sentinel pid marks an unowned migrated-in ref.
                let owner = (*pid != NO_OWNER_PID).then_some(GlobalPid(*pid));
                let (got, _) = pm(shard).put_ref(data, owner).expect("replay: put_ref");
                debug_assert_eq!(got, *key, "replay: put_ref divergence");
            }
            Record::ReleaseProcess { pid } => self.reclaim_process(*pid),
            Record::GBind { gkey, key } => {
                self.gmap.borrow_mut().insert(*gkey, *key);
                // A migrated-back gkey overwrites its stale tombstone.
                self.moved.borrow_mut().remove(gkey);
            }
            Record::GUnbind { gkey } => {
                self.gmap.borrow_mut().remove(gkey);
                self.versions.borrow_mut().remove(gkey);
            }
            Record::GMoved { gkey, node, port } => {
                self.gmap.borrow_mut().remove(gkey);
                self.versions.borrow_mut().remove(gkey);
                self.moved.borrow_mut().insert(
                    *gkey,
                    Addr {
                        node: NodeId(*node),
                        port: *port,
                    },
                );
            }
            Record::GVer { gkey, ver } => {
                self.versions.borrow_mut().insert(*gkey, *ver);
            }
            Record::Checkpoint { snapshot } => self.restore_snapshot(snapshot),
        }
    }

    /// Crash-consistent recovery: rebuild the whole server from its
    /// write-ahead log and come back online.
    ///
    /// Steps: charge one sequential media scan of the log; validate it
    /// (CRC, framing, sequence continuity) and truncate any torn tail;
    /// discard all volatile state (fresh page managers, empty owner/lease
    /// tables, epoch 0, allocation cursor 0); replay the valid prefix
    /// (a checkpoint record restores its snapshot, subsequent records
    /// re-apply on top); advance the epoch once more past the replayed
    /// value so client caches filled before the crash can never be
    /// trusted across it; re-grant every recovered owner a full-TTL lease
    /// (crashed clients stop renewing and get swept as usual); come back
    /// online and re-arm the sweeper.
    ///
    /// The recovery invariant (tested by `tests/recovery.rs` and the
    /// chaos `server-crash-recovery` class): zero lost acknowledged ops,
    /// zero resurrected frees — the rebuilt state is exactly the
    /// acknowledged pre-crash state.
    ///
    /// # Panics
    /// Panics if durability is off.
    pub async fn restart_from_log(self: &Rc<Self>) -> RecoveryReport {
        let w = self.wal.as_ref().expect("restart_from_log: durability off");
        w.media().scan(w.log_bytes()).await;
        let report = w.scan();
        w.repair(&report);
        for s in &self.shards {
            let (cap, mode) = {
                let pm = s.pm.borrow();
                (pm.capacity_pages(), pm.copy_mode())
            };
            *s.pm.borrow_mut() = PageManager::new(cap, mode);
        }
        self.owners.borrow_mut().clear();
        self.leases.borrow_mut().clear();
        self.gmap.borrow_mut().clear();
        self.moved.borrow_mut().clear();
        // The holder directory and version table are rebuilt from scratch:
        // grants are volatile (the post-recovery epoch bump broadcasts to
        // every pre-crash holder anyway), versions replay from the log.
        self.dir.borrow_mut().clear();
        self.dir_grants.set(0);
        self.versions.borrow_mut().clear();
        self.epoch.set(0);
        self.next_alloc.set(0);
        for rec in &report.records {
            self.replay(rec);
        }
        // Epoch-after-restart rule: one conservative bump past everything
        // the replay reconstructed, so any response a client sees after
        // recovery reports a strictly newer epoch than any it saw before
        // the crash, invalidating its cache.
        self.epoch.set(self.epoch.get() + 1);
        if let Some(ttl) = self.config.lease_ttl {
            let exp = simcore::now() + ttl;
            let mut leases = self.leases.borrow_mut();
            for &pid in self.owners.borrow().keys() {
                leases.insert(pid, exp);
            }
        }
        self.rpc.set_offline(false);
        self.recoveries.set(self.recoveries.get() + 1);
        self.spawn_sweeper();
        telemetry::root_event(
            SpanKind::LeaseReclaim,
            "dm.recovery",
            self.addr().node.0,
            &[
                ("records", report.records.len() as u64),
                ("torn", report.torn as u64),
                ("epoch", self.epoch.get()),
            ],
        );
        RecoveryReport {
            records_replayed: report.records.len(),
            torn_tail: report.torn,
            log_bytes: w.log_bytes(),
        }
    }
}
