//! Durable tier (DESIGN.md §12): log-before-ack persistence, the
//! whole-server checkpoint snapshot, replay, and
//! [`DmServer::restart_from_log`]. Replay arms that have a live
//! counterpart call the same function the live path calls
//! (`register_process`, `reclaim_process`, `refs_died`), so the two
//! cannot drift apart.

use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;

use dmcommon::{DmError, DmResult, GlobalPid};
use simnet::{Addr, NodeId};
use telemetry::SpanKind;

use super::DmServer;
use crate::page_manager::PageManager;
use crate::proto::{Reader, Writer};
use crate::wal::{Record, Wal};

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

/// Append `table` as a row count and its rows in key order (snapshots are
/// canonical), each row written by `row`.
fn write_table<K: Copy + Ord, V: Copy>(
    w: Writer,
    table: &HashMap<K, V>,
    row: impl Fn(Writer, K, V) -> Writer,
) -> Writer {
    let mut rows: Vec<(K, V)> = table.iter().map(|(&k, &v)| (k, v)).collect();
    rows.sort_unstable_by_key(|&(k, _)| k);
    let w = w.u32(rows.len() as u32);
    rows.into_iter().fold(w, |w, (k, v)| row(w, k, v))
}

/// Inverse of [`write_table`]: replace `table` with the rows `row` reads.
fn read_table<K: Eq + Hash, V>(
    r: &mut Reader<'_>,
    table: &mut HashMap<K, V>,
    row: impl Fn(&mut Reader<'_>) -> DmResult<(K, V)>,
) -> DmResult<()> {
    table.clear();
    for _ in 0..r.u32()? {
        let (k, v) = row(r)?;
        table.insert(k, v);
    }
    Ok(())
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

    /// FNV-1a digest of the page manager's canonical snapshot — the whole
    /// memory-plane state (pages, refcounts, VA trees, refs, free-list
    /// order) excluding serving state (incarnation, leases, owners,
    /// holders).
    /// Recovery oracles compare this across crash/restart: log-before-ack
    /// makes the mutation and its record atomic, so the digest after
    /// `restart_from_log` equals the digest at the instant of a clean
    /// crash.
    pub fn pages_digest(&self) -> u64 {
        self.pm.borrow().state_digest()
    }

    /// Canonical whole-server checkpoint, the one layout (DESIGN.md §12):
    /// the incarnation, then the owners table (a count and its rows in pid
    /// order), then the page manager's snapshot. Leases and holders are
    /// volatile by design: recovery re-grants full-TTL leases, and every
    /// holder's next answer tells it to drop this server's entries.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let w = Writer::new().u64(self.incarnation.get());
        let w = write_table(w, &self.owners.borrow(), |w, pid, a| w.u32(pid).addr(a));
        self.pm.borrow().snapshot_into(w).into_vec()
    }

    /// Inverse of [`Self::snapshot_bytes`], applied during replay of a
    /// [`Record::Checkpoint`]. The checkpoint sits under the log's CRC, so
    /// damage here means the scan accepted a record it should not have.
    fn restore_snapshot(&self, buf: &[u8]) -> DmResult<()> {
        let r = &mut Reader::new(buf);
        self.incarnation.set(r.u64()?);
        read_table(r, &mut self.owners.borrow_mut(), |r| {
            Ok((r.u32()?, r.addr()?))
        })?;
        *self.pm.borrow_mut() = PageManager::restore_from(r)?;
        if r.is_empty() {
            Ok(())
        } else {
            Err(DmError::Malformed)
        }
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
        let pm = || self.pm.borrow_mut();
        match rec {
            Record::Register { node, port } => {
                self.register_process(Addr {
                    node: NodeId(*node),
                    port: *port,
                });
            }
            Record::Alloc { pid, len, va } => {
                let got = pm().ralloc(GlobalPid(*pid), *len).expect("replay: ralloc");
                debug_assert_eq!(got, *va, "replay: alloc divergence");
            }
            Record::Free { pid, va } => {
                pm().rfree(GlobalPid(*pid), *va).expect("replay: rfree");
            }
            Record::Write { pid, va, data } => {
                pm().overwrite(GlobalPid(*pid), *va, data)
                    .expect("replay: write");
            }
            Record::CreateRef { pid, va, len, key } => {
                let (got, _) = pm()
                    .create_ref(GlobalPid(*pid), *va, *len)
                    .expect("replay: create_ref");
                debug_assert_eq!(got, *key, "replay: create_ref divergence");
            }
            Record::MapRef { pid, key, va } => {
                let (got, _, _) = pm()
                    .map_ref(GlobalPid(*pid), *key)
                    .expect("replay: map_ref");
                debug_assert_eq!(got, *va, "replay: map_ref divergence");
            }
            Record::ReleaseRef { key } => {
                pm().release_ref(*key).expect("replay: release_ref");
                self.refs_died(&[*key], None);
            }
            Record::PutRef { pid, key, data } => {
                let owner = Some(GlobalPid(*pid));
                let (got, _) = pm().put_ref(data, owner).expect("replay: put_ref");
                debug_assert_eq!(got, *key, "replay: put_ref divergence");
            }
            Record::ReleaseProcess { pid } => self.reclaim_process(*pid),
            Record::Restart => self.incarnation.set(self.incarnation.get() + 1),
            Record::Checkpoint { snapshot } => self
                .restore_snapshot(snapshot)
                .expect("replay: corrupt checkpoint"),
        }
    }

    /// Crash-consistent recovery: rebuild the whole server from its
    /// write-ahead log and come back online.
    ///
    /// Steps: charge one sequential media scan of the log; validate it
    /// (CRC, framing, sequence continuity) and truncate any torn tail;
    /// discard all volatile state (a fresh page manager, empty owner/lease
    /// tables, no holders, incarnation 0); replay the valid prefix
    /// (a checkpoint record restores its snapshot, subsequent records
    /// re-apply on top, each [`Record::Restart`] counts one incarnation);
    /// log one more restart, so every death count this incarnation sends
    /// exceeds any count sent before this crash or an earlier one and
    /// each client drops this server's entries on its next answer;
    /// re-grant every recovered owner a full-TTL lease (crashed clients
    /// stop renewing and get swept as usual); come back online and re-arm
    /// the sweeper.
    ///
    /// The recovery invariant (tested by `tests/recovery.rs` and the
    /// chaos `server-crash` class): zero lost acknowledged ops,
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
        *self.pm.borrow_mut() = PageManager::new(self.config.capacity_pages, self.config.copy_mode);
        self.owners.borrow_mut().clear();
        self.leases.borrow_mut().clear();
        self.holders.borrow_mut().clear();
        self.incarnation.set(0);
        for rec in &report.records {
            self.replay(rec);
        }
        // Incarnation-after-restart rule: logged before the server answers
        // anyone, so the next restart replays it and counts past it too.
        self.incarnation.set(self.incarnation.get() + 1);
        self.persist(|| vec![Record::Restart]).await;
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
                ("incarnation", self.incarnation.get()),
            ],
        );
        RecoveryReport {
            records_replayed: report.records.len(),
            torn_tail: report.torn,
            log_bytes: w.log_bytes(),
        }
    }
}
