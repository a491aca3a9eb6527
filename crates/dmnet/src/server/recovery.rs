//! Durable tier (DESIGN.md §12): log-before-ack persistence, the
//! whole-server checkpoint snapshot, replay, and
//! [`DmServer::restart_from_log`]. Replay runs a logged op through the
//! body that served it (`apply`) and a lease reclamation through the
//! sweep's (`reclaim_process`), so the two paths cannot drift apart.

use std::rc::Rc;

use dmcommon::{DmError, DmResult};
use telemetry::SpanKind;

use super::DmServer;
use crate::page_manager::PageManager;
use crate::proto::{self, Reader, Writer};
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
        let owners = self.owners.borrow();
        let mut rows: Vec<_> = owners.iter().collect();
        rows.sort_unstable();
        let w = Writer::new().u64(self.incarnation()).u32(rows.len() as u32);
        let w = rows.into_iter().fold(w, |w, (&pid, &a)| w.u32(pid).addr(a));
        self.pm.borrow().snapshot_into(w).into_vec()
    }

    /// Inverse of [`Self::snapshot_bytes`], applied during replay of a
    /// [`Record::Checkpoint`]. The checkpoint sits under the log's CRC, so
    /// damage here means the scan accepted a record it should not have.
    fn restore_snapshot(&self, buf: &[u8]) -> DmResult<()> {
        let r = &mut Reader::new(buf);
        self.holders.borrow_mut().restart_at(r.u64()?);
        let mut owners = self.owners.borrow_mut();
        owners.clear();
        for _ in 0..r.u32()? {
            owners.insert(r.u32()?, r.addr()?);
        }
        *self.pm.borrow_mut() = PageManager::restore_from(r)?;
        if r.is_empty() {
            Ok(())
        } else {
            Err(DmError::Malformed)
        }
    }

    /// Install `record` and return the media bytes to charge, compacting
    /// behind it once the log has outgrown its checkpoint.
    fn log(&self, w: &Wal, record: &Record) -> u64 {
        let mut n = w.push(record);
        if w.should_compact() {
            n += w.compact(self.snapshot_bytes());
        }
        n
    }

    /// Append one op's record to the log synchronously (atomic with the
    /// mutation the caller just applied — the simulator is
    /// single-threaded), then charge the media time. Zero-cost media
    /// returns without yielding, so the executor schedule is untouched.
    /// `make` runs only when durability is on: a record owns a copy of the
    /// op's result, which a non-durable server must not pay for.
    pub(super) async fn persist(&self, make: impl FnOnce() -> Record) {
        let Some(w) = &self.wal else { return };
        let n = self.log(w, &make());
        w.media().append(n).await;
    }

    /// Synchronous persist for non-request paths (the lease sweeper): the
    /// record is installed and counted but the media time is not awaited.
    pub(super) fn persist_untimed(&self, record: Record) {
        let Some(w) = &self.wal else { return };
        w.media().append_untimed(self.log(w, &record));
    }

    /// Apply one replayed record. The record passed the CRC/sequence scan,
    /// so it describes an op that succeeded before the crash: the
    /// deterministic page manager must accept it again and answer it as it
    /// did then, or recovery stops here.
    fn replay(&self, rec: &Record) {
        match rec {
            Record::Op {
                ty,
                src,
                request,
                response,
            } => {
                let name = proto::req_name(*ty);
                let (resp, _) = self
                    .apply(*ty, *src, request)
                    .unwrap_or_else(|e| panic!("replay: {name} failed: {e:?}"));
                let got = resp.result();
                assert!(
                    got == *response,
                    "replay: {name} diverged: answered {got:?}, logged {response:?}"
                );
            }
            Record::ReleaseProcess { pid } => self.reclaim_process(*pid),
            Record::Restart => self.holders.borrow_mut().restart(),
            Record::Checkpoint { snapshot } => self
                .restore_snapshot(snapshot)
                .expect("replay: corrupt checkpoint"),
        }
    }

    /// Crash-consistent recovery: rebuild the whole server from its
    /// write-ahead log and come back online.
    ///
    /// Scan the log (one sequential media read) and truncate any torn
    /// tail; replay its valid prefix over fresh state, each
    /// [`Record::Restart`] counting one incarnation; log one more restart,
    /// so every count sent from now on is above any sent before; re-grant
    /// every recovered owner a full-TTL lease; come back online. The
    /// rebuilt state is exactly the acknowledged pre-crash state
    /// (`tests/recovery.rs`, the chaos `server-crash` class).
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
        self.holders.borrow_mut().restart_at(0);
        for rec in &report.records {
            self.replay(rec);
        }
        // Incarnation-after-restart rule: logged before the server answers
        // anyone, so the next restart replays it and counts past it too.
        self.holders.borrow_mut().restart();
        self.persist(|| Record::Restart).await;
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
                ("incarnation", self.incarnation()),
            ],
        );
        RecoveryReport {
            records_replayed: report.records.len(),
            torn_tail: report.torn,
            log_bytes: w.log_bytes(),
        }
    }
}
