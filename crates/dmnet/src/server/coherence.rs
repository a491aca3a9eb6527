//! Coherence plane (DESIGN.md §9, §15): how a server-side change becomes
//! visible to client caches. Two mechanisms share every call site — the
//! global invalidation epoch piggybacked on all responses, and (when
//! [`DmServerConfig::coherence`](super::DmServerConfig::coherence) is set)
//! per-ref versions with a bounded holder directory and targeted
//! `INVALIDATE` pushes. Which one a ref's death takes is decided in exactly
//! one place, [`DmServer::refs_died`]; the op bodies never ask.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use dmcommon::GlobalPid;
use rpclib::Message;
use simcore::SimTime;
use simnet::{Addr, NodeId};

use super::DmServer;
use crate::proto::{req, Response, Writer, DEFAULT_READ_LEASE};

/// Fine-grained cache-coherence tuning (DESIGN.md §15).
#[derive(Clone, Copy, Debug)]
pub struct CoherenceConfig {
    /// Total read grants the holder directory may track across all keys.
    /// On overflow the server falls back to one epoch broadcast and a
    /// cleared directory rather than growing without bound.
    pub dir_max: usize,
    /// How long a holder may serve a cached entry without hearing from
    /// this server, and so how long a directory grant is considered live
    /// (an expired grant is skipped at push time because the holder already
    /// stopped serving the entry). Stated here only: every client learns it
    /// from its `REGISTER` reply.
    pub read_lease: Duration,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            dir_max: 1024,
            read_lease: DEFAULT_READ_LEASE,
        }
    }
}

/// The holder directory's storage: wire key → (client node, port) →
/// grant expiry.
pub(super) type HolderDir = HashMap<u64, BTreeMap<(u32, u16), SimTime>>;

impl DmServer {
    /// Targeted INVALIDATE messages pushed to holders so far.
    pub fn invalidations_pushed(&self) -> u64 {
        self.inv_pushed.get()
    }

    /// Directory-overflow broadcasts (epoch bumps) taken so far.
    pub fn coherence_broadcasts(&self) -> u64 {
        self.broadcasts.get()
    }

    pub(super) fn coherent(&self) -> bool {
        self.config.coherence.is_some()
    }

    /// Current version of the wire key `raw`. Creation is the implicit
    /// version 1, so only keys that moved (MIGRATE) occupy the table.
    pub fn ref_version(&self, raw: u64) -> u64 {
        self.versions.borrow().get(&raw).copied().unwrap_or(1)
    }

    /// Record that `src` now holds a cached copy of `raw` (no-op unless
    /// coherent). On directory overflow every grant is dropped and the
    /// epoch advances once — the broadcast fallback — so the directory
    /// stays bounded without ever missing a holder.
    pub(super) fn grant(&self, raw: u64, src: Addr) {
        let Some(c) = self.config.coherence else {
            return;
        };
        let expiry = simcore::now() + c.read_lease;
        let mut dir = self.dir.borrow_mut();
        let holders = dir.entry(raw).or_default();
        if holders.insert((src.node.0, src.port), expiry).is_some() {
            return; // refreshed an existing grant
        }
        if self.dir_grants.get() + 1 > c.dir_max {
            dir.clear();
            self.dir_grants.set(0);
            self.epoch.set(self.epoch.get() + 1);
            self.broadcasts.set(self.broadcasts.get() + 1);
            dir.entry(raw)
                .or_default()
                .insert((src.node.0, src.port), expiry);
        }
        self.dir_grants.set(self.dir_grants.get() + 1);
    }

    /// Push targeted INVALIDATE messages for `raw` at `ver` to every
    /// live holder (fire-and-forget: a lost push is safe — the holder's
    /// read lease bounds how long it can keep serving, and a stale entry
    /// can only hold the dead ref's final immutable bytes). `exclude`
    /// skips the requester, whose own response version block already carries
    /// the new version.
    fn push_invalidations(&self, raw: u64, ver: u64, exclude: Option<Addr>) {
        let Some(holders) = self.dir.borrow_mut().remove(&raw) else {
            return;
        };
        self.dir_grants.set(self.dir_grants.get() - holders.len());
        let now = simcore::now();
        for ((node, port), expiry) in holders {
            let dst = Addr {
                node: NodeId(node),
                port,
            };
            if expiry <= now || Some(dst) == exclude {
                continue;
            }
            self.inv_pushed.set(self.inv_pushed.get() + 1);
            let rpc = self.rpc.clone();
            let body = Writer::new().u64(raw).u64(ver).finish();
            simcore::spawn_detached(async move {
                let _ = rpc.call(dst, req::INVALIDATE, body).await;
            });
        }
    }

    /// The refs behind the wire keys `raws` just died (explicit release,
    /// lease reclamation, migration away — live or replayed): make that
    /// visible to client caches. This is the only place that chooses
    /// between the two schemes. Without per-ref coherence the global epoch
    /// advances once, whatever the number of keys, and the response's own
    /// epoch tells the requester. With it, each key's version entry is
    /// dropped (keys are minted once, so it will never be compared again)
    /// and its successor version is pushed to holders so their cached
    /// copies die promptly; the returned `(key, version)` pairs go into
    /// the requester's response version block, which is why `exclude` skips it.
    /// During replay the (volatile) directory is empty and nothing is
    /// pushed.
    pub(super) fn refs_died(&self, raws: &[u64], exclude: Option<Addr>) -> Vec<(u64, u64)> {
        if !self.coherent() {
            self.epoch.set(self.epoch.get() + 1);
            return Vec::new();
        }
        let bump = |&raw: &u64| {
            let ver = self.versions.borrow_mut().remove(&raw).unwrap_or(1) + 1;
            self.push_invalidations(raw, ver, exclude);
            (raw, ver)
        };
        raws.iter().map(bump).collect()
    }

    /// Every wire-visible key of refs owned by `pid`, sorted (push order
    /// must be deterministic): the page manager's keys plus any gkeys
    /// bound to them.
    pub(super) fn wire_keys_owned_by(&self, pid: GlobalPid) -> Vec<u64> {
        let mut out = self.pm.borrow().keys_owned_by(pid);
        let local: HashSet<u64> = out.iter().copied().collect();
        let gmap = self.gmap.borrow();
        out.extend(
            gmap.iter()
                .filter(|(_, k)| local.contains(k))
                .map(|(&g, _)| g),
        );
        out.sort_unstable();
        out
    }

    /// Finish `resp` as a success carrying the current epoch. A coherent
    /// server puts a version block in *every* ok response (empty when the
    /// op touched no cacheable ref); the status byte says it is there.
    pub(super) fn ok(&self, resp: Response) -> Message {
        self.ok_v(&[], resp)
    }

    /// [`Self::ok`] with the `(key, version)` pairs this op touched.
    pub(super) fn ok_v(&self, touched: &[(u64, u64)], resp: Response) -> Message {
        resp.ok(self.epoch.get(), self.coherent().then_some(touched))
    }
}
