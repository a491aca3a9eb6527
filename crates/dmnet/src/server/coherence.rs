//! Coherence plane (DESIGN.md §9, §15): how a server-side change becomes
//! visible to client caches. Two mechanisms share every call site — the
//! global invalidation epoch piggybacked on all responses, and (when
//! [`DmServerConfig::coherence`](super::DmServerConfig::coherence) is set)
//! a bounded holder directory that a ref's death is pushed to as a targeted
//! `INVALIDATE`. Which one a ref's death takes is decided in exactly one
//! place, [`DmServer::refs_died`]; the op bodies never ask.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use rpclib::Message;
use simcore::SimTime;
use simnet::{Addr, NodeId};

use super::DmServer;
use crate::proto::{req, Response, Writer};

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
            read_lease: Duration::from_micros(50),
        }
    }
}

/// The holder directory's storage: ref key → (client node, port) → grant
/// expiry.
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

    /// Record that `src` now holds a cached copy of `key` (no-op unless
    /// coherent). On directory overflow every grant is dropped and the
    /// epoch advances once — the broadcast fallback — so the directory
    /// stays bounded without ever missing a holder.
    pub(super) fn grant(&self, key: u64, src: Addr) {
        let Some(c) = self.config.coherence else {
            return;
        };
        let expiry = simcore::now() + c.read_lease;
        let mut dir = self.dir.borrow_mut();
        let holders = dir.entry(key).or_default();
        if holders.insert((src.node.0, src.port), expiry).is_some() {
            return; // refreshed an existing grant
        }
        if self.dir_grants.get() + 1 > c.dir_max {
            dir.clear();
            self.dir_grants.set(0);
            self.epoch.set(self.epoch.get() + 1);
            self.broadcasts.set(self.broadcasts.get() + 1);
            dir.entry(key)
                .or_default()
                .insert((src.node.0, src.port), expiry);
        }
        self.dir_grants.set(self.dir_grants.get() + 1);
    }

    /// Push a targeted INVALIDATE for `key` to every live holder
    /// (fire-and-forget: a lost push is safe — the holder's read lease
    /// bounds how long it can keep serving, and a stale entry can only hold
    /// the dead ref's final immutable bytes). `exclude` skips the
    /// requester, which dropped its own copy when it asked for the release.
    fn push_invalidations(&self, key: u64, exclude: Option<Addr>) {
        let Some(holders) = self.dir.borrow_mut().remove(&key) else {
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
            let body = Writer::new().u64(key).finish();
            simcore::spawn_detached(async move {
                let _ = rpc.call(dst, req::INVALIDATE, body).await;
            });
        }
    }

    /// The refs `keys` just died (explicit release or lease reclamation —
    /// live or replayed): make that visible to client caches. This is the
    /// only place that chooses between the two schemes. Without per-ref
    /// coherence the global epoch advances once, whatever the number of
    /// keys, and the response's own epoch tells the requester. With it,
    /// each key's death is pushed to its holders so their cached copies die
    /// promptly; `exclude` (the requester) is skipped. During replay the
    /// (volatile) directory is empty and nothing is pushed.
    pub(super) fn refs_died(&self, keys: &[u64], exclude: Option<Addr>) {
        if self.config.coherence.is_none() {
            self.epoch.set(self.epoch.get() + 1);
            return;
        }
        for &key in keys {
            self.push_invalidations(key, exclude);
        }
    }

    /// Finish `resp` as a success carrying the current epoch.
    pub(super) fn ok(&self, resp: Response) -> Message {
        resp.ok(self.epoch.get())
    }
}
