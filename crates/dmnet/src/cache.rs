//! Client-side translation/ref cache and control-op coalescer
//! (DESIGN.md §9).
//!
//! COW makes a live ref's bytes immutable: every write goes through a
//! `(pid, va)` translation and copies first whenever the ref still pins the
//! page, and a ref without any mapping cannot be written at all. So a
//! client may cache both a ref's bytes (`read_ref`) and its own idle
//! mapping of a ref (`map_ref`) and reuse them without a round trip — the
//! only hazard is a ref that has *died* (released explicitly or reclaimed
//! with its owner's lease). The server therefore piggybacks an
//! *invalidation epoch* on every response, advanced on each ref-releasing
//! event; entries are only served while their fill epoch equals the latest
//! epoch this client has observed from that server. A stale entry can thus
//! never serve bytes that diverge from what the ref held while it was
//! alive; at worst a read that raced a foreign release returns the ref's
//! final bytes instead of `InvalidRef`, exactly the race an uncached
//! client loses to in-flight.
//!
//! The coalescer queues small control ops (`release_ref`, deferred
//! mapping frees) per server and folds them into one [`req::BATCH`] wire
//! message within a bounded flush window. Any synchronous request that
//! names a queued key or region flushes first, preserving program order.
//!
//! **A coherent server** (DESIGN.md §15) replaces the all-or-nothing
//! epoch with per-ref versions: its responses piggyback `(key, version)`
//! pairs for the refs they touched, and it pushes targeted
//! [`req::INVALIDATE`] messages to clients whose cached copy of a ref just
//! died. Which kind a server is, and its *read lease*, the client learns
//! when it registers. Entries are stamped with
//! the version known at fill time plus that lease; a serve requires the
//! entry's version to be at least the latest known version of its key
//! **and** the lease to be unexpired, so an invalidation lost to the
//! network can delay eviction only until the lease runs out — and even
//! then the stale entry can only hold the dead ref's final (immutable)
//! bytes, never diverged ones. Under a server that reports no versions
//! every version reads 0 and no entry carries a lease: the epoch decides.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use dmcommon::GlobalPid;
use simcore::sync::Notify;
use telemetry::TraceCtx;

use crate::proto::{req, N_REQ_TYPES};

/// Known-version entries kept per server (FIFO).
/// A forgotten entry is re-learned from the next version block or push for the
/// key; forgetting can only delay an invalidation until the entry's read
/// lease expires, never serve diverged bytes.
const KNOWN_MAX: usize = 1024;

/// How long queued control ops may wait for company before a batch is
/// flushed (virtual time).
pub(crate) const FLUSH_WINDOW: Duration = Duration::from_micros(10);

/// Ref-data entries kept per server (FIFO eviction).
const MAX_ENTRIES: usize = 256;

/// Tuning for the client-side cache and coalescer. The default disables
/// both, keeping a raw [`crate::DmNetClient`]'s wire behavior identical to
/// the pre-cache client; [`CacheConfig::all_on`] is what the cluster layer
/// uses for DmRPC-net.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheConfig {
    /// Cache ref bytes and idle ref mappings client-side.
    pub enabled: bool,
    /// Coalesce control ops into batched wire messages.
    pub batching: bool,
}

impl CacheConfig {
    /// Caching and batching both on (the DmRPC-net cluster default).
    pub fn all_on() -> CacheConfig {
        CacheConfig {
            enabled: true,
            batching: true,
        }
    }
}

/// Cache observability counters ([`crate::translator::Translator`]-style),
/// fed into the bench report by `xtra_rtt_budget`.
#[derive(Default)]
pub struct CacheStats {
    hits: Cell<u64>,
    misses: Cell<u64>,
    invalidations: Cell<u64>,
    batched_ops: Cell<u64>,
    batches: Cell<u64>,
    targeted_inv: Cell<u64>,
    broadcast_inv: Cell<u64>,
}

impl CacheStats {
    /// Lookups served without a round trip (data reads + mapping reuses).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that went to the wire.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries dropped by epoch advances or local releases.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }

    /// Control ops that rode a coalesced batch instead of their own RPC.
    pub fn batched_ops(&self) -> u64 {
        self.batched_ops.get()
    }

    /// Batch wire messages sent.
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Targeted invalidation pushes received (from coherent servers).
    pub fn targeted_inv(&self) -> u64 {
        self.targeted_inv.get()
    }

    /// Epoch advances observed from coherent servers (their broadcast
    /// fallback, e.g. directory overflow or restart).
    pub fn broadcast_inv(&self) -> u64 {
        self.broadcast_inv.get()
    }
}

/// A cached prefix of a ref's bytes (always starting at offset 0).
struct DataEntry {
    epoch: u64,
    bytes: Bytes,
    /// Version of the ref known when the entry was filled (0 when the
    /// key's version has never been reported).
    ver: u64,
    /// Serve deadline under a coherent server's read lease.
    leased_until: Option<simcore::SimTime>,
}

/// This client's own mapping of a ref, tracked for sequential reuse: after
/// the app frees a *clean* mapping the release is deferred and the mapping
/// handed back on the next `map_ref` of the same key without a round trip.
struct MapEntry {
    va: u64,
    len: u64,
    epoch: u64,
    /// Version of the ref known when the mapping was noted (0 when never
    /// reported).
    ver: u64,
    /// The app currently holds this mapping (not reusable).
    in_use: bool,
    /// Written through since mapped; a dirty mapping is never reused (its
    /// pages may have COW-diverged from the ref) and its free is not
    /// deferred.
    dirty: bool,
}

/// What the client should do with an `rfree` aimed at a tracked mapping.
pub(crate) enum FreeAction {
    /// Clean idle-able mapping: release deferred, no wire op.
    Deferred,
    /// The va matches a mapping the app already freed: the double free
    /// fails locally exactly as the server would fail it.
    AlreadyFreed,
    /// Untracked (or dirty / epoch-stale) mapping: send the wire free.
    PassThrough,
}

#[derive(Default)]
struct ServerCache {
    /// Latest invalidation epoch observed from this server.
    epoch: Cell<u64>,
    /// How long an entry filled from this server may be served without
    /// hearing from it — the server's read lease, as its `REGISTER` reply
    /// stated it: `Some` iff the server is coherent (DESIGN.md §15).
    serve_for: Cell<Option<Duration>>,
    data: RefCell<HashMap<u64, DataEntry>>,
    /// Insertion order of `data` keys (FIFO eviction).
    data_order: RefCell<VecDeque<u64>>,
    /// Tracked mappings by ref key (BTreeMap: drain order must be
    /// deterministic).
    maps: RefCell<BTreeMap<u64, MapEntry>>,
    /// Coalescer queue: framed control ops awaiting a flush, each with
    /// the trace context of the request that enqueued it (if sampled).
    pending: RefCell<Vec<(u8, Bytes, Option<TraceCtx>)>>,
    /// Ref keys named by queued ops (conflict detection).
    pending_keys: RefCell<BTreeSet<u64>>,
    /// Regions named by queued ops (conflict detection).
    pending_vas: RefCell<BTreeSet<(u32, u64)>>,
    /// A flush timer is already scheduled for this server.
    flush_scheduled: Cell<bool>,
    /// Drained batches whose `BATCH` call has not returned yet.
    batches_in_flight: Cell<u32>,
    /// Signalled whenever `batches_in_flight` falls.
    batch_landed: Notify,
    /// Latest per-ref versions reported by this server, FIFO-bounded by
    /// [`KNOWN_MAX`].
    known: RefCell<HashMap<u64, u64>>,
    /// Insertion order of `known` keys.
    known_order: RefCell<VecDeque<u64>>,
}

impl ServerCache {
    /// Latest version this client has heard for `key` (0 if never).
    fn known_ver(&self, key: u64) -> u64 {
        self.known.borrow().get(&key).copied().unwrap_or(0)
    }
}

/// A drained batch between its transmission and its reply (see
/// [`ClientCache::batch_in_flight`]).
pub(crate) struct BatchInFlight<'a>(&'a ServerCache);

impl Drop for BatchInFlight<'_> {
    fn drop(&mut self) {
        let s = self.0;
        s.batches_in_flight.set(s.batches_in_flight.get() - 1);
        s.batch_landed.notify_all();
    }
}

/// Per-client cache state: one [`ServerCache`] per DM server plus shared
/// configuration, cache counters and wire-message counters.
pub(crate) struct ClientCache {
    config: CacheConfig,
    servers: Vec<ServerCache>,
    stats: CacheStats,
    wire: RefCell<[u64; N_REQ_TYPES]>,
}

impl ClientCache {
    pub(crate) fn new(n_servers: usize, config: CacheConfig) -> ClientCache {
        ClientCache {
            config,
            servers: (0..n_servers).map(|_| ServerCache::default()).collect(),
            stats: CacheStats::default(),
            wire: RefCell::new([0; N_REQ_TYPES]),
        }
    }

    pub(crate) fn config(&self) -> &CacheConfig {
        &self.config
    }

    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Record what server `idx`'s `REGISTER` reply said about coherence.
    pub(crate) fn set_serve_for(&self, idx: usize, read_lease: Option<Duration>) {
        self.servers[idx].serve_for.set(read_lease);
    }

    // -- wire accounting -----------------------------------------------------

    /// Count one outgoing wire message of `ty`.
    pub(crate) fn count_wire(&self, ty: u8) {
        self.wire.borrow_mut()[ty as usize] += 1;
    }

    pub(crate) fn wire_count(&self, ty: u8) -> u64 {
        self.wire.borrow()[ty as usize]
    }

    /// (control-plane, data-plane) wire messages sent so far.
    pub(crate) fn wire_totals(&self) -> (u64, u64) {
        let w = self.wire.borrow();
        let mut control = 0;
        let mut data = 0;
        for (ty, &n) in w.iter().enumerate() {
            if crate::proto::is_control(ty as u8) {
                control += n;
            } else {
                data += n;
            }
        }
        (control, data)
    }

    // -- epochs --------------------------------------------------------------

    /// Fold a response's piggybacked epoch in. An advance invalidates every
    /// cached entry filled before it; idle deferred mappings are enqueued
    /// for their real frees (their pins must not outlive the entry).
    /// Returns true if the caller should (re)schedule a flush.
    pub(crate) fn observe_epoch(&self, idx: usize, epoch: u64) -> bool {
        let s = &self.servers[idx];
        if epoch <= s.epoch.get() {
            return false;
        }
        s.epoch.set(epoch);
        if s.serve_for.get().is_some() {
            // A coherent server's epoch only moves as its broadcast
            // fallback (directory overflow or restart).
            self.stats
                .broadcast_inv
                .set(self.stats.broadcast_inv.get() + 1);
        }
        let dropped = s.data.borrow().len();
        s.data.borrow_mut().clear();
        s.data_order.borrow_mut().clear();
        let mut invalidated = dropped as u64;
        let mut needs_flush = false;
        // Idle mappings filled under an older epoch are no longer
        // reusable; turn their deferred releases into queued wire frees.
        let mut maps = s.maps.borrow_mut();
        let stale: Vec<u64> = maps
            .iter()
            .filter(|&(_, e)| !e.in_use && e.epoch < epoch)
            .map(|(&k, _)| k)
            .collect();
        for key in stale {
            let e = maps.remove(&key).expect("key collected above");
            invalidated += 1;
            needs_flush |= self.queue_free_locked(s, e.va);
        }
        self.stats
            .invalidations
            .set(self.stats.invalidations.get() + invalidated);
        needs_flush
    }

    // -- per-ref versions ----------------------------------------------------

    /// Fold a `(key, version)` report in — from a response version block
    /// (`targeted == false`) or a server invalidation push
    /// (`targeted == true`). A version advance drops the key's stale data
    /// entry and turns its stale idle mapping's deferred release into a
    /// queued wire free. Returns true if the caller should schedule a
    /// flush.
    pub(crate) fn observe_version(&self, idx: usize, key: u64, ver: u64, targeted: bool) -> bool {
        if targeted {
            self.stats
                .targeted_inv
                .set(self.stats.targeted_inv.get() + 1);
        }
        let s = &self.servers[idx];
        if ver <= s.known_ver(key) {
            return false;
        }
        {
            let mut known = s.known.borrow_mut();
            if known.insert(key, ver).is_none() {
                let mut order = s.known_order.borrow_mut();
                order.push_back(key);
                while known.len() > KNOWN_MAX {
                    let oldest = order.pop_front().expect("order tracks known");
                    known.remove(&oldest);
                }
            }
        }
        self.drop_entries(s, key, |filled_at| filled_at < ver)
    }

    /// Drop what is cached under `key` — its data entry and its idle
    /// mapping, whose deferred release becomes a queued wire free — where
    /// `stale` says so of the version the entry was filled at. Returns true
    /// if the caller should schedule a flush.
    fn drop_entries(&self, s: &ServerCache, key: u64, stale: impl Fn(u64) -> bool) -> bool {
        let mut invalidated = 0;
        if matches!(s.data.borrow().get(&key), Some(e) if stale(e.ver)) {
            s.data.borrow_mut().remove(&key);
            s.data_order.borrow_mut().retain(|&k| k != key);
            invalidated += 1;
        }
        let mut needs_flush = false;
        if matches!(s.maps.borrow().get(&key), Some(e) if !e.in_use && stale(e.ver)) {
            let e = s.maps.borrow_mut().remove(&key).expect("checked above");
            invalidated += 1;
            needs_flush = self.queue_free_locked(s, e.va);
        }
        self.stats
            .invalidations
            .set(self.stats.invalidations.get() + invalidated);
        needs_flush
    }

    // -- ref data ------------------------------------------------------------

    /// Serve `[off, off+len)` of `key` from cache, if a fresh entry covers
    /// it.
    pub(crate) fn lookup_data(&self, idx: usize, key: u64, off: u64, len: u64) -> Option<Bytes> {
        let s = &self.servers[idx];
        // The entry's fill-time version must still be current and its read
        // lease, if it has one, unexpired.
        let stale = matches!(s.data.borrow().get(&key), Some(e) if e.ver < s.known_ver(key)
            || e.leased_until.is_some_and(|t| t <= simcore::now()));
        if stale {
            s.data.borrow_mut().remove(&key);
            s.data_order.borrow_mut().retain(|&k| k != key);
            self.stats
                .invalidations
                .set(self.stats.invalidations.get() + 1);
        }
        let data = s.data.borrow();
        let hit = data.get(&key).and_then(|e| {
            let covered = e.epoch == s.epoch.get() && off + len <= e.bytes.len() as u64;
            covered.then(|| e.bytes.slice(off as usize..(off + len) as usize))
        });
        match &hit {
            Some(_) => self.stats.hits.set(self.stats.hits.get() + 1),
            None => self.stats.misses.set(self.stats.misses.get() + 1),
        }
        hit
    }

    /// Cache `bytes` as the prefix of `key`, filled under `resp_epoch` (the
    /// epoch piggybacked on the response that produced the bytes). A fill
    /// from before the latest observed epoch is discarded.
    pub(crate) fn fill_data(&self, idx: usize, key: u64, resp_epoch: u64, bytes: Bytes) {
        let s = &self.servers[idx];
        if resp_epoch < s.epoch.get() {
            return;
        }
        // Stamp the version known *now*: the response's version block was folded
        // into `known` before this fill (synchronously, no await between),
        // so an entry can never outrank what its own response reported.
        let ver = s.known_ver(key);
        let leased_until = s.serve_for.get().map(|lease| simcore::now() + lease);
        let mut data = s.data.borrow_mut();
        let mut order = s.data_order.borrow_mut();
        if data
            .insert(
                key,
                DataEntry {
                    epoch: resp_epoch,
                    bytes,
                    ver,
                    leased_until,
                },
            )
            .is_none()
        {
            order.push_back(key);
        }
        while data.len() > MAX_ENTRIES {
            let oldest = order.pop_front().expect("order tracks data");
            data.remove(&oldest);
        }
    }

    /// Drop everything cached under `key` (the client is releasing it).
    /// Returns true if the caller should schedule a flush.
    pub(crate) fn invalidate_key(&self, idx: usize, key: u64) -> bool {
        self.drop_entries(&self.servers[idx], key, |_| true)
    }

    // -- mappings ------------------------------------------------------------

    /// Reuse this client's idle, clean, epoch-fresh mapping of `key`.
    pub(crate) fn take_mapping(&self, idx: usize, key: u64) -> Option<(u64, u64)> {
        let s = &self.servers[idx];
        let mut maps = s.maps.borrow_mut();
        // Mappings are real server-side pins, so unlike data entries they
        // need no read lease: a reused mapping of a dead ref still holds
        // its (immutable) pages. Version-gate them anyway so a known-dead
        // ref's mapping is not handed back.
        let reusable = matches!(
            maps.get(&key),
            Some(e) if !e.in_use && !e.dirty && e.epoch == s.epoch.get()
                && e.ver >= s.known_ver(key)
        );
        if reusable {
            let e = maps.get_mut(&key).expect("checked above");
            e.in_use = true;
            self.stats.hits.set(self.stats.hits.get() + 1);
            Some((e.va, e.len))
        } else {
            self.stats.misses.set(self.stats.misses.get() + 1);
            None
        }
    }

    /// Track a fresh server-side mapping of `key`. A key whose previous
    /// mapping the app still holds is left untracked: two live mappings of
    /// one ref must stay distinct (COW isolation between them).
    pub(crate) fn note_mapping(&self, idx: usize, key: u64, va: u64, len: u64, resp_epoch: u64) {
        let s = &self.servers[idx];
        let mut maps = s.maps.borrow_mut();
        if maps.contains_key(&key) {
            return;
        }
        maps.insert(
            key,
            MapEntry {
                va,
                len,
                epoch: resp_epoch.max(s.epoch.get()),
                ver: s.known_ver(key),
                in_use: true,
                dirty: false,
            },
        );
    }

    /// Note a write through `va`: a tracked mapping containing it becomes
    /// dirty (its pages may COW-diverge from the ref, so it is never
    /// reused).
    pub(crate) fn mark_dirty(&self, idx: usize, va: u64) {
        let mut maps = self.servers[idx].maps.borrow_mut();
        if let Some(e) = maps.values_mut().find(|e| e.va <= va && va < e.va + e.len) {
            e.dirty = true;
        }
    }

    /// Decide how an `rfree(va)` interacts with tracked mappings.
    pub(crate) fn on_rfree(&self, idx: usize, va: u64) -> FreeAction {
        let s = &self.servers[idx];
        let mut maps = s.maps.borrow_mut();
        let Some((&key, e)) = maps.iter_mut().find(|(_, e)| e.va == va) else {
            return FreeAction::PassThrough;
        };
        if !e.in_use {
            return FreeAction::AlreadyFreed;
        }
        if !e.dirty && e.epoch == s.epoch.get() && e.ver >= s.known_ver(key) {
            e.in_use = false;
            return FreeAction::Deferred;
        }
        maps.remove(&key);
        FreeAction::PassThrough
    }

    /// Remove every deferred (idle) mapping, queueing their real frees.
    /// Returns true if the caller should flush. Used by
    /// [`crate::DmNetClient::flush_cache`].
    pub(crate) fn purge_deferred(&self, idx: usize) -> bool {
        let s = &self.servers[idx];
        let mut maps = s.maps.borrow_mut();
        let idle: Vec<u64> = maps
            .iter()
            .filter(|&(_, e)| !e.in_use)
            .map(|(&k, _)| k)
            .collect();
        let mut needs_flush = false;
        for key in idle {
            let e = maps.remove(&key).expect("key collected above");
            needs_flush |= self.queue_free_locked(s, e.va);
        }
        needs_flush
    }

    // -- coalescer -----------------------------------------------------------

    /// Queue a framed control op. Returns true if the caller should
    /// schedule a flush timer (none is pending yet).
    pub(crate) fn enqueue(
        &self,
        idx: usize,
        ty: u8,
        body: Bytes,
        key: Option<u64>,
        region: Option<(GlobalPid, u64)>,
    ) -> bool {
        let s = &self.servers[idx];
        // Captured here, not at flush: the flush timer task has no trace
        // context, but the request that queued the op does.
        s.pending
            .borrow_mut()
            .push((ty, body, telemetry::current_ctx()));
        if let Some(k) = key {
            s.pending_keys.borrow_mut().insert(k);
        }
        if let Some((pid, va)) = region {
            s.pending_vas.borrow_mut().insert((pid.0, va));
        }
        self.stats.batched_ops.set(self.stats.batched_ops.get() + 1);
        !s.flush_scheduled.replace(true)
    }

    /// Queue a deferred-mapping free (pid is filled by the client when the
    /// batch is encoded — the cache does not know pids). Returns true if a
    /// flush should be scheduled.
    fn queue_free_locked(&self, s: &ServerCache, va: u64) -> bool {
        s.pending
            .borrow_mut()
            .push((req::FREE, free_marker(va), telemetry::current_ctx()));
        s.pending_vas.borrow_mut().insert((u32::MAX, va));
        self.stats.batched_ops.set(self.stats.batched_ops.get() + 1);
        !s.flush_scheduled.replace(true)
    }

    /// Take the queued ops for `idx`, clearing conflict sets and the
    /// flush-scheduled flag.
    pub(crate) fn drain(&self, idx: usize) -> Vec<(u8, Bytes, Option<TraceCtx>)> {
        let s = &self.servers[idx];
        s.flush_scheduled.set(false);
        s.pending_keys.borrow_mut().clear();
        s.pending_vas.borrow_mut().clear();
        std::mem::take(&mut *s.pending.borrow_mut())
    }

    pub(crate) fn has_pending(&self, idx: usize) -> bool {
        !self.servers[idx].pending.borrow().is_empty()
    }

    /// Mark a drained batch as on the wire until the returned guard drops.
    pub(crate) fn batch_in_flight(&self, idx: usize) -> BatchInFlight<'_> {
        let s = &self.servers[idx];
        s.batches_in_flight.set(s.batches_in_flight.get() + 1);
        BatchInFlight(s)
    }

    /// Wait until no drained batch is still on the wire. Returns whether
    /// it had to wait (a landed batch's reply may have queued more ops).
    pub(crate) async fn batches_landed(&self, idx: usize) -> bool {
        let s = &self.servers[idx];
        let waited = s.batches_in_flight.get() > 0;
        while s.batches_in_flight.get() > 0 {
            s.batch_landed.notified().await;
        }
        waited
    }

    pub(crate) fn pending_len(&self, idx: usize) -> usize {
        self.servers[idx].pending.borrow().len()
    }

    /// Whether a queued op names `key`.
    pub(crate) fn pending_names_key(&self, idx: usize, key: u64) -> bool {
        self.servers[idx].pending_keys.borrow().contains(&key)
    }

    /// Whether a queued op names the region at `va` (any pid).
    pub(crate) fn pending_names_va(&self, idx: usize, va: u64) -> bool {
        self.servers[idx]
            .pending_vas
            .borrow()
            .iter()
            .any(|&(_, v)| v == va)
    }

    /// Count one flushed batch (its ops were counted at enqueue, its
    /// envelope by `count_wire(req::BATCH)`).
    pub(crate) fn note_batch(&self) {
        self.stats.batches.set(self.stats.batches.get() + 1);
    }
}

/// Marker body for a deferred free queued before the client frames the
/// real `[pid][va]` body (the cache layer does not know pids).
fn free_marker(va: u64) -> Bytes {
    Bytes::from(va.to_le_bytes().to_vec())
}

/// Decode a [`free_marker`] body back into its va.
pub(crate) fn read_free_marker(body: &Bytes) -> u64 {
    u64::from_le_bytes(body[..8].try_into().expect("marker is 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ClientCache {
        ClientCache::new(1, CacheConfig::all_on())
    }

    #[test]
    fn data_fifo_eviction() {
        let c = cache();
        // One entry past the bound evicts exactly the oldest.
        let n = MAX_ENTRIES as u64 + 1;
        for key in 1..=n {
            c.fill_data(0, key, 0, Bytes::from_static(b"a"));
        }
        assert!(c.lookup_data(0, 1, 0, 1).is_none(), "oldest evicted");
        assert_eq!(c.lookup_data(0, 2, 0, 1).unwrap(), Bytes::from_static(b"a"));
        assert_eq!(c.lookup_data(0, n, 0, 1).unwrap(), Bytes::from_static(b"a"));
        assert_eq!(c.stats().hits(), 2);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn epoch_advance_invalidates_everything() {
        let c = cache();
        c.fill_data(0, 1, 0, Bytes::from_static(b"a"));
        assert!(c.lookup_data(0, 1, 0, 1).is_some());
        assert!(!c.observe_epoch(0, 3), "no deferred mappings to free");
        assert!(c.lookup_data(0, 1, 0, 1).is_none());
        assert_eq!(c.stats().invalidations(), 1);
        // A late fill from before the advance is discarded.
        c.fill_data(0, 2, 1, Bytes::from_static(b"old"));
        assert!(c.lookup_data(0, 2, 0, 3).is_none());
        // A fill at the current epoch sticks.
        c.fill_data(0, 2, 3, Bytes::from_static(b"new"));
        assert!(c.lookup_data(0, 2, 0, 3).is_some());
    }

    #[test]
    fn partial_reads_served_from_prefix() {
        let c = cache();
        c.fill_data(0, 7, 0, Bytes::from_static(b"abcdef"));
        assert_eq!(
            c.lookup_data(0, 7, 2, 3).unwrap(),
            Bytes::from_static(b"cde")
        );
        assert!(c.lookup_data(0, 7, 4, 4).is_none(), "beyond cached prefix");
    }

    #[test]
    fn mapping_defer_and_reuse_state_machine() {
        let c = cache();
        c.note_mapping(0, 9, 0x1000, 4096, 0);
        // In use: a second map of the same key is not served from cache.
        assert!(c.take_mapping(0, 9).is_none());
        // Clean free defers; the next map reuses without a round trip.
        assert!(matches!(c.on_rfree(0, 0x1000), FreeAction::Deferred));
        assert!(matches!(c.on_rfree(0, 0x1000), FreeAction::AlreadyFreed));
        assert_eq!(c.take_mapping(0, 9), Some((0x1000, 4096)));
        // Dirty mappings are never deferred.
        c.mark_dirty(0, 0x1000 + 64);
        assert!(matches!(c.on_rfree(0, 0x1000), FreeAction::PassThrough));
        assert!(
            c.take_mapping(0, 9).is_none(),
            "entry dropped with the free"
        );
    }

    #[test]
    fn epoch_advance_frees_deferred_mappings() {
        let c = cache();
        c.note_mapping(0, 9, 0x1000, 4096, 0);
        assert!(matches!(c.on_rfree(0, 0x1000), FreeAction::Deferred));
        // The advance must queue the real free and ask for a flush.
        assert!(c.observe_epoch(0, 1));
        assert!(c.take_mapping(0, 9).is_none());
        let ops = c.drain(0);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, req::FREE);
        assert_eq!(read_free_marker(&ops[0].1), 0x1000);
    }

    #[test]
    fn conflict_sets_track_queued_ops() {
        let c = cache();
        assert!(c.enqueue(0, req::RELEASE_REF, Bytes::new(), Some(5), None));
        assert!(
            !c.enqueue(0, req::RELEASE_REF, Bytes::new(), Some(6), None),
            "flush already scheduled"
        );
        assert!(c.pending_names_key(0, 5));
        assert!(c.pending_names_key(0, 6));
        assert!(!c.pending_names_key(0, 7));
        assert_eq!(c.drain(0).len(), 2);
        assert!(!c.pending_names_key(0, 5), "drain clears conflicts");
        assert!(!c.has_pending(0));
    }

    /// A cache whose one server said it is coherent, on the default lease.
    fn fg_cache() -> ClientCache {
        let c = cache();
        c.set_serve_for(0, Some(crate::proto::DEFAULT_READ_LEASE));
        c
    }

    #[test]
    fn version_advance_drops_only_the_named_key() {
        let sim = simcore::Sim::new();
        sim.block_on(async {
            let c = fg_cache();
            c.observe_version(0, 1, 1, false);
            c.observe_version(0, 2, 1, false);
            c.fill_data(0, 1, 0, Bytes::from_static(b"a"));
            c.fill_data(0, 2, 0, Bytes::from_static(b"b"));
            assert!(!c.observe_version(0, 1, 2, true), "no mapping to free");
            assert!(c.lookup_data(0, 1, 0, 1).is_none(), "stale key dropped");
            assert!(c.lookup_data(0, 2, 0, 1).is_some(), "unrelated key kept");
            assert_eq!(c.stats().targeted_inv(), 1);
            assert_eq!(c.stats().broadcast_inv(), 0);
            // Replayed/reordered push for an older version is a no-op.
            c.observe_version(0, 2, 1, true);
            assert!(c.lookup_data(0, 2, 0, 1).is_some());
        });
    }

    #[test]
    fn read_lease_expiry_stops_serving() {
        let sim = simcore::Sim::new();
        sim.block_on(async {
            let c = fg_cache();
            c.fill_data(0, 1, 0, Bytes::from_static(b"a"));
            assert!(c.lookup_data(0, 1, 0, 1).is_some());
            simcore::sleep(crate::proto::DEFAULT_READ_LEASE * 2).await;
            assert!(c.lookup_data(0, 1, 0, 1).is_none(), "lease expired");
            // A refill re-arms the lease.
            c.fill_data(0, 1, 0, Bytes::from_static(b"a"));
            assert!(c.lookup_data(0, 1, 0, 1).is_some());
        });
    }

    #[test]
    fn version_advance_reclaims_stale_idle_mapping() {
        let sim = simcore::Sim::new();
        sim.block_on(async {
            let c = fg_cache();
            c.observe_version(0, 9, 1, false);
            c.note_mapping(0, 9, 0x1000, 4096, 0);
            assert!(matches!(c.on_rfree(0, 0x1000), FreeAction::Deferred));
            assert!(c.observe_version(0, 9, 2, true), "queues the real free");
            assert!(c.take_mapping(0, 9).is_none());
            let ops = c.drain(0);
            assert_eq!(ops.len(), 1);
            assert_eq!(ops[0].0, req::FREE);
            assert_eq!(read_free_marker(&ops[0].1), 0x1000);
        });
    }

    #[test]
    fn epoch_advance_counts_as_broadcast_under_a_coherent_server() {
        let sim = simcore::Sim::new();
        sim.block_on(async {
            let c = fg_cache();
            c.fill_data(0, 1, 0, Bytes::from_static(b"a"));
            c.observe_epoch(0, 1);
            assert_eq!(c.stats().broadcast_inv(), 1);
            assert!(c.lookup_data(0, 1, 0, 1).is_none());
        });
    }
}
