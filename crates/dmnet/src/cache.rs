//! Client-side ref cache and control-op coalescer (DESIGN.md §9).
//!
//! COW makes a live ref's bytes immutable: every write goes through a
//! `(pid, va)` translation and copies first whenever the ref still pins the
//! page. So a client may cache a ref's bytes (`read_ref`) and serve repeat
//! reads without a round trip — the only hazard is a ref that has *died*
//! (released explicitly or reclaimed with its owner's lease). The server
//! lists each dead key to the clients it let cache that key, and each
//! answer's count says whether it is the next one, a late one or past a
//! gap ([`crate::coherence`]); this cache applies that verdict. A stale
//! entry thus only ever serves the dead ref's final bytes, and only until
//! the client's next response from that server — exactly the race an
//! uncached client loses to in-flight.
//!
//! The coalescer queues `release_ref`s per server and folds them into one
//! [`crate::proto::req::BATCH`] wire message within a bounded flush
//! window. Any synchronous request that names a queued key flushes first,
//! preserving program order. The cache pins nothing server-side, and a
//! queued release keeps its ref alive at most one `FLUSH_WINDOW` (plus
//! the batch's round trip) past the app's `release_ref`.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use dmcommon::PAGE_SIZE;
use simcore::sync::Notify;
use telemetry::TraceCtx;

use crate::coherence::{Count, Verdict};
use crate::proto::{Deaths, N_REQ_TYPES};

/// How long a queued release may wait for company before its batch is
/// flushed (virtual time).
pub(crate) const FLUSH_WINDOW: Duration = Duration::from_micros(10);

/// Queued releases per server before a flush is forced ahead of the
/// timer (bounds batch size and client-side queue memory).
pub(crate) const MAX_BATCH_OPS: usize = 64;

/// DM pages of ref data one client caches, split evenly among its pool's
/// servers. An entry is charged [`pages`] against its server's share
/// (second-chance eviction); one larger than a share is not cached. So no
/// client holds more than this many entries from one server, which is
/// what a server bounds each client's grants by.
pub(crate) const CACHE_PAGES: usize = 3072;

/// Saturation point of a data entry's reference count: an entry hit this
/// often survives that many eviction passes without another hit.
const REF_MAX: u8 = 3;

/// Cache observability counters ([`crate::translator::Translator`]-style),
/// fed into the bench report by `xtra_rtt_budget`.
#[derive(Default)]
pub struct CacheStats {
    hits: Cell<u64>,
    misses: Cell<u64>,
    invalidations: Cell<u64>,
    batched_ops: Cell<u64>,
    listed: Cell<u64>,
    resets: Cell<u64>,
}

impl CacheStats {
    /// `read_ref`s served without a round trip.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// `read_ref`s that went to the wire.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries dropped by listed deaths, resets or local releases.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }

    /// Releases that rode a coalesced batch instead of their own RPC (the
    /// batches are `DmNetClient::wire_count(req::BATCH)`).
    pub fn batched_ops(&self) -> u64 {
        self.batched_ops.get()
    }

    /// Dead keys that in-order responses listed to this client.
    pub fn listed(&self) -> u64 {
        self.listed.get()
    }

    /// Responses whose count skipped a listing, so every entry from their
    /// server was dropped.
    pub fn resets(&self) -> u64 {
        self.resets.get()
    }
}

/// A cached ref: its bytes, whole.
struct DataEntry {
    bytes: Bytes,
    /// Second chances left: raised by each hit up to [`REF_MAX`],
    /// spent one per eviction scan that passes the entry over.
    refs: Cell<u8>,
}

/// What a cached ref of `len` bytes is charged: the DM pages it spans,
/// at least one.
fn pages(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE).max(1)
}

#[derive(Default)]
struct ServerCache {
    /// The highest death count a response from this server has reported.
    count: Cell<Count>,
    data: RefCell<HashMap<u64, DataEntry>>,
    /// Eviction scan order of `data` keys: insertion order, with a key that
    /// was given a second chance moved to the back.
    data_order: RefCell<VecDeque<u64>>,
    /// Pages charged by the entries in `data`.
    data_pages: Cell<usize>,
    /// Coalescer queue: keys whose releases await a flush, each with the
    /// trace context of the request that queued it (if sampled). At most
    /// [`MAX_BATCH_OPS`] long, so a key is found by a scan. A flush timer
    /// is pending whenever it is not empty.
    pending: RefCell<Vec<(u64, Option<TraceCtx>)>>,
    /// Drained batches whose `BATCH` call has not returned yet.
    batches_in_flight: Cell<u32>,
    /// Signalled whenever `batches_in_flight` falls.
    batch_landed: Notify,
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

/// Per-client cache state: one [`ServerCache`] per DM server plus cache
/// counters and wire-message counters.
pub(crate) struct ClientCache {
    servers: Vec<ServerCache>,
    /// Each server's share of [`CACHE_PAGES`].
    share: usize,
    stats: CacheStats,
    wire: RefCell<[u64; N_REQ_TYPES]>,
}

impl ClientCache {
    pub(crate) fn new(n_servers: usize) -> ClientCache {
        ClientCache {
            servers: (0..n_servers).map(|_| ServerCache::default()).collect(),
            share: CACHE_PAGES / n_servers.max(1),
            stats: CacheStats::default(),
            wire: RefCell::new([0; N_REQ_TYPES]),
        }
    }

    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
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

    // -- deaths --------------------------------------------------------------

    /// Fold in a response from server `idx`, with the ref bytes `fill` it
    /// carries, as its [`Verdict`] says: the next one caches the fill and
    /// then drops the listed keys (so a fill its own response lists never
    /// serves), a late one changes nothing, one past a gap drops every
    /// entry from `idx`, and a malformed one (no `deaths`) nothing.
    pub(crate) fn observe(&self, idx: usize, deaths: Option<Deaths>, fill: Option<(u64, Bytes)>) {
        let Some(deaths) = deaths else {
            return;
        };
        let s = &self.servers[idx];
        let mut count = s.count.get();
        let verdict = count.apply(deaths.count, deaths.died.len());
        s.count.set(count);
        match verdict {
            Verdict::Next => {
                if let Some((key, bytes)) = fill {
                    self.fill_data(idx, key, bytes);
                }
                for &key in &deaths.died {
                    self.invalidate_key(idx, key);
                }
                let listed = &self.stats.listed;
                listed.set(listed.get() + deaths.died.len() as u64);
            }
            Verdict::Gap => {
                let stats = &self.stats;
                stats.resets.set(stats.resets.get() + 1);
                let dropped = s.data.take().len() as u64;
                s.data_order.take();
                s.data_pages.set(0);
                stats.invalidations.set(stats.invalidations.get() + dropped);
            }
            Verdict::Late => {}
        }
    }

    // -- ref data ------------------------------------------------------------

    /// Serve the ref `key` from cache, if it is there.
    pub(crate) fn lookup_data(&self, idx: usize, key: u64) -> Option<Bytes> {
        let data = self.servers[idx].data.borrow();
        let hit = data.get(&key).map(|e| {
            e.refs.set((e.refs.get() + 1).min(REF_MAX));
            e.bytes.clone()
        });
        match &hit {
            Some(_) => self.stats.hits.set(self.stats.hits.get() + 1),
            None => self.stats.misses.set(self.stats.misses.get() + 1),
        }
        hit
    }

    /// Cache `bytes` as the ref `key`. A fill charged more [`pages`]
    /// than the server's share is discarded. Over the share, the scan from
    /// the front of `data_order` evicts each entry with no references left
    /// and sends each one it passes to the back with one fewer (CLOCK)
    /// until the share fits; with no hits at all that is FIFO.
    fn fill_data(&self, idx: usize, key: u64, bytes: Bytes) {
        let s = &self.servers[idx];
        let charge = pages(bytes.len());
        if charge > self.share {
            return;
        }
        let mut data = s.data.borrow_mut();
        let mut order = s.data_order.borrow_mut();
        let entry = DataEntry {
            bytes,
            refs: Cell::new(0),
        };
        let mut used = s.data_pages.get() + charge;
        match data.insert(key, entry) {
            Some(old) => used -= pages(old.bytes.len()),
            None => order.push_back(key),
        }
        while used > self.share {
            let oldest = order.pop_front().expect("order tracks data");
            let refs = &data[&oldest].refs;
            if refs.get() == 0 {
                used -= pages(data.remove(&oldest).expect("order tracks data").bytes.len());
            } else {
                refs.set(refs.get() - 1);
                order.push_back(oldest);
            }
        }
        s.data_pages.set(used);
    }

    /// Drop what is cached under `key` (it died, or the client is
    /// releasing it).
    pub(crate) fn invalidate_key(&self, idx: usize, key: u64) {
        let s = &self.servers[idx];
        let Some(e) = s.data.borrow_mut().remove(&key) else {
            return;
        };
        s.data_pages.set(s.data_pages.get() - pages(e.bytes.len()));
        s.data_order.borrow_mut().retain(|&k| k != key);
        self.stats
            .invalidations
            .set(self.stats.invalidations.get() + 1);
    }

    // -- coalescer -----------------------------------------------------------

    /// Queue the release of `key`. Returns true if the caller should
    /// schedule a flush timer: the queue was empty, so none is pending.
    pub(crate) fn enqueue(&self, idx: usize, key: u64) -> bool {
        let mut pending = self.servers[idx].pending.borrow_mut();
        // Captured here, not at flush: the flush timer task has no trace
        // context, but the request that queued the release does.
        pending.push((key, telemetry::current_ctx()));
        self.stats.batched_ops.set(self.stats.batched_ops.get() + 1);
        pending.len() == 1
    }

    /// Take the queued releases for `idx`.
    pub(crate) fn drain(&self, idx: usize) -> Vec<(u64, Option<TraceCtx>)> {
        std::mem::take(&mut *self.servers[idx].pending.borrow_mut())
    }

    /// Releases queued for `idx`: at [`MAX_BATCH_OPS`], the next one must
    /// wait for a flush.
    pub(crate) fn queued(&self, idx: usize) -> usize {
        self.servers[idx].pending.borrow().len()
    }

    /// Mark a drained batch as on the wire until the returned guard drops.
    pub(crate) fn batch_in_flight(&self, idx: usize) -> BatchInFlight<'_> {
        let s = &self.servers[idx];
        s.batches_in_flight.set(s.batches_in_flight.get() + 1);
        BatchInFlight(s)
    }

    /// Wait until no drained batch is still on the wire.
    pub(crate) async fn batches_landed(&self, idx: usize) {
        let s = &self.servers[idx];
        while s.batches_in_flight.get() > 0 {
            s.batch_landed.notified().await;
        }
    }

    /// Whether a queued release names `key`.
    pub(crate) fn pending_names_key(&self, idx: usize, key: u64) -> bool {
        let pending = self.servers[idx].pending.borrow();
        pending.iter().any(|&(k, _)| k == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::req;

    fn cache() -> ClientCache {
        ClientCache::new(1)
    }

    /// A one-byte ref: charged one page.
    const ONE: Bytes = Bytes::from_static(b"a");

    /// A ref of `n` whole pages.
    fn of_pages(n: usize) -> Bytes {
        Bytes::from(vec![7; n * PAGE_SIZE])
    }

    /// Server `idx`'s running page count, checked against its entries.
    fn used(c: &ClientCache, idx: usize) -> usize {
        let s = &c.servers[idx];
        let sum = s.data.borrow().values().map(|e| pages(e.bytes.len())).sum();
        assert_eq!(s.data_pages.get(), sum, "running count drifted");
        assert_eq!(s.data_order.borrow().len(), s.data.borrow().len());
        sum
    }

    #[test]
    fn data_fifo_eviction() {
        let c = cache();
        // One page past the share evicts exactly the oldest entry.
        let n = c.share as u64 + 1;
        for key in 1..=n {
            c.fill_data(0, key, ONE);
        }
        assert_eq!(used(&c, 0), c.share);
        assert!(c.lookup_data(0, 1).is_none(), "oldest evicted");
        assert_eq!(c.lookup_data(0, 2).unwrap(), ONE);
        assert_eq!(c.lookup_data(0, n).unwrap(), ONE);
        assert_eq!(c.stats().hits(), 2);
        assert_eq!(c.stats().misses(), 1);
    }

    /// Fill keys `1..=n` with one byte (one page) each.
    fn fill_keys(c: &ClientCache, n: u64) {
        for key in 1..=n {
            c.fill_data(0, key, ONE);
        }
    }

    #[test]
    fn data_hit_earns_a_second_chance() {
        let c = cache();
        let n = c.share as u64;
        fill_keys(&c, n);
        assert!(c.lookup_data(0, 1).is_some());
        c.fill_data(0, n + 1, ONE);
        // The scan passes the hit key 1 (to the back, count spent) and
        // evicts key 2, the oldest never hit.
        assert!(c.lookup_data(0, 2).is_none(), "never-hit key evicted");
        assert!(c.lookup_data(0, 1).is_some(), "hit key kept");
        assert!(c.lookup_data(0, n + 1).is_some());
    }

    #[test]
    fn saturated_cache_evicts_exactly_one_per_fill() {
        let c = cache();
        let n = c.share as u64;
        fill_keys(&c, n);
        for key in 1..=n {
            for _ in 0..=REF_MAX {
                assert!(c.lookup_data(0, key).is_some());
            }
        }
        let s = &c.servers[0];
        let all_at = |refs: u8| s.data.borrow().values().all(|e| e.refs.get() == refs);
        assert!(all_at(REF_MAX));
        c.fill_data(0, n + 1, ONE);
        assert_eq!(s.data.borrow().len(), c.share);
        assert_eq!(used(&c, 0), c.share);
        // One pass spent one count of every old entry, then reached the
        // newcomer, the only entry with none left.
        assert!(all_at(REF_MAX - 1));
        assert!(!s.data.borrow().contains_key(&(n + 1)));
    }

    #[test]
    fn one_byte_entries_cap_at_one_page_each() {
        assert_eq!((pages(0), pages(1), pages(PAGE_SIZE)), (1, 1, 1));
        assert_eq!(pages(PAGE_SIZE + 1), 2);
        // However the pool is split, one client holds at most CACHE_PAGES
        // entries, and a full share of one-byte entries is exactly that.
        for n_servers in [1, 2, 16] {
            let c = ClientCache::new(n_servers);
            assert_eq!(c.share * n_servers, CACHE_PAGES);
            for idx in 0..n_servers {
                for key in 0..2 * c.share as u64 {
                    c.fill_data(idx, key, ONE);
                }
                assert_eq!(used(&c, idx), c.share);
            }
            let held: usize = c.servers.iter().map(|s| s.data.borrow().len()).sum();
            assert_eq!(held, CACHE_PAGES, "{n_servers} servers");
        }
    }

    #[test]
    fn an_entry_larger_than_a_share_is_refused_and_leaves_the_share_intact() {
        let c = ClientCache::new(16);
        let n = c.share as u64;
        let over = || Bytes::from(vec![7; c.share * PAGE_SIZE + 1]);
        fill_keys(&c, n);
        c.fill_data(0, n + 1, over());
        assert_eq!(used(&c, 0), c.share);
        assert!(c.lookup_data(0, n + 1).is_none(), "not cached");
        assert!((1..=n).all(|key| c.lookup_data(0, key).is_some()));
        // A refused refill of a cached key keeps the entry it would replace.
        c.fill_data(0, 1, over());
        assert_eq!(c.lookup_data(0, 1).unwrap(), ONE);
        assert_eq!(used(&c, 0), c.share);

        // Exactly a share is admitted: over never-hit entries it evicts
        // every one of them.
        let c = ClientCache::new(16);
        fill_keys(&c, n);
        c.fill_data(0, n + 1, of_pages(c.share));
        assert_eq!(c.servers[0].data.borrow().len(), 1);
        assert_eq!(used(&c, 0), c.share);
    }

    #[test]
    fn one_fill_evicts_several_small_entries_to_seat_a_large_one() {
        let c = cache();
        let n = c.share as u64;
        fill_keys(&c, n);
        c.fill_data(0, n + 1, of_pages(4));
        assert_eq!(used(&c, 0), c.share);
        assert!((1..=4).all(|key| c.lookup_data(0, key).is_none()));
        assert!((5..=n).all(|key| c.lookup_data(0, key).is_some()));
        assert_eq!(c.lookup_data(0, n + 1).unwrap().len(), 4 * PAGE_SIZE);
        // Refilling a key with shorter bytes charges only the new length.
        c.fill_data(0, n + 1, ONE);
        assert_eq!(used(&c, 0), c.share - 3);
    }

    /// The head of a response that lists `died` under `count`.
    fn deaths(count: u64, died: &[u64]) -> Option<Deaths> {
        let died = died.to_vec();
        Some(Deaths { count, died })
    }

    #[test]
    fn a_reset_on_one_server_leaves_the_others_share_serving() {
        let c = ClientCache::new(2);
        let n = c.share as u64;
        for idx in 0..2 {
            for key in 1..=n {
                c.fill_data(idx, key, ONE);
            }
        }
        // Server 0's count jumps past a listing this client never saw.
        c.observe(0, deaths(1, &[]), None);
        assert_eq!((used(&c, 0), used(&c, 1)), (0, c.share));
        assert_eq!((c.stats().invalidations(), c.stats().resets()), (n, 1));
        assert!(c.lookup_data(0, 1).is_none());
        assert!((1..=n).all(|key| c.lookup_data(1, key).is_some()));
        // Server 0's share refills to the full share; server 1's is untouched.
        c.observe(0, deaths(1, &[]), Some((n + 1, of_pages(c.share))));
        assert_eq!((used(&c, 0), used(&c, 1)), (c.share, c.share));
    }

    #[test]
    fn the_next_count_drops_its_keys_a_late_one_nothing_and_a_gap_everything() {
        let c = cache();
        for key in 1..=3 {
            c.observe(0, deaths(0, &[]), Some((key, ONE)));
        }
        // In order: exactly the listed key goes.
        c.observe(0, deaths(1, &[2]), None);
        assert!(c.lookup_data(0, 2).is_none());
        assert!(c.lookup_data(0, 1).is_some() && c.lookup_data(0, 3).is_some());
        assert_eq!((c.stats().listed(), c.stats().resets()), (1, 0));
        // Late (a reply sent before that listing): its fill is refused and
        // nothing else moves.
        c.observe(0, deaths(0, &[]), Some((4, ONE)));
        assert!(c.lookup_data(0, 4).is_none(), "late fill kept");
        assert!(c.lookup_data(0, 1).is_some());
        // A count that skips a listing (a lost reply, a restarted server):
        // the key it lists is not enough, everything goes.
        c.observe(0, deaths(3, &[1]), None);
        assert!(c.lookup_data(0, 3).is_none());
        assert_eq!((c.stats().listed(), c.stats().resets()), (1, 1));
        assert_eq!(used(&c, 0), 0);
        // Counts never run backwards: the next in-order reply fills again.
        c.observe(0, deaths(3, &[]), Some((6, ONE)));
        assert!(c.lookup_data(0, 6).is_some());
        // A fill its own in-order response lists never serves.
        c.observe(0, deaths(4, &[7]), Some((7, ONE)));
        assert!(c.lookup_data(0, 7).is_none());
        assert_eq!((c.stats().listed(), used(&c, 0)), (2, 1));
    }

    #[test]
    fn the_queue_names_its_keys_and_its_first_release_arms_the_timer() {
        let c = cache();
        assert!(c.enqueue(0, 5));
        assert!(!c.enqueue(0, 6), "flush already scheduled");
        assert!(c.pending_names_key(0, 5));
        assert!(c.pending_names_key(0, 6));
        assert!(!c.pending_names_key(0, 7));
        assert_eq!(c.drain(0).len(), 2);
        assert!(!c.pending_names_key(0, 5), "drain clears conflicts");
        assert_eq!(c.queued(0), 0);
        assert!(c.enqueue(0, 7), "a drained queue arms a new timer");
    }

    #[test]
    fn a_full_queue_flushes_before_the_window() {
        use crate::e2e_tests::{client_rpc, connect_cached, rig};
        use crate::{start_pool, DmServerConfig};

        let r = rig(1, 1);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (dm0, c0) = (r.dm_nodes[0], r.compute[0]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[dm0], &params, DmServerConfig::default());
            let dm = connect_cached(client_rpc(&net, c0, 100), &[servers[0].addr()]).await;
            let free = || servers[0].with_page_manager(|pm| pm.free_pages());
            let mut refs = Vec::new();
            for _ in 0..=MAX_BATCH_OPS {
                refs.push(dm.put_ref(&Bytes::from(vec![1; 4096])).await.unwrap());
            }
            let pinned = free();
            let dm = std::rc::Rc::new(dm);
            let app = dm.clone();
            simcore::spawn_detached(async move {
                for r in &refs {
                    app.release_ref(r).await.unwrap();
                }
            });
            // The 65th release found the queue full and sent the first 64
            // as one batch inside the window the first of them opened; it
            // waits for that batch's reply before queueing itself.
            simcore::sleep(FLUSH_WINDOW - Duration::from_nanos(1)).await;
            assert_eq!(dm.wire_count(req::BATCH), 1);
            assert_eq!(dm.wire_count(req::RELEASE_REF), 0);
            assert_eq!(dm.cache_stats().batched_ops(), MAX_BATCH_OPS as u64);
            // It rides the next batch.
            simcore::sleep(FLUSH_WINDOW * 10).await;
            assert_eq!(dm.wire_count(req::BATCH), 2);
            assert_eq!(dm.cache_stats().batched_ops(), MAX_BATCH_OPS as u64 + 1);
            assert_eq!(free(), pinned + MAX_BATCH_OPS + 1);
            servers[0].with_page_manager(|pm| pm.check_invariants());
        });
    }
}
