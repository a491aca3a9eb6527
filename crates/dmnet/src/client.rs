//! Client-side DM library (the "DM lib" of paper §VI-A).
//!
//! Provides the Table-II API — `ralloc`, `rfree`, `create_ref`, `map_ref`,
//! `rread`, `rwrite` (the latter two are specific to DmRPC-net) — by talking
//! the [`crate::proto`] protocol to a pool of DM servers. Allocation
//! requests are spread round-robin across the pool (paper §VI-A: "its
//! allocation request would be forwarded to one of the memory servers in a
//! round-robin manner").
//!
//! [`DmNetClient::connect_with`] additionally layers the DESIGN.md §9
//! translation/ref cache and control-op coalescer over the wire protocol:
//! repeat `read_ref`/`map_ref` of a live ref are served locally, and small
//! control ops (`release_ref`, deferred mapping frees) ride a single
//! [`req::BATCH`] message per flush window. [`DmNetClient::connect`] keeps
//! both off, preserving the raw one-op-one-RPC behavior.
//!
//! Every op reaches the wire through one function (`request_at`);
//! placement, key kind and overload behavior are data it reads, not
//! separate paths. What each server does about leases and coherence the
//! client is never told: it reads it off that server's `REGISTER` reply.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{DmError, DmResult, DmServerId, GlobalPid, Ref, RemoteAddr};
use rpclib::{Backoff, Message, Rpc, RpcError};
use simcore::sync::Semaphore;
use simnet::Addr;

use crate::cache::{CacheConfig, CacheStats, ClientCache, FreeAction, FLUSH_WINDOW};
use crate::proto::{self, req, split_response, Reader, Reply, Writer};
use crate::shard::{HashRing, GKEY_BIT};

/// Queued control ops per server before a flush is forced ahead of the
/// timer (bounds batch size and client-side queue memory).
const MAX_BATCH_OPS: usize = 64;

/// How many times a typed [`DmError::Busy`] rejection (DESIGN.md §14) is
/// retried before it surfaces to the caller. Only a server running
/// admission control ever sends one, so against any other server the retry
/// arm is never taken.
const BUSY_RETRIES: u32 = 3;

/// First wait before retrying a `Busy` rejection; doubles per attempt (the
/// PR 2 backoff schedule, via [`rpclib::Backoff`]) up to the cap.
const BUSY_BACKOFF: Duration = Duration::from_micros(20);
const BUSY_BACKOFF_CAP: Duration = Duration::from_micros(640);

/// Client-side ring router (DESIGN.md §13). Present only on clients
/// connected with a [`HashRing`]: `put_ref` then mints global keys
/// and places them by consistent hashing, and every gkey-named op resolves
/// its target locally — relocation cache first (learned from redirect
/// chases, so tombstone chains collapse to one hop), ring second.
struct RingRouter {
    ring: HashRing,
    /// gkey → observed home, learned by chasing redirects. Entries drop
    /// when the gkey answers at its ring home again or is released.
    reloc: RefCell<HashMap<u64, DmServerId>>,
    next_gkey: Cell<u32>,
    redirects_chased: Cell<u64>,
    /// This client's fabric address, baked into every minted gkey so two
    /// clients can never mint the same key.
    node: u32,
    port: u16,
}

impl RingRouter {
    /// Mint a fresh globally-unique key: bit 63, 15 bits of node, 16 bits
    /// of port, 32 bits of counter.
    fn mint(&self) -> u64 {
        let c = self.next_gkey.get();
        self.next_gkey.set(c + 1);
        GKEY_BIT | ((self.node as u64) << 48) | ((self.port as u64) << 32) | c as u64
    }

    /// Current target for `gkey`: relocation cache first (a chased
    /// redirect), ring placement second.
    fn route(&self, gkey: u64) -> DmServerId {
        match self.reloc.borrow().get(&gkey) {
            Some(&s) => s,
            None => self.ring.route(gkey),
        }
    }
}

/// Handle to the DM pool for one process.
///
/// The same server list (in the same order) must be used by every client in
/// the simulation: [`DmServerId`]s inside [`RemoteAddr`]s and [`Ref`]s index
/// into it.
pub struct DmNetClient {
    rpc: Rc<Rpc>,
    servers: Vec<Addr>,
    pids: Vec<GlobalPid>,
    next_rr: Cell<usize>,
    /// Lease TTL granted by the pool (`None` when the servers do not grant
    /// leases). When set, a background task renews every lease at TTL/3.
    lease_ttl: Option<Duration>,
    /// Shared liveness flag: cleared on drop or simulated crash, which
    /// stops the renewal task and any pending batch flush.
    alive: Rc<Cell<bool>>,
    cache: Rc<ClientCache>,
    /// Sharded placement (DESIGN.md §13), present only on clients
    /// connected with a [`HashRing`].
    router: Option<RingRouter>,
    /// Token pool bounding concurrent wire ops (DESIGN.md §14), when the
    /// client was connected with a `max_inflight`.
    tokens: Option<Semaphore>,
    /// `Busy` rejections absorbed by the retry loop (observability).
    busy_retried: Cell<u64>,
}

impl DmNetClient {
    /// Register this process with every DM server in the pool, with the
    /// client cache and coalescer off ([`CacheConfig::default`]), no
    /// concurrency limit and round-robin placement.
    pub async fn connect(rpc: Rc<Rpc>, servers: Vec<Addr>) -> DmResult<DmNetClient> {
        DmNetClient::connect_with(rpc, servers, CacheConfig::default(), None, None).await
    }

    /// Register this process with every DM server in the pool. If the
    /// servers grant leases, a background task renews them until the client
    /// is dropped or [`DmNetClient::simulate_crash`] is called; if any is
    /// coherent (DESIGN.md §15), the client serves its invalidation pushes
    /// and honours its read lease. Both are learned here, per server.
    ///
    /// `cache` selects the DESIGN.md §9 caching/batching behavior and
    /// `max_inflight` bounds this process's concurrent wire ops (DESIGN.md
    /// §14: excess callers wait locally — backpressure instead of offered
    /// load; `None` = unlimited). With `ring` set, `put_ref` places refs by
    /// consistent hashing over the pool instead of round-robin (every
    /// client must be handed the same ring, i.e. the same seed), and
    /// gkey-named ops chase migration redirects transparently.
    pub async fn connect_with(
        rpc: Rc<Rpc>,
        servers: Vec<Addr>,
        cache: CacheConfig,
        max_inflight: Option<u64>,
        ring: Option<HashRing>,
    ) -> DmResult<DmNetClient> {
        assert!(!servers.is_empty(), "DM pool must have at least one server");
        let cache = Rc::new(ClientCache::new(servers.len(), cache));
        let mut pids = Vec::with_capacity(servers.len());
        let (mut lease_ttl, mut any_coherent) = (None, false);
        for (i, &s) in servers.iter().enumerate() {
            cache.count_wire(req::REGISTER);
            let resp = rpc
                .call(s, req::REGISTER, Bytes::new())
                .await
                .map_err(|_| DmError::Transport)?;
            let (epoch, reply) = split_response(&resp);
            cache.observe_epoch(i, epoch);
            // `[pid]([lease ttl]([read lease]))`, see `req::REGISTER`; the
            // server is coherent iff it answered with a version block.
            let coherent = matches!(
                reply,
                Reply::Ok {
                    versions: Some(_),
                    ..
                }
            );
            let body = reply.result()?;
            let mut r = Reader::of(&body);
            pids.push(r.pid()?);
            let mut field = || r.u64().ok().filter(|&ns| ns > 0).map(Duration::from_nanos);
            let (ttl, read_lease) = (field(), field());
            lease_ttl = ttl.or(lease_ttl);
            let read_lease = coherent.then(|| read_lease.unwrap_or(proto::DEFAULT_READ_LEASE));
            cache.set_serve_for(i, read_lease);
            any_coherent |= read_lease.is_some();
        }
        let alive = Rc::new(Cell::new(true));
        if any_coherent {
            // Targeted invalidation push (DESIGN.md §15): a coherent server
            // that bumps a ref's version sends `[key u64][ver u64]` to every
            // read-lease holder. Folding the version drops exactly the named
            // key's cached entries; everything else keeps serving.
            let pool: Rc<[(Addr, GlobalPid)]> =
                servers.iter().copied().zip(pids.iter().copied()).collect();
            let (cache_h, rpc_h, alive_h) = (cache.clone(), rpc.clone(), alive.clone());
            rpc.register(req::INVALIDATE, move |ctx| {
                let (cache, rpc, alive) = (cache_h.clone(), rpc_h.clone(), alive_h.clone());
                let pool = pool.clone();
                async move {
                    let mut r = Reader::of(&ctx.payload);
                    if let (Ok(key), Ok(ver)) = (r.u64(), r.u64()) {
                        if let Some(idx) = pool.iter().position(|&(a, _)| a == ctx.src) {
                            // An invalidated idle mapping becomes a queued
                            // free; drain it on the usual flush window.
                            if cache.observe_version(idx, key, ver, true) && alive.get() {
                                let (addr, pid) = pool[idx];
                                spawn_flush(&rpc, &cache, &alive, idx, addr, pid);
                            }
                        }
                    }
                    Bytes::new()
                }
            });
        }
        if let Some(ttl) = lease_ttl {
            // One renewal task per server: a renewal stalled on a crashed
            // server (waiting out the retry budget) must not delay the
            // renewals that keep the healthy servers' leases alive.
            for (i, &s) in servers.iter().enumerate() {
                let rpc = rpc.clone();
                let pid = pids[i];
                let alive = alive.clone();
                simcore::spawn_detached(async move {
                    // Renew well inside the TTL so one lost renewal (or a
                    // short partition) does not expire the lease.
                    let period = ttl / 3;
                    loop {
                        simcore::sleep(period).await;
                        if !alive.get() {
                            return;
                        }
                        let body = Writer::new().pid(pid).finish();
                        let _ = rpc.call(s, req::RENEW_LEASE, body).await;
                        if !alive.get() {
                            return;
                        }
                    }
                });
            }
        }
        let router = ring.map(|ring| {
            assert_eq!(ring.n_servers(), servers.len(), "ring built for this pool");
            let addr = rpc.addr();
            assert!(addr.node.0 < (1 << 15), "gkey node space is 15 bits");
            RingRouter {
                ring,
                reloc: RefCell::new(HashMap::new()),
                next_gkey: Cell::new(0),
                redirects_chased: Cell::new(0),
                node: addr.node.0,
                port: addr.port,
            }
        });
        Ok(DmNetClient {
            rpc,
            servers,
            pids,
            next_rr: Cell::new(0),
            lease_ttl,
            alive,
            cache,
            router,
            tokens: max_inflight.map(Semaphore::new),
            busy_retried: Cell::new(0),
        })
    }

    /// Whether this client routes `put_ref` through the shard ring.
    pub fn is_sharded(&self) -> bool {
        self.router.is_some()
    }

    /// Redirect hops this client chased (sharded clients only).
    pub fn redirects_chased(&self) -> u64 {
        self.router.as_ref().map_or(0, |r| r.redirects_chased.get())
    }

    /// The lease TTL granted by the pool, if any.
    pub fn lease_ttl(&self) -> Option<Duration> {
        self.lease_ttl
    }

    /// Chaos hook: fail-stop this client. Lease renewal ceases and the
    /// underlying RPC endpoint goes silent, so the servers reclaim every
    /// pin of this process once its lease expires. Queued control ops are
    /// lost with the process, like any unsent traffic.
    pub fn simulate_crash(&self) {
        self.alive.set(false);
        self.rpc.set_offline(true);
    }

    /// The DM server addresses this client uses.
    pub fn servers(&self) -> &[Addr] {
        &self.servers
    }

    /// Cache hit/miss/invalidation and batching counters (DESIGN.md §9).
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Wire messages sent for request type `ty` (includes batched
    /// envelopes under [`req::BATCH`], not their folded sub-ops).
    pub fn wire_count(&self, ty: u8) -> u64 {
        self.cache.wire_count(ty)
    }

    /// Total (control-plane, data-plane) wire messages sent by this
    /// client, classified by [`proto::is_control`].
    pub fn wire_messages(&self) -> (u64, u64) {
        self.cache.wire_totals()
    }

    fn server_addr(&self, id: DmServerId) -> DmResult<Addr> {
        self.servers
            .get(id.0 as usize)
            .copied()
            .ok_or(DmError::InvalidAddress)
    }

    fn pid_at(&self, id: DmServerId) -> GlobalPid {
        self.pids[id.0 as usize]
    }

    /// `Busy` rejections this client absorbed by retrying (0 unless a
    /// server of the pool runs admission control).
    pub fn busy_retried(&self) -> u64 {
        self.busy_retried.get()
    }

    /// Whether ops naming `key` are routed by this client (ring placement
    /// and redirect chasing) rather than sent to the server their [`Ref`]
    /// names: global keys, on a client connected with a ring.
    fn routes(&self, key: u64) -> bool {
        self.router.is_some() && key & GKEY_BIT != 0
    }

    /// Resolve a ref to its `(home, key)`: routed keys home where the
    /// relocation cache or the ring says, every other key at the server
    /// the ref names.
    fn resolve(&self, r: &Ref) -> DmResult<(DmServerId, u64)> {
        let Ref::Net { server, key, .. } = r else {
            return Err(DmError::InvalidRef);
        };
        match &self.router {
            Some(router) if self.routes(*key) => Ok((router.route(*key), *key)),
            _ => Ok((*server, *key)),
        }
    }

    /// Send one wire request — the only way any op reaches the wire.
    /// Returns `(epoch, home, result)`: the invalidation epoch piggybacked
    /// on the response (fill paths stamp entries with the epoch their
    /// bytes were read under) and the server that answered.
    ///
    /// In order: token acquisition (when a concurrency limit is installed);
    /// the send, counted per type; folding the response's epoch and version
    /// block into the cache; then either a result, a backed-off retry of
    /// a typed `Busy` rejection, or — only for a `key` this client
    /// [routes](Self::routes) — one hop of a `Moved` redirect chase. Each
    /// hop follows a tombstone laid by a distinct migration and updates the
    /// relocation cache, so the next op on the same gkey goes direct; the
    /// chase is bounded by the pool size (a tombstone chain cannot revisit
    /// a server without the gkey having answered there). A redirect
    /// answering any other request is a protocol violation (`Malformed`).
    ///
    /// Without a concurrency limit, and against servers that never answer
    /// `Busy`, neither the token nor the retry path touches an await point
    /// or RNG, so the schedule is identical to a bare send.
    async fn request_at(
        &self,
        mut server: DmServerId,
        key: Option<u64>,
        ty: u8,
        body: Message,
    ) -> (u64, DmServerId, DmResult<Bytes>) {
        // The router and gkey, when this request names a key it routes.
        let chase = self.router.as_ref().zip(key.filter(|&k| self.routes(k)));
        let _token = match &self.tokens {
            Some(sem) => Some(sem.acquire_one().await),
            None => None,
        };
        let mut backoff = Backoff::new(BUSY_BACKOFF, BUSY_BACKOFF_CAP);
        let mut retries_left = BUSY_RETRIES;
        let mut hops = 0;
        loop {
            let addr = match self.server_addr(server) {
                Ok(a) => a,
                Err(e) => return (0, server, Err(e)),
            };
            self.cache.count_wire(ty);
            let resp = match self.rpc.call(addr, ty, body.clone()).await {
                Ok(r) => r,
                // Nothing was sent: the request names more bytes than one
                // message can carry.
                Err(RpcError::TooLarge { .. }) => return (0, server, Err(DmError::OutOfBounds)),
                Err(RpcError::Timeout { .. }) => return (0, server, Err(DmError::Transport)),
            };
            let (epoch, reply) = split_response(&resp);
            if self.cache.observe_epoch(server.0 as usize, epoch) {
                self.schedule_flush(server);
            }
            match (reply, chase) {
                (Reply::Ok { body, versions }, _) => {
                    // What a coherent server says about the refs this op
                    // touched: each pair drops any entry it proves stale.
                    let idx = server.0 as usize;
                    let mut needs_flush = false;
                    for (key, ver) in versions.into_iter().flatten() {
                        needs_flush |= self.cache.observe_version(idx, key, ver, false);
                    }
                    if needs_flush {
                        self.schedule_flush(server);
                    }
                    if let Some((router, gkey)) = chase {
                        // Remember an off-ring home; forget a stale entry the
                        // moment the gkey answers at its ring home again.
                        if router.ring.route(gkey) != server {
                            router.reloc.borrow_mut().insert(gkey, server);
                        } else {
                            router.reloc.borrow_mut().remove(&gkey);
                        }
                    }
                    // For a read, the server's payload buffer itself.
                    return (epoch, server, Ok(body.into_bytes()));
                }
                (Reply::Moved { node, port }, Some((router, gkey))) => {
                    let Some(next) = self.addr_to_server(node, port) else {
                        return (epoch, server, Err(DmError::InvalidAddress));
                    };
                    // The tombstone proves the gkey left this server: its
                    // cached bytes/mappings under this index are orphaned
                    // (the general epoch sweep would only reap them after
                    // an unrelated bump). Drop them now so a future
                    // migration back cannot resurrect pre-move bytes.
                    if self.cache.config().enabled
                        && self.cache.invalidate_key(server.0 as usize, gkey)
                    {
                        self.schedule_flush(server);
                    }
                    router
                        .redirects_chased
                        .set(router.redirects_chased.get() + 1);
                    router.reloc.borrow_mut().insert(gkey, next);
                    server = next;
                    hops += 1;
                    if hops > self.servers.len() {
                        return (0, server, Err(DmError::InvalidRef));
                    }
                }
                (Reply::Err(DmError::Busy), _) if retries_left > 0 => {
                    retries_left -= 1;
                    self.busy_retried.set(self.busy_retried.get() + 1);
                    simcore::sleep(backoff.next_wait()).await;
                    // Re-resolve the route after the wait: the gkey may
                    // have migrated while the server was saturated.
                    if let Some((router, gkey)) = chase {
                        server = router.route(gkey);
                        hops = 0;
                    }
                }
                (other, _) => return (epoch, server, other.result().map(Message::into_bytes)),
            }
        }
    }

    async fn request(&self, server: DmServerId, ty: u8, body: Message) -> DmResult<Bytes> {
        self.request_at(server, None, ty, body).await.2
    }

    fn addr_to_server(&self, node: u32, port: u16) -> Option<DmServerId> {
        self.servers
            .iter()
            .position(|a| a.node.0 == node && a.port == port)
            .map(|i| DmServerId(i as u8))
    }

    /// Next server in this client's round-robin over the pool.
    fn next_round_robin(&self) -> DmServerId {
        let idx = self.next_rr.get() % self.servers.len();
        self.next_rr.set(idx + 1);
        DmServerId(idx as u8)
    }

    /// Spawn the bounded-window flush timer for `server`'s queued control
    /// ops (DESIGN.md §9). Called whenever an enqueue reports no timer is
    /// pending.
    fn schedule_flush(&self, server: DmServerId) {
        let idx = server.0 as usize;
        let (addr, pid) = (self.servers[idx], self.pids[idx]);
        spawn_flush(&self.rpc, &self.cache, &self.alive, idx, addr, pid);
    }

    /// Flush `server`'s queued control ops now (ahead of the timer).
    async fn flush_server(&self, server: DmServerId) {
        let idx = server.0 as usize;
        flush_batch(
            &self.rpc,
            &self.cache,
            &self.alive,
            idx,
            self.servers[idx],
            self.pids[idx],
        )
        .await;
        if self.cache.has_pending(idx) {
            self.schedule_flush(server);
        }
    }

    /// Program-order fence: a synchronous request that names a queued
    /// ref key must not overtake the queued op.
    async fn flush_if_pending_key(&self, server: DmServerId, key: u64) {
        if self.cache.pending_names_key(server.0 as usize, key) {
            self.flush_server(server).await;
        }
    }

    /// Program-order fence for requests naming a region with a queued free.
    async fn flush_if_pending_va(&self, server: DmServerId, va: u64) {
        if self.cache.pending_names_va(server.0 as usize, va) {
            self.flush_server(server).await;
        }
    }

    /// Flush every queued control op and release every deferred mapping,
    /// returning the client to a no-hidden-state condition (all its pins
    /// and pages are visible server-side). Tests and graceful teardown use
    /// this before asserting server-side invariants.
    pub async fn flush_cache(&self) {
        for i in 0..self.servers.len() {
            let server = DmServerId(i as u8);
            loop {
                self.cache.purge_deferred(i);
                while self.cache.has_pending(i) {
                    self.flush_server(server).await;
                }
                // A batch the flush timer drained may still be on the
                // wire, its frees not applied yet.
                if !self.cache.batches_landed(i).await {
                    break;
                }
            }
        }
    }

    /// Allocate `len` bytes of disaggregated memory (round-robin across the
    /// pool). Table II: `ralloc(size)`.
    pub async fn ralloc(&self, len: u64) -> DmResult<RemoteAddr> {
        let server = self.next_round_robin();
        let pid = self.pid_at(server);
        let body = Writer::new().pid(pid).u64(len).finish();
        let resp = self.request(server, req::ALLOC, body).await?;
        let mut r = Reader::new(&resp);
        Ok(RemoteAddr {
            server,
            pid,
            va: r.u64()?,
        })
    }

    /// Deallocate a region. Table II: `rfree(remote_addr)`.
    ///
    /// Freeing this client's own clean mapping of a ref defers the release
    /// (the mapping is kept for reuse by the next `map_ref` of the same
    /// key); the real free is sent when the entry is invalidated or
    /// [`DmNetClient::flush_cache`] runs.
    pub async fn rfree(&self, addr: RemoteAddr) -> DmResult<()> {
        let idx = addr.server.0 as usize;
        self.flush_if_pending_va(addr.server, addr.va).await;
        if self.cache.config().enabled {
            match self.cache.on_rfree(idx, addr.va) {
                FreeAction::Deferred => return Ok(()),
                // Double free of a deferred mapping: fail locally exactly
                // as the server would.
                FreeAction::AlreadyFreed => return Err(DmError::InvalidAddress),
                FreeAction::PassThrough => {}
            }
        }
        let body = Writer::new().pid(addr.pid).u64(addr.va).finish();
        self.request(addr.server, req::FREE, body).await?;
        Ok(())
    }

    /// Write `data` to DM at `addr`. Table II: `rwrite`.
    pub async fn rwrite(&self, addr: RemoteAddr, data: &Bytes) -> DmResult<()> {
        self.flush_if_pending_va(addr.server, addr.va).await;
        if self.cache.config().enabled {
            // A written-through mapping may COW-diverge from its ref; it
            // must never be handed back by a cached `map_ref`.
            self.cache.mark_dirty(addr.server.0 as usize, addr.va);
        }
        let body = Writer::new()
            .pid(addr.pid)
            .u64(addr.va)
            .body(data.clone())
            .finish();
        self.request(addr.server, req::WRITE, body).await?;
        Ok(())
    }

    /// Read `len` bytes of DM from `addr`. Table II: `rread`.
    pub async fn rread(&self, addr: RemoteAddr, len: u64) -> DmResult<Bytes> {
        self.flush_if_pending_va(addr.server, addr.va).await;
        let body = Writer::new().pid(addr.pid).u64(addr.va).u64(len).finish();
        self.request(addr.server, req::READ, body).await
    }

    /// Create a shared reference to `[addr, addr+len)`. Table II:
    /// `create_ref(remote_addr, size)`.
    pub async fn create_ref(&self, addr: RemoteAddr, len: u64) -> DmResult<Ref> {
        self.flush_if_pending_va(addr.server, addr.va).await;
        let body = Writer::new().pid(addr.pid).u64(addr.va).u64(len).finish();
        let resp = self.request(addr.server, req::CREATE_REF, body).await?;
        let mut r = Reader::new(&resp);
        Ok(Ref::Net {
            server: addr.server,
            key: r.u64()?,
            len,
        })
    }

    /// Map a reference into this process's DM address space. Table II:
    /// `map_ref(ref)`. A back-to-back re-map of a ref this client already
    /// mapped (and cleanly freed) is served from the cache without a round
    /// trip.
    pub async fn map_ref(&self, r: &Ref) -> DmResult<RemoteAddr> {
        let (target, key) = self.resolve(r)?;
        let pid = self.pid_at(target);
        self.flush_if_pending_key(target, key).await;
        if self.cache.config().enabled {
            if let Some((va, _len)) = self.cache.take_mapping(target.0 as usize, key) {
                return Ok(RemoteAddr {
                    server: target,
                    pid,
                    va,
                });
            }
        }
        let body = Writer::new().pid(pid).u64(key).finish();
        let (epoch, home, res) = self.request_at(target, Some(key), req::MAP_REF, body).await;
        let resp = res?;
        let mut rd = Reader::new(&resp);
        let va = rd.u64()?;
        let len = rd.u64()?;
        // The mapping lives on whichever server answered (for a routed key,
        // the post-chase home); the RemoteAddr must name it so rread /
        // rfree go there directly.
        if self.cache.config().enabled {
            self.cache
                .note_mapping(home.0 as usize, key, va, len, epoch);
        }
        Ok(RemoteAddr {
            server: home,
            pid: self.pid_at(home),
            va,
        })
    }

    /// Fast path: publish `data` as a new reference in one round trip.
    /// Clients without a ring spread refs round-robin across the pool and
    /// the server mints the key; clients with one mint a global key and
    /// place it by consistent hashing, so every client agrees on the ref's
    /// home without coordination.
    pub async fn put_ref(&self, data: &Bytes) -> DmResult<Ref> {
        let (server, gkey, ty, body) = match &self.router {
            Some(router) => {
                let gkey = router.mint();
                let body = Writer::new().u64(gkey).body(data.clone()).finish();
                (router.route(gkey), Some(gkey), req::PUT_REF_AT, body)
            }
            None => (self.next_round_robin(), None, req::PUT_REF, data.into()),
        };
        let (epoch, home, res) = self.request_at(server, gkey, ty, body).await;
        let resp = res?;
        let key = match gkey {
            Some(gkey) => gkey,
            None => Reader::new(&resp).u64()?,
        };
        if self.cache.config().enabled {
            // Write-allocate: the publisher knows the ref's bytes.
            self.cache
                .fill_data(home.0 as usize, key, epoch, data.clone());
        }
        Ok(Ref::Net {
            server: home,
            key,
            len: data.len() as u64,
        })
    }

    /// Fast path: read `len` bytes at `off` of a reference without mapping.
    /// Served from the client cache when a fresh entry covers the range.
    pub async fn read_ref(&self, r: &Ref, off: u64, len: u64) -> DmResult<Bytes> {
        let (target, key) = self.resolve(r)?;
        self.flush_if_pending_key(target, key).await;
        if self.cache.config().enabled {
            if let Some(bytes) = self.cache.lookup_data(target.0 as usize, key, off, len) {
                return Ok(bytes);
            }
        }
        let body = Writer::new().u64(key).u64(off).u64(len).finish();
        let (epoch, home, res) = self
            .request_at(target, Some(key), req::READ_REF, body)
            .await;
        if self.cache.config().enabled && off == 0 {
            if let Ok(bytes) = &res {
                // Fill under the server that answered (for a routed key,
                // the post-chase home) so the next read hits.
                self.cache
                    .fill_data(home.0 as usize, key, epoch, bytes.clone());
            }
        }
        res
    }

    /// Release a reference (API extension; see DESIGN.md §6). With
    /// batching on, the release is queued and folded into the next
    /// coalesced [`req::BATCH`] message (bounded by the flush window); the
    /// local cache entries for the key are dropped immediately.
    pub async fn release_ref(&self, r: &Ref) -> DmResult<()> {
        let (target, key) = self.resolve(r)?;
        let idx = target.0 as usize;
        if self.cache.config().enabled && self.cache.invalidate_key(idx, key) {
            self.schedule_flush(target);
        }
        let body = Writer::new().u64(key).finish();
        // Routed keys never ride the batch coalescer: a batched slot is
        // fire-and-forget, so a `Moved` redirect laid down by a concurrent
        // migration would be dropped silently and the ref leaked. They go
        // out synchronously and chase redirects like any other routed op.
        if self.cache.config().batching && !self.routes(key) {
            if self.cache.pending_len(idx) >= MAX_BATCH_OPS {
                self.flush_server(target).await;
            }
            if self
                .cache
                .enqueue(idx, req::RELEASE_REF, body.into_bytes(), Some(key), None)
            {
                self.schedule_flush(target);
            }
            // Fire-and-forget, like `DmRpc::release_async`: a failed
            // release of an already-dead ref is reported per-slot in the
            // batch response and dropped.
            return Ok(());
        }
        self.flush_if_pending_key(target, key).await;
        let (_, _, res) = self
            .request_at(target, Some(key), req::RELEASE_REF, body)
            .await;
        res?;
        if let Some(router) = &self.router {
            router.reloc.borrow_mut().remove(&key);
        }
        Ok(())
    }

    /// Migrate a gkey-bound ref to `dst` (clients with a ring only): the
    /// current home transfers the pages server-to-server, releases its
    /// copy and leaves a redirect tombstone; other clients chase one hop,
    /// and this client's relocation cache learns the new home immediately.
    pub async fn migrate_ref(&self, r: &Ref, dst: DmServerId) -> DmResult<()> {
        let router = self.router.as_ref().ok_or(DmError::InvalidRef)?;
        let (home, key) = self.resolve(r)?;
        if key & GKEY_BIT == 0 {
            return Err(DmError::InvalidRef);
        }
        let dst_addr = self.server_addr(dst)?;
        let body = Writer::new().u64(key).addr(dst_addr).finish();
        let (_, _, res) = self.request_at(home, Some(key), req::MIGRATE, body).await;
        res?;
        router.reloc.borrow_mut().insert(key, dst);
        Ok(())
    }
}

/// Spawn the bounded-window flush timer for server `idx`'s queued control
/// ops. A free function over the shared handles because the `INVALIDATE`
/// handler schedules flushes too, and it outlives any `&DmNetClient`.
fn spawn_flush(
    rpc: &Rc<Rpc>,
    cache: &Rc<ClientCache>,
    alive: &Rc<Cell<bool>>,
    idx: usize,
    addr: Addr,
    pid: GlobalPid,
) {
    let (rpc, cache, alive) = (rpc.clone(), cache.clone(), alive.clone());
    simcore::spawn_detached(async move {
        loop {
            simcore::sleep(FLUSH_WINDOW).await;
            flush_batch(&rpc, &cache, &alive, idx, addr, pid).await;
            // The flush response's epoch may have turned deferred
            // mapping releases into queued frees; drain those too.
            if !alive.get() || !cache.has_pending(idx) {
                return;
            }
        }
    });
}

/// Drain and send one coalesced [`req::BATCH`] for server `idx`. Deferred
/// mapping frees are queued by the cache as bare-va markers (the cache
/// layer does not know pids); they are framed into real `FREE` bodies
/// here. Sub-op failures are reported per-slot by the server and dropped,
/// matching the fire-and-forget contract of the batched ops.
async fn flush_batch(
    rpc: &Rc<Rpc>,
    cache: &Rc<ClientCache>,
    alive: &Rc<Cell<bool>>,
    idx: usize,
    addr: Addr,
    pid: GlobalPid,
) {
    let ops = cache.drain(idx);
    if ops.is_empty() || !alive.get() {
        return;
    }
    let ops: Vec<(u8, Bytes, Option<telemetry::TraceCtx>)> = ops
        .into_iter()
        .map(|(ty, body, ctx)| {
            if ty == req::FREE {
                let va = crate::cache::read_free_marker(&body);
                (
                    ty,
                    Writer::new().pid(pid).u64(va).finish().into_bytes(),
                    ctx,
                )
            } else {
                (ty, body, ctx)
            }
        })
        .collect();
    cache.count_wire(req::BATCH);
    cache.note_batch();
    let body = proto::encode_batch_traced(&ops);
    let _in_flight = cache.batch_in_flight(idx);
    let Ok(resp) = rpc.call(addr, req::BATCH, body).await else {
        return;
    };
    cache.observe_epoch(idx, split_response(&resp).0);
}

impl Drop for DmNetClient {
    fn drop(&mut self) {
        // Stop the lease-renewal task; the servers will reclaim this
        // process's pins after the TTL (a graceful client frees them
        // explicitly before dropping). Queued control ops die with the
        // client for the same reason.
        self.alive.set(false);
    }
}
