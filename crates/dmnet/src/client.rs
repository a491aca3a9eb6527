//! Client-side DM library (the "DM lib" of paper §VI-A).
//!
//! Provides the Table-II API — `ralloc`, `rfree`, `create_ref`, `map_ref`,
//! `rread`, `rwrite` (the latter two are specific to DmRPC-net) — by talking
//! the [`crate::proto`] protocol to a pool of DM servers. Allocations and
//! published refs are spread round-robin across the pool (paper §VI-A: "its
//! allocation request would be forwarded to one of the memory servers in a
//! round-robin manner"), the one placement (DESIGN.md §13).
//!
//! [`DmNetClient::connect_with`] can additionally layer the DESIGN.md §9
//! ref cache and control-op coalescer over the wire protocol: repeat
//! `read_ref`s of a live ref are served locally, and `release_ref`s ride a
//! single [`req::BATCH`] message per flush window. Every other op, `map_ref`
//! and `rfree` included, is one wire request either way.
//! [`DmNetClient::connect`] keeps both off, preserving the raw
//! one-op-one-RPC behavior.
//!
//! Every op reaches the wire through one function (`request_at`), sent to
//! the server its address or [`Ref`] names, and every answer's death count
//! and list are folded into the cache before the op returns. Whether a
//! server grants leases the client is never told: it reads it off that
//! server's `REGISTER` reply.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{DmError, DmResult, DmServerId, GlobalPid, Ref, RemoteAddr};
use rpclib::{Message, Rpc, RpcError};
use simnet::Addr;

use crate::cache::{CacheStats, ClientCache, FLUSH_WINDOW, MAX_BATCH_OPS};
use crate::proto::{self, req, split_response, Deaths, Reader, Writer};

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
    /// Lease TTL each server granted (`None` where it grants no leases).
    /// A background task per leased server renews at its own TTL/3.
    lease_ttls: Vec<Option<Duration>>,
    /// Shared liveness flag: cleared on drop or simulated crash, which
    /// stops the renewal task and any pending batch flush.
    alive: Rc<Cell<bool>>,
    /// The DESIGN.md §9 ref cache and coalescer are on.
    cached: bool,
    cache: Rc<ClientCache>,
}

impl DmNetClient {
    /// Register this process with every DM server in the pool, with the
    /// client cache and coalescer off.
    pub async fn connect(rpc: Rc<Rpc>, servers: Vec<Addr>) -> DmResult<DmNetClient> {
        DmNetClient::connect_with(rpc, servers, false).await
    }

    /// Register this process with every DM server in the pool. Each server
    /// that grants a lease (its `REGISTER` reply says so) is renewed at its
    /// own TTL by a background task until the client is dropped or
    /// [`DmNetClient::simulate_crash`] is called.
    ///
    /// `cached` turns on the DESIGN.md §9 ref cache and coalescer.
    pub async fn connect_with(
        rpc: Rc<Rpc>,
        servers: Vec<Addr>,
        cached: bool,
    ) -> DmResult<DmNetClient> {
        assert!(!servers.is_empty(), "DM pool must have at least one server");
        let cache = Rc::new(ClientCache::new(servers.len()));
        let mut pids = Vec::with_capacity(servers.len());
        let mut lease_ttls = Vec::with_capacity(servers.len());
        for (i, &s) in servers.iter().enumerate() {
            cache.count_wire(req::REGISTER);
            let resp = rpc
                .call(s, req::REGISTER, Message::default().bulk())
                .await
                .map_err(|_| DmError::Transport)?;
            let (deaths, reply) = split_response(&resp);
            cache.observe(i, deaths, None);
            // `[pid]([lease ttl])`, see `req::REGISTER`: a TTL of 0 grants
            // no lease either.
            let body = reply?;
            let mut r = Reader::of(&body);
            pids.push(r.pid()?);
            let ttl = r.u64().ok().filter(|&ns| ns > 0).map(Duration::from_nanos);
            lease_ttls.push(ttl);
        }
        let alive = Rc::new(Cell::new(true));
        // One renewal task per leased server, at that server's own TTL: a
        // renewal stalled on a crashed server (waiting out the retry
        // budget) must not delay the renewals that keep the healthy
        // servers' leases alive.
        for ((&s, &pid), &ttl) in servers.iter().zip(&pids).zip(&lease_ttls) {
            let Some(ttl) = ttl else { continue };
            let rpc = rpc.clone();
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
                    let _ = rpc.call(s, req::RENEW_LEASE, body.bulk()).await;
                    if !alive.get() {
                        return;
                    }
                }
            });
        }
        Ok(DmNetClient {
            rpc,
            servers,
            pids,
            next_rr: Cell::new(0),
            lease_ttls,
            alive,
            cached,
            cache,
        })
    }

    /// Always 0: a ref names its server, so there is no redirect to chase.
    /// Kept for the repo benchmark's `dmnet.client.redirects_chased`
    /// column, which reads it (ROADMAP item 1 retires the column).
    pub fn redirects_chased(&self) -> u64 {
        0
    }

    /// Always 0: no DM server refuses a request, so there is no `Busy` to
    /// retry. Kept for the repo benchmark's `dmnet.client.busy_retried`
    /// column, which reads it (ROADMAP item 1 retires the column).
    pub fn busy_retried(&self) -> u64 {
        0
    }

    /// The lease TTL `server` granted, if any.
    pub fn lease_ttl(&self, server: DmServerId) -> Option<Duration> {
        self.lease_ttls.get(server.0 as usize).copied().flatten()
    }

    /// Chaos hook: fail-stop this client. Lease renewal ceases and the
    /// underlying RPC endpoint goes silent, so the servers reclaim every
    /// pin of this process once its lease expires. Queued releases are
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
    /// messages under [`req::BATCH`], not the releases they carry).
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

    /// The `(server, key)` a ref names.
    pub(crate) fn resolve(r: &Ref) -> DmResult<(DmServerId, u64)> {
        match r {
            Ref::Net { server, key, .. } => Ok((*server, *key)),
            Ref::Cxl { .. } => Err(DmError::InvalidRef),
        }
    }

    /// Send one wire request to `server` — the only way any op reaches the
    /// wire. Returns the answer's [`Deaths`] (`None` if it was malformed),
    /// which the caller folds in with [`Self::observe`], and the result.
    async fn request_at(
        &self,
        server: DmServerId,
        ty: u8,
        body: Message,
    ) -> (Option<Deaths>, DmResult<Bytes>) {
        let addr = match self.server_addr(server) {
            Ok(a) => a,
            Err(e) => return (None, Err(e)),
        };
        self.cache.count_wire(ty);
        let resp = match self.rpc.call(addr, ty, body.bulk()).await {
            Ok(r) => r,
            // Nothing was sent: the request names more bytes than one
            // message can carry.
            Err(RpcError::TooLarge { .. }) => return (None, Err(DmError::OutOfBounds)),
            Err(RpcError::Timeout { .. }) => return (None, Err(DmError::Transport)),
        };
        let (deaths, reply) = split_response(&resp);
        // For a read, the server's payload buffer itself.
        (deaths, reply.map(Message::into_bytes))
    }

    /// Fold an answer's `deaths` from `server` into the cache, with the
    /// entry `(key, bytes)` the answer lets this client cache, if any.
    fn observe(&self, server: DmServerId, deaths: Option<Deaths>, fill: Option<(u64, Bytes)>) {
        let fill = fill.filter(|_| self.cached);
        self.cache.observe(server.0 as usize, deaths, fill);
    }

    async fn request(&self, server: DmServerId, ty: u8, body: Message) -> DmResult<Bytes> {
        let (deaths, res) = self.request_at(server, ty, body).await;
        self.observe(server, deaths, None);
        res
    }

    /// Next server in this client's round-robin over the pool.
    fn next_round_robin(&self) -> DmServerId {
        let idx = self.next_rr.get() % self.servers.len();
        self.next_rr.set(idx + 1);
        DmServerId(idx as u8)
    }

    /// Spawn the bounded-window flush timer for `server`'s queued releases
    /// (DESIGN.md §9). Called whenever an enqueue reports no timer is
    /// pending; it fires once, and releases queued while its batch is on
    /// the wire arm a timer of their own.
    fn schedule_flush(&self, server: DmServerId) {
        let idx = server.0 as usize;
        let addr = self.servers[idx];
        let (rpc, cache, alive) = (self.rpc.clone(), self.cache.clone(), self.alive.clone());
        simcore::spawn_detached(async move {
            simcore::sleep(FLUSH_WINDOW).await;
            flush_batch(&rpc, &cache, &alive, idx, addr).await;
        });
    }

    /// Flush `server`'s queued releases now (ahead of the timer).
    async fn flush_server(&self, server: DmServerId) {
        let idx = server.0 as usize;
        flush_batch(&self.rpc, &self.cache, &self.alive, idx, self.servers[idx]).await;
    }

    /// Program-order fence: a synchronous request that names a queued
    /// ref key must not overtake the queued release.
    async fn flush_if_pending_key(&self, server: DmServerId, key: u64) {
        if self.cache.pending_names_key(server.0 as usize, key) {
            self.flush_server(server).await;
        }
    }

    /// Send every queued release now and wait for each batch to land,
    /// instead of leaving the last ones to the flush window. Tests and
    /// measurements use this before reading server-side state.
    pub async fn flush_cache(&self) {
        for i in 0..self.servers.len() {
            while self.cache.queued(i) > 0 {
                self.flush_server(DmServerId(i as u8)).await;
            }
            // A batch the flush timer drained may still be on the wire,
            // its releases not applied yet.
            self.cache.batches_landed(i).await;
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
    pub async fn rfree(&self, addr: RemoteAddr) -> DmResult<()> {
        let body = Writer::new().pid(addr.pid).u64(addr.va).finish();
        self.request(addr.server, req::FREE, body).await?;
        Ok(())
    }

    /// Write `data` to DM at `addr`. Table II: `rwrite`.
    pub async fn rwrite(&self, addr: RemoteAddr, data: &Bytes) -> DmResult<()> {
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
        let body = Writer::new().pid(addr.pid).u64(addr.va).u64(len).finish();
        self.request(addr.server, req::READ, body).await
    }

    /// Create a shared reference to `[addr, addr+len)`. Table II:
    /// `create_ref(remote_addr, size)`.
    pub async fn create_ref(&self, addr: RemoteAddr, len: u64) -> DmResult<Ref> {
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
    /// `map_ref(ref)`.
    pub async fn map_ref(&self, r: &Ref) -> DmResult<RemoteAddr> {
        let (server, key) = Self::resolve(r)?;
        let pid = self.pid_at(server);
        self.flush_if_pending_key(server, key).await;
        let body = Writer::new().pid(pid).u64(key).finish();
        let resp = self.request(server, req::MAP_REF, body).await?;
        let va = Reader::new(&resp).u64()?;
        Ok(RemoteAddr { server, pid, va })
    }

    /// Fast path: publish `data` as a new reference in one round trip, on
    /// the next server of this client's round-robin over the pool, which
    /// mints the key.
    pub async fn put_ref(&self, data: &Bytes) -> DmResult<Ref> {
        let server = self.next_round_robin();
        let (deaths, res) = self.request_at(server, req::PUT_REF, data.into()).await;
        let key = res.and_then(|resp| Reader::new(&resp).u64());
        // Write-allocate: the publisher knows the ref's bytes.
        let fill = key.as_ref().ok().map(|&key| (key, data.clone()));
        self.observe(server, deaths, fill);
        let key = key?;
        Ok(Ref::Net {
            server,
            key,
            len: data.len() as u64,
        })
    }

    /// Fast path: read a whole reference without mapping, the twin of
    /// `CxlHost::read_ref`. Served from the client cache while it holds
    /// the ref. A sub-range is Listing 1's `map_ref` + `rread`.
    pub async fn read_ref(&self, r: &Ref) -> DmResult<Bytes> {
        let (server, key) = Self::resolve(r)?;
        self.flush_if_pending_key(server, key).await;
        if self.cached {
            if let Some(bytes) = self.cache.lookup_data(server.0 as usize, key) {
                return Ok(bytes);
            }
        }
        let body = Writer::new().u64(key).finish();
        let (deaths, res) = self.request_at(server, req::READ_REF, body).await;
        // Fill so the next read hits.
        let fill = res.as_ref().ok().map(|bytes| (key, bytes.clone()));
        self.observe(server, deaths, fill);
        res
    }

    /// Release a reference (API extension; see DESIGN.md §6). With the
    /// cache on, the key's cached bytes are dropped immediately and the
    /// release is queued and folded into the next coalesced [`req::BATCH`]
    /// message (bounded by the flush window).
    pub async fn release_ref(&self, r: &Ref) -> DmResult<()> {
        let (server, key) = Self::resolve(r)?;
        let idx = server.0 as usize;
        if self.cached {
            // A key no server mints: queued, it would read as carrying a
            // trace context and void the batch of every other release.
            if key & proto::TRACED_KEY != 0 {
                return Err(DmError::InvalidRef);
            }
            self.cache.invalidate_key(idx, key);
            if self.cache.queued(idx) >= MAX_BATCH_OPS {
                self.flush_server(server).await;
            }
            if self.cache.enqueue(idx, key) {
                self.schedule_flush(server);
            }
            // Fire-and-forget, like `DmRpc::release_async`: the server
            // skips a key that is already dead.
            return Ok(());
        }
        let body = Writer::new().u64(key).finish();
        self.request(server, req::RELEASE_REF, body).await?;
        Ok(())
    }
}

/// Drain and send one coalesced [`req::BATCH`] for server `idx`. Its
/// answer carries no result: a release of a dead key is skipped by the
/// server, matching the fire-and-forget contract of batched releases.
async fn flush_batch(
    rpc: &Rc<Rpc>,
    cache: &ClientCache,
    alive: &Cell<bool>,
    idx: usize,
    addr: Addr,
) {
    let releases = cache.drain(idx);
    if releases.is_empty() || !alive.get() {
        return;
    }
    cache.count_wire(req::BATCH);
    let body = proto::encode_releases(&releases);
    let _in_flight = cache.batch_in_flight(idx);
    let Ok(resp) = rpc.call(addr, req::BATCH, body.bulk()).await else {
        return;
    };
    cache.observe(idx, split_response(&resp).0, None);
}

impl Drop for DmNetClient {
    fn drop(&mut self) {
        // Stop the lease-renewal task; the servers will reclaim this
        // process's pins after the TTL (a graceful client frees them
        // explicitly before dropping). Queued releases die with the
        // client for the same reason.
        self.alive.set(false);
    }
}
