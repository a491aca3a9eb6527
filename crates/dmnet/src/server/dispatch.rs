//! Request dispatch: admission, tracing, and the one body of every wire
//! op. Each arm validates, mutates the page manager, persists
//! (log-before-ack), charges CPU/memory and answers; how the change
//! reaches client caches is the coherence plane's decision
//! ([`DmServer::refs_died`], [`DmServer::grant`], [`DmServer::ok_v`]).

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{DmError, DmResult, PAGE_SIZE};
use rpclib::Message;
use simnet::Addr;
use telemetry::SpanKind;

use super::{translations_for, DmServer, KeyRoute, NO_OWNER_PID};
use crate::page_manager::OpCost;
use crate::proto::{self, req, Reader, Response, DEFAULT_READ_LEASE};
use crate::shard::GKEY_BIT;
use crate::wal::Record;

impl DmServer {
    /// Serve every op of [`proto::OPS`] but the one servers push to clients.
    pub(super) fn register_handlers(self: &Rc<Self>) {
        let served = proto::OPS.iter().map(|op| op.0);
        for ty in served.filter(|&ty| ty != req::INVALIDATE) {
            let srv = self.clone();
            self.rpc.register(ty, move |ctx| {
                let srv = srv.clone();
                async move { srv.handle(ty, ctx.src, ctx.payload).await }
            });
        }
    }

    async fn handle(self: Rc<Self>, ty: u8, src: Addr, body: Message) -> Message {
        self.ops_served.set(self.ops_served.get() + 1);
        // Overload control (DESIGN.md §14): refuse before any CPU is
        // charged or span opened — a rejected request must be as cheap
        // as possible. Servers without admission skip this entirely.
        let _admit = match &self.admission {
            None => None,
            Some(_) if proto::admission_exempt(ty) => None,
            Some(a) => match a.try_admit() {
                Some(guard) => Some(guard),
                None => return Response::err(self.epoch.get(), DmError::Busy),
            },
        };
        // Child of the RPC layer's server-handle span when the request was
        // traced; a no-op (one flag read) otherwise.
        let mut op = telemetry::span(SpanKind::DmOp, proto::req_name(ty), self.addr().node.0);
        if let Some(s) = op.as_mut() {
            s.attr("body_bytes", body.len() as u64);
        }
        match self.dispatch(ty, src, &body).await {
            Ok(resp) => resp,
            Err(e) => {
                if let Some(s) = op.as_mut() {
                    s.attr("error", 1);
                }
                Response::err(self.epoch.get(), e)
            }
        }
    }

    /// Install `data` as a new ref — its pages are views into `data`'s
    /// storage, nothing is copied — attributed to the pid `owner`
    /// registered here so lease expiry can reclaim it (an unregistered
    /// owner is refused — an anonymous ref could never be reclaimed; `None`
    /// is a migrated ref that was already unowned at its source). With
    /// `bind = (gkey, version)` the ref is also bound to that global key.
    /// Logs, charges and returns the ref's key. The one body behind
    /// `PUT_REF`, `PUT_REF_AT` and `MIGRATE_IN`.
    pub(super) async fn install_ref(
        &self,
        data: Bytes,
        owner: Option<Addr>,
        bind: Option<(u64, u64)>,
    ) -> DmResult<u64> {
        let len = data.len() as u64;
        let owner = owner.map(|addr| self.pid_of(addr)).transpose()?;
        let (key, cost) = self.pm.borrow_mut().put_ref_bytes(data.clone(), owner)?;
        if let Some((gkey, ver)) = bind {
            self.gmap.borrow_mut().insert(gkey, key);
            // A ref migrating back home clears its own stale tombstone.
            self.moved.borrow_mut().remove(&gkey);
            // Only non-creation versions occupy the table (and the log):
            // a once-migrated gkey keeps its history.
            if ver != 1 {
                self.versions.borrow_mut().insert(gkey, ver);
            }
        }
        self.persist(|| {
            let mut records = vec![Record::PutRef {
                pid: owner.map_or(NO_OWNER_PID, |p| p.0),
                key,
                data: data.to_vec(),
            }];
            if let Some((gkey, ver)) = bind {
                records.push(Record::GBind { gkey, key });
                if ver != 1 {
                    records.push(Record::GVer { gkey, ver });
                }
            }
            records
        })
        .await;
        self.charge(cost, translations_for(len)).await;
        self.mem.touch(len).await;
        self.note_data_time(len);
        Ok(key)
    }

    /// Refuse a read whose reply no message can carry — `len` comes off the
    /// wire — before any buffer is built for it.
    fn check_reply_fits(&self, len: u64) -> DmResult<()> {
        let room = rpclib::wire::max_msg_len(self.rpc.config().mtu)
            - proto::data_response_overhead(self.coherent());
        if len > room as u64 {
            return Err(DmError::OutOfBounds);
        }
        Ok(())
    }

    pub(super) async fn dispatch(&self, ty: u8, src: Addr, body: &Message) -> DmResult<Message> {
        let mut r = Reader::of(body);
        match ty {
            req::REGISTER => {
                let pid = self.register_process(src);
                self.persist(|| {
                    vec![Record::Register {
                        node: src.node.0,
                        port: src.port,
                    }]
                })
                .await;
                self.charge(OpCost::default(), 0).await;
                let ttl = self.config.lease_ttl;
                if let Some(ttl) = ttl {
                    self.leases.borrow_mut().insert(pid.0, simcore::now() + ttl);
                }
                // The reply's trailing fields (`req::REGISTER`): up to the
                // last one this server has to state, 0 for none before it.
                let read_lease = self.config.coherence.map(|c| c.read_lease);
                let fields = [ttl, read_lease.filter(|&l| l != DEFAULT_READ_LEASE)];
                let sent = fields
                    .iter()
                    .rposition(Option::is_some)
                    .map_or(0, |i| i + 1);
                let ns = |f: &Option<Duration>| f.map_or(0, |d| d.as_nanos() as u64);
                let resp = Response::new().pid(pid);
                Ok(self.ok(fields[..sent].iter().fold(resp, |r, f| r.u64(ns(f)))))
            }
            req::RENEW_LEASE => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let ttl = self.config.lease_ttl.ok_or(DmError::Malformed)?;
                match self.leases.borrow_mut().get_mut(&pid.0) {
                    Some(exp) => *exp = simcore::now() + ttl,
                    // Lease already expired and reclaimed: the renewal is
                    // too late, the client must re-register.
                    None => return Err(DmError::InvalidAddress),
                }
                self.charge(OpCost::default(), 0).await;
                Ok(self.ok(Response::new()))
            }
            req::ALLOC => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let len = r.u64()?;
                let va = self.pm.borrow_mut().ralloc(pid, len)?;
                self.persist(|| {
                    vec![Record::Alloc {
                        pid: pid.0,
                        len,
                        va,
                    }]
                })
                .await;
                self.charge(OpCost::default(), 0).await;
                Ok(self.ok(Response::new().u64(va)))
            }
            req::FREE => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let cost = self.pm.borrow_mut().rfree(pid, va)?;
                self.persist(|| vec![Record::Free { pid: pid.0, va }]).await;
                self.charge(cost, cost.refcount_updates).await;
                Ok(self.ok(Response::new()))
            }
            req::CREATE_REF => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let len = r.u64()?;
                let (key, cost) = self.pm.borrow_mut().create_ref(pid, va, len)?;
                self.persist(|| {
                    vec![Record::CreateRef {
                        pid: pid.0,
                        va,
                        len,
                        key,
                    }]
                })
                .await;
                let pages = len.div_ceil(PAGE_SIZE as u64);
                self.charge(cost, pages).await;
                Ok(self.ok_v(&[(key, 1)], Response::new().u64(key)))
            }
            req::MAP_REF => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let raw = r.u64()?;
                let key = match self.route_key(raw)? {
                    KeyRoute::Local(k) => k,
                    KeyRoute::Redirect(resp) => return Ok(resp),
                };
                let (va, len, cost) = self.pm.borrow_mut().map_ref(pid, key)?;
                self.persist(|| {
                    vec![Record::MapRef {
                        pid: pid.0,
                        key,
                        va,
                    }]
                })
                .await;
                self.charge(cost, cost.refcount_updates).await;
                self.grant(raw, src);
                Ok(self.ok_v(
                    &[(raw, self.ref_version(raw))],
                    Response::new().u64(va).u64(len),
                ))
            }
            req::READ => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let len = r.u64()?;
                self.check_reply_fits(len)?;
                let data = self.pm.borrow_mut().read(pid, va, len)?;
                self.charge(OpCost::default(), translations_for(len)).await;
                // Reading pinned pages into the response path occupies DRAM.
                self.mem.touch(len).await;
                self.note_data_time(len);
                Ok(self.ok(Response::new().body(data)))
            }
            req::WRITE => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let data = r.rest_of(body);
                let len = data.len() as u64;
                let cost = self.pm.borrow_mut().write(pid, va, &data)?;
                self.persist(|| {
                    vec![Record::Write {
                        pid: pid.0,
                        va,
                        data: data.to_vec(),
                    }]
                })
                .await;
                self.charge(cost, translations_for(len)).await;
                // Storing into pinned pages occupies DRAM.
                self.mem.touch(len).await;
                self.note_data_time(len);
                Ok(self.ok(Response::new()))
            }
            req::RELEASE_REF => {
                let raw = r.u64()?;
                let key = match self.route_key(raw)? {
                    KeyRoute::Local(k) => k,
                    KeyRoute::Redirect(resp) => return Ok(resp),
                };
                let cost = self.pm.borrow_mut().release_ref(key)?;
                // The ref is gone: invalidate client caches (the releaser's
                // own response carries the new epoch or version).
                let touched = self.refs_died(&[raw], Some(src));
                let bound = raw & GKEY_BIT != 0;
                if bound {
                    self.gmap.borrow_mut().remove(&raw);
                }
                self.persist(|| {
                    let mut records = vec![Record::ReleaseRef { key }];
                    if bound {
                        records.push(Record::GUnbind { gkey: raw });
                    }
                    records
                })
                .await;
                self.charge(cost, cost.refcount_updates).await;
                Ok(self.ok_v(&touched, Response::new()))
            }
            req::PUT_REF => {
                let data = body.clone().into_bytes();
                let key = self.install_ref(data, Some(src), None).await?;
                // The publisher caches the bytes it just published.
                self.grant(key, src);
                Ok(self.ok_v(&[(key, 1)], Response::new().u64(key)))
            }
            req::READ_REF => {
                let raw = r.u64()?;
                let key = match self.route_key(raw)? {
                    KeyRoute::Local(k) => k,
                    KeyRoute::Redirect(resp) => return Ok(resp),
                };
                let off = r.u64()?;
                let len = r.u64()?;
                self.check_reply_fits(len)?;
                // A view of the buffer the ref was published in, whenever
                // the range still lies there whole.
                let data = self.pm.borrow().read_ref(key, off, len)?;
                self.charge(OpCost::default(), translations_for(len)).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                // The reader may now cache these bytes: grant it a read
                // lease and report the key's version alongside the data.
                self.grant(raw, src);
                Ok(self.ok_v(&[(raw, self.ref_version(raw))], Response::new().body(data)))
            }
            req::PUT_REF_AT => {
                // Sharded plane (DESIGN.md §13): publish under a
                // client-minted global key. Placement was the client's
                // choice (the consistent-hash ring); this server only binds.
                let gkey = r.u64()?;
                if gkey & GKEY_BIT == 0 {
                    return Err(DmError::InvalidRef);
                }
                // Gkeys are mint-once: a rebind would orphan pages and
                // break the one-hop redirect contract.
                if self.gmap.borrow().contains_key(&gkey) || self.moved.borrow().contains_key(&gkey)
                {
                    return Err(DmError::Malformed);
                }
                self.install_ref(r.rest_of(body), Some(src), Some((gkey, 1)))
                    .await?;
                self.grant(gkey, src);
                Ok(self.ok_v(&[(gkey, 1)], Response::new()))
            }
            req::MIGRATE => self.migrate_out(&mut r).await,
            req::MIGRATE_IN => self.migrate_in(&mut r, body).await,
            req::BATCH => {
                // Coalesced control ops (DESIGN.md §9): one wire message,
                // one framed response per sub-op. Each sub-op still pays
                // its own page-manager CPU; what the batch saves is the
                // per-message RPC and network overhead. A failing sub-op
                // does not abort the rest — its framed slot carries the
                // error.
                let items = proto::decode_batch(&body.clone().into_bytes())?;
                let mut resps = Vec::with_capacity(items.len());
                for (sub_ty, sub_body, sub_ctx) in items {
                    if sub_ty == req::BATCH {
                        return Err(DmError::Malformed); // no nesting
                    }
                    // A sub-op that rode in with its enqueuer's context is
                    // parented there, reconnecting the deferred op to the
                    // request that caused it (the flush RPC is untraced).
                    let sub_span = sub_ctx.and_then(|c| {
                        telemetry::span_with_parent(
                            SpanKind::DmOp,
                            proto::req_name(sub_ty),
                            self.addr().node.0,
                            c,
                        )
                    });
                    let sub_body = Message::from(sub_body);
                    let resp = match Box::pin(self.dispatch(sub_ty, src, &sub_body)).await {
                        Ok(r) => r,
                        Err(e) => Response::err(self.epoch.get(), e),
                    };
                    drop(sub_span);
                    resps.push(resp);
                }
                Ok(self.ok(proto::batch_response(&resps)))
            }
            _ => Err(DmError::Malformed),
        }
    }
}
