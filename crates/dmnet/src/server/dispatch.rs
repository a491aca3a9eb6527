//! Request dispatch: tracing and the one body of every wire
//! op. Each arm validates, mutates the page manager, persists
//! (log-before-ack), charges CPU/memory and returns its result; which
//! client may cache what and which refs died it tells the coherence plane
//! ([`DmServer::grant`], [`DmServer::refs_died`]), which finishes every
//! answer ([`DmServer::answer`]).

use std::rc::Rc;

use dmcommon::{DmError, DmResult, PAGE_SIZE};
use rpclib::Message;
use simnet::Addr;
use telemetry::SpanKind;

use super::{translations_for, DmServer};
use crate::page_manager::OpCost;
use crate::proto::{self, req, Reader, Response};
use crate::wal::Record;

impl DmServer {
    /// Serve every op of [`proto::OPS`].
    pub(super) fn register_handlers(self: &Rc<Self>) {
        for ty in proto::OPS.iter().map(|op| op.0) {
            let srv = self.clone();
            self.rpc.register(ty, move |ctx| {
                let srv = srv.clone();
                async move { srv.handle(ty, ctx.src, ctx.payload).await }
            });
        }
    }

    async fn handle(self: Rc<Self>, ty: u8, src: Addr, body: Message) -> Message {
        self.ops_served.set(self.ops_served.get() + 1);
        // Child of the RPC layer's server-handle span when the request was
        // traced; a no-op (one flag read) otherwise.
        let mut op = telemetry::span(SpanKind::DmOp, proto::req_name(ty), self.addr().node.0);
        if let Some(s) = op.as_mut() {
            s.attr("body_bytes", body.len() as u64);
        }
        let resp = self.dispatch(ty, src, &body).await;
        if let (Err(_), Some(s)) = (&resp, op.as_mut()) {
            s.attr("error", 1);
        }
        // A long reply (a `READ` / `READ_REF` payload) yields the NIC to
        // the refs and control replies behind it.
        self.answer(src, resp).bulk()
    }

    /// Refuse a read whose reply no message can carry before any buffer is
    /// built for it.
    fn check_reply_fits(&self, len: u64) -> DmResult<()> {
        let room = rpclib::wire::max_msg_len(self.rpc.config().mtu) - proto::RESPONSE_HEAD;
        if len > room as u64 {
            return Err(DmError::OutOfBounds);
        }
        Ok(())
    }

    async fn dispatch(&self, ty: u8, src: Addr, body: &Message) -> DmResult<Response> {
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
                let resp = Response::new().pid(pid);
                // The reply states the lease TTL only where there is one
                // (`req::REGISTER`).
                let Some(ttl) = self.config.lease_ttl else {
                    return Ok(resp);
                };
                self.leases.borrow_mut().insert(pid.0, simcore::now() + ttl);
                Ok(resp.u64(ttl.as_nanos() as u64))
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
                Ok(Response::new())
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
                Ok(Response::new().u64(va))
            }
            req::FREE => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let cost = self.pm.borrow_mut().rfree(pid, va)?;
                self.persist(|| vec![Record::Free { pid: pid.0, va }]).await;
                self.charge(cost, cost.refcount_updates).await;
                Ok(Response::new())
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
                Ok(Response::new().u64(key))
            }
            req::MAP_REF => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let key = r.u64()?;
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
                Ok(Response::new().u64(va).u64(len))
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
                Ok(Response::new().body(data))
            }
            req::WRITE => {
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let data = r.rest_of(body);
                let len = data.len() as u64;
                let cost = self.pm.borrow_mut().overwrite(pid, va, &data)?;
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
                Ok(Response::new())
            }
            req::RELEASE_REF => {
                self.release(r.u64()?, src).await?;
                Ok(Response::new())
            }
            req::PUT_REF => {
                // The new ref's pages are views into the request's storage:
                // nothing is copied. It is attributed to the pid `src`
                // registered here so lease expiry can reclaim it (an
                // unregistered publisher is refused — an anonymous ref could
                // never be reclaimed).
                let data = body.clone().into_bytes();
                let len = data.len() as u64;
                let owner = self.pid_of(src)?;
                let (key, cost) = self
                    .pm
                    .borrow_mut()
                    .put_ref_bytes(data.clone(), Some(owner))?;
                // The publisher caches the bytes it just published. Granted
                // before any await: a death while this op waits is listed.
                self.grant(key, src);
                self.persist(|| {
                    vec![Record::PutRef {
                        pid: owner.0,
                        key,
                        data: data.to_vec(),
                    }]
                })
                .await;
                self.charge(cost, translations_for(len)).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                self.confirm_grant(key, src);
                Ok(Response::new().u64(key))
            }
            req::READ_REF => {
                let key = r.u64()?;
                let len = self.pm.borrow().ref_len(key)?;
                self.check_reply_fits(len)?;
                // A view of the buffer the ref was published in, whenever
                // it still lies there whole.
                let data = self.pm.borrow().read_ref(key, 0, len)?;
                // The client may now cache the ref. Granted while these are
                // the live ref's bytes: a death while this op waits is
                // listed.
                self.grant(key, src);
                self.charge(OpCost::default(), translations_for(len)).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                self.confirm_grant(key, src);
                Ok(Response::new().body(data))
            }
            req::BATCH => {
                // Coalesced releases (DESIGN.md §9): the list is decoded
                // whole before any key is released, and each key then pays
                // what a `RELEASE_REF` of it would; what the batch saves is
                // the per-message RPC and network overhead. A key already
                // dead is skipped: a batched release is fire-and-forget.
                for (key, ctx) in proto::decode_releases(body)? {
                    // A release that rode in with its enqueuer's context is
                    // parented there, reconnecting it to the request that
                    // caused it (the flush RPC is untraced).
                    let _span = ctx.and_then(|c| {
                        telemetry::span_with_parent(
                            SpanKind::DmOp,
                            proto::req_name(req::RELEASE_REF),
                            self.addr().node.0,
                            c,
                        )
                    });
                    let _ = self.release(key, src).await;
                }
                Ok(Response::new())
            }
            _ => Err(DmError::Malformed),
        }
    }

    /// Release the ref `key` for `src`, the body of `RELEASE_REF` and of
    /// each key of a `BATCH`. The ref is gone: it is listed to the clients
    /// that may cache it, but not to the releaser, which dropped its copy
    /// when it asked.
    async fn release(&self, key: u64, src: Addr) -> DmResult<()> {
        let cost = self.pm.borrow_mut().release_ref(key)?;
        self.refs_died(&[key], Some(src));
        self.persist(|| vec![Record::ReleaseRef { key }]).await;
        self.charge(cost, cost.refcount_updates).await;
        Ok(())
    }
}
