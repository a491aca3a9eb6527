//! Request dispatch: tracing and the one body of every wire op. Each op
//! is [`DmServer::apply`], which validates, mutates the page manager and
//! says what the op costs, then one epilogue shared by all of them
//! (grant, log-before-ack, CPU and DRAM charges). Replay runs the logged
//! requests through the same `apply`. What an op grants and kills goes to
//! the server's [`crate::coherence::Holders`], which finishes every answer.

use std::rc::Rc;

use dmcommon::{DmError, DmResult, PAGE_SIZE};
use rpclib::Message;
use simnet::Addr;
use telemetry::SpanKind;

use super::{translations_for, DmServer};
use crate::page_manager::OpCost;
use crate::proto::{self, req, Reader, Response, Writer};
use crate::wal::Record;

/// What an op leaves to the epilogue once [`DmServer::apply`] has run it.
#[derive(Default)]
pub(super) struct Effects {
    /// Page-manager work, charged on the server's cores.
    cost: OpCost,
    /// Translation lookups charged beside it.
    translations: u64,
    /// Bytes the op moves through the server's DRAM (`None`: no access).
    touched: Option<u64>,
    /// The key the requester may now cache (a fill).
    grant: Option<u64>,
    /// The pid whose lease starts once the op is charged (`REGISTER`).
    lease: Option<u32>,
}

impl Effects {
    fn charge(cost: OpCost, translations: u64) -> Effects {
        Effects {
            cost,
            translations,
            ..Effects::default()
        }
    }

    /// An op that moves `len` bytes through pinned pages: a lookup per
    /// page, and the DRAM access.
    fn data(cost: OpCost, len: u64) -> Effects {
        Effects {
            touched: Some(len),
            ..Effects::charge(cost, translations_for(len))
        }
    }
}

/// Whether an op of type `ty` changes state a crash must not lose: it is
/// logged once applied, and replay applies it again.
fn logged(ty: u8) -> bool {
    !matches!(ty, req::READ | req::READ_REF | req::RENEW_LEASE)
}

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

    /// Finish `resp` for `dst`: its count and, ahead of a success's result,
    /// as many of its pending deaths as one message has room for beside it
    /// (a read of the whole `max_msg_len − 9` room carries none).
    fn answer(&self, dst: Addr, resp: DmResult<Response>) -> Message {
        let room = rpclib::wire::max_msg_len(self.rpc.config().mtu);
        let room = resp.as_ref().map_or(0, |r| room.saturating_sub(r.len()));
        let (count, died) = self.holders.borrow_mut().news(dst, room);
        match resp {
            Ok(resp) => resp.ok(count, &died),
            Err(e) => Response::err(count, e),
        }
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
        if ty != req::BATCH {
            return self.serve(ty, src, body).await;
        }
        // Coalesced releases (DESIGN.md §9): the list is decoded whole
        // before any key is released, and each key then runs, pays and is
        // logged as the `RELEASE_REF` of it would be; what the batch saves
        // is the per-message RPC and network overhead. A key already dead
        // is skipped: a batched release is fire-and-forget.
        for (key, ctx) in proto::decode_releases(body)? {
            // A release that rode in with its enqueuer's context is
            // parented there, reconnecting it to the request that caused
            // it (the flush RPC is untraced).
            let _span = ctx.and_then(|c| {
                telemetry::span_with_parent(
                    SpanKind::DmOp,
                    proto::req_name(req::RELEASE_REF),
                    self.addr().node.0,
                    c,
                )
            });
            let release = Writer::new().u64(key).finish();
            let _ = self.serve(req::RELEASE_REF, src, &release).await;
        }
        Ok(Response::new())
    }

    /// [`Self::apply`] the op, then its one epilogue, in the order every op
    /// awaits: the grant (taken before the first await, so a death while
    /// the op waits is listed), the log record (log-before-ack), the CPU
    /// charge, `REGISTER`'s lease, the DRAM access, and the grant's
    /// confirmation.
    async fn serve(&self, ty: u8, src: Addr, body: &Message) -> DmResult<Response> {
        let (resp, fx) = self.apply(ty, src, body)?;
        if let Some(key) = fx.grant {
            self.holders.borrow_mut().grant(key, src);
        }
        if logged(ty) {
            self.persist(|| Record::Op {
                ty,
                src,
                request: body.clone(),
                response: resp.result(),
            })
            .await;
        }
        self.charge(fx.cost, fx.translations).await;
        if let (Some(pid), Some(ttl)) = (fx.lease, self.config.lease_ttl) {
            self.leases.borrow_mut().insert(pid, simcore::now() + ttl);
        }
        if let Some(len) = fx.touched {
            self.mem.touch(len).await;
            self.note_data_time(len);
        }
        if let Some(key) = fx.grant {
            self.holders.borrow_mut().confirm(key, src);
        }
        Ok(resp)
    }

    /// The synchronous body of the op `ty` that `src` sent: validate it,
    /// mutate the page manager, and return the result with what the op
    /// costs. The one body of live serving and of replay.
    pub(super) fn apply(&self, ty: u8, src: Addr, body: &Message) -> DmResult<(Response, Effects)> {
        let mut r = Reader::of(body);
        Ok(match ty {
            req::REGISTER => {
                let pid = self.pm.borrow_mut().register_process();
                self.owners.borrow_mut().insert(pid.0, src);
                let resp = Response::new().pid(pid);
                // The lease starts once the op is charged; the reply states
                // its TTL only where there is one (`req::REGISTER`).
                let fx = Effects {
                    lease: Some(pid.0),
                    ..Effects::default()
                };
                match self.config.lease_ttl {
                    Some(ttl) => (resp.u64(ttl.as_nanos() as u64), fx),
                    None => (resp, fx),
                }
            }
            req::RENEW_LEASE => {
                let pid = self.check_owner(r.pid()?, src)?;
                let ttl = self.config.lease_ttl.ok_or(DmError::Malformed)?;
                match self.leases.borrow_mut().get_mut(&pid.0) {
                    Some(exp) => *exp = simcore::now() + ttl,
                    // Lease already expired and reclaimed: the renewal is
                    // too late, the client must re-register.
                    None => return Err(DmError::InvalidAddress),
                }
                (Response::new(), Effects::default())
            }
            req::ALLOC => {
                let pid = self.check_owner(r.pid()?, src)?;
                let len = r.u64()?;
                let va = self.pm.borrow_mut().ralloc(pid, len)?;
                (Response::new().u64(va), Effects::default())
            }
            req::FREE => {
                let pid = self.check_owner(r.pid()?, src)?;
                let va = r.u64()?;
                let cost = self.pm.borrow_mut().rfree(pid, va)?;
                (
                    Response::new(),
                    Effects::charge(cost, cost.refcount_updates),
                )
            }
            req::CREATE_REF => {
                let pid = self.check_owner(r.pid()?, src)?;
                let va = r.u64()?;
                let len = r.u64()?;
                let (key, cost) = self.pm.borrow_mut().create_ref(pid, va, len)?;
                let pages = len.div_ceil(PAGE_SIZE as u64);
                (Response::new().u64(key), Effects::charge(cost, pages))
            }
            req::MAP_REF => {
                let pid = self.check_owner(r.pid()?, src)?;
                let key = r.u64()?;
                let (va, len, cost) = self.pm.borrow_mut().map_ref(pid, key)?;
                let fx = Effects::charge(cost, cost.refcount_updates);
                (Response::new().u64(va).u64(len), fx)
            }
            req::READ => {
                let pid = self.check_owner(r.pid()?, src)?;
                let va = r.u64()?;
                let len = r.u64()?;
                self.check_reply_fits(len)?;
                let data = self.pm.borrow_mut().read(pid, va, len)?;
                // Reading pinned pages into the response path occupies DRAM.
                let fx = Effects::data(OpCost::default(), len);
                (Response::new().body(data), fx)
            }
            req::WRITE => {
                let pid = self.check_owner(r.pid()?, src)?;
                let va = r.u64()?;
                let data = r.rest_of(body);
                let len = data.len() as u64;
                let cost = self.pm.borrow_mut().overwrite(pid, va, &data)?;
                // Storing into pinned pages occupies DRAM.
                (Response::new(), Effects::data(cost, len))
            }
            req::RELEASE_REF => {
                let key = r.u64()?;
                let cost = self.pm.borrow_mut().release_ref(key)?;
                // The ref is gone: it is listed to the clients that may
                // cache it, but not to the releaser, which dropped its
                // copy when it asked.
                self.holders.borrow_mut().died(&[key], Some(src));
                (
                    Response::new(),
                    Effects::charge(cost, cost.refcount_updates),
                )
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
                let (key, cost) = self.pm.borrow_mut().put_ref_bytes(data, Some(owner))?;
                // The publisher caches the bytes it just published.
                let fx = Effects {
                    grant: Some(key),
                    ..Effects::data(cost, len)
                };
                (Response::new().u64(key), fx)
            }
            req::READ_REF => {
                let key = r.u64()?;
                let len = self.pm.borrow().ref_len(key)?;
                self.check_reply_fits(len)?;
                // A view of the buffer the ref was published in, whenever
                // it still lies there whole. The client may now cache the
                // ref: these are the live ref's bytes.
                let data = self.pm.borrow().read_ref(key, 0, len)?;
                let fx = Effects {
                    grant: Some(key),
                    ..Effects::data(OpCost::default(), len)
                };
                (Response::new().body(data), fx)
            }
            _ => return Err(DmError::Malformed),
        })
    }
}
