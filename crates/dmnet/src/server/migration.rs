//! Ownership migration (DESIGN.md §13): the `MIGRATE` / `MIGRATE_IN` pair
//! that moves a gkey-bound ref's pages, refcount, lease attribution and
//! version server-to-server, leaving a one-hop redirect tombstone behind.

use dmcommon::{DmError, DmResult};
use rpclib::Message;

use super::{translations_for, DmServer, KeyRoute, NO_OWNER_PID};
use crate::proto::{self, req, Reader, Response, Writer};
use crate::shard::GKEY_BIT;
use crate::wal::Record;

impl DmServer {
    /// Completed migrations: outbound MIGRATE plus inbound MIGRATE_IN.
    pub fn migrations(&self) -> u64 {
        self.migrations.get()
    }

    /// Redirect responses served off tombstones.
    pub fn redirects(&self) -> u64 {
        self.redirects.get()
    }

    /// Gkeys currently homed on this server (observability for tests).
    pub fn gkeys_bound(&self) -> usize {
        self.gmap.borrow().len()
    }

    /// Live redirect tombstones (observability for tests).
    pub fn tombstones(&self) -> usize {
        self.moved.borrow().len()
    }

    /// `MIGRATE` (`[gkey u64][dst node u32][dst port u32]`): transfer the
    /// gkey's pages to `dst` server-to-server, release the local copy and
    /// leave a redirect tombstone for in-flight clients.
    pub(super) async fn migrate_out(&self, r: &mut Reader<'_>) -> DmResult<Message> {
        let gkey = r.u64()?;
        if gkey & GKEY_BIT == 0 {
            return Err(DmError::InvalidRef);
        }
        let dst = r.addr()?;
        if dst == self.addr() {
            return Err(DmError::InvalidAddress);
        }
        let key = match self.route_key(gkey)? {
            KeyRoute::Local(k) => k,
            KeyRoute::Redirect(resp) => return Ok(resp),
        };
        let (len, owner) = {
            let pm = self.pm.borrow();
            (pm.ref_len(key)?, pm.ref_owner(key)?)
        };
        let owner_addr = owner.and_then(|p| self.owners.borrow().get(&p.0).copied());
        // An owned ref whose owner is no longer registered is
        // about to be lease-reclaimed; migrating it would install
        // an unowned orphan at `dst` that no sweeper ever frees.
        if owner.is_some() && owner_addr.is_none() {
            return Err(DmError::InvalidAddress);
        }
        // The transfer carries the pages as they are now — a view of the
        // buffer they lie in, when they lie in one — behind a head written
        // once the read is paid for.
        let data = self.pm.borrow().read_ref(key, 0, len)?;
        // Reading the pages out for the transfer occupies DRAM
        // exactly like READ_REF.
        self.mem.touch(len).await;
        self.note_data_time(len);
        let mut fwd = Writer::new().u64(gkey);
        fwd = match owner_addr {
            Some(a) => fwd.addr(a),
            None => fwd.u32(NO_OWNER_PID).u32(0),
        };
        // Versions travel with ownership: the destination installs
        // the successor version, so clients that cached the ref
        // here can never mistake a pre-migration fill for current
        // once they reach the new home.
        if self.coherent() {
            fwd = fwd.u64(self.ref_version(gkey) + 1);
        }
        // The transfer rides the simulated fabric: migration pays
        // real server-to-server bandwidth and latency. A transport
        // or destination failure leaves the local copy untouched —
        // the gkey stays served here, and any duplicate the
        // destination may have installed is owner-attributed, so
        // lease teardown reclaims it.
        let resp = self
            .rpc
            .call(dst, req::MIGRATE_IN, fwd.body(data).finish())
            .await
            .map_err(|_| DmError::Transport)?;
        proto::split_response(&resp).1.result()?;
        // Destination acked: drop the local copy, leave the
        // forwarding tombstone, and invalidate caches (the ref's
        // home changed under every client that cached it; holders
        // re-read and chase the redirect to the new home).
        let cost = self.pm.borrow_mut().release_ref(key)?;
        self.gmap.borrow_mut().remove(&gkey);
        self.moved.borrow_mut().insert(gkey, dst);
        let touched = self.refs_died(&[gkey], None);
        self.persist(|| {
            vec![
                Record::ReleaseRef { key },
                Record::GMoved {
                    gkey,
                    node: dst.node.0,
                    port: dst.port,
                },
            ]
        })
        .await;
        self.migrations.set(self.migrations.get() + 1);
        self.charge(cost, translations_for(len)).await;
        Ok(self.ok_v(&touched, Response::new()))
    }

    /// `MIGRATE_IN`, the destination half of `MIGRATE`
    /// (`[gkey u64][owner node u32][owner port u32]([version u64])[data]`):
    /// bind the gkey to a fresh local ref holding the transferred bytes.
    /// Ownership is re-attributed to this server's pid for the owning
    /// endpoint; a ref that was already unowned at the source arrives
    /// unowned (reclaimed only by explicit release).
    pub(super) async fn migrate_in(&self, r: &mut Reader<'_>, body: &Message) -> DmResult<Message> {
        let gkey = r.u64()?;
        if gkey & GKEY_BIT == 0 {
            return Err(DmError::InvalidRef);
        }
        let owner = r.addr()?;
        // A coherent source framed the transferred version between
        // the owner fields and the data (sources and destinations
        // always agree on the coherence setting — it is one
        // cluster-wide knob).
        let ver = if self.coherent() { r.u64()? } else { 1 };
        if self.gmap.borrow().contains_key(&gkey) {
            return Err(DmError::Malformed);
        }
        // The owner must be attributable here, or the transfer
        // is refused and the source keeps the ref: accepting it
        // unowned would leave pages no lease sweeper can ever
        // reclaim. (The owner can be unknown here when its
        // lease expired on this server — e.g. renewals lost to
        // a partition — while the source still holds one.)
        let owner = (owner.node.0 != NO_OWNER_PID).then_some(owner);
        self.install_ref(r.rest_of(body), owner, Some((gkey, ver)))
            .await?;
        self.migrations.set(self.migrations.get() + 1);
        Ok(self.ok(Response::new()))
    }
}
