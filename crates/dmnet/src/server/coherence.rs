//! Coherence (DESIGN.md §9): how a ref's death reaches the client caches
//! that hold it. A fill grants its client the key; when the ref dies, the
//! key is appended to each other holder's pending list, and every response
//! to a client carries its running count of listed keys plus as many
//! pending keys as the message has room for ([`DmServer::answer`]). The op
//! bodies only say who may cache what ([`DmServer::grant`]) and what died
//! ([`DmServer::refs_died`]).

use std::collections::{BTreeMap, HashMap, VecDeque};

use dmcommon::DmResult;
use rpclib::Message;
use simnet::Addr;

use super::DmServer;
use crate::cache::CACHE_PAGES;
use crate::proto::Response;

/// What one client endpoint may cache from this server and which deaths it
/// has not been told of yet. Volatile: a restart starts every holder over.
#[derive(Default)]
pub(super) struct Holder {
    /// Keys listed to this holder in this incarnation.
    listed: u64,
    /// Dead (or revoked) keys not listed yet, oldest first.
    pending: VecDeque<u64>,
    /// Granted keys by grant order, oldest first.
    grants: BTreeMap<u64, u64>,
    /// Each granted key's place in `grants`.
    order_of: HashMap<u64, u64>,
    /// The place the next grant takes.
    next: u64,
}

impl DmServer {
    /// Dead or revoked keys listed in responses so far.
    pub fn invalidations_pushed(&self) -> u64 {
        self.listed_total.get()
    }

    /// Restarts so far: after each, every holder's next response makes it
    /// drop what it cached from this server.
    pub fn coherence_broadcasts(&self) -> u64 {
        self.incarnation.get()
    }

    /// Let `src` cache `key`'s bytes. A holder is never granted more than
    /// a client can cache from one server: past [`CACHE_PAGES`] grants, its
    /// oldest is revoked by listing the key like a death.
    pub(super) fn grant(&self, key: u64, src: Addr) {
        let mut holders = self.holders.borrow_mut();
        let h = holders.entry(src).or_default();
        if let Some(old) = h.order_of.insert(key, h.next) {
            h.grants.remove(&old);
        }
        h.grants.insert(h.next, key);
        h.next += 1;
        if h.grants.len() > CACHE_PAGES {
            let (_, oldest) = h.grants.pop_first().expect("over the bound");
            h.order_of.remove(&oldest);
            h.pending.push_back(oldest);
        }
    }

    /// Finish a fill of `key` for `src` granted before the op's awaits. If
    /// the grant is gone by now (the ref died, or the grant was revoked,
    /// while the op waited), that listing may already have reached `src`
    /// in the answer to a concurrent op, ahead of this fill: the key is
    /// listed again, first, so this answer drops the fill (or, with no
    /// room, the next one drops the entry).
    pub(super) fn confirm_grant(&self, key: u64, src: Addr) {
        let mut holders = self.holders.borrow_mut();
        let h = holders.entry(src).or_default();
        if !h.order_of.contains_key(&key) {
            h.pending.retain(|&k| k != key);
            h.pending.push_front(key);
        }
    }

    /// The endpoint `addr` lost its process here (its lease was
    /// reclaimed): drop its grants and pending keys, and skip a count, so
    /// that its next response, if it is still alive, drops every entry it
    /// cached from this server. What remains is its count.
    pub(super) fn forget_holder(&self, addr: Addr) {
        if let Some(h) = self.holders.borrow_mut().get_mut(&addr) {
            let listed = h.listed + 1;
            *h = Holder::default();
            h.listed = listed;
        }
    }

    /// The refs `keys` just died (explicit release or lease reclamation —
    /// live or replayed): drop their grants and list them to every holder
    /// but `exclude`, the releaser, which dropped its own copy when it
    /// asked. During replay no holder is known and nothing is listed.
    pub(super) fn refs_died(&self, keys: &[u64], exclude: Option<Addr>) {
        for (&addr, h) in self.holders.borrow_mut().iter_mut() {
            for key in keys {
                let Some(order) = h.order_of.remove(key) else {
                    continue;
                };
                h.grants.remove(&order);
                if Some(addr) != exclude {
                    h.pending.push_back(*key);
                }
            }
        }
    }

    /// `dst`'s running count and the pending keys that fit in `room`
    /// bytes, which leave its pending list. The count's high 32 bits are
    /// this server's incarnation, so no count sent after a restart equals
    /// one sent before it.
    pub(super) fn news(&self, dst: Addr, room: usize) -> (u64, Vec<u64>) {
        let base = self.incarnation.get() << 32;
        let mut holders = self.holders.borrow_mut();
        let Some(h) = holders.get_mut(&dst) else {
            return (base, Vec::new());
        };
        let n = h.pending.len().min(room.saturating_sub(4) / 8);
        let died: Vec<u64> = h.pending.drain(..n).collect();
        h.listed += n as u64;
        self.listed_total.set(self.listed_total.get() + n as u64);
        (base + h.listed, died)
    }

    /// Finish `resp` for `dst`: its count and, ahead of a success's result,
    /// as many of its pending deaths as one message has room for beside it
    /// (a read of the whole `max_msg_len − 9` room carries none).
    pub(super) fn answer(&self, dst: Addr, resp: DmResult<Response>) -> Message {
        match resp {
            Ok(resp) => {
                let room = rpclib::wire::max_msg_len(self.rpc.config().mtu);
                let (count, died) = self.news(dst, room.saturating_sub(resp.len()));
                resp.ok(count, &died)
            }
            Err(e) => Response::err(self.news(dst, 0).0, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::e2e_tests::rig;
    use crate::{start_pool, DmServerConfig};

    #[test]
    fn keys_past_an_answers_room_wait_in_order_for_the_next_one() {
        let r = rig(1, 0);
        let (net, params, dm0) = (r.net.clone(), r.params.clone(), r.dm_nodes[0]);
        r.sim.block_on(async move {
            let srv = start_pool(&net, &[dm0], &params, DmServerConfig::default()).remove(0);
            // Any endpoint will do as the holder.
            let dst = srv.addr();
            srv.holders.borrow_mut().entry(dst).or_default().pending = (1..=5).collect();
            // Room for the 4-byte list length and two keys.
            assert_eq!(srv.news(dst, 4 + 2 * 8), (2, vec![1, 2]));
            assert_eq!(srv.invalidations_pushed(), 2);
            assert_eq!(srv.holders.borrow()[&dst].pending, [3, 4, 5]);
            assert_eq!(srv.news(dst, 0), (2, vec![]));
            assert_eq!(srv.news(dst, 1 << 20), (5, vec![3, 4, 5]));
            assert_eq!(srv.invalidations_pushed(), 5);
        });
    }
}
