//! Coherence (DESIGN.md §9): how a ref's death reaches the client caches
//! that may hold it, as two pure state machines. The server half,
//! [`Holders`], grants each client endpoint the keys it fills, lists a key
//! to every holder of it once the ref dies, and finishes each answer with
//! the client's running count and as many pending keys as fit. The client
//! half, [`Count`], judges each answer's count against the highest one it
//! applied. Neither knows the simulator or the wire: the DM server keeps
//! one `Holders`, the client cache one `Count` per server, and
//! `tests/coherence_explorer.rs` drives both through every interleaving of
//! a small scope.

use std::collections::{BTreeMap, VecDeque};

use simnet::Addr;

use crate::cache::CACHE_PAGES;

/// What one client endpoint may cache and which deaths it was not told.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct Holder {
    /// Keys listed to this holder in this incarnation.
    listed: u64,
    /// Dead (or revoked) keys not listed yet, oldest first.
    pending: VecDeque<u64>,
    /// Granted keys by grant order (oldest first), each one's place in
    /// it, and the place the next grant takes.
    grants: BTreeMap<u64, u64>,
    order_of: BTreeMap<u64, u64>,
    next: u64,
}

/// The server half: the incarnation, a volatile holder record per client
/// endpoint, and the keys listed so far.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Holders {
    incarnation: u64,
    of: BTreeMap<Addr, Holder>,
    listed: u64,
}

impl Holders {
    /// Restarts counted so far: the high half of every count sent.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Dead or revoked keys listed in answers so far, over all restarts.
    pub fn listed(&self) -> u64 {
        self.listed
    }

    /// Let `src` cache `key`'s bytes: taken when a fill is read or minted,
    /// before the op waits, so a death while it waits is listed. A holder
    /// is never granted more than a client can cache from one server: past
    /// `CACHE_PAGES` grants, its oldest is revoked by listing the key
    /// like a death.
    pub fn grant(&mut self, key: u64, src: Addr) {
        let h = self.of.entry(src).or_default();
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

    /// Finish a fill of `key` for `src` just before its answer. If the
    /// grant is gone by now (the ref died, or the grant was revoked or
    /// restarted away, while the op waited), that listing may already have
    /// reached `src` in the answer to a concurrent op, ahead of this fill:
    /// the key is listed again, first, so this answer drops the fill (or,
    /// with no room, the next one drops the entry).
    pub fn confirm(&mut self, key: u64, src: Addr) {
        let h = self.of.entry(src).or_default();
        if !h.order_of.contains_key(&key) {
            h.pending.retain(|&k| k != key);
            h.pending.push_front(key);
        }
    }

    /// The refs `keys` died (explicit release or lease reclamation, live
    /// or replayed): drop their grants and list them to every holder but
    /// `exclude`, the releaser, which dropped its own copy when it asked.
    pub fn died(&mut self, keys: &[u64], exclude: Option<Addr>) {
        for (&addr, h) in self.of.iter_mut() {
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

    /// The endpoint lost its process here (its lease was reclaimed): drop
    /// its grants and pending keys, and skip a count, so that its next
    /// answer, if it is still alive, drops every entry it cached from this
    /// server.
    pub fn forget(&mut self, endpoint: Addr) {
        if let Some(h) = self.of.get_mut(&endpoint) {
            *h = Holder {
                listed: h.listed + 1,
                ..Holder::default()
            };
        }
    }

    /// `dst`'s running count and the pending keys that fit in `room` bytes
    /// (a 4-byte length, then 8 bytes a key), which leave its pending list.
    /// The count's high 32 bits are the incarnation, so no count sent after
    /// a restart equals one sent before it.
    pub fn news(&mut self, dst: Addr, room: usize) -> (u64, Vec<u64>) {
        let base = self.incarnation << 32;
        let Some(h) = self.of.get_mut(&dst) else {
            return (base, Vec::new());
        };
        let n = h.pending.len().min(room.saturating_sub(4) / 8);
        let died: Vec<u64> = h.pending.drain(..n).collect();
        h.listed += n as u64;
        self.listed += n as u64;
        (base + h.listed, died)
    }

    /// Count one more restart and start every holder over.
    pub fn restart(&mut self) {
        self.restart_at(self.incarnation + 1);
    }

    /// Start every holder over at `incarnation`: recovery at 0 before its
    /// replay, and at a replayed checkpoint's.
    pub fn restart_at(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
        self.of.clear();
    }
}

/// What an answer's count says, against the highest count applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The applied count plus the keys it lists: its fill is kept, then
    /// those keys are dropped (so a fill its own answer lists never serves).
    Next,
    /// At or below the applied count, overtaken by a later answer: all it
    /// lists was dropped already, and its fill may predate a death applied
    /// since, so it changes nothing.
    Late,
    /// Past a listing this client never saw (a lost answer, a restarted
    /// server, a reclaimed lease): every entry from that server is dropped.
    Gap,
}

/// The client half for one server: the highest count applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Count(u64);

impl Count {
    /// Judge an answer that carries `count` and lists `listed` keys, and
    /// raise the applied count to it: counts never run backwards.
    pub fn apply(&mut self, count: u64, listed: usize) -> Verdict {
        let applied = self.0;
        self.0 = applied.max(count);
        if applied.checked_add(listed as u64) == Some(count) {
            Verdict::Next
        } else if count > applied {
            Verdict::Gap
        } else {
            Verdict::Late
        }
    }
}
