//! Exhaustive check of the death-list protocol (DESIGN.md §9).
//!
//! Drives the two pure halves of `dmnet::coherence` (a server's
//! [`Holders`], each client's [`Count`]) through every interleaving of a
//! small scope: one server, two cached clients, two keys, at most six ops.
//! An op is `read_ref`, `put_ref`, `release_ref`, a server crash and
//! restart, or a lease reclamation. The first three are applied at the
//! server (a fill is granted there), then wait, then answer (a fill is
//! confirmed there); a failed op answers at once, as the server does. An
//! answer reaches its client in any order, or never (a call that timed
//! out); a resent reply carries the first reply's bytes, so one delivery
//! is all a reply can do. Ops in their wait survive a restart, as handlers
//! do, and answer from the new incarnation. The client cache is modelled as
//! the set of keys it holds and applies each verdict as `ClientCache`
//! does. The app passes a key on once its publisher's answer arrives, and
//! never releases a ref while its own read of that ref is outstanding: the
//! releaser is not listed, so such a read's fill would stay cached.
//!
//! The search is breadth first over a set of visited states (each kept as
//! a 128-bit fingerprint), so the first violation found comes with a
//! shortest trace. It checks DESIGN.md §9's guarantee in three parts:
//!
//! 1. A client never keeps a fill of a ref that was dead when the fill's
//!    answer was sent; and once it has applied a count at or past the one
//!    that listed a key to it (or a restart's or its reclamation's count,
//!    which cover every key dead by then), it never holds that key again.
//! 2. Once nothing is in flight and each client makes one more call, every
//!    pending list is empty and no cache holds a dead key.
//! 3. Within an incarnation a client's count never goes back, and every
//!    count after a restart is above every count sent before it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use dmnet::coherence::{Count, Holders, Verdict};
use simnet::{Addr, NodeId};

const CLIENTS: usize = 2;
const KEYS: usize = 2;
const MAX_OPS: u8 = 6;
/// Room for a success's list: every pending key fits.
const ROOM: usize = 1 << 10;

/// Client `c`'s endpoint.
fn addr(c: u8) -> Addr {
    Addr {
        node: NodeId(1 + c as u32),
        port: 100,
    }
}

/// Key slot `k`'s ref key (the server mints keys from 1).
fn key(k: u8) -> u64 {
    k as u64 + 1
}

/// A set of key slots, one bit each.
type Keys = u8;

fn bit(k: u8) -> Keys {
    1 << k
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Op {
    Read(u8),
    Put(u8),
    Release(u8),
}

impl Op {
    fn slot(self) -> u8 {
        match self {
            Op::Read(k) | Op::Put(k) | Op::Release(k) => k,
        }
    }

    /// The key slot this op fills, if it succeeds.
    fn fill(self) -> Option<u8> {
        match self {
            Op::Read(k) | Op::Put(k) => Some(k),
            Op::Release(_) => None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Life {
    Unminted,
    Live { owner: u8 },
    Dead,
}

/// An answer on its way to `client`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Reply {
    client: u8,
    op: Op,
    ok: bool,
    count: u64,
    listed: Keys,
    /// The key slots dead when it was sent.
    dead: Keys,
}

#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct Client {
    count: Count,
    /// The highest count delivered, tracked beside `count`.
    high: u64,
    cache: Keys,
    /// Per key slot, the lowest count that covers its death for this
    /// client (part 1).
    covered: [Option<u64>; KEYS],
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct World {
    holders: Holders,
    life: [Life; KEYS],
    /// Whether the publisher has learned the key, so the app can pass it on.
    learned: [bool; KEYS],
    registered: [bool; CLIENTS],
    clients: [Client; CLIENTS],
    /// Ops applied at the server and waiting to answer, sorted.
    waiting: Vec<(u8, Op)>,
    /// Answers in flight, sorted.
    replies: Vec<Reply>,
    ops: u8,
    /// The highest count sent to each client (part 3).
    sent: [u64; CLIENTS],
    /// Every count sent before the last restart is at most this.
    floor: Option<u64>,
}

/// A step of the scope. A reply is lost, if at all, when it is sent: until
/// then nothing tells a lost reply from a slow one.
#[derive(Clone, Copy, Debug)]
enum Step {
    Call { client: u8, op: Op, lost: bool },
    Crash,
    Reclaim(u8),
    Answer { at: usize, lost: bool },
    Deliver(usize),
}

type Verdicts = Result<(), String>;

impl World {
    fn new() -> World {
        World {
            holders: Holders::default(),
            life: [Life::Unminted; KEYS],
            learned: [false; KEYS],
            registered: [true; CLIENTS],
            clients: Default::default(),
            waiting: Vec::new(),
            replies: Vec::new(),
            ops: 0,
            sent: [0; CLIENTS],
            floor: None,
        }
    }

    fn dead(&self) -> Keys {
        (0..KEYS as u8)
            .filter(|&k| self.life[k as usize] == Life::Dead)
            .fold(0, |s, k| s | bit(k))
    }

    /// Whether `c`'s `op` fails, or is a release of a dead key, and so is
    /// answered at once.
    fn answers_at_once(&self, c: u8, op: Op) -> bool {
        match op {
            Op::Put(_) => !self.registered[c as usize],
            Op::Read(k) | Op::Release(k) => self.life[k as usize] == Life::Dead,
        }
    }

    /// Whether `c` has a read of slot `k` outstanding.
    fn reading(&self, c: u8, k: u8) -> bool {
        let own = |cl: u8, op: Op| cl == c && op == Op::Read(k);
        self.waiting.iter().any(|&(cl, op)| own(cl, op))
            || self.replies.iter().any(|r| own(r.client, r.op))
    }

    fn steps(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut call = |client, op, w: &World| {
            steps.push(Step::Call {
                client,
                op,
                lost: false,
            });
            if w.answers_at_once(client, op) {
                steps.push(Step::Call {
                    client,
                    op,
                    lost: true,
                });
            }
        };
        if self.ops < MAX_OPS {
            let unminted = (0..KEYS as u8).find(|&k| self.life[k as usize] == Life::Unminted);
            for c in 0..CLIENTS as u8 {
                for k in (0..KEYS as u8).filter(|&k| self.learned[k as usize]) {
                    if self.clients[c as usize].cache & bit(k) == 0 {
                        call(c, Op::Read(k), self);
                    }
                    if !self.reading(c, k) {
                        call(c, Op::Release(k), self);
                    }
                }
                if let Some(k) = unminted {
                    call(c, Op::Put(k), self);
                }
            }
        }
        for at in 0..self.waiting.len() {
            steps.push(Step::Answer { at, lost: false });
            steps.push(Step::Answer { at, lost: true });
        }
        steps.extend((0..self.replies.len()).map(Step::Deliver));
        if self.ops < MAX_OPS {
            steps.push(Step::Crash);
            let unreclaimed = (0..CLIENTS as u8).filter(|&c| self.registered[c as usize]);
            steps.extend(unreclaimed.map(Step::Reclaim));
        }
        steps
    }

    /// Take `dst`'s news at the server and check its count (part 3).
    fn news(&mut self, dst: u8, room: usize) -> Result<(u64, Keys), String> {
        let (count, keys) = self.holders.news(addr(dst), room);
        let listed: Keys = keys.iter().fold(0, |s, &key| s | 1 << (key - 1));
        if keys.len() != listed.count_ones() as usize {
            return Err(format!("2: client {dst} was listed {keys:?}"));
        }
        let c = dst as usize;
        if count < self.sent[c] {
            let before = self.sent[c];
            return Err(format!(
                "3: client {dst}'s count went back to {count:#x} from {before:#x}"
            ));
        }
        if let Some(floor) = self.floor.filter(|&f| count <= f) {
            return Err(format!(
                "3: count {count:#x} after a restart is not above {floor:#x}"
            ));
        }
        self.sent[c] = count;
        // A live key is listed too (a revoked or restarted-away grant): it
        // may be filled again, so only a dead one is covered.
        self.cover(dst, listed & self.dead(), count);
        Ok((count, listed))
    }

    fn cover(&mut self, c: u8, keys: Keys, count: u64) {
        let cl = &mut self.clients[c as usize];
        for k in (0..KEYS as u8).filter(|&k| keys & bit(k) != 0) {
            let at = cl.covered[k as usize].get_or_insert(count);
            *at = (*at).min(count);
        }
    }

    /// Send `c` the answer to `op`: a success lists what fits.
    fn answer(&mut self, c: u8, op: Op, ok: bool, lost: bool) -> Verdicts {
        let (count, listed) = self.news(c, if ok { ROOM } else { 0 })?;
        if lost {
            return Ok(());
        }
        let dead = self.dead();
        let reply = Reply {
            client: c,
            op,
            ok,
            count,
            listed,
            dead,
        };
        let at = self.replies.binary_search(&reply).unwrap_or_else(|i| i);
        self.replies.insert(at, reply);
        Ok(())
    }

    fn apply(&mut self, step: Step) -> Verdicts {
        match step {
            Step::Call {
                client: c,
                op,
                lost,
            } => {
                self.ops += 1;
                let (k, src) = (op.slot(), addr(c));
                let life = &mut self.life[k as usize];
                let applied = match (op, *life) {
                    (Op::Read(_), Life::Live { .. }) => true,
                    (Op::Put(_), _) if self.registered[c as usize] => {
                        *life = Life::Live { owner: c };
                        true
                    }
                    (Op::Release(_), Life::Live { .. }) => {
                        *life = Life::Dead;
                        true
                    }
                    _ => false,
                };
                if let Op::Release(_) = op {
                    // The client drops its copy when it asks.
                    self.clients[c as usize].cache &= !bit(k);
                    if applied {
                        self.holders.died(&[key(k)], Some(src));
                    }
                } else if applied {
                    self.holders.grant(key(k), src);
                }
                if applied {
                    let at = self.waiting.binary_search(&(c, op)).unwrap_or_else(|i| i);
                    self.waiting.insert(at, (c, op));
                    Ok(())
                } else {
                    // A failed op answers at once; a batched release of a
                    // dead key is skipped and the batch still succeeds.
                    self.answer(c, op, matches!(op, Op::Release(_)), lost)
                }
            }
            Step::Crash => {
                self.ops += 1;
                self.floor = self.sent.iter().copied().max().max(self.floor);
                self.holders.restart();
                let dead = self.dead();
                for c in 0..CLIENTS as u8 {
                    let base = self.holders.news(addr(c), 0).0;
                    self.cover(c, dead, base);
                }
                Ok(())
            }
            Step::Reclaim(c) => {
                self.ops += 1;
                self.registered[c as usize] = false;
                let mut dying = Vec::new();
                for k in 0..KEYS as u8 {
                    if self.life[k as usize] == (Life::Live { owner: c }) {
                        self.life[k as usize] = Life::Dead;
                        dying.push(key(k));
                    }
                }
                self.holders.died(&dying, None);
                self.holders.forget(addr(c));
                let skipped = self.holders.news(addr(c), 0).0;
                let dead = self.dead();
                self.cover(c, dead, skipped);
                Ok(())
            }
            Step::Answer { at, lost } => {
                let (c, op) = self.waiting.remove(at);
                if let Some(k) = op.fill() {
                    self.holders.confirm(key(k), addr(c));
                }
                self.answer(c, op, true, lost)
            }
            Step::Deliver(i) => {
                let r = self.replies.remove(i);
                if let (Op::Put(k), true) = (r.op, r.ok) {
                    self.learned[k as usize] = true;
                }
                let cl = &mut self.clients[r.client as usize];
                cl.high = cl.high.max(r.count);
                match cl.count.apply(r.count, r.listed.count_ones() as usize) {
                    Verdict::Next => {
                        let fill = r.op.fill().filter(|_| r.ok);
                        if let Some(k) = fill {
                            cl.cache |= bit(k);
                        }
                        cl.cache &= !r.listed;
                        let kept = fill.filter(|&k| cl.cache & bit(k) != 0);
                        if let Some(k) = kept.filter(|&k| r.dead & bit(k) != 0) {
                            return Err(format!(
                                "1: client {} kept key {} filled by an answer sent after it died",
                                r.client,
                                key(k)
                            ));
                        }
                    }
                    Verdict::Gap => cl.cache = 0,
                    Verdict::Late => {}
                }
                Ok(())
            }
        }
    }

    /// Part 1's second half, after every step.
    fn check_covered(&self) -> Verdicts {
        for (c, cl) in self.clients.iter().enumerate() {
            for k in 0..KEYS as u8 {
                let held = cl.cache & bit(k) != 0;
                if let Some(at) = cl.covered[k as usize].filter(|&at| held && cl.high >= at) {
                    return Err(format!(
                        "1: client {c} holds key {} after applying count {:#x}, past {at:#x}, which covers its death",
                        key(k),
                        cl.high
                    ));
                }
            }
        }
        Ok(())
    }

    /// Part 2: with nothing in flight, one more call per client (an empty
    /// `BATCH`: a success that fills nothing) answered in order.
    fn check_quiet(&self) -> Verdicts {
        let mut w = self.clone();
        for c in 0..CLIENTS as u8 {
            w.answer(c, Op::Release(0), true, false)?;
            w.apply(Step::Deliver(0))?;
        }
        w.check_covered()?;
        let dead = w.dead();
        for c in 0..CLIENTS as u8 {
            let left = w.holders.news(addr(c), ROOM).1;
            let stale = w.clients[c as usize].cache & dead;
            if !left.is_empty() || stale != 0 {
                let stale: Vec<u64> = (0..KEYS as u8)
                    .filter(|&k| stale & bit(k) != 0)
                    .map(key)
                    .collect();
                return Err(format!(
                    "2: client {c} has {left:?} pending and caches dead keys {stale:?}"
                ));
            }
        }
        Ok(())
    }

    fn check(&self) -> Verdicts {
        self.check_covered()?;
        if self.waiting.is_empty() && self.replies.is_empty() {
            let quiet = self.check_quiet();
            quiet.map_err(|e| format!("once quiet, after one more call each: {e}"))?;
        }
        Ok(())
    }
}

fn fingerprint(w: &World) -> u128 {
    let half = |salt: u8| {
        let mut h = DefaultHasher::new();
        (salt, w).hash(&mut h);
        h.finish() as u128
    };
    half(0) << 64 | half(1)
}

/// How each state was first reached: its parent's id and the step from
/// there (none for the initial world, id 0). Ids follow the search order.
type Parents = Vec<(u32, Option<Step>)>;

/// The states from the initial world (not included) to state `id`.
fn ancestry(parents: &Parents, mut id: u32) -> Vec<u32> {
    let mut ids = Vec::new();
    while let (parent, Some(_)) = parents[id as usize] {
        ids.push(id);
        id = parent;
    }
    ids.reverse();
    ids
}

/// The step that first reached state `id`.
fn step_to(parents: &Parents, id: u32) -> Step {
    parents[id as usize].1.expect("not the initial world")
}

/// Rebuilds states from their steps, so a level of the search is a range
/// of ids, not of worlds. It keeps the worlds on the path to the last
/// state it rebuilt: the next one in search order shares most of it.
struct Replay {
    ids: Vec<u32>,
    worlds: Vec<World>,
}

impl Replay {
    fn world(&mut self, parents: &Parents, id: u32) -> &World {
        let chain = ancestry(parents, id);
        let keep = self
            .ids
            .iter()
            .zip(&chain)
            .take_while(|(a, b)| a == b)
            .count();
        self.ids.truncate(keep);
        self.worlds.truncate(keep + 1);
        for &at in &chain[keep..] {
            let mut w = self.worlds[self.worlds.len() - 1].clone();
            w.apply(step_to(parents, at))
                .expect("a step that passed once");
            self.ids.push(at);
            self.worlds.push(w);
        }
        &self.worlds[self.worlds.len() - 1]
    }
}

/// Replay `steps` from the initial world, one line each.
fn describe(steps: &[Step]) -> String {
    let mut w = World::new();
    let mut out = String::new();
    for (i, &step) in steps.iter().enumerate() {
        let what = match step {
            Step::Answer { at, lost } => format!("answer {:?}, lost: {lost}", w.waiting[at]),
            Step::Deliver(j) => format!("deliver {:?}", w.replies[j]),
            other => format!("{other:?}"),
        };
        let verdict = w.apply(step).and_then(|()| w.check());
        let _ = writeln!(out, "{:>3}. {what}", i + 1);
        if let Err(e) = verdict {
            let _ = writeln!(out, "     VIOLATION: {e}");
        }
    }
    out
}

/// Breadth-first search of the whole scope: the number of states, or a
/// shortest trace to the first violation.
fn explore() -> Result<usize, String> {
    let start = World::new();
    let mut seen = HashSet::from([fingerprint(&start)]);
    let mut parents: Parents = vec![(0, None)];
    let mut replay = Replay {
        ids: Vec::new(),
        worlds: vec![start],
    };
    let mut level = 0..1;
    while !level.is_empty() {
        for id in level.clone() {
            let w = replay.world(&parents, id);
            for step in w.steps() {
                let mut s = w.clone();
                if s.apply(step).and_then(|()| s.check()).is_err() {
                    let path = ancestry(&parents, id).into_iter();
                    let steps: Vec<Step> = path.map(|at| step_to(&parents, at)).collect();
                    return Err(describe(&[&steps[..], &[step]].concat()));
                }
                if seen.insert(fingerprint(&s)) {
                    parents.push((id, Some(step)));
                }
            }
        }
        level = level.end..parents.len() as u32;
    }
    Ok(seen.len())
}

#[test]
fn every_interleaving_of_the_small_scope_keeps_the_death_list_guarantee() {
    let started = std::time::Instant::now();
    match explore() {
        Ok(states) => println!(
            "explored {states} states ({CLIENTS} clients, {KEYS} keys, {MAX_OPS} ops) in {:.1?}",
            started.elapsed()
        ),
        Err(trace) => panic!("shortest counterexample:\n{trace}"),
    }
}

#[test]
fn keys_past_an_answers_room_wait_in_order_for_the_next_one() {
    let (mut h, dst) = (Holders::default(), addr(0));
    (1..=5).for_each(|key| h.grant(key, dst));
    h.died(&[1, 2, 3, 4, 5], None);
    // Room for the 4-byte list length and two keys.
    assert_eq!(h.news(dst, 4 + 2 * 8), (2, vec![1, 2]));
    assert_eq!(h.listed(), 2);
    assert_eq!(h.news(dst, 0), (2, vec![]));
    assert_eq!(h.news(dst, 1 << 20), (5, vec![3, 4, 5]));
    assert_eq!(h.listed(), 5);
}

#[test]
fn a_count_is_the_next_a_late_one_or_past_a_gap() {
    let mut c = Count::default();
    assert_eq!(c.apply(0, 0), Verdict::Next, "nothing new is in order");
    assert_eq!(c.apply(2, 2), Verdict::Next);
    assert_eq!(c.apply(1, 0), Verdict::Late);
    assert_eq!(c.apply(2, 1), Verdict::Late, "at the applied count");
    assert_eq!(c.apply(2, 0), Verdict::Next, "a late count never lowers it");
    assert_eq!(c.apply(4, 1), Verdict::Gap, "one listing went missing");
    assert_eq!(c.apply(5, 1), Verdict::Next);
    // A restart's counts start above every count sent before it.
    assert_eq!(c.apply(1 << 32, 0), Verdict::Gap);
    assert_eq!(c.apply(5, 0), Verdict::Late);
    assert_eq!(c.apply(u64::MAX, 2), Verdict::Gap, "no overflow");
}
