//! Exhaustive check of the session-slot rules (`rpclib::slots`).
//!
//! Drives the two real halves of `rpclib::slots`, a server's [`Served`]
//! entries and a client's [`Call`]s, through every interleaving of a small
//! scope: one client, one server, two slots, four calls whose requests are
//! 2, 3, 1 and 2 packets long (each answered in one packet, or two for a
//! one-packet request), at most one retransmission a call. Packets are
//! real fragments of real messages.
//!
//! Every message sent stays in flight for good: any nonempty set of its
//! packets may be handed over together, any number of times, at any point
//! (whole when the set is all of it, as the fabric hands a message over,
//! or as a packet list, as it hands over the survivors of a loss). That is
//! every loss, duplication and reordering, and every delay past any number
//! of RTOs: a packet never handed over again was lost. A retransmission
//! therefore adds nothing to the wire; an RTO only counts toward the
//! call's timeout. The client may crash once: its calls are abandoned, and
//! it keeps issuing with its sequence numbers running on, as a restarted
//! `Rpc` keeps them. A third node may forge one one-packet response naming
//! a call in flight. Handlers answer in any order, and the server may
//! reclaim a receiving entry at any moment (time is not modelled: a caller
//! may always have been that slow).
//!
//! The search is breadth first over a set of visited states (each kept as
//! a 128-bit fingerprint), so the first violation found comes with a
//! shortest trace. It checks four properties:
//!
//! 1. A handler runs at most once per request.
//! 2. A hand-over of a request draws at most one resend, always of that
//!    request's own reply, and exactly one when that reply was sent and no
//!    later request on the slot reached the server.
//! 3. A call ends in its own reply or a timeout, never another request's
//!    reply or a forged one.
//! 4. Once no handler runs and no call waits, and whatever is still in
//!    flight is lost, nothing is held past the reclaim age but one reply or
//!    one `req_num` per slot: no fragments, no running handler.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use bytes::Bytes;
use rpclib::slots::{Arrived, Call, Served};
use rpclib::wire::{self, Header, Kind};
use rpclib::{Message, RpcConfig, ServedSlots};
use simcore::{FastHasher, SimRng, SimTime};
use simnet::{Addr, NodeId};

const SLOTS: usize = 2;
/// Request packets of each call, in the order they are issued.
const SIZES: [u8; 4] = [2, 3, 1, 2];
const CALLS: usize = SIZES.len();
const MTU: usize = 4;

const CLIENT: u32 = 0;
const SERVER: u32 = 1;
const FORGER: u32 = 2;

fn addr(node: u32) -> Addr {
    Addr {
        node: NodeId(node),
        port: 1,
    }
}

fn config() -> RpcConfig {
    RpcConfig {
        max_retries: 1,
        ..RpcConfig::default()
    }
}

/// A message's fragments, as its receiver parses them.
type Frags = Vec<(Header, Message)>;

/// A message on the wire: call `k`'s request, the server's reply to it, or
/// the forger's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Msg {
    Request(usize),
    Reply(usize),
    Forged(usize),
}

impl Msg {
    /// Its bit in [`World::wire`].
    fn bit(self) -> u16 {
        let (kind, k) = match self {
            Msg::Request(k) => (0, k),
            Msg::Reply(k) => (1, k),
            Msg::Forged(k) => (2, k),
        };
        1 << (kind * CALLS + k)
    }

    fn all() -> impl Iterator<Item = Msg> {
        let of = |k| [Msg::Request(k), Msg::Reply(k), Msg::Forged(k)];
        (0..CALLS).flat_map(of)
    }

    fn call(self) -> usize {
        match self {
            Msg::Request(k) | Msg::Reply(k) | Msg::Forged(k) => k,
        }
    }

    fn from(self) -> u32 {
        match self {
            Msg::Request(_) => CLIENT,
            Msg::Reply(_) => SERVER,
            Msg::Forged(_) => FORGER,
        }
    }

    /// Its packets: a reply is two to a one-packet request, else one.
    fn pkts(self) -> usize {
        match self {
            Msg::Request(k) => SIZES[k] as usize,
            Msg::Reply(k) if SIZES[k] == 1 => 2,
            Msg::Reply(_) | Msg::Forged(_) => 1,
        }
    }

    /// Its bytes: every message distinct.
    fn content(self) -> Message {
        let tag = [0x00, 0x40, 0x80][self.from() as usize] ^ self.call() as u8;
        Bytes::from(vec![tag; self.pkts() * MTU - 1]).into()
    }

    /// Its fragments, decoded from its real packets.
    fn fragments(self, req_num: u64) -> Frags {
        thread_local! {
            static FRAGS: RefCell<HashMap<(u16, u64), Frags>> =
                RefCell::default();
        }
        FRAGS.with(|f| {
            let mut f = f.borrow_mut();
            let frags = f.entry((self.bit(), req_num)).or_insert_with(|| {
                let kind = match self {
                    Msg::Request(_) => Kind::Request,
                    _ => Kind::Response,
                };
                let pkts = wire::fragment(kind, 1, req_num, self.content(), MTU, None);
                assert_eq!(pkts.len(), self.pkts());
                let decode = |p: simnet::Payload| Header::decode_split(&p.head, &p.body);
                pkts.into_iter()
                    .map(|p| decode(p).expect("parses"))
                    .collect()
            });
            frags.clone()
        })
    }
}

/// Call `k` is bit `k`.
fn bit(k: usize) -> u8 {
    1 << k
}

#[derive(Clone, Debug, Hash)]
struct World {
    /// Calls issued so far; call `k` went out as `req_nums[k]`.
    calls: usize,
    req_nums: [u64; CALLS],
    /// The call waiting on each slot.
    live: [Option<(usize, Call)>; SLOTS],
    crashed: bool,
    forged: bool,
    /// The server's entry per slot, keeping replies as call numbers.
    served: [Option<Served<usize>>; SLOTS],
    /// Calls whose handler runs.
    running: u8,
    /// Calls whose handler ran (property 1).
    ran: u8,
    /// Calls whose reply the server sent (property 2).
    answered: u8,
    /// Per slot, the highest request handed over to the server.
    reached: [u64; SLOTS],
    /// Every message sent, one bit each ([`Msg::bit`]).
    wire: u16,
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Call(usize),
    Rto(usize),
    Crash,
    Forge(usize),
    Answer(usize),
    Reclaim(usize),
    /// The packets of `mask` of message `msg`, whole or as a list.
    HandOver {
        msg: Msg,
        mask: u8,
        whole: bool,
    },
}

type Verdict = Result<(), String>;

impl World {
    fn new() -> World {
        World {
            calls: 0,
            req_nums: [0; CALLS],
            live: Default::default(),
            crashed: false,
            forged: false,
            served: Default::default(),
            running: 0,
            ran: 0,
            answered: 0,
            reached: [0; SLOTS],
            wire: 0,
        }
    }

    fn steps(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        for slot in 0..SLOTS {
            match &self.live[slot] {
                None if self.calls < CALLS => steps.push(Step::Call(slot)),
                None => {}
                Some(_) => {
                    steps.push(Step::Rto(slot));
                    if !self.forged {
                        steps.push(Step::Forge(slot));
                    }
                }
            }
            if self.served[slot]
                .as_ref()
                .is_some_and(|e| e.heard().is_some())
            {
                steps.push(Step::Reclaim(slot));
            }
        }
        if !self.crashed && self.live.iter().any(Option::is_some) {
            steps.push(Step::Crash);
        }
        let running = (0..CALLS).filter(|&k| self.running & bit(k) != 0);
        steps.extend(running.map(Step::Answer));
        // A reply no call waits for is ignored whole: handing it over
        // changes nothing.
        let heard = |m: &Msg| matches!(m, Msg::Request(_)) || self.waits(m.call());
        for msg in Msg::all().filter(|m| self.wire & m.bit() != 0 && heard(m)) {
            let full = (1u8 << msg.pkts()) - 1;
            for mask in 1..=full {
                steps.push(Step::HandOver {
                    msg,
                    mask,
                    whole: false,
                });
            }
            steps.push(Step::HandOver {
                msg,
                mask: full,
                whole: true,
            });
        }
        steps
    }

    fn apply(&mut self, step: Step) -> Verdict {
        thread_local!(static RNG: SimRng = SimRng::new(0));
        let (c, rng) = (config(), RNG.with(SimRng::clone));
        match step {
            Step::Call(slot) => {
                let k = self.calls;
                self.calls += 1;
                self.req_nums[k] = wire::req_num(k as u64 + 1, slot as u32);
                let pkts = SIZES[k] as usize;
                let (call, _) = Call::send(addr(SERVER), pkts, SimTime::ZERO, &c, &rng);
                self.live[slot] = Some((k, call));
                self.wire |= Msg::Request(k).bit();
            }
            Step::Rto(slot) => {
                let (_, call) = self.live[slot].as_mut().expect("a call");
                if call.rto(SimTime::ZERO, &c, &rng).is_err() {
                    self.live[slot] = None;
                }
            }
            Step::Crash => {
                self.crashed = true;
                self.live = Default::default();
            }
            Step::Forge(slot) => {
                self.forged = true;
                let (k, _) = self.live[slot].as_ref().expect("a call");
                self.wire |= Msg::Forged(*k).bit();
            }
            Step::Answer(k) => {
                self.running &= !bit(k);
                let req_num = self.req_nums[k];
                let entry = self.served[wire::slot_of(req_num) as usize].as_mut();
                if let Some(&reply) = entry.and_then(|e| e.answer(req_num, || k)) {
                    if reply != k {
                        return Err(format!("the handler of call {k} kept call {reply}'s reply"));
                    }
                    self.answered |= bit(k);
                    self.wire |= Msg::Reply(k).bit();
                }
            }
            Step::Reclaim(slot) => {
                let entry = self.served[slot].as_mut().expect("receiving");
                if entry.reclaim(SimTime::MAX, c.reclaim_age()) == Some(false) {
                    self.served[slot] = None;
                }
            }
            Step::HandOver { msg, mask, whole } => {
                let req_num = self.req_nums[msg.call()];
                let frags = msg.fragments(req_num).into_iter().enumerate();
                let got = frags.filter(|&(i, _)| mask & 1 << i != 0).map(|(_, f)| f);
                let got: Frags = got.collect();
                let n = got.len();
                let whole = whole.then(|| msg.content());
                let arrived = Arrived(whole, got.into_iter(), n);
                return match msg {
                    Msg::Request(k) => self.request(k, arrived),
                    _ => self.response(msg, arrived),
                };
            }
        }
        Ok(())
    }

    /// The server takes in what arrived of call `k`'s request.
    fn request<I>(&mut self, k: usize, arrived: Arrived<I>) -> Verdict
    where
        I: Iterator<Item = (Header, Message)>,
    {
        let req_num = self.req_nums[k];
        let slot = wire::slot_of(req_num) as usize;
        let entry = self.served[slot].get_or_insert_with(|| Served::new(req_num));
        let mut resent = Vec::new();
        let payload = entry.request(req_num, arrived, SimTime::ZERO, |&r| resent.push(r));
        let latest = self.reached[slot] <= req_num;
        self.reached[slot] = self.reached[slot].max(req_num);
        if resent.len() > 1 || resent.iter().any(|&r| r != k) {
            return Err(format!(
                "2: a hand-over of call {k}'s request drew the resends {resent:?}"
            ));
        }
        if resent.is_empty() && latest && self.answered & bit(k) != 0 {
            return Err(format!(
                "2: a duplicate of call {k}'s answered request drew no resend"
            ));
        }
        let Some(payload) = payload else {
            return Ok(());
        };
        if payload != Msg::Request(k).content() {
            return Err(format!("the handler of call {k} got {payload:?}"));
        }
        if self.ran & bit(k) != 0 {
            return Err(format!("1: the handler of call {k} ran twice"));
        }
        self.ran |= bit(k);
        self.running |= bit(k);
        Ok(())
    }

    /// Whether call `k` waits for its reply.
    fn waits(&self, k: usize) -> bool {
        self.live.iter().flatten().any(|(live, _)| *live == k)
    }

    /// The client takes in what arrived of the reply message `msg`.
    fn response<I>(&mut self, msg: Msg, arrived: Arrived<I>) -> Verdict
    where
        I: Iterator<Item = (Header, Message)>,
    {
        let k = msg.call();
        let slot = wire::slot_of(self.req_nums[k]) as usize;
        let Some((_, call)) = self.live[slot].as_mut().filter(|(live, _)| *live == k) else {
            return Ok(()); // no call waits for it
        };
        let Some(reply) = call.response(addr(msg.from()), arrived) else {
            return Ok(());
        };
        if reply != Msg::Reply(k).content() {
            return Err(format!("3: call {k} ended in {reply:?}"));
        }
        self.live[slot] = None;
        Ok(())
    }

    /// Property 4, once no handler runs and no call waits.
    fn check(&self) -> Verdict {
        if self.running != 0 || self.live.iter().any(Option::is_some) {
            return Ok(());
        }
        let mut census = ServedSlots::default();
        for e in self.served.iter().flatten() {
            let mut e = e.clone();
            if e.reclaim(SimTime::MAX, config().reclaim_age()) != Some(false) {
                e.count(&mut census);
            }
        }
        if census.receiving + census.executing + census.fragment_slots > 0 {
            return Err(format!(
                "4: past the reclaim age, the server holds {census:?}"
            ));
        }
        Ok(())
    }
}

/// A state's 128-bit fingerprint: two lanes, each word written mixed into
/// both by splitmix64's finaliser (SipHash would take most of the search).
#[derive(Default)]
struct Fingerprint(u64, u64);

impl Fingerprint {
    fn of(w: &World) -> u128 {
        let mut h = Fingerprint::default();
        w.hash(&mut h);
        (h.0 as u128) << 64 | h.1 as u128
    }
}

impl Hasher for Fingerprint {
    fn write_u64(&mut self, word: u64) {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        self.0 = mix(self.0 ^ word);
        self.1 = mix(self.1.rotate_left(29) ^ word ^ 0x9e37_79b9_7f4a_7c15);
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(byte as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
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

fn step_to(parents: &Parents, id: u32) -> Step {
    parents[id as usize].1.expect("not the initial world")
}

/// Rebuilds states from their steps, keeping the worlds on the path to the
/// last one it rebuilt: the next one in search order shares most of it.
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
            Step::Call(slot) => format!("call {} on slot {slot}", w.calls),
            Step::Answer(k) => format!("the handler of call {k} answers"),
            Step::HandOver { msg, mask, whole } => {
                let how = if whole { "whole" } else { "as a list" };
                format!("hand over packets {mask:#b} of {msg:?}, {how}")
            }
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
    let mut seen: HashSet<u128, BuildHasherDefault<FastHasher>> = HashSet::default();
    seen.insert(Fingerprint::of(&start));
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
                if seen.insert(Fingerprint::of(&s)) {
                    parents.push((id, Some(step)));
                }
            }
        }
        level = level.end..parents.len() as u32;
    }
    Ok(seen.len())
}

#[test]
fn every_interleaving_of_the_small_scope_keeps_the_slot_rules() {
    let started = std::time::Instant::now();
    match explore() {
        Ok(states) => println!(
            "explored {states} states ({SLOTS} slots, {CALLS} calls) in {:.1?}",
            started.elapsed()
        ),
        Err(trace) => panic!("shortest counterexample:\n{trace}"),
    }
}
