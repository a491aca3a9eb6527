//! Session slots: eRPC's at-most-once rules as two pure state machines.
//!
//! The server half, [`Served`], is one `(peer, slot)` entry: the latest
//! request the peer issued on that slot. A higher `req_num` acknowledges
//! and replaces the previous request, an equal one is a duplicate (answered
//! from the kept reply, never run again), a lower one is stale and dropped.
//! The client half, [`Call`], is one call in flight: when it is resent or
//! times out, and which response ends it. [`crate::Rpc`] keeps the tables,
//! the timer and the I/O; `tests/slot_explorer.rs` explores both halves.

use std::cmp::Ordering;
use std::time::Duration;

use simcore::{SimRng, SimTime};
use simnet::Addr;

use crate::wire::{Header, Reassembly};
use crate::{Message, RpcConfig, RpcError};

/// One hand-over of one message: the message if it came whole, its
/// fragments (then read only by a reassembly under way), the packet count.
pub struct Arrived<I>(pub Option<Message>, pub I, pub usize);

impl<I: Iterator<Item = (Header, Message)>> Arrived<I> {
    /// The message, once what arrived completes `r` (or a new reassembly).
    fn take(self, r: Option<Reassembly>) -> Result<Message, Reassembly> {
        let Arrived(whole, mut frags, n) = self;
        let mut r = match (r, whole) {
            (Some(r), _) => r,
            (None, Some(msg)) => return Ok(msg),
            (None, None) => {
                let (hdr, frag) = frags.next().expect("a hand-over has a fragment");
                Reassembly::arriving(&hdr, frag, n)
            }
        };
        match r.is_complete() || frags.any(|(h, f)| r.offer(&h, f)) {
            true => Ok(r.assemble()),
            false => Err(r),
        }
    }

    /// Consume the fragments unread, so none comes back alone.
    fn drain(self) {
        if self.0.is_none() {
            self.1.for_each(drop);
        }
    }
}

/// How many server entries are in each state ([`crate::Rpc::served_slots`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServedSlots {
    /// Requests with fragments still missing (each holds a `Reassembly`).
    pub receiving: usize,
    /// Fragment slots those reassemblies hold: they grow with the
    /// fragments that arrived, not with what a header claims.
    pub fragment_slots: usize,
    /// Requests whose handler is running.
    pub executing: usize,
    /// Answered requests whose response packets are retained.
    pub done: usize,
    /// Reclaimed entries that keep their `req_num` and nothing else.
    pub idle: usize,
}

/// The server half: one `(peer, slot)` entry, keeping a reply as a `P`.
#[derive(Clone, Debug, Hash)]
pub struct Served<P> {
    req_num: u64,
    state: State<P>,
    /// A request on the slot ran here, so reclaiming keeps `req_num`.
    ran: bool,
}

#[derive(Clone, Debug, Hash)]
enum State<P> {
    /// Fragments still arriving; the last came at the instant kept.
    Receiving(Reassembly, SimTime),
    /// Handler running: duplicates are dropped until it answers.
    Executing,
    /// Answered: each hand-over of a duplicate is resent this reply, or
    /// dropped if no handler ran.
    Done(Option<P>),
    /// Nothing held: a new entry, or a reclaimed one.
    Idle,
}

impl<P> Served<P> {
    /// The entry a request makes on a slot nothing is kept for.
    pub fn new(req_num: u64) -> Served<P> {
        Served {
            req_num,
            state: State::Idle,
            ran: false,
        }
    }

    /// Take in one hand-over of request `req_num`, heard at `now`: its
    /// payload once complete, for the handler to run on. A duplicate of the
    /// answered request is `resend` its reply, once however many of its
    /// packets came.
    pub fn request<I: Iterator<Item = (Header, Message)>>(
        &mut self,
        req_num: u64,
        arrived: Arrived<I>,
        now: SimTime,
        resend: impl FnOnce(&P),
    ) -> Option<Message> {
        match req_num.cmp(&self.req_num) {
            // The caller has moved this slot on: a late duplicate.
            Ordering::Less => return None,
            // The caller reused the slot, so it is done with the previous
            // request: its reply (or its reassembly, or its claim on a
            // running handler's reply) goes.
            Ordering::Greater => (self.req_num, self.state) = (req_num, State::Idle),
            Ordering::Equal => {}
        }
        let taken = match std::mem::replace(&mut self.state, State::Executing) {
            State::Receiving(r, _) => arrived.take(Some(r)),
            State::Idle => arrived.take(None),
            // Running, or answered: a duplicate.
            held => {
                if let State::Done(Some(reply)) = &held {
                    arrived.drain();
                    resend(reply);
                }
                self.state = held;
                return None;
            }
        };
        match taken {
            Ok(payload) => {
                self.ran = true;
                Some(payload)
            }
            Err(r) => {
                self.state = State::Receiving(r, now);
                None
            }
        }
    }

    /// The handler of `req_num` answered: keep `reply()` for duplicates and
    /// return it to send, unless the caller reused the slot while the
    /// handler ran (then nobody wants it, and it is never made).
    pub fn answer(&mut self, req_num: u64, reply: impl FnOnce() -> P) -> Option<&P> {
        if req_num != self.req_num || !self.executing() {
            return None;
        }
        self.state = State::Done(Some(reply()));
        let State::Done(reply) = &self.state else {
            unreachable!()
        };
        reply.as_ref()
    }

    /// No handler ran for `req_num`: it is done with, and a duplicate of it
    /// is dropped, not run.
    pub fn refuse(&mut self, req_num: u64) {
        if req_num == self.req_num && self.executing() {
            self.state = State::Done(None);
        }
    }

    /// When a receiving entry last heard a fragment.
    pub fn heard(&self) -> Option<SimTime> {
        match self.state {
            State::Receiving(_, at) => Some(at),
            _ => None,
        }
    }

    /// Reclaim a receiving entry that heard nothing for `age` up to `now`:
    /// its fragments go; `None` if it is left as it was, else whether it
    /// stays. It stays, as `req_num`, if a request on the slot ran here.
    pub fn reclaim(&mut self, now: SimTime, age: Duration) -> Option<bool> {
        self.heard().filter(|&at| at + age <= now)?;
        self.state = State::Idle;
        Some(self.ran)
    }

    /// Whether a handler is running for it: all that
    /// [`crate::Rpc::shutdown`] keeps, as its caller still waits.
    pub fn executing(&self) -> bool {
        matches!(self.state, State::Executing)
    }

    /// Count the entry into `census`.
    pub fn count(&self, census: &mut ServedSlots) {
        match &self.state {
            State::Receiving(r, _) => {
                census.receiving += 1;
                census.fragment_slots += r.capacity();
            }
            State::Executing => census.executing += 1,
            State::Done(_) => census.done += 1,
            State::Idle => census.idle += 1,
        }
    }
}

impl RpcConfig {
    /// How long a receiving server entry may hear nothing before it is
    /// reclaimed: twice the longest wait a live caller's backoff reaches
    /// from the base RTO, so only a caller that is gone loses its fragments.
    pub fn reclaim_age(&self) -> Duration {
        2 * self.rto.max(self.rto_max)
    }
}

/// The client half: one call in flight.
#[derive(Clone, Debug, Hash)]
pub struct Call {
    dst: Addr,
    /// Transmissions so far (1 = the initial one).
    attempts: u32,
    /// The wait before the next retransmission, doubling up to `cap`.
    wait: Duration,
    cap: Duration,
    /// `retry_budget` as an instant, when configured.
    deadline: Option<SimTime>,
    reply: Option<Reassembly>,
}

impl Call {
    /// A request of `n` packets sent to `dst` at `now`, and when its RTO is
    /// due: `rto + rto_per_packet × n`, doubling on each retransmission up
    /// to `max(rto_max, that)`.
    pub fn send(dst: Addr, n: usize, now: SimTime, c: &RpcConfig, rng: &SimRng) -> (Call, SimTime) {
        let wait = c.rto + c.rto_per_packet * n as u32;
        let (cap, deadline) = (c.rto_max.max(wait), c.retry_budget.map(|b| now + b));
        let mut call = Call {
            dst,
            attempts: 1,
            wait,
            cap,
            deadline,
            reply: None,
        };
        let due = now + call.next_wait(c.retry_jitter, rng);
        (call, due)
    }

    /// The peer it went to.
    pub fn dst(&self) -> Addr {
        self.dst
    }

    /// Its RTO came at `now`: retransmit it (the attempt that makes, and
    /// when the next RTO is due), or time it out once `max_retries` or the
    /// retry budget is spent.
    pub fn rto(
        &mut self,
        now: SimTime,
        c: &RpcConfig,
        rng: &SimRng,
    ) -> Result<(u32, SimTime), RpcError> {
        let attempts = self.attempts;
        if attempts > c.max_retries || self.deadline.is_some_and(|d| now >= d) {
            return Err(RpcError::Timeout { attempts });
        }
        self.attempts += 1;
        Ok((attempts + 1, now + self.next_wait(c.retry_jitter, rng)))
    }

    /// The next wait, scaled by a draw uniform in `[1, 1 + jitter)` (none
    /// at 0, so a jitter-free schedule draws nothing); the one after it is
    /// twice as long, up to the cap.
    fn next_wait(&mut self, jitter: f64, rng: &SimRng) -> Duration {
        let wait = match jitter > 0.0 {
            true => self.wait.mul_f64(1.0 + rng.gen_f64() * jitter),
            false => self.wait,
        };
        self.wait = (self.wait * 2).min(self.cap);
        wait
    }

    /// Take in one hand-over of its response from `src`: the reply once
    /// complete. `req_num`s are predictable, so only `dst` is heard.
    pub fn response<I: Iterator<Item = (Header, Message)>>(
        &mut self,
        src: Addr,
        arrived: Arrived<I>,
    ) -> Option<Message> {
        if src != self.dst {
            return None;
        }
        let taken = arrived.take(self.reply.take());
        taken.map_err(|r| self.reply = Some(r)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    const DST: Addr = Addr {
        node: NodeId(1),
        port: 1,
    };

    fn config(rto_ms: u64, rto_max_ms: u64, retry_jitter: f64) -> RpcConfig {
        RpcConfig {
            rto: Duration::from_millis(rto_ms),
            rto_per_packet: Duration::ZERO,
            rto_max: Duration::from_millis(rto_max_ms),
            retry_jitter,
            ..RpcConfig::default()
        }
    }

    /// The waits between a call's transmissions, from its send.
    fn waits(c: &RpcConfig, rng: &SimRng, n: usize) -> Vec<Duration> {
        let (mut call, mut due) = Call::send(DST, 1, SimTime::ZERO, c, rng);
        let mut waits = vec![due - SimTime::ZERO];
        while waits.len() < n {
            let (_, next) = call.rto(due, c, rng).expect("retries left");
            waits.push(next - due);
            due = next;
        }
        waits
    }

    #[test]
    fn retransmission_waits_double_to_the_cap() {
        let ms = Duration::from_millis;
        let rng = SimRng::new(0);
        assert_eq!(
            waits(&config(10, 35, 0.0), &rng, 4),
            [10, 20, 35, 35].map(ms)
        );
        // A cap below the base RTO is raised to it.
        assert_eq!(waits(&config(10, 1, 0.0), &rng, 2), [10, 10].map(ms));
        // The base grows with the request's packets.
        let c = RpcConfig {
            rto_per_packet: ms(1),
            ..config(10, 1, 0.0)
        };
        let (_, due) = Call::send(DST, 5, SimTime::ZERO, &c, &rng);
        assert_eq!(due - SimTime::ZERO, ms(15));
    }

    #[test]
    fn jittered_waits_are_bounded_and_seeded_and_no_jitter_draws_nothing() {
        let c = config(10, 160, 0.5);
        let (a, b) = (waits(&c, &SimRng::new(7), 6), waits(&c, &SimRng::new(7), 6));
        assert_eq!(a, b, "same seed, same schedule");
        for (i, wait) in a.into_iter().enumerate() {
            let base = Duration::from_millis(10 * (1 << i.min(4)));
            assert!(
                wait >= base && wait < base.mul_f64(1.5),
                "draw {i}: {wait:?}"
            );
        }
        let rng = SimRng::new(3);
        waits(&config(5, 20, 0.0), &rng, 3);
        assert_eq!(rng.next_u64(), SimRng::new(3).next_u64(), "no draw at 0");
    }

    #[test]
    fn a_call_times_out_past_its_retries_or_its_budget() {
        let (rng, now) = (SimRng::new(0), SimTime::ZERO);
        let c = RpcConfig {
            max_retries: 1,
            ..config(10, 10, 0.0)
        };
        let (mut call, _) = Call::send(DST, 1, now, &c, &rng);
        assert!(matches!(call.rto(now, &c, &rng), Ok((2, _))));
        assert_eq!(
            call.rto(now, &c, &rng),
            Err(RpcError::Timeout { attempts: 2 })
        );
        let c = RpcConfig {
            retry_budget: Some(Duration::from_millis(15)),
            ..config(10, 10, 0.0)
        };
        let (mut call, due) = Call::send(DST, 1, now, &c, &rng);
        let (_, due) = call.rto(due, &c, &rng).expect("inside the budget");
        assert_eq!(
            call.rto(due, &c, &rng),
            Err(RpcError::Timeout { attempts: 2 })
        );
    }
}
