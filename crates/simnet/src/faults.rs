//! Deterministic fault-injection plane for the simulated fabric.
//!
//! Faults are configured per *directed* link `(src, dst)` and evaluated
//! by the fabric's delivery pump at the datagram's arrival instant: after
//! switch latency and before the receive-side NIC, one verdict per
//! datagram, in fabric-wide `(arrival, send order)` order. Every stochastic
//! decision draws from the fabric's seeded [`SimRng`], so a `(seed, fault
//! schedule)` pair replays the exact same packet fate sequence on every
//! run.
//!
//! Fault classes (DESIGN.md §8):
//!
//! * **fixed per-link loss** — i.i.d. drop probability overriding the
//!   fabric-wide default for one link;
//! * **Gilbert–Elliott bursty loss** — a two-state Markov chain (good/bad)
//!   advanced once per packet, with independent loss probability in each
//!   state; models correlated loss bursts that defeat naive fixed-RTO
//!   retransmission;
//! * **transient partitions** — drop *every* packet between a node pair
//!   until a virtual-time expiry (checked lazily, no timers);
//! * **duplication** — deliver a packet twice (stresses at-most-once
//!   execution and response caching);
//! * **reordering** — hold a packet for an extra uniformly-drawn delay so
//!   it overtakes or is overtaken by its neighbors.
//!
//! Fault-free traffic takes the same path and draws **zero** random
//! numbers: the pump asks for a verdict only while [`FaultPlane::is_empty`]
//! is false or the fabric-wide loss knob is on, so a fabric with no
//! configured faults and zero default loss is bit-identical to one built
//! before this module existed.

use std::collections::HashMap;
use std::time::Duration;

use simcore::{SimRng, SimTime};

use crate::NodeId;

/// Parameters of a Gilbert–Elliott two-state Markov loss model.
///
/// The chain starts in the *good* state. Once per packet it flips state
/// with probability `p_good_to_bad` (resp. `p_bad_to_good`), then the
/// packet is dropped with the loss probability of the *current* state.
#[derive(Clone, Copy, Debug)]
pub struct GilbertElliott {
    /// Per-packet probability of entering the bad (bursty) state.
    pub p_good_to_bad: f64,
    /// Per-packet probability of recovering to the good state.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A typical bursty-loss profile: long clean stretches punctuated by
    /// short bursts during which most packets die.
    pub fn bursty() -> GilbertElliott {
        GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
            loss_good: 0.001,
            loss_bad: 0.7,
        }
    }
}

/// Gilbert–Elliott model plus its per-link Markov state.
struct GeState {
    cfg: GilbertElliott,
    bad: bool,
}

/// All faults configured on one directed link.
#[derive(Default)]
struct LinkFaults {
    /// Fixed i.i.d. loss override (takes precedence over fabric default).
    loss: Option<f64>,
    /// Bursty loss model (takes precedence over `loss`).
    ge: Option<GeState>,
    /// Probability a delivered packet is duplicated.
    duplicate_p: f64,
    /// Probability a delivered packet is held for an extra delay.
    reorder_p: f64,
    /// Maximum extra delay for reordered packets (uniform in `(0, max]`).
    reorder_delay: Duration,
}

impl LinkFaults {
    fn is_noop(&self) -> bool {
        self.loss.is_none() && self.ge.is_none() && self.duplicate_p == 0.0 && self.reorder_p == 0.0
    }
}

/// The fate of one packet, decided by [`FaultPlane::verdict`].
pub(crate) enum Verdict {
    /// Deliver `copies` copies (2 when duplicated), after an optional
    /// extra reordering delay.
    Deliver {
        copies: u32,
        extra_delay: Option<Duration>,
    },
    /// Dropped by (fixed or bursty) loss.
    DropLoss,
    /// Dropped because the link is inside a partition window.
    DropPartition,
}

/// Per-fabric fault state: link fault configs plus partition windows.
#[derive(Default)]
pub(crate) struct FaultPlane {
    links: HashMap<(NodeId, NodeId), LinkFaults>,
    /// Directed partition windows: drop everything until the stored time.
    partitions: HashMap<(NodeId, NodeId), SimTime>,
}

impl FaultPlane {
    pub(crate) fn is_empty(&self) -> bool {
        self.links.is_empty() && self.partitions.is_empty()
    }

    fn link_mut(&mut self, src: NodeId, dst: NodeId) -> &mut LinkFaults {
        self.links.entry((src, dst)).or_default()
    }

    /// Drop the entry again if every knob is back at its default, so the
    /// plane reads empty again once faults are cleared.
    fn prune(&mut self, src: NodeId, dst: NodeId) {
        if self.links.get(&(src, dst)).is_some_and(|l| l.is_noop()) {
            self.links.remove(&(src, dst));
        }
    }

    pub(crate) fn set_loss(&mut self, src: NodeId, dst: NodeId, p: Option<f64>) {
        self.link_mut(src, dst).loss = p;
        self.prune(src, dst);
    }

    pub(crate) fn set_gilbert(&mut self, src: NodeId, dst: NodeId, cfg: Option<GilbertElliott>) {
        self.link_mut(src, dst).ge = cfg.map(|cfg| GeState { cfg, bad: false });
        self.prune(src, dst);
    }

    pub(crate) fn set_duplicate(&mut self, src: NodeId, dst: NodeId, p: f64) {
        self.link_mut(src, dst).duplicate_p = p;
        self.prune(src, dst);
    }

    pub(crate) fn set_reorder(&mut self, src: NodeId, dst: NodeId, p: f64, max_delay: Duration) {
        let lf = self.link_mut(src, dst);
        lf.reorder_p = p;
        lf.reorder_delay = max_delay;
        self.prune(src, dst);
    }

    pub(crate) fn clear_link(&mut self, src: NodeId, dst: NodeId) {
        self.links.remove(&(src, dst));
        self.partitions.remove(&(src, dst));
    }

    pub(crate) fn clear_all(&mut self) {
        self.links.clear();
        self.partitions.clear();
    }

    pub(crate) fn partition_until(&mut self, src: NodeId, dst: NodeId, until: SimTime) {
        let e = self.partitions.entry((src, dst)).or_insert(SimTime::ZERO);
        *e = (*e).max(until);
    }

    pub(crate) fn heal(&mut self, src: NodeId, dst: NodeId) {
        self.partitions.remove(&(src, dst));
    }

    pub(crate) fn is_partitioned(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        self.partitions.get(&(src, dst)).is_some_and(|&u| now < u)
    }

    /// Decide the fate of one packet on `src -> dst` at virtual time `now`.
    ///
    /// `default_loss` is the fabric-wide i.i.d. loss probability, applied
    /// when the link has no loss override. Draw order is fixed (partition,
    /// loss, duplicate, reorder) so schedules replay deterministically.
    pub(crate) fn verdict(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        default_loss: f64,
        rng: &SimRng,
    ) -> Verdict {
        if let Some(&until) = self.partitions.get(&(src, dst)) {
            if now < until {
                return Verdict::DropPartition;
            }
            self.partitions.remove(&(src, dst)); // window expired
        }
        let Some(lf) = self.links.get_mut(&(src, dst)) else {
            if default_loss > 0.0 && rng.gen_bool(default_loss) {
                return Verdict::DropLoss;
            }
            return Verdict::Deliver {
                copies: 1,
                extra_delay: None,
            };
        };
        let lost = if let Some(ge) = lf.ge.as_mut() {
            let flip_p = if ge.bad {
                ge.cfg.p_bad_to_good
            } else {
                ge.cfg.p_good_to_bad
            };
            if flip_p > 0.0 && rng.gen_bool(flip_p) {
                ge.bad = !ge.bad;
            }
            let p = if ge.bad {
                ge.cfg.loss_bad
            } else {
                ge.cfg.loss_good
            };
            p > 0.0 && rng.gen_bool(p)
        } else {
            let p = lf.loss.unwrap_or(default_loss);
            p > 0.0 && rng.gen_bool(p)
        };
        if lost {
            return Verdict::DropLoss;
        }
        let copies = if lf.duplicate_p > 0.0 && rng.gen_bool(lf.duplicate_p) {
            2
        } else {
            1
        };
        let extra_delay = if lf.reorder_p > 0.0 && rng.gen_bool(lf.reorder_p) {
            let max_ns = lf.reorder_delay.as_nanos() as u64;
            if max_ns == 0 {
                None
            } else {
                Some(Duration::from_nanos(rng.gen_range_in(1, max_ns + 1)))
            }
        } else {
            None
        };
        Verdict::Deliver {
            copies,
            extra_delay,
        }
    }
}
