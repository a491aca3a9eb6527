//! # simcore — deterministic discrete-event simulation engine
//!
//! The substrate underneath the whole DmRPC reproduction: a single-threaded
//! async executor driven by a **virtual clock**. Simulated components
//! (networks, RPC stacks, disaggregated-memory servers, microservices) are
//! ordinary Rust futures; waiting is expressed with [`sleep`] and the
//! primitives in [`sync`], and *cost models* are expressed with the
//! rate-limited resources in [`resource`].
//!
//! Why a simulator? The paper's testbed (8× Xeon servers, 100 GbE ConnectX-5
//! NICs, an emulated CXL pool) is hardware we cannot run. All of the paper's
//! effects, however, are functions of *bytes moved per hop* and fixed
//! per-operation costs — exactly what a discrete-event model charges. The
//! reproduction therefore runs real data-plane logic (real pages, real
//! copy-on-write, real refcounts) while time is virtual and fully
//! deterministic.
//!
//! ## Quick start
//!
//! ```
//! use simcore::{Sim, spawn, sleep, now};
//! use std::time::Duration;
//!
//! let sim = Sim::new();
//! let total = sim.block_on(async {
//!     let worker = spawn(async {
//!         sleep(Duration::from_micros(10)).await;
//!         21
//!     });
//!     let other = spawn(async {
//!         sleep(Duration::from_micros(5)).await;
//!         21
//!     });
//!     worker.await + other.await
//! });
//! assert_eq!(total, 42);
//! assert_eq!(sim.now().nanos(), 10_000); // virtual, not wall-clock
//! ```

#![warn(missing_docs)]

mod executor;
mod fasthash;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
mod timeutil;

pub use executor::{
    add_source, current_task, now, sleep, sleep_until, spawn, spawn_detached, try_current, try_now,
    yield_now, JoinHandle, Sim, Source, TaskId,
};
pub use fasthash::{FastHasher, FastMap};
pub use resource::{CpuPool, RateResource};
pub use rng::{SimRng, Zipf};
pub use stats::{Counter, Histogram};
pub use time::{transfer_time, SimTime};
pub use timeutil::{timeout, Elapsed, Timeout};

/// Convenience re-export of `std::time::Duration`, the interval type used
/// throughout the simulator.
pub use std::time::Duration;
