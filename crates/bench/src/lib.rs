//! # bench — harnesses regenerating every table and figure of the paper
//!
//! Each experiment is a library module with a `run()`; the one binary
//! (`src/main.rs`) holds the registry that names them, says which
//! `results/` files each owns and which belong to `all`:
//! `cargo run --release -p bench -- list` prints it. Shared by all of
//! them: [`pool::sweep`] (ordered fan-out over `SIM_THREADS`) and
//! [`report::Table`] (the one artifact writer: console table, CSV,
//! `BENCH_*.json`, bars, gates).

#![warn(missing_docs)]

pub mod cache_coherence;
pub mod chaos;
pub mod extras;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod latency_breakdown;
pub mod pool;
pub mod recovery;
pub mod report;
pub mod rtt_budget;
pub mod shard_scaling;
pub mod sim_throughput;
pub mod slo_scale;
pub mod table1;
