//! # apps — the paper's workloads as reusable applications
//!
//! Every evaluation workload from the paper, deployable on any of the three
//! systems ([`cluster::SystemKind`]):
//!
//! | module | paper section | figure |
//! |---|---|---|
//! | [`chain`] | §VI-B nested RPC calls | Fig. 5 |
//! | [`load_balancer`] | §VI-B application-layer LB | Fig. 6 |
//! | [`sharebench`] | §VI-D caller/callee sharing (incl. Ray/Spark) | Figs. 8, 12a |
//! | [`image_pipeline`] | §VI-E 7-tier cloud image processing | Figs. 9, 10, 12b |
//! | [`social`] | §VI-F DeathStarBench social network | Fig. 11 |
//! | [`block_storage`] | §I motivating workload: replicated block storage | (extension) |
//! | [`shuffle`] | §I/§III motivating workload: Spark-style all-to-all shuffle | (extension) |
//!
//! [`cluster`] wires nodes + RPC + DM backends; [`workload`] provides
//! closed-/open-loop drivers and latency measurement.

#![warn(missing_docs)]

pub mod block_storage;
pub mod chain;
pub mod cluster;
pub mod codec;
pub mod image_pipeline;
pub mod load_balancer;
pub mod sharebench;
pub mod shuffle;
pub mod social;
pub mod workload;

pub use cluster::{Cluster, ClusterConfig, DmPlacement, ServiceNode, SystemKind};
pub use workload::{run_closed_loop, run_open_loop, Measured};
