//! `xtra_rtt_budget` — control-plane round trips per app-level operation
//! on the Fig. 5 chain workload, with the DESIGN.md §9 client cache and
//! control-op coalescer off versus on.
//!
//! Every DmRPC-net operation costs wire messages to the DM pool. The data
//! plane (`put_ref`, `read_ref`, bulk reads/writes) is the payload's
//! price; the control plane (`release_ref`, `map_ref`, frees, refcount
//! traffic) is overhead the paper's address translator and ownership
//! batching amortize. This experiment counts both planes across every
//! endpoint of a chain cluster — classified by [`dmnet::proto::is_control`]
//! and summed over each endpoint's wire counters — and reports the
//! control-RTT budget per completed request, plus the cache hit/miss and
//! batching counters behind the reduction.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::workload::run_closed_loop;
use bytes::Bytes;
use simcore::Sim;

use crate::report::{f2, Table};

/// Argument size (paper Fig. 5: 4 KB array).
pub const ARG_SIZE: usize = 4096;

/// Wire-message and cache counters for one measured configuration, summed
/// over every DM client of the cluster.
#[derive(Clone, Copy, Debug, Default)]
pub struct RttPoint {
    /// App-level operations completed in the measured window.
    pub ops: u64,
    /// Control-plane wire messages across every endpoint's DM client.
    pub ctrl: u64,
    /// Data-plane wire messages across every endpoint's DM client.
    pub data: u64,
    /// Cache hits (`read_ref`s served locally).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Entries invalidated (listed deaths, resets, local releases).
    pub invalidations: u64,
    /// Dead keys listed to the clients (DESIGN.md §9).
    pub listed: u64,
    /// Answers whose death count skipped a listing, each dropping every
    /// entry its client held from that server.
    pub resets: u64,
    /// Control ops that rode a coalesced batch.
    pub batched_ops: u64,
    /// Coalesced batch envelopes sent.
    pub batches: u64,
    /// Measured throughput, krps.
    pub tput_krps: f64,
}

impl RttPoint {
    /// Control-plane wire messages per completed operation.
    pub fn ctrl_per_op(&self) -> f64 {
        self.ctrl as f64 / self.ops.max(1) as f64
    }

    /// `hits / (hits + misses)`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Control-RTT reduction of `cached` versus `base`, in percent.
pub fn ctrl_reduction_pct(base: &RttPoint, cached: &RttPoint) -> f64 {
    if base.ctrl_per_op() == 0.0 {
        return 0.0;
    }
    (1.0 - cached.ctrl_per_op() / base.ctrl_per_op()) * 100.0
}

/// The DM clients behind every endpoint of `cluster`.
pub(crate) fn dm_clients(cluster: &Cluster) -> Vec<Rc<dmnet::DmNetClient>> {
    cluster
        .endpoints()
        .iter()
        .filter_map(|ep| ep.dm().and_then(|d| d.net_client().cloned()))
        .collect()
}

/// Measure `work` on `cluster`: counter deltas across every DM client
/// around it, from a snapshot taken now (setup and warm-up traffic is
/// excluded). `work` counts its completed operations into the cell it is
/// handed and returns its throughput in krps. Queued control ops are
/// drained before the closing snapshot, so batched-but-unsent work is
/// charged to the configuration that queued it.
pub async fn measure<F, Fut>(cluster: &Cluster, work: F) -> RttPoint
where
    F: FnOnce(Rc<Cell<u64>>) -> Fut,
    Fut: std::future::Future<Output = f64>,
{
    let clients = dm_clients(cluster);
    let snap = || -> Vec<[u64; 9]> {
        clients
            .iter()
            .map(|c| {
                let (ctrl, data) = c.wire_messages();
                let s = c.cache_stats();
                [
                    ctrl,
                    data,
                    s.hits(),
                    s.misses(),
                    s.invalidations(),
                    s.listed(),
                    s.resets(),
                    s.batched_ops(),
                    c.wire_count(dmnet::proto::req::BATCH),
                ]
            })
            .collect()
    };
    let before = snap();
    let ops = Rc::new(Cell::new(0u64));
    let tput_krps = work(ops.clone()).await;
    for c in &clients {
        c.flush_cache().await;
    }
    let mut d = [0u64; 9];
    for (after, before) in snap().iter().zip(&before) {
        for (sum, (a, b)) in d.iter_mut().zip(after.iter().zip(before)) {
            *sum += a - b;
        }
    }
    RttPoint {
        ops: ops.get(),
        ctrl: d[0],
        data: d[1],
        hits: d[2],
        misses: d[3],
        invalidations: d[4],
        listed: d[5],
        resets: d[6],
        batched_ops: d[7],
        batches: d[8],
        tput_krps,
    }
}

/// Run the Fig. 5 chain at `length`, the client cache on iff `cached`, and
/// count every wire message the cluster's DM clients send after setup and
/// one warm-up request.
pub fn run_point(length: usize, cached: bool) -> RttPoint {
    let sim = Sim::new();
    sim.block_on(async move {
        let config = ClusterConfig {
            dm_client_cache: cached,
            ..Default::default()
        };
        let cluster = Cluster::new(SystemKind::DmNet, 2, config, 42);
        let app = Rc::new(build_chain(&cluster, length).await);
        let payload = Bytes::from(vec![7u8; ARG_SIZE]);
        app.request(&payload).await.expect("warmup");
        let worker_app = app.clone();
        measure(&cluster, |ops| async move {
            let m = run_closed_loop(
                8,
                Duration::from_micros(200),
                Duration::from_millis(2),
                Rc::new(move |_w, _i| {
                    let app = worker_app.clone();
                    let payload = payload.clone();
                    let ops = ops.clone();
                    async move {
                        app.request(&payload).await?;
                        ops.set(ops.get() + 1);
                        Ok::<(), dmcommon::DmError>(())
                    }
                }),
            )
            .await;
            m.throughput_rps() / 1e3
        })
        .await
    })
}

/// Run the experiment and emit `results/xtra_rtt_budget.csv`.
pub fn run() {
    let mut t = Table::new(
        "xtra_rtt_budget",
        &[
            "chain_len",
            "config",
            "ops",
            "ctrl_msgs",
            "data_msgs",
            "ctrl_per_op",
            "ctrl_reduction_pct",
            "cache_hits",
            "cache_misses",
            "batched_ops",
            "batches",
            "throughput_krps",
        ],
    );
    for length in [1usize, 3, 5] {
        let base = run_point(length, false);
        let cached = run_point(length, true);
        for (label, p, reduction) in [
            ("uncached", &base, 0.0),
            (
                "cached+batched",
                &cached,
                ctrl_reduction_pct(&base, &cached),
            ),
        ] {
            t.row(&[
                &length,
                &label,
                &p.ops,
                &p.ctrl,
                &p.data,
                &f2(p.ctrl_per_op()),
                &f2(reduction),
                &p.hits,
                &p.misses,
                &p.batched_ops,
                &p.batches,
                &f2(p.tput_krps),
            ]);
        }
    }
    t.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_and_batching_cut_control_rtts_by_a_third() {
        // The ISSUE 3 acceptance bar: >= 30% fewer control-plane round
        // trips per op on the Fig. 5 chain with caching + batching on.
        let base = run_point(3, false);
        let cached = run_point(3, true);
        assert!(base.ops > 0 && cached.ops > 0);
        assert!(base.ctrl > 0, "chain has a control-plane cost to amortize");
        let reduction = ctrl_reduction_pct(&base, &cached);
        assert!(
            reduction >= 30.0,
            "control-RTT reduction {reduction:.1}% < 30% \
             (uncached {:.3}/op, cached {:.3}/op)",
            base.ctrl_per_op(),
            cached.ctrl_per_op()
        );
        assert!(
            cached.batches > 0 && cached.batched_ops >= cached.batches,
            "batching never engaged"
        );
    }
}
