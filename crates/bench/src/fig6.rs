//! Fig. 6 — application-layer load balancer: (a) aggregate throughput and
//! (b) LB-server memory-bandwidth occupation versus request size.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::load_balancer::build_lb;
use apps::workload::run_closed_loop;
use bytes::Bytes;
use simcore::Sim;

use crate::report::{f2, size_label, Table};

/// Request sizes swept (paper: 4 K to 32 K).
pub const SIZES: [usize; 4] = [4096, 8192, 16384, 32768];

fn run_point(kind: SystemKind, size: usize) -> (f64, f64, f64) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 6);
        let app = Rc::new(build_lb(&cluster, 3, 3).await);
        let payload = Bytes::from(vec![3u8; size]);
        app.request(0, &payload).await.expect("warmup");
        cluster.reset_stats();
        app.lb_node.mem.reset_stats();
        let window = Duration::from_millis(4);
        let m = run_closed_loop(
            24, // 8 outstanding per generator
            Duration::from_micros(200),
            window,
            Rc::new(move |w, _i| {
                let app = app.clone();
                let payload = payload.clone();
                async move { app.request(w % 3, &payload).await }
            }),
        )
        .await;
        let tput_gbps = m.throughput_gbps(size as u64);
        // Memory-bandwidth occupation on the LB node over the whole run
        // (warmup traffic was cleared by the reset above).
        let elapsed = Duration::from_micros(200) + window;
        (
            m.throughput_rps() / 1e3,
            tput_gbps,
            lb_bandwidth_gbs(&cluster, elapsed),
        )
    })
}

/// LB-server memory bandwidth in GB/s (the LB node is named "lb").
pub fn lb_bandwidth_gbs(cluster: &Cluster, elapsed: Duration) -> f64 {
    for s in cluster.servers() {
        if cluster.net.node_name(s.id) == "lb" {
            return s.mem.bandwidth_occupation(elapsed) / 1e9;
        }
    }
    0.0
}

/// Run the experiment and emit `results/fig6_loadbalancer.csv`. The
/// (size, system) cells are independent simulations fanned out across
/// `SIM_THREADS` workers; rows assemble in sweep order, so the CSV is
/// byte-identical at every thread count.
pub fn run() {
    let cells: Vec<(usize, SystemKind)> = SIZES
        .iter()
        .flat_map(|&size| SystemKind::ALL.into_iter().map(move |kind| (size, kind)))
        .collect();
    let measured = crate::pool::sweep(&cells, |&(size, kind)| run_point(kind, size));

    let mut t = Table::new(
        "fig6_loadbalancer",
        &[
            "req_size",
            "system",
            "throughput_krps",
            "throughput_gbps",
            "lb_mem_bw_gbs",
        ],
    );
    for (&(size, kind), &(krps, gbps, lb_bw)) in cells.iter().zip(&measured) {
        t.row(&[
            &size_label(size),
            &kind.label(),
            &f2(krps),
            &f2(gbps),
            &f2(lb_bw),
        ]);
    }
    t.finish();
    t.bars(
        "Fig. 6b LB memory bandwidth (GB/s)",
        "req_size",
        "system",
        "lb_mem_bw_gbs",
    );
}
