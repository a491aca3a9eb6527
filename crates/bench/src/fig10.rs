//! Fig. 10 — 7-tier cloud image processing: (a) end-to-end throughput
//! versus image size and (b) average/p99/p99.5/p99.9 latency at 4 KB.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::image_pipeline::{build_pipeline, OP_COMPRESS, OP_TRANSCODE};
use apps::workload::run_closed_loop;
use bytes::Bytes;
use simcore::Sim;

use crate::report::{f2, size_label, Table};

/// Image sizes swept for Fig. 10a.
pub const SIZES: [usize; 6] = [1024, 4096, 8192, 32768, 131_072, 1_048_576];

/// Measure one configuration; returns the `Measured` for further digestion.
pub fn run_point(kind: SystemKind, size: usize, workers: usize) -> apps::Measured {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 10);
        // Three generator clients so a single client NIC does not bound
        // large-image throughput (the paper scales load similarly).
        drive(&cluster, 3, size, workers).await
    })
}

/// Build the pipeline on `cluster` and drive it closed-loop from
/// `generators` client endpoints with `workers` outstanding requests.
pub async fn drive(
    cluster: &Cluster,
    generators: usize,
    size: usize,
    workers: usize,
) -> apps::Measured {
    // Larger images need a longer window to collect enough completions.
    let window = if size >= 512 * 1024 {
        Duration::from_millis(40)
    } else if size >= 64 * 1024 {
        Duration::from_millis(15)
    } else {
        Duration::from_millis(4)
    };
    let app = Rc::new(build_pipeline(cluster).await);
    let mut clients: Vec<std::rc::Rc<dmrpc::DmRpc>> = vec![app.client.clone()];
    for i in 0..generators - 1 {
        let node = cluster.add_server(format!("client{i}"));
        clients.push(cluster.endpoint(&node, 100).await);
    }
    let clients = Rc::new(clients);
    let image = Bytes::from(vec![9u8; size]);
    app.request(OP_TRANSCODE, &image).await.expect("warmup");
    run_closed_loop(
        workers,
        Duration::from_millis(1),
        window,
        Rc::new(move |w: usize, _i: u64| {
            let app = app.clone();
            let client: std::rc::Rc<dmrpc::DmRpc> = clients[w % clients.len()].clone();
            let image = image.clone();
            // Alternate transcode/compress like the paper's app mix.
            let op = if w.is_multiple_of(2) {
                OP_TRANSCODE
            } else {
                OP_COMPRESS
            };
            async move { app.request_via(&client, op, &image).await.map(|_| ()) }
        }),
    )
    .await
}

/// Run the experiment and emit the two CSVs. Measurement cells are
/// independent simulations, so they fan out across `SIM_THREADS` workers
/// (default 1); rows are assembled in sweep order, so the CSVs are
/// byte-identical at every thread count.
pub fn run() {
    let cells: Vec<(usize, SystemKind)> = SIZES
        .iter()
        .flat_map(|&size| SystemKind::ALL.into_iter().map(move |kind| (size, kind)))
        .collect();
    let measured = crate::pool::sweep(&cells, |&(size, kind)| {
        let m = run_point(kind, size, 64);
        (m.throughput_rps(), m.throughput_gbps(size as u64))
    });

    let mut ta = Table::new(
        "fig10a_image_throughput",
        &["image_size", "system", "throughput_krps", "throughput_gbps"],
    );
    for (&(size, kind), &(rps, gbps)) in cells.iter().zip(&measured) {
        ta.row(&[&size_label(size), &kind.label(), &f2(rps / 1e3), &f2(gbps)]);
    }
    ta.finish();
    ta.bars(
        "Fig. 10a throughput (Gbps)",
        "image_size",
        "system",
        "throughput_gbps",
    );

    let lat = crate::pool::sweep(&SystemKind::ALL, |&kind| {
        let m = run_point(kind, 4096, 16);
        (
            m.avg_latency_us(),
            m.latency_us(0.99),
            m.latency_us(0.995),
            m.latency_us(0.999),
        )
    });
    let mut tb = Table::new(
        "fig10b_image_latency",
        &["system", "avg_us", "p99_us", "p995_us", "p999_us"],
    );
    for (kind, (avg, p99, p995, p999)) in SystemKind::ALL.into_iter().zip(lat) {
        tb.row(&[&kind.label(), &f2(avg), &f2(p99), &f2(p995), &f2(p999)]);
    }
    tb.finish();
}
