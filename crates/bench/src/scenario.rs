//! `bench scenario` — run any paper workload under any system with one
//! command.
//!
//! ```text
//! cargo run --release -p bench -- scenario \
//!     --system dmnet --app chain --size 4096 --workers 16 --ms 5 --param 4
//! ```
//!
//! Options:
//!   --system  erpc | dmnet | dmcxl              (default dmnet)
//!   --app     chain | lb | image | social | share | shuffle | block
//!   --size    payload bytes                      (default 4096)
//!   --workers closed-loop concurrency            (default 16)
//!   --ms      measurement window, virtual ms     (default 5)
//!   --param   app-specific: chain length, LB workers, write %, shuffle M=R,
//!             social offered krps (open loop)    (default app-specific)
//!   --seed    RNG seed                           (default 1)
//!   --cxl-ns  CXL latency override in ns
//!   --copy    use the eager `-copy` ablation instead of COW
//!
//! `--app social` also prints the three busiest node resources of the run
//! (the bottleneck ledger, `apps::cluster::utilization`), each with the
//! deepest its node's receive queue got (`node.<name>.nic.rx_queue_peak`).
//! Every app's ledger ends with the host copies the run made where the
//! design makes none: messages flattened (`rpc.flattened_msgs`) and DM
//! bytes read out by gathering beside those served as a view
//! (`dmserver.<i>.read_gathered_bytes` / `read_viewed_bytes`).

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind, Utilization};
use apps::workload::{run_closed_loop, run_open_loop, Measured};
use bytes::Bytes;
use dmcommon::CopyMode;
use simcore::{Sim, SimRng};
use telemetry::Registry;

struct Args {
    system: SystemKind,
    app: String,
    size: usize,
    workers: usize,
    window: Duration,
    param: Option<u64>,
    seed: u64,
    cxl_ns: Option<u64>,
    copy: bool,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        system: SystemKind::DmNet,
        app: "chain".to_string(),
        size: 4096,
        workers: 16,
        window: Duration::from_millis(5),
        param: None,
        seed: 1,
        cxl_ns: None,
        copy: false,
    };
    let usage = || -> ! {
        eprintln!(
            "usage: bench scenario [--system erpc|dmnet|dmcxl] [--app chain|lb|image|social|share|shuffle|block] \
             [--size N] [--workers N] [--ms N] [--param N] [--seed N] [--cxl-ns N] [--copy]"
        );
        std::process::exit(2);
    };
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().cloned().unwrap_or_else(|| usage());
        let mut number = || value().parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--system" => {
                args.system = match value().as_str() {
                    "erpc" => SystemKind::Erpc,
                    "dmnet" => SystemKind::DmNet,
                    "dmcxl" => SystemKind::DmCxl,
                    _ => usage(),
                }
            }
            "--app" => args.app = value(),
            "--size" => args.size = number() as usize,
            "--workers" => args.workers = number() as usize,
            "--ms" => args.window = Duration::from_millis(number()),
            "--param" => args.param = Some(number()),
            "--seed" => args.seed = number(),
            "--cxl-ns" => args.cxl_ns = Some(number()),
            "--copy" => args.copy = true,
            _ => usage(),
        }
    }
    args
}

fn report(label: &str, size: usize, m: &Measured, ledger: &[String]) {
    println!("\nscenario: {label}");
    println!("  completed        {}", m.completed);
    println!("  errors           {}", m.errors);
    println!("  throughput       {:.1} krps", m.throughput_rps() / 1e3);
    println!(
        "  goodput          {:.2} Gbps",
        m.throughput_gbps(size as u64)
    );
    println!("  latency avg      {:.1} us", m.avg_latency_us());
    println!("  latency p50      {:.1} us", m.latency_us(0.50));
    println!("  latency p99      {:.1} us", m.latency_us(0.99));
    println!("  latency p99.9    {:.1} us", m.latency_us(0.999));
    for row in ledger {
        println!("  {row}");
    }
}

/// The ledger's last row: copies made on the host where a message or a DM
/// read could not stay a view (zero on the paths this stack produces).
fn host_copies(metrics: &Registry) -> String {
    let sum = |suffix: &str| -> u64 {
        let names = metrics.names();
        let matching = names.iter().filter(|n| n.ends_with(suffix));
        matching.filter_map(|n| metrics.value(n)).sum()
    };
    format!(
        "host copies      {} msgs flattened; DM reads {} B viewed, {} B gathered",
        sum("rpc.flattened_msgs"),
        sum(".read_viewed_bytes"),
        sum(".read_gathered_bytes"),
    )
}

/// One ledger row with the depth the node's receive queue reached beside
/// it: a NIC at 0.9 with a peak of 3 is keeping up, one with 300 is not.
fn busiest(u: &Utilization, metrics: &Registry) -> String {
    let gauge = format!("node.{}.nic.rx_queue_peak", u.node);
    let peak = metrics.value(&gauge).unwrap_or(0);
    format!("busiest          {u}; {} rx queue peak {peak}", u.node)
}

/// Run the scenario described by `argv` (everything after `scenario`).
pub fn run(argv: &[String]) {
    let a = parse_args(argv);
    let label = format!(
        "{} / {} / {} B / {} workers / {:?} window",
        a.system.label(),
        a.app,
        a.size,
        a.workers,
        a.window
    );
    let sim = Sim::new();
    let mut config = ClusterConfig::default();
    if a.copy {
        config.dm.copy_mode = CopyMode::Eager;
    }
    let (m, ledger) = sim.block_on(async move {
        let cluster = Cluster::new(a.system, 2, config, a.seed);
        if let Some(ns) = a.cxl_ns {
            cluster.params.set_cxl_latency(Duration::from_nanos(ns));
        }
        let warmup = Duration::from_millis(1);
        let mut ledger = Vec::new();
        let m = match a.app.as_str() {
            "chain" => {
                let len = a.param.unwrap_or(4) as usize;
                let app = Rc::new(apps::chain::build_chain(&cluster, len).await);
                let payload = Bytes::from(vec![7u8; a.size]);
                app.request(&payload).await.expect("warmup");
                run_closed_loop(
                    a.workers,
                    warmup,
                    a.window,
                    Rc::new(move |_w, _i| {
                        let app = app.clone();
                        let payload = payload.clone();
                        async move { app.request(&payload).await.map(|_| ()) }
                    }),
                )
                .await
            }
            "lb" => {
                let workers = a.param.unwrap_or(3) as usize;
                let app = Rc::new(apps::load_balancer::build_lb(&cluster, 3, workers).await);
                let payload = Bytes::from(vec![7u8; a.size]);
                app.request(0, &payload).await.expect("warmup");
                run_closed_loop(
                    a.workers,
                    warmup,
                    a.window,
                    Rc::new(move |w, _i| {
                        let app = app.clone();
                        let payload = payload.clone();
                        async move { app.request(w, &payload).await }
                    }),
                )
                .await
            }
            "image" => {
                let app = Rc::new(apps::image_pipeline::build_pipeline(&cluster).await);
                let image = Bytes::from(vec![7u8; a.size]);
                app.request(apps::image_pipeline::OP_TRANSCODE, &image)
                    .await
                    .expect("warmup");
                run_closed_loop(
                    a.workers,
                    warmup,
                    a.window,
                    Rc::new(move |w: usize, _i| {
                        let app = app.clone();
                        let image = image.clone();
                        let op = if w.is_multiple_of(2) {
                            apps::image_pipeline::OP_TRANSCODE
                        } else {
                            apps::image_pipeline::OP_COMPRESS
                        };
                        async move { app.request(op, &image).await.map(|_| ()) }
                    }),
                )
                .await
            }
            "social" => {
                let rate = a.param.unwrap_or(100) as f64 * 1e3;
                let app = Rc::new(apps::social::build_social(&cluster, 500, a.size, a.seed).await);
                app.preload(200).await.expect("preload");
                // The queue peaks run from the last reset: start them
                // where the ledger starts.
                cluster.reset_stats();
                let busy = cluster.utilization_over(warmup + a.window);
                let m = run_open_loop(
                    rate,
                    warmup,
                    a.window,
                    SimRng::new(a.seed),
                    Rc::new(move |_n| {
                        let app = app.clone();
                        async move { app.mixed_request().await }
                    }),
                )
                .await;
                let (rows, metrics) = (busy.await, cluster.metrics());
                ledger = rows.iter().take(3).map(|u| busiest(u, &metrics)).collect();
                m
            }
            "share" => {
                let pct = a.param.unwrap_or(20) as u8;
                let app = Rc::new(apps::sharebench::build_sharebench(&cluster).await);
                let block = Bytes::from(vec![7u8; a.size]);
                app.request(&block, pct).await.expect("warmup");
                run_closed_loop(
                    a.workers,
                    warmup,
                    a.window,
                    Rc::new(move |_w, _i| {
                        let app = app.clone();
                        let block = block.clone();
                        async move { app.request(&block, pct).await }
                    }),
                )
                .await
            }
            "shuffle" => {
                let mr = a.param.unwrap_or(4) as usize;
                let app = Rc::new(apps::shuffle::build_shuffle(&cluster, mr, mr).await);
                app.map_phase(a.size, a.seed).await.expect("map phase");
                run_closed_loop(
                    a.workers.min(4),
                    warmup,
                    a.window,
                    Rc::new(move |_w, _i| {
                        let app = app.clone();
                        async move { app.reduce_phase().await.map(|_| ()) }
                    }),
                )
                .await
            }
            "block" => {
                let replicas = a.param.unwrap_or(2) as usize;
                let app = Rc::new(apps::block_storage::build_block_store(&cluster, replicas).await);
                app.write_block(0, &Bytes::from(vec![1u8; a.size]))
                    .await
                    .expect("warmup");
                let size = a.size;
                run_closed_loop(
                    a.workers,
                    warmup,
                    a.window,
                    Rc::new(move |w, i| {
                        let app = app.clone();
                        async move {
                            let id = (w as u64) << 32 | i;
                            let block = Bytes::from(vec![(id % 251) as u8; size]);
                            app.write_block(id, &block).await
                        }
                    }),
                )
                .await
            }
            _ => {
                eprintln!("unknown app {:?}", a.app);
                std::process::exit(2);
            }
        };
        ledger.push(host_copies(&cluster.metrics()));
        (m, ledger)
    });
    report(&label, a.size, &m, &ledger);
}
