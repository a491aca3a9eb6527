//! Executor self-benchmark: wall-clock throughput of the simulation engine.
//!
//! Unlike the `fig*` experiments, which report *virtual-time* results, this
//! measures how fast the reproduction itself runs: task polls per second of
//! real time across scenarios that stress each hot path of the scheduler —
//! timers, ready-queue wakeups, task churn, and the full RPC stack.
//! `results/xtra_sim_throughput.csv` records the numbers; they are
//! machine-dependent and exist to track engine-performance regressions.

use crate::report::{f2, gate, Bound, Table};
use bytes::Bytes;
use simcore::sync::mpsc;
use simcore::Sim;
use std::time::{Duration, Instant};

struct Outcome {
    polls: u64,
    wall: Duration,
}

/// One timed run of `build` on a fresh engine.
fn timed(build: impl Fn(&Sim)) -> Outcome {
    let sim = Sim::new();
    let start = Instant::now();
    build(&sim);
    sim.run();
    Outcome {
        polls: sim.poll_count(),
        wall: start.elapsed(),
    }
}

/// What a scenario keeps alive: the most tasks and the most armed timers
/// seen between two virtual instants of one untimed run. A task born and
/// finished inside one instant is not retention and is not seen.
fn peaks(build: impl Fn(&Sim)) -> (usize, usize) {
    let sim = Sim::new();
    build(&sim);
    let mut peak = (sim.live_tasks(), sim.pending_timers());
    while let Some(at) = sim.next_event_time() {
        sim.run_until(at);
        peak.0 = peak.0.max(sim.live_tasks());
        peak.1 = peak.1.max(sim.pending_timers());
    }
    peak
}

/// Pure timer path: 200 tasks sleeping 500 times each, deadlines interleaved.
fn timer_storm(sim: &Sim) {
    for i in 0..200u64 {
        sim.spawn(async move {
            for j in 0..500u64 {
                simcore::sleep(Duration::from_nanos(i * 13 + j * 97 + 1)).await;
            }
        });
    }
}

/// Pure wakeup path: 64 channel ping-pong pairs, 1000 rounds each. No timers,
/// so every event is a ready-queue push + task poll.
fn pingpong(sim: &Sim) {
    for _ in 0..64 {
        let (atx, mut arx) = mpsc::channel::<u32>();
        let (btx, mut brx) = mpsc::channel::<u32>();
        sim.spawn(async move {
            let _ = atx.send(0);
            while let Some(v) = brx.recv().await {
                if v >= 1000 {
                    break;
                }
                let _ = atx.send(v + 1);
            }
        });
        sim.spawn(async move {
            while let Some(v) = arx.recv().await {
                if btx.send(v + 1).is_err() || v >= 1000 {
                    break;
                }
            }
        });
    }
}

/// Task churn: waves of short-lived tasks exercising spawn/complete/free.
fn spawn_churn(sim: &Sim) {
    sim.spawn(async {
        for wave in 0..200u64 {
            let handles: Vec<_> = (0..100u64)
                .map(|i| {
                    simcore::spawn(async move {
                        simcore::yield_now().await;
                        wave ^ i
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
        }
    });
}

/// Full stack: RPC echo storm through the simulated fabric, 8 clients x 200
/// calls with 3-fragment payloads (fragmentation + reassembly).
fn rpc_storm(sim: &Sim) {
    rpc_echo_storm(sim, 9000);
}

/// The same storm with 17-fragment payloads, the size of a by-value chain
/// argument: what a call holds, and until when, is what this one prices.
fn rpc_storm_64k(sim: &Sim) {
    rpc_echo_storm(sim, (64 << 10) + 100);
}

fn rpc_echo_storm(sim: &Sim, payload_bytes: usize) {
    sim.spawn(async move {
        let net = simnet::Network::new(simnet::FabricConfig::default(), 42);
        let sn = net.add_node("server", simnet::NicConfig::default());
        let server = rpclib::RpcBuilder::new(&net, sn, 10).build();
        server.register(1, |ctx| async move { ctx.payload });
        let server_addr = server.addr();
        let mut done = Vec::new();
        for c in 0..8 {
            let net = net.clone();
            let cn = net.add_node(format!("c{c}"), simnet::NicConfig::default());
            done.push(simcore::spawn(async move {
                let client = rpclib::RpcBuilder::new(&net, cn, 10).build();
                let payload = Bytes::from(vec![c as u8; payload_bytes]);
                for _ in 0..200 {
                    client.call(server_addr, 1, payload.clone()).await.unwrap();
                }
            }));
        }
        for d in done {
            d.await;
        }
    });
}

/// Zero-overhead gate for the telemetry subsystem (DESIGN.md §10): with a
/// tracer installed but sampling off, the full-stack `rpc_storm` scenario
/// must take the exact same schedule (poll-count equality — installed-but-off
/// hooks may not move a single wakeup) and must not slow down by more than
/// 2% of wall time (medians of interleaved repetitions, so machine noise
/// hits both sides equally). Both are [`gate`]s; run by the CI `telemetry`
/// job as `bench telemetry_overhead`.
pub fn telemetry_overhead_gate() {
    fn storm(install_tracer: bool) -> Outcome {
        // Keep the tracer + its TLS installation alive for the whole run.
        let _tracing = install_tracer.then(|| {
            let t = std::rc::Rc::new(telemetry::Tracer::new(1, 0));
            let guard = t.install();
            (t, guard)
        });
        timed(rpc_storm)
    }
    storm(false);
    storm(true); // warmup both paths
    let mut off = Vec::new();
    let mut on = Vec::new();
    // Alternate which side goes first so drift (turbo, thermal) cancels.
    for i in 0..9 {
        if i % 2 == 0 {
            off.push(storm(false));
            on.push(storm(true));
        } else {
            on.push(storm(true));
            off.push(storm(false));
        }
    }
    let median = |v: &mut Vec<Outcome>| {
        v.sort_by_key(|o| o.wall);
        v[v.len() / 2].wall.as_secs_f64()
    };
    let (polls_off, polls_on) = (off[0].polls, on[0].polls);
    let (base, traced) = (median(&mut off), median(&mut on));
    println!(
        "telemetry installed-but-off on rpc_storm: baseline {:.2} ms, with tracer {:.2} ms, \
         {polls_off} polls",
        base * 1e3,
        traced * 1e3,
    );
    gate(
        "polls moved by an installed-but-off tracer",
        polls_on.abs_diff(polls_off) as f64,
        Bound::AtMost(0.0),
    );
    gate(
        "installed-but-off wall-time overhead (%)",
        (traced / base - 1.0) * 100.0,
        Bound::AtMost(2.0),
    );
}

/// Run the five serial-engine stressors, each once for its retention
/// peaks (which doubles as the warmup) and once timed, and emit
/// `results/xtra_sim_throughput.csv` + `results/BENCH_sim_throughput.json`.
/// Polls and peaks are deterministic; wall-clock numbers are
/// machine-dependent by nature, so the artifact records
/// `host_parallelism` beside them.
pub fn run() {
    let mut t = Table::new(
        "xtra_sim_throughput",
        &[
            "scenario",
            "polls",
            "wall_ms",
            "polls_per_sec",
            "live_tasks_peak",
            "timers_peak",
        ],
    )
    .trajectory("sim_throughput");
    t.meta(
        "host_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    type Scenario = (&'static str, fn(&Sim));
    let scenarios: [Scenario; 5] = [
        ("timer_storm", timer_storm),
        ("pingpong", pingpong),
        ("spawn_churn", spawn_churn),
        ("rpc_storm", rpc_storm),
        ("rpc_storm_64k", rpc_storm_64k),
    ];
    for (name, build) in scenarios {
        let (live_tasks_peak, timers_peak) = peaks(build); // doubles as the warmup
        let o = timed(build);
        let secs = o.wall.as_secs_f64();
        t.row(&[
            &name,
            &o.polls,
            &f2(secs * 1e3),
            &format!("{:.0}", o.polls as f64 / secs.max(1e-12)),
            &live_tasks_peak,
            &timers_peak,
        ]);
    }
    t.finish();
}
