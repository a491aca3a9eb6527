//! Golden-fingerprint gate for the partitioned simulation engine
//! (DESIGN.md §11). A fixed multi-node RPC workload is run under the
//! conservative window engine at the thread count given by `SIM_THREADS`
//! (default 8 — deliberately above the CI runners' core counts so
//! oversubscription is exercised) and again serially; both runs must
//! reproduce the golden fingerprint committed below. Any change to
//! executor scheduling, fabric timing, fault arithmetic, or the window
//! protocol that shifts even one poll or nanosecond shows up here.

use bytes::Bytes;
use simcore::par::{run_partitioned, ParConfig, PartitionBuilder};
use std::cell::Cell;
use std::rc::Rc;

const PARTS: u32 = 6;
const CALLS: u64 = 25;

/// Fingerprint of the golden run: per-partition (polls, end_ns) pairs,
/// then the window count, then the cross-partition event count. Computed
/// once at 1 thread and pinned; regenerate deliberately (never blindly)
/// with `PAR_SIM_PRINT=1 cargo test --test par_sim -- --nocapture`. The
/// event count is PARTS × CALLS × 2: a request and a response per call.
/// Re-pinned for ISSUE 17 (352 → 306 polls per partition, 76 → 53 windows,
/// end times equal): 25 calls no longer cost a watchdog task's two polls
/// each, only the endpoint's one RTO task waking for the first call, at its
/// due instant and at the last call's.
const GOLDEN: [u64; 14] = [
    306, 20070428, 306, 20070428, 306, 20070428, 306, 20070428, 306, 20070428, 306, 20070428, 53,
    300,
];

/// The workload: PARTS single-node partitions in a ring; each node runs
/// an rpclib echo server and a client calling its successor with 2 KB
/// payloads, every byte crossing a partition boundary.
fn ring(threads: usize) -> simcore::par::ParOutcome<u64> {
    fn topo() -> simnet::Network {
        let net = simnet::Network::new(simnet::FabricConfig::default(), 11);
        for i in 0..PARTS {
            net.add_node(format!("n{i}"), simnet::NicConfig::default());
        }
        net
    }
    let lookahead = topo().xpart_lookahead();
    let builders: Vec<PartitionBuilder<simnet::XDatagram, u64>> = (0..PARTS)
        .map(|part| {
            let b: PartitionBuilder<simnet::XDatagram, u64> = Box::new(move |ctx| {
                let net = topo();
                net.attach_to_partition(ctx, (0..PARTS).collect());
                let rpc = rpclib::RpcBuilder::new(&net, simnet::NodeId(part), 9).build();
                rpc.register(1, |c| async move { c.payload });
                let next = simnet::Addr {
                    node: simnet::NodeId((part + 1) % PARTS),
                    port: 9,
                };
                let ok: Rc<Cell<u64>> = Rc::new(Cell::new(0));
                let ok2 = ok.clone();
                ctx.sim().spawn(async move {
                    let payload = Bytes::from(vec![part as u8; 2048]);
                    for _ in 0..CALLS {
                        if rpc.call(next, 1, payload.clone()).await.is_ok() {
                            ok2.set(ok2.get() + 1);
                        }
                    }
                });
                Box::new(move || ok.get())
            });
            b
        })
        .collect();
    run_partitioned(builders, ParConfig { lookahead, threads })
}

#[test]
fn partitioned_ring_matches_golden_fingerprint() {
    let threads: usize = std::env::var("SIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(8);
    let par = ring(threads);
    let serial = ring(1);
    for p in par.partitions.iter().chain(&serial.partitions) {
        assert_eq!(p.result, CALLS, "every ring call must complete");
    }
    assert_eq!(
        par.fingerprint(),
        serial.fingerprint(),
        "fingerprint diverged between {threads} threads and serial"
    );
    if std::env::var("PAR_SIM_PRINT").is_ok() {
        println!("fingerprint: {:?}", serial.fingerprint());
    }
    assert_eq!(
        serial.fingerprint(),
        GOLDEN,
        "golden fingerprint drifted — if the schedule change is intentional, \
         rerun with PAR_SIM_PRINT=1 and update GOLDEN"
    );
}
