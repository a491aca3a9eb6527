//! Micro-drivers: the host-time unit cost of one operation of a layer,
//! timed from outside through the layer's public functions. The ledger
//! multiplies them by the per-request counts of a window to estimate which
//! layer the harness's host time goes to.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dmcommon::{CopyMode, PAGE_SIZE};
use dmnet::PageManager;
use loadgen::Population;
use rpclib::wire::{self, Header, Kind, Reassembly};
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

use crate::hostclock::Calibrator;
use crate::metrics::ChildReport;
use crate::spans::HostSpans;

const MSG: usize = 64 * 1024;
const MSG_PAGES: u64 = (MSG / PAGE_SIZE) as u64;

fn ns_per(elapsed: Duration, n: u64) -> f64 {
    elapsed.as_nanos() as f64 / n as f64
}

/// One sleeping task: every iteration is a timer insert, a timer fire and
/// a poll — the executor's unit of work.
fn timer_host_ns() -> f64 {
    const N: u64 = 200_000;
    let sim = Sim::new();
    let t = Instant::now();
    sim.block_on(async {
        for _ in 0..N {
            simcore::sleep(Duration::from_nanos(100)).await;
        }
    });
    ns_per(t.elapsed(), N)
}

fn spawn_host_ns() -> f64 {
    const N: u64 = 200_000;
    let sim = Sim::new();
    let t = Instant::now();
    sim.block_on(async {
        for i in 0..N {
            simcore::spawn(async move { black_box(i) }).await;
        }
    });
    ns_per(t.elapsed(), N)
}

/// One MTU-sized datagram between two nodes: send, NIC and switch model,
/// delivery, receive.
fn datagram_host_ns() -> f64 {
    const N: u64 = 50_000;
    let sim = Sim::new();
    let t = Instant::now();
    sim.block_on(async {
        let net = Network::new(FabricConfig::default(), 1);
        let a = net.add_node("a", NicConfig::default());
        let b = net.add_node("b", NicConfig::default());
        let tx = net.bind(a, 1);
        let mut rx = net.bind(b, 1);
        let body = Bytes::from(vec![7u8; 1024]);
        for _ in 0..N {
            tx.send_to(rx.addr(), body.clone());
            black_box(rx.recv().await);
        }
    });
    ns_per(t.elapsed(), N)
}

/// Fragmenting a 64 KiB message and reassembling it, per KiB.
fn frag_host_ns_per_kib() -> f64 {
    const N: u64 = 2_000;
    let mtu = rpclib::RpcConfig::default().mtu;
    let payload = Bytes::from(vec![3u8; MSG]);
    let t = Instant::now();
    for i in 0..N {
        let packets = wire::fragment(Kind::Request, 1, i, &payload, mtu, None);
        let mut re: Option<Reassembly> = None;
        for p in packets {
            let (hdr, body) = Header::decode_split(&p.head, &p.body).expect("own packet");
            match re.as_mut() {
                None => re = Some(Reassembly::new(&hdr, body)),
                Some(r) => {
                    r.offer(&hdr, body);
                }
            }
        }
        black_box(re.expect("at least one packet").assemble());
    }
    ns_per(t.elapsed(), N * (MSG as u64 / 1024))
}

/// Page-manager costs on a 64 KiB ref: publish, read, and one COW fault
/// (a mapped reader writing one shared page).
fn page_manager_host_ns() -> [f64; 3] {
    const N: u64 = 2_000;
    let mut pm = PageManager::new(4 * MSG_PAGES as usize, CopyMode::CopyOnWrite);
    let pid = pm.register_process();
    let data = vec![5u8; MSG];
    let (mut put, mut read, mut cow) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for _ in 0..N {
        let t = Instant::now();
        let (key, _) = pm.put_ref(&data, None).expect("pool has room");
        put += t.elapsed();

        let t = Instant::now();
        black_box(pm.read_ref(key, 0, MSG as u64).expect("live ref"));
        read += t.elapsed();

        let (va, _, _) = pm.map_ref(pid, key).expect("live ref");
        let t = Instant::now();
        let cost = pm.write(pid, va, &data[..PAGE_SIZE]).expect("mapped");
        cow += t.elapsed();
        assert_eq!(cost.bytes_copied, PAGE_SIZE as u64, "one COW page copy");

        pm.rfree(pid, va).expect("mapped");
        pm.release_ref(key).expect("live ref");
    }
    pm.check_invariants();
    [
        ns_per(put, N * MSG_PAGES),
        ns_per(read, N * MSG_PAGES),
        ns_per(cow, N),
    ]
}

fn followers_host_ns(pop: Population) -> f64 {
    const N: u64 = 2_000;
    let t = Instant::now();
    for u in 0..N {
        black_box(pop.followers(u as u32 % pop.users()));
    }
    ns_per(t.elapsed(), N)
}

/// Run every micro-driver, each under its own host span and between two
/// calibration slices, so unit costs are at the reference machine speed
/// like the host time they are compared with.
pub fn run_all(
    pop: Population,
    cal: &mut Calibrator,
    spans: &mut HostSpans,
    out: &mut ChildReport,
) {
    let mut timed = |spans: &mut HostSpans, name: &str, f: &dyn Fn() -> Vec<f64>| {
        cal.slice();
        let costs = spans.scope(name, |_| f());
        cal.slice();
        let speed = cal.take_speed();
        costs.into_iter().map(|ns| ns * speed).collect::<Vec<f64>>()
    };
    spans.scope("micro", |spans| {
        let v = timed(spans, "micro.simcore.timer", &|| vec![timer_host_ns()]);
        out.set("simcore.timer_host_ns", v[0]);
        let v = timed(spans, "micro.simcore.spawn", &|| vec![spawn_host_ns()]);
        out.set("simcore.spawn_host_ns", v[0]);
        let v = timed(spans, "micro.simnet.datagram", &|| vec![datagram_host_ns()]);
        out.set("simnet.datagram_host_ns", v[0]);
        let v = timed(spans, "micro.rpclib.frag", &|| vec![frag_host_ns_per_kib()]);
        out.set("rpclib.frag_host_ns_per_kib", v[0]);
        let v = timed(spans, "micro.dmnet.page_manager", &|| {
            page_manager_host_ns().to_vec()
        });
        out.set("dmnet.page_manager.put_ref_host_ns_per_page", v[0]);
        out.set("dmnet.page_manager.read_ref_host_ns_per_page", v[1]);
        out.set("dmnet.page_manager.cow_fault_host_ns", v[2]);
        let v = timed(spans, "micro.loadgen.followers", &|| {
            vec![followers_host_ns(pop)]
        });
        out.set("loadgen.followers_host_ns", v[0]);
    });
}

/// `host.est_share.<layer>` = per-request count × the layer's unit cost ÷
/// host time per request; what no layer claims is `host.unattributed_frac`.
/// Estimates: a unit cost timed alone ignores cache misses under load, and
/// the layers nest (an RPC's datagrams are also polls), so the shares are
/// a ranking aid, not a partition.
pub fn host_shares(host_ns_per_req: f64, out: &mut ChildReport) {
    let m = |name: &str| out.metrics[name];
    let shares = [
        (
            "host.est_share.simcore",
            m("simcore.polls_per_req") * m("simcore.timer_host_ns"),
        ),
        (
            "host.est_share.simnet",
            m("simnet.datagrams_per_req") * m("simnet.datagram_host_ns"),
        ),
        (
            "host.est_share.rpclib",
            m("simnet.tx_bytes_per_req") / 1024.0 * m("rpclib.frag_host_ns_per_kib"),
        ),
        (
            "host.est_share.dmnet",
            // DM-server bytes only: G-FAM traffic never enters a page manager.
            (m("memsim.dm_bytes_per_req") - m("dmcxl.gfam_bytes_per_req")) / PAGE_SIZE as f64
                * (m("dmnet.page_manager.put_ref_host_ns_per_page")
                    + m("dmnet.page_manager.read_ref_host_ns_per_page"))
                / 2.0,
        ),
    ];
    let mut claimed = 0.0;
    for (name, ns) in shares {
        let share = ns / host_ns_per_req;
        claimed += share;
        out.set(name, share);
    }
    out.set("host.unattributed_frac", 1.0 - claimed);
}
