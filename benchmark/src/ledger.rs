//! The per-layer ledger: every count is read through public accessors
//! before and after the window and reported as a delta. `Cluster::metrics`
//! supplies the registry; the accessors it does not cover are added here as
//! gauges of the same registry, so one `Snapshot::delta` yields every count.

use std::rc::Rc;
use std::time::Duration;

use apps::Cluster;
use dmrpc::DmHandle;
use simcore::Sim;
use simnet::NodeId;
use telemetry::{Registry, Snapshot};

use crate::metrics::ChildReport;

fn sum_over<T: 'static>(items: Vec<T>, f: impl Fn(&T) -> u64 + 'static) -> impl Fn() -> u64 {
    move || items.iter().map(&f).sum()
}

/// `cluster.metrics()` plus gauges over the remaining public accessors.
/// Call after the app is built: the registry names the nodes and endpoints
/// that exist now.
pub fn registry(sim: &Sim, cluster: &Cluster) -> Registry {
    let reg = cluster.metrics();
    let sim = sim.clone();
    reg.register_gauge("bench.sim.polls", move || sim.poll_count());

    let net = cluster.net.clone();
    reg.register_gauge("bench.net.dropped", move || {
        net.dropped_loss() + net.dropped_partition() + net.dropped_unbound()
    });
    for n in 0..cluster.net.node_count() as u32 {
        let net = cluster.net.clone();
        reg.register_gauge(format!("bench.nic.{n}.tx_bytes"), move || {
            net.node_tx_bytes(NodeId(n))
        });
        let net = cluster.net.clone();
        reg.register_gauge(format!("bench.nic.{n}.tx_busy_ns"), move || {
            net.node_tx_busy(NodeId(n)).as_nanos() as u64
        });
    }
    for node in cluster.servers() {
        let id = node.id.0;
        let cpu = node.cpu.clone();
        // Per core, so that busy time over the window is a utilization.
        reg.register_gauge(format!("bench.cpu.{id}.busy_ns_per_core"), move || {
            cpu.busy_time().as_nanos() as u64 / cpu.cores()
        });
        let cpu = node.cpu.clone();
        reg.register_gauge(format!("bench.cpu.{id}.ops"), move || cpu.ops());
    }

    let rpcs: Vec<_> = cluster
        .endpoints()
        .iter()
        .map(|e| e.rpc().clone())
        .collect();
    let handler = |f: fn(&simcore::Histogram) -> u64| {
        sum_over(rpcs.clone(), move |rpc| {
            (0..=u8::MAX)
                .filter_map(|ty| rpc.handler_time(ty))
                .map(|h| f(&h))
                .sum()
        })
    };
    reg.register_gauge("bench.rpc.handler_count", handler(|h| h.count()));
    reg.register_gauge(
        "bench.rpc.handler_sum_ns",
        handler(|h| (h.mean() * h.count() as f64).round() as u64),
    );

    let mut net_clients = Vec::new();
    let mut cxl_hosts = Vec::new();
    for ep in cluster.endpoints() {
        match ep.dm() {
            Some(DmHandle::Net(c)) => net_clients.push(c.clone()),
            Some(DmHandle::Cxl(h)) => cxl_hosts.push(h.clone()),
            None => {}
        }
    }
    reg.register_gauge(
        "bench.dmclient.wire_msgs",
        sum_over(net_clients.clone(), |c| {
            let (control, data) = c.wire_messages();
            control + data
        }),
    );
    reg.register_gauge(
        "bench.dmclient.busy_retried",
        sum_over(net_clients.clone(), |c| c.busy_retried()),
    );
    reg.register_gauge(
        "bench.dmclient.redirects_chased",
        sum_over(net_clients, |c| c.redirects_chased()),
    );

    let servers = cluster.dm_servers.clone();
    let server = |f: fn(&Rc<dmnet::DmServer>) -> u64| sum_over(servers.clone(), f);
    reg.register_gauge(
        "bench.dmserver.free_pages",
        server(|s| s.free_pages_total() as u64),
    );
    reg.register_gauge(
        "bench.dmserver.capacity_pages",
        server(|s| s.capacity_pages_total() as u64),
    );
    reg.register_gauge(
        "bench.dmserver.inv_pushed",
        server(|s| s.invalidations_pushed()),
    );
    reg.register_gauge(
        "bench.dmserver.broadcasts",
        server(|s| s.coherence_broadcasts()),
    );
    reg.register_gauge(
        "bench.dmserver.wal_records",
        server(|s| s.wal().map_or(0, |w| w.records())),
    );

    if let Some(fabric) = cluster.cxl_fabric() {
        let gfam = fabric.gfam().clone();
        reg.register_gauge("bench.gfam.atomics", move || gfam.atomic_ops());
    }
    reg.register_gauge(
        "bench.cxl.faults",
        sum_over(cxl_hosts.clone(), |h| h.stats().faults.get()),
    );
    reg.register_gauge(
        "bench.cxl.cow_copies",
        sum_over(cxl_hosts.clone(), |h| h.stats().cow_copies.get()),
    );
    reg.register_gauge(
        "bench.cxl.coord_rpcs",
        sum_over(cxl_hosts, |h| h.stats().coord_rpcs.get()),
    );
    reg
}

/// Sum of the values named `<prefix>…<suffix>`.
pub fn sum(s: &Snapshot, prefix: &str, suffix: &str) -> u64 {
    s.iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

fn max(s: &Snapshot, prefix: &str, suffix: &str) -> u64 {
    s.iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .max()
        .unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Bytes the window moved anywhere: NIC transmit, compute-node memory and
/// DM memory (DM servers or G-FAM). The paper's data-movement claim.
pub fn moved_bytes(delta: &Snapshot) -> u64 {
    sum(delta, "bench.nic.", ".tx_bytes")
        + sum(delta, "node.", ".mem.traffic_bytes")
        + dm_bytes(delta)
}

fn dm_bytes(delta: &Snapshot) -> u64 {
    sum(delta, "dmserver.", ".traffic_bytes") + sum(delta, "gfam.traffic_bytes", "")
}

/// Per-layer counts of one window: `delta` = after − before, `end` = after,
/// `reqs` = completions, `span` = window plus drain (what the busy times
/// accrued over).
pub fn layer_counts(
    delta: &Snapshot,
    end: &Snapshot,
    reqs: u64,
    span: Duration,
    out: &mut ChildReport,
) {
    let per_req = |n: u64| ratio(n, reqs);
    let span_ns = span.as_nanos() as u64;

    out.set(
        "simcore.polls_per_req",
        per_req(sum(delta, "bench.sim.polls", "")),
    );

    out.set(
        "simnet.datagrams_per_req",
        per_req(sum(delta, "net.delivered", "")),
    );
    let tx_bytes = sum(delta, "bench.nic.", ".tx_bytes");
    out.set("simnet.tx_bytes_per_req", per_req(tx_bytes));
    out.set(
        "simnet.nic_tx_util_max",
        ratio(max(delta, "bench.nic.", ".tx_busy_ns"), span_ns),
    );
    out.set("simnet.dropped", sum(delta, "bench.net.dropped", "") as f64);

    out.set(
        "memsim.node_bytes_per_req",
        per_req(sum(delta, "node.", ".mem.traffic_bytes")),
    );
    out.set("memsim.dm_bytes_per_req", per_req(dm_bytes(delta)));

    out.set(
        "rpclib.calls_per_req",
        per_req(sum(delta, "rpc.", ".calls_completed")),
    );
    out.set(
        "rpclib.retransmits",
        sum(delta, "rpc.", ".retransmits") as f64,
    );
    out.set("rpclib.timeouts", sum(delta, "rpc.", ".timeouts") as f64);
    out.set(
        "rpclib.handler_us_mean",
        ratio(
            sum(delta, "bench.rpc.handler_sum_ns", ""),
            sum(delta, "bench.rpc.handler_count", ""),
        ) / 1e3,
    );

    let hits = sum(delta, "dmclient.", ".cache.hits");
    let misses = sum(delta, "dmclient.", ".cache.misses");
    out.set("dmnet.cache.hit_rate", ratio(hits, hits + misses));
    out.set(
        "dmnet.cache.invalidations_per_kreq",
        per_req(sum(delta, "dmclient.", ".cache.invalidations")) * 1e3,
    );
    out.set(
        "dmnet.client.wire_msgs_per_req",
        per_req(sum(delta, "bench.dmclient.wire_msgs", "")),
    );
    out.set(
        "dmnet.client.ops_per_batch",
        ratio(
            sum(delta, "dmclient.", ".cache.batched_ops"),
            sum(delta, "dmclient.", ".cache.batches"),
        ),
    );
    out.set(
        "dmnet.client.busy_retried",
        sum(delta, "bench.dmclient.busy_retried", "") as f64,
    );
    out.set(
        "dmnet.client.redirects_chased",
        sum(delta, "bench.dmclient.redirects_chased", "") as f64,
    );

    out.set(
        "dmnet.server.ops_per_req",
        per_req(sum(delta, "dm.shard.", ".ops")),
    );
    let busiest = max(delta, "dm.shard.", ".ops");
    let idlest = delta
        .iter()
        .filter(|(k, _)| k.starts_with("dm.shard.") && k.ends_with(".ops"))
        .map(|(_, v)| v)
        .min()
        .unwrap_or(0);
    out.set("dmnet.server.balance", ratio(idlest, busiest));
    out.set(
        "dmnet.server.free_frac_end",
        ratio(
            sum(end, "bench.dmserver.free_pages", ""),
            sum(end, "bench.dmserver.capacity_pages", ""),
        ),
    );
    out.set(
        "dmnet.admission.rejected",
        sum(delta, "dm.shard.", ".rejected") as f64,
    );
    out.set(
        "dmnet.admission.shed",
        sum(delta, "dm.shard.", ".shed") as f64,
    );
    out.set(
        "dmnet.shard.migrations",
        sum(delta, "dm.shard.", ".migrations") as f64,
    );
    out.set(
        "dmnet.shard.redirects",
        sum(delta, "dm.shard.", ".redirects") as f64,
    );
    out.set(
        "dmnet.wal.records",
        sum(delta, "bench.dmserver.wal_records", "") as f64,
    );
    out.set(
        "dmnet.coherence.inv_pushed",
        sum(delta, "bench.dmserver.inv_pushed", "") as f64,
    );
    out.set(
        "dmnet.coherence.broadcasts",
        sum(delta, "bench.dmserver.broadcasts", "") as f64,
    );

    out.set(
        "dmcxl.gfam_bytes_per_req",
        per_req(sum(delta, "gfam.traffic_bytes", "")),
    );
    out.set(
        "dmcxl.gfam_atomics_per_req",
        per_req(sum(delta, "bench.gfam.atomics", "")),
    );
    out.set(
        "dmcxl.faults_per_req",
        per_req(sum(delta, "bench.cxl.faults", "")),
    );
    out.set(
        "dmcxl.cow_copies_per_req",
        per_req(sum(delta, "bench.cxl.cow_copies", "")),
    );
    out.set(
        "dmcxl.coord_rpcs_per_kreq",
        per_req(sum(delta, "bench.cxl.coord_rpcs", "")) * 1e3,
    );

    out.set(
        "apps.cpu_util_max",
        ratio(max(delta, "bench.cpu.", ".busy_ns_per_core"), span_ns),
    );
    out.set(
        "apps.cpu_ops_per_req",
        per_req(sum(delta, "bench.cpu.", ".ops")),
    );
}
