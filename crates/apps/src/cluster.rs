//! Cluster construction: wires nodes, RPC endpoints and a DM backend into
//! one of the paper's three systems (eRPC baseline, DmRPC-net, DmRPC-CXL).

use std::cell::RefCell;
use std::rc::{Rc, Weak};
use std::time::Duration;

use dmcxl::{CxlFabric, CxlHostConfig};
use dmnet::{DmNetClient, DmServer, DmServerConfig};
use dmrpc::{DmHandle, DmRpc};
use memsim::{ModelParams, NodeMemory};
use rpclib::{RpcBuilder, RpcConfig};
use simcore::{CpuPool, JoinHandle};
use simnet::{Addr, FabricConfig, Network, NicConfig, NodeId};
use telemetry::{InstallGuard, Registry, Snapshot, Tracer};

/// Which of the paper's systems a cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// Pass-by-value eRPC (the baseline).
    Erpc,
    /// DmRPC over network-attached DM servers.
    DmNet,
    /// DmRPC over the CXL G-FAM pool.
    DmCxl,
}

impl SystemKind {
    /// All three systems, in the paper's presentation order.
    pub const ALL: [SystemKind; 3] = [SystemKind::Erpc, SystemKind::DmNet, SystemKind::DmCxl];

    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Erpc => "eRPC",
            SystemKind::DmNet => "DmRPC-net",
            SystemKind::DmCxl => "DmRPC-CXL",
        }
    }
}

/// How DmNet endpoints place `put_ref` data across the DM pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmPlacement {
    /// Round-robin across the pool (paper §VI-A; the default, preserving
    /// the pre-sharding wire behavior exactly).
    RoundRobin,
    /// Consistent-hash sharded placement with ownership migration
    /// (DESIGN.md §13). Every endpoint builds the same ring off the
    /// cluster seed and routes refs locally; workloads ride it unchanged.
    Sharded,
}

/// One compute server: node id plus its CPU and memory models.
#[derive(Clone)]
pub struct ServiceNode {
    /// Fabric node.
    pub id: NodeId,
    /// Application cores (paper testbed: 12 usable cores per socket).
    pub cpu: CpuPool,
    /// Memory system (traffic counters feed Fig. 6b).
    pub mem: NodeMemory,
}

/// Cluster-wide tuning.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Cores per compute server.
    pub cores_per_node: u64,
    /// Pass-by-reference threshold override (None = dmrpc default).
    pub threshold: Option<u64>,
    /// RPC tuning applied to every endpoint created via
    /// [`Cluster::endpoint`] (chaos runs shorten RTOs and set a retry
    /// budget so faulted requests fail in bounded time).
    pub rpc: RpcConfig,
    /// The DM pool: every DmNet server starts with exactly this, and every
    /// plane it turns on (leases, durability, admission, coherence) is
    /// stated here and nowhere else — endpoints learn what they need when
    /// they register. The CXL backend reads the two fields that mean
    /// something to it: `capacity_pages` sizes the whole G-FAM device and
    /// `copy_mode` selects COW or the `-copy` ablation.
    pub dm: DmServerConfig,
    /// Client-side translation/ref cache and control-op coalescer applied
    /// to every DmNet endpoint (DESIGN.md §9). Defaults to all-on — the
    /// DmRPC-net system is measured with its cached client; benches ablate
    /// it by passing [`dmnet::CacheConfig::default`] (all off).
    pub dm_client_cache: dmnet::CacheConfig,
    /// Ref placement policy for DmNet endpoints (DESIGN.md §13). Defaults
    /// to [`DmPlacement::RoundRobin`], the paper's scheme.
    pub dm_placement: DmPlacement,
    /// Bound on each DmNet endpoint's concurrent DM wire ops (DESIGN.md
    /// §14). Default: unlimited.
    pub dm_client_max_inflight: Option<u64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cores_per_node: 12,
            threshold: None,
            rpc: RpcConfig::default(),
            dm: DmServerConfig::default(),
            dm_client_cache: dmnet::CacheConfig::all_on(),
            dm_placement: DmPlacement::RoundRobin,
            dm_client_max_inflight: None,
        }
    }
}

/// A simulated deployment of one system.
pub struct Cluster {
    /// The fabric.
    pub net: Network,
    /// Shared memory-model parameters (CXL latency knob lives here).
    pub params: ModelParams,
    /// Which system this cluster runs.
    pub kind: SystemKind,
    config: ClusterConfig,
    /// Simulation seed the cluster was built with; sharded endpoints
    /// derive their placement ring from it.
    seed: u64,
    nodes: RefCell<Vec<ServiceNode>>,
    /// DM servers (DmNet only).
    pub dm_servers: Vec<Rc<DmServer>>,
    dm_pool: Vec<Addr>,
    fabric: Option<CxlFabric>,
    endpoints: RefCell<Vec<Weak<DmRpc>>>,
    /// Installed tracer plus its thread-local activation guard (the guard
    /// deactivates tracing when the cluster drops).
    tracing: RefCell<Option<(Rc<Tracer>, InstallGuard)>>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Handlers close over their endpoints, which own the Rpc that owns
        // the handlers: an Rc cycle. Benches build many clusters in one
        // process, so break the cycle explicitly at teardown.
        for ep in self.endpoints.borrow().iter() {
            if let Some(ep) = ep.upgrade() {
                ep.rpc().shutdown();
            }
        }
        for s in &self.dm_servers {
            s.shutdown();
        }
        if let Some(f) = &self.fabric {
            f.coordinator().shutdown();
        }
    }
}

impl Cluster {
    /// Build a cluster for `kind`. For DmNet, `n_dm_servers` memory nodes
    /// are created (the paper uses two); for DmCxl one coordinator node is
    /// created. Must be called inside the simulation.
    pub fn new(kind: SystemKind, n_dm_servers: usize, config: ClusterConfig, seed: u64) -> Cluster {
        let net = Network::new(FabricConfig::default(), seed);
        let params = ModelParams::new();
        let mut dm_servers = Vec::new();
        let mut dm_pool = Vec::new();
        let mut fabric = None;
        match kind {
            SystemKind::Erpc => {}
            SystemKind::DmNet => {
                // A DmNet cluster without memory servers is a configuration
                // bug; fail loudly instead of silently provisioning one.
                assert!(
                    n_dm_servers >= 1,
                    "DmNet cluster needs at least one DM server (got 0)"
                );
                for i in 0..n_dm_servers {
                    let node = net.add_node(format!("dm{i}"), NicConfig::default());
                    let mem = NodeMemory::with_defaults(format!("dm{i}"), params.clone());
                    let s = DmServer::start(&net, node, mem, config.dm);
                    dm_pool.push(s.addr());
                    dm_servers.push(s);
                }
            }
            SystemKind::DmCxl => {
                let coord = net.add_node("coord", NicConfig::default());
                let host_cfg = CxlHostConfig {
                    copy_mode: config.dm.copy_mode,
                    ..Default::default()
                };
                fabric = Some(CxlFabric::new(
                    &net,
                    coord,
                    config.dm.capacity_pages,
                    params.clone(),
                    host_cfg,
                ));
            }
        }
        Cluster {
            net,
            params,
            kind,
            config,
            seed,
            nodes: RefCell::new(Vec::new()),
            dm_servers,
            dm_pool,
            fabric,
            endpoints: RefCell::new(Vec::new()),
            tracing: RefCell::new(None),
        }
    }

    /// Install a deterministic tracer for this cluster's runs: `seed` feeds
    /// span-id generation, and one request in `sample_every` is head-sampled
    /// (0 records nothing). The tracer stays active until the cluster drops
    /// or tracing is enabled again; the handle is also returned for export.
    pub fn enable_tracing(&self, seed: u64, sample_every: u64) -> Rc<Tracer> {
        let t = Rc::new(Tracer::new(seed, sample_every));
        let guard = t.install();
        *self.tracing.borrow_mut() = Some((t.clone(), guard));
        t
    }

    /// The installed tracer, if [`Cluster::enable_tracing`] was called.
    pub fn tracer(&self) -> Option<Rc<Tracer>> {
        self.tracing.borrow().as_ref().map(|(t, _)| t.clone())
    }

    /// Export the recorded spans as Chrome trace-event JSON (Perfetto /
    /// `chrome://tracing` loadable), naming every node the cluster knows.
    /// `None` unless tracing was enabled.
    pub fn trace_json(&self) -> Option<String> {
        let tracing = self.tracing.borrow();
        let (t, _) = tracing.as_ref()?;
        for n in self.nodes.borrow().iter() {
            t.set_node_name(n.id.0, self.net.node_name(n.id));
        }
        for s in &self.dm_servers {
            let node = s.addr().node;
            t.set_node_name(node.0, self.net.node_name(node));
        }
        if let Some(f) = &self.fabric {
            let node = f.coordinator().addr().node;
            t.set_node_name(node.0, self.net.node_name(node));
        }
        Some(t.export_chrome_json())
    }

    /// Build a metrics registry over every live stat source in the cluster
    /// under stable hierarchical names: `net.*` fabric counters,
    /// `sim.live_tasks` / `sim.timers_pending` (the executor under the
    /// snapshotting task; 0 outside a run loop),
    /// `node.<name>.*` per-server memory traffic and resource busy time
    /// (what [`utilization`] ranks), `rpc.<name>.<port>.*` endpoint
    /// counters, `dmclient.<name>.<port>.*` cache and wire counters,
    /// `dmserver.<i>.*` and `gfam.*` backend gauges. Two of them count host
    /// copies the design promises not to make: `rpc.flattened_msgs`
    /// ([`rpclib::flattened`], this thread's total — a simulation runs on
    /// one) and `dmserver.<i>.read_gathered_bytes` beside
    /// `read_viewed_bytes`. Gauges read live values, so one registry serves
    /// warmup deltas and final dumps.
    pub fn metrics(&self) -> Registry {
        let reg = Registry::new();
        {
            let net = self.net.clone();
            reg.register_gauge("net.delivered", move || net.delivered());
        }
        let sim_gauge = |read: fn(&simcore::Sim) -> usize| {
            move || simcore::try_current().map_or(0, |sim| read(&sim) as u64)
        };
        reg.register_gauge("sim.live_tasks", sim_gauge(simcore::Sim::live_tasks));
        reg.register_gauge(
            "sim.timers_pending",
            sim_gauge(simcore::Sim::pending_timers),
        );
        reg.register_gauge("rpc.flattened_msgs", rpclib::flattened);
        for id in (0..self.net.node_count() as u32).map(NodeId) {
            let name = self.net.node_name(id);
            let net = self.net.clone();
            reg.register_gauge(format!("node.{name}.nic.tx_busy_ns"), move || {
                net.node_tx_busy(id).as_nanos() as u64
            });
            let net = self.net.clone();
            reg.register_gauge(format!("node.{name}.nic.rx_busy_ns"), move || {
                net.node_rx_busy(id).as_nanos() as u64
            });
            let net = self.net.clone();
            reg.register_gauge(format!("node.{name}.nic.tx_pkts"), move || {
                net.node_tx_packets(id)
            });
            let net = self.net.clone();
            reg.register_gauge(format!("node.{name}.nic.rx_pkts"), move || {
                net.node_rx_packets(id)
            });
            // Not a busy time and not a sum: the deepest the receive queue
            // got since the last `reset_stats`. Read it from one snapshot,
            // not from a delta.
            let net = self.net.clone();
            reg.register_gauge(format!("node.{name}.nic.rx_queue_peak"), move || {
                net.node_rx_queue_peak(id)
            });
        }
        for n in self.nodes.borrow().iter() {
            let name = self.net.node_name(n.id);
            let mem = n.mem.clone();
            reg.register_gauge(format!("node.{name}.mem.traffic_bytes"), move || {
                mem.traffic_bytes()
            });
            let (cpu, cores) = (n.cpu.clone(), n.cpu.cores());
            reg.register_gauge(format!("node.{name}.cpu.busy_ns"), move || {
                cpu.busy_time().as_nanos() as u64
            });
            reg.register_gauge(format!("node.{name}.cpu.cores"), move || cores);
        }
        for ep in self.endpoints() {
            let addr = ep.addr();
            let name = self.net.node_name(addr.node);
            let base = format!("rpc.{}.{}", name, addr.port);
            let s = ep.rpc().stats();
            reg.register_counter(format!("{base}.calls_completed"), &s.calls_completed);
            reg.register_counter(format!("{base}.retransmits"), &s.retransmits);
            reg.register_counter(format!("{base}.requests_handled"), &s.requests_handled);
            reg.register_counter(format!("{base}.timeouts"), &s.timeouts);
            if let Some(DmHandle::Net(c)) = ep.dm() {
                let base = format!("dmclient.{}.{}", name, addr.port);
                let cache = c.clone();
                reg.register_gauge(format!("{base}.cache.hits"), move || {
                    cache.cache_stats().hits()
                });
                let cache = c.clone();
                reg.register_gauge(format!("{base}.cache.misses"), move || {
                    cache.cache_stats().misses()
                });
                let cache = c.clone();
                reg.register_gauge(format!("{base}.cache.invalidations"), move || {
                    cache.cache_stats().invalidations()
                });
                let cache = c.clone();
                reg.register_gauge(format!("{base}.cache.batched_ops"), move || {
                    cache.cache_stats().batched_ops()
                });
                let cache = c.clone();
                reg.register_gauge(format!("{base}.cache.batches"), move || {
                    cache.cache_stats().batches()
                });
                for ty in [
                    dmnet::proto::req::RELEASE_REF,
                    dmnet::proto::req::MAP_REF,
                    dmnet::proto::req::READ_REF,
                    dmnet::proto::req::BATCH,
                ] {
                    let cache = c.clone();
                    reg.register_gauge(
                        format!("{base}.wire.{}", dmnet::proto::req_name(ty)),
                        move || cache.wire_count(ty),
                    );
                }
            }
        }
        // Coherence view (DESIGN.md §15), registered only when the pool is
        // coherent so default-config telemetry dumps are unchanged:
        // cluster-wide cache outcomes plus invalidation mix.
        if self.config.dm.coherence.is_some() {
            use dmnet::CacheStats;
            type View = fn(&CacheStats) -> u64;
            let views: [(&str, View); 4] = [
                ("hits", CacheStats::hits),
                ("misses", CacheStats::misses),
                ("targeted_inv", CacheStats::targeted_inv),
                ("broadcast_inv", CacheStats::broadcast_inv),
            ];
            for (name, read) in views {
                let eps = self.endpoints.borrow().clone();
                reg.register_gauge(format!("dm.cache.{name}"), move || {
                    let live = eps.iter().filter_map(Weak::upgrade);
                    let of_endpoint = |ep: Rc<DmRpc>| match ep.dm() {
                        Some(DmHandle::Net(c)) => read(c.cache_stats()),
                        _ => 0,
                    };
                    live.map(of_endpoint).sum()
                });
            }
            for (i, s) in self.dm_servers.iter().enumerate() {
                let pushed = format!("dmserver.{i}.inv_pushed");
                server_gauge(&reg, s, pushed, DmServer::invalidations_pushed);
                let broadcasts = format!("dmserver.{i}.inv_broadcasts");
                server_gauge(&reg, s, broadcasts, DmServer::coherence_broadcasts);
            }
        }
        for (i, s) in self.dm_servers.iter().enumerate() {
            let name = self.net.node_name(s.addr().node);
            let gauge =
                |name: String, read: fn(&DmServer) -> u64| server_gauge(&reg, s, name, read);
            gauge(format!("node.{name}.cpu.busy_ns"), |s| {
                s.cpu_busy_time().as_nanos() as u64
            });
            gauge(format!("node.{name}.cpu.cores"), DmServer::cpu_cores);
            gauge(
                format!("dmserver.{i}.leases_reclaimed"),
                DmServer::leases_reclaimed,
            );
            gauge(format!("dmserver.{i}.epoch"), DmServer::epoch);
            gauge(format!("dmserver.{i}.traffic_bytes"), |s| {
                s.memory().traffic_bytes()
            });
            // Bytes read out as a view of the buffer the pages lie in, and
            // bytes that had to be gathered into a new one.
            gauge(format!("dmserver.{i}.read_viewed_bytes"), |s| {
                s.with_page_manager(|pm| pm.read_bytes().0)
            });
            gauge(format!("dmserver.{i}.read_gathered_bytes"), |s| {
                s.with_page_manager(|pm| pm.read_bytes().1)
            });
            if s.wal().is_some() {
                gauge(format!("dmserver.{i}.wal.records"), |s| {
                    s.wal().map_or(0, |w| w.records())
                });
                gauge(format!("dmserver.{i}.wal.log_bytes"), |s| {
                    s.wal().map_or(0, |w| w.log_bytes())
                });
                gauge(format!("dmserver.{i}.wal.compactions"), |s| {
                    s.wal().map_or(0, |w| w.compactions())
                });
                gauge(format!("dmserver.{i}.recoveries"), DmServer::recoveries);
            }
            // Sharded-plane counters (DESIGN.md §13). `ops` counts every
            // request the server dispatched, so the gauge doubles as the
            // per-server load-balance view even with ring placement off
            // (`<i>` is the server's index in the pool, i.e. in the ring).
            gauge(format!("dm.shard.{i}.ops"), DmServer::ops_served);
            gauge(format!("dm.shard.{i}.migrations"), DmServer::migrations);
            gauge(format!("dm.shard.{i}.redirects"), DmServer::redirects);
            // Overload-control counters (DESIGN.md §14): 0 unless the
            // pool runs admission control.
            gauge(
                format!("dm.shard.{i}.rejected"),
                DmServer::admission_rejected,
            );
            gauge(format!("dm.shard.{i}.shed"), DmServer::admission_shed);
        }
        if let Some(f) = &self.fabric {
            let g = f.gfam().clone();
            reg.register_gauge("gfam.traffic_bytes", move || g.traffic_bytes());
        }
        reg
    }

    /// Start the bottleneck ledger ([`utilization`]) over the next `span`
    /// of virtual time; await the handle once the load it brackets is done.
    /// Cutting at `span` instead of at the load's completion keeps the
    /// drain of a backlog from diluting the resource that built it.
    pub fn utilization_over(&self, span: Duration) -> JoinHandle<Vec<Utilization>> {
        let metrics = self.metrics();
        let before = metrics.snapshot();
        simcore::spawn(async move {
            simcore::sleep(span).await;
            utilization(&before, &metrics.snapshot(), span)
        })
    }

    /// The CXL fabric, if this is a DmCxl cluster.
    pub fn cxl_fabric(&self) -> Option<&CxlFabric> {
        self.fabric.as_ref()
    }

    /// Add a compute server.
    pub fn add_server(&self, name: impl Into<String>) -> ServiceNode {
        let name = name.into();
        let id = self.net.add_node(name.clone(), NicConfig::default());
        let node = ServiceNode {
            id,
            cpu: CpuPool::new(self.config.cores_per_node),
            mem: NodeMemory::with_defaults(name, self.params.clone()),
        };
        self.nodes.borrow_mut().push(node.clone());
        node
    }

    /// All compute servers added so far.
    pub fn servers(&self) -> Vec<ServiceNode> {
        self.nodes.borrow().clone()
    }

    /// Create a DmRPC endpoint for one service process on `node`, with the
    /// cluster's transfer policy.
    pub async fn endpoint(&self, node: &ServiceNode, port: u16) -> Rc<DmRpc> {
        self.endpoint_with_config(node, port, self.config.rpc).await
    }

    /// Like [`Cluster::endpoint`] with an RPC config override.
    pub async fn endpoint_with_config(
        &self,
        node: &ServiceNode,
        port: u16,
        rpc_config: RpcConfig,
    ) -> Rc<DmRpc> {
        let rpc = RpcBuilder::new(&self.net, node.id, port)
            .config(rpc_config)
            .cpu(node.cpu.clone())
            .mem(node.mem.clone())
            .build();
        let ep = match self.kind {
            SystemKind::Erpc => DmRpc::baseline(rpc),
            SystemKind::DmNet => {
                let ring = (self.config.dm_placement == DmPlacement::Sharded)
                    .then(|| dmnet::HashRing::new(self.dm_pool.len(), self.seed));
                let dm = DmNetClient::connect_with(
                    rpc.clone(),
                    self.dm_pool.clone(),
                    self.config.dm_client_cache,
                    self.config.dm_client_max_inflight,
                    ring,
                )
                .await
                .expect("DM pool registration");
                let handle = DmHandle::Net(Rc::new(dm));
                match self.config.threshold {
                    Some(t) => DmRpc::with_threshold(rpc, handle, t),
                    None => DmRpc::new(rpc, handle),
                }
            }
            SystemKind::DmCxl => {
                let fabric = self.fabric.as_ref().expect("cxl fabric present");
                let handle = DmHandle::Cxl(fabric.new_host(rpc.clone()));
                match self.config.threshold {
                    Some(t) => DmRpc::with_threshold(rpc, handle, t),
                    None => DmRpc::new(rpc, handle),
                }
            }
        };
        self.endpoints.borrow_mut().push(Rc::downgrade(&ep));
        ep
    }

    /// Every endpoint created so far that is still alive (chaos hooks use
    /// this to crash clients and verify lease reclamation).
    pub fn endpoints(&self) -> Vec<Rc<DmRpc>> {
        self.endpoints
            .borrow()
            .iter()
            .filter_map(|w| w.upgrade())
            .collect()
    }

    /// Reset every statistics counter in the cluster (between warmup and
    /// measurement).
    pub fn reset_stats(&self) {
        self.net.reset_stats();
        for n in self.nodes.borrow().iter() {
            n.mem.reset_stats();
            n.cpu.reset_stats();
        }
        for s in &self.dm_servers {
            s.memory().reset_stats();
        }
        if let Some(f) = &self.fabric {
            f.gfam().reset_stats();
        }
    }

    /// Mean handler service time in µs for the endpoint at `(node, port)`
    /// and `req_type`, if that endpoint exists and has served requests.
    /// Powers per-tier breakdown reports.
    pub fn handler_mean_us(&self, node: NodeId, port: u16, req_type: u8) -> Option<f64> {
        for ep in self.endpoints.borrow().iter() {
            if let Some(ep) = ep.upgrade() {
                let addr = ep.addr();
                if addr.node == node && addr.port == port {
                    return ep.rpc().handler_time(req_type).map(|h| h.mean() / 1e3);
                }
            }
        }
        None
    }

    /// Total DM memory traffic (DM servers for net, G-FAM for CXL).
    pub fn dm_traffic_bytes(&self) -> u64 {
        let net_traffic: u64 = self
            .dm_servers
            .iter()
            .map(|s| s.memory().traffic_bytes())
            .sum();
        let cxl_traffic = self
            .fabric
            .as_ref()
            .map(|f| f.gfam().traffic_bytes())
            .unwrap_or(0);
        net_traffic + cxl_traffic
    }
}

/// Register `name` as a gauge reading `read` off the DM server `s`.
fn server_gauge(reg: &Registry, s: &Rc<DmServer>, name: String, read: fn(&DmServer) -> u64) {
    let s = s.clone();
    reg.register_gauge(name, move || read(&s));
}

/// How busy one node's resource was over a window.
#[derive(Clone, Debug, PartialEq)]
pub struct Utilization {
    /// Fabric node name (`sn-b`, `dm0`, ..).
    pub node: String,
    /// `nic.tx`, `nic.rx` or `cpu`.
    pub resource: String,
    /// Busy time over capacity (a CPU pool's capacity is its core count).
    /// A NIC books its service time when a packet is queued, so this is
    /// offered load: above 1 the window was handed more than it could
    /// serve and a backlog was growing.
    pub utilization: f64,
    /// NIC rows: the share of that busy time which is the fixed per-packet
    /// cost rather than bytes on the wire — near 1 the resource is bound by
    /// how many packets it handles, not by how much they carry.
    pub packet_share: Option<f64>,
}

impl std::fmt::Display for Utilization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {:.2}", self.node, self.resource, self.utilization)?;
        match self.packet_share {
            Some(share) => write!(f, " ({:.0}% per-packet)", share * 100.0),
            None => Ok(()),
        }
    }
}

/// The bottleneck ledger: every `node.<name>.*busy_ns` gauge of
/// [`Cluster::metrics`] as a utilization over the `elapsed` virtual time
/// between two snapshots, busiest first (ties in name order). A resource
/// with a `.._pkts` gauge beside it (the NICs) also says how much of its
/// busy time was per-packet cost; every [`Cluster`] node has the default
/// NIC, so that cost is [`NicConfig::default`]'s.
pub fn utilization(before: &Snapshot, after: &Snapshot, elapsed: Duration) -> Vec<Utilization> {
    let per_packet_ns = NicConfig::default().per_packet_overhead.as_nanos() as f64;
    let delta = |key: &str| Some(after.get(key)?.saturating_sub(before.get(key).unwrap_or(0)));
    let mut out: Vec<Utilization> = after
        .iter()
        .filter_map(|(key, _)| {
            let (node, gauge) = key.strip_prefix("node.")?.split_once('.')?;
            let resource = gauge.strip_suffix("busy_ns")?.trim_end_matches(['.', '_']);
            let busy = delta(key)? as f64;
            let cores = after.get(&format!("node.{node}.{resource}.cores"));
            let capacity = elapsed.as_nanos() as f64 * cores.unwrap_or(1) as f64;
            let packets = delta(&format!("node.{node}.{resource}_pkts"));
            Some(Utilization {
                node: node.to_string(),
                resource: resource.to_string(),
                utilization: busy / capacity.max(1.0),
                packet_share: packets.map(|n| n as f64 * per_packet_ns / busy.max(1.0)),
            })
        })
        .collect();
    out.sort_by(|a, b| b.utilization.total_cmp(&a.utilization));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simcore::Sim;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.cores_per_node, 12, "12 usable cores per socket");
        assert_eq!(c.dm.copy_mode, dmcommon::CopyMode::CopyOnWrite);
        assert!(c.threshold.is_none());
    }

    #[test]
    fn stats_reset_clears_everything() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 1);
            let node = cluster.add_server("svc");
            let ep = cluster.endpoint(&node, 100).await;
            let v = ep.make_value(Bytes::from(vec![1u8; 16384])).await.unwrap();
            ep.fetch(&v).await.unwrap();
            assert!(cluster.dm_traffic_bytes() > 0);
            cluster.reset_stats();
            assert_eq!(cluster.dm_traffic_bytes(), 0);
            assert_eq!(cluster.net.node_tx_bytes(node.id), 0);
            ep.release(&v).await.unwrap();
        });
    }

    #[test]
    fn busy_gauges_keep_off_summed_suffixes_and_rank_the_busy_resource() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 1);
            let busy = cluster.add_server("busy");
            let _idle = cluster.add_server("idle");
            let reg = cluster.metrics();
            // The repo benchmark sums registry keys by these suffixes; a
            // busy-time gauge under one of them would be added to bytes
            // moved or calls made.
            let new: Vec<String> = reg
                .names()
                .into_iter()
                .filter(|n| n.contains(".nic.") || n.contains(".cpu."))
                .collect();
            assert_eq!(new.len(), 3 * 5 + 3 * 2, "{new:?}");
            let summed = [
                ".traffic_bytes",
                ".calls_completed",
                ".retransmits",
                ".timeouts",
                ".delivered",
            ];
            for n in &new {
                assert!(n.starts_with("node."), "{n}");
                assert!(!summed.iter().any(|s| n.ends_with(s)), "{n}");
            }
            // The queue-depth gauge is neither a packet count nor a busy
            // time: `utilization` must not read it as a resource (the
            // ledger length below) or as a resource's `_pkts`.
            let queues: Vec<&String> = new.iter().filter(|n| n.contains("queue")).collect();
            assert_eq!(queues.len(), 3, "{queues:?}");
            for n in queues {
                assert!(n.ends_with(".nic.rx_queue_peak"), "{n}");
                assert!(!n.ends_with("_pkts") && !n.ends_with("busy_ns"), "{n}");
            }

            let before = reg.snapshot();
            let t0 = simcore::now();
            // One of twelve cores busy for the whole span.
            busy.cpu.execute(Duration::from_micros(120)).await;
            let ledger = utilization(&before, &reg.snapshot(), simcore::now() - t0);
            assert_eq!(ledger.len(), 3 * 2 + 2 + 1, "{ledger:?}");
            assert_eq!(
                (ledger[0].node.as_str(), ledger[0].resource.as_str()),
                ("busy", "cpu")
            );
            assert!((ledger[0].utilization - 1.0 / 12.0).abs() < 1e-9);
            assert_eq!(ledger[0].to_string(), "busy cpu 0.08");
            assert!(ledger[1..].iter().all(|u| u.utilization == 0.0));
            assert!(ledger
                .iter()
                .all(|u| u.packet_share.is_some() == (u.resource != "cpu")));
        });
    }

    #[test]
    fn sim_gauges_read_the_executor_and_show_calls_leaving_nothing() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let reg = sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 1);
            let (sn, cn) = (cluster.add_server("server"), cluster.add_server("client"));
            let server = cluster.endpoint(&sn, 100).await;
            server.rpc().register(9, |ctx| async move { ctx.payload });
            let client = cluster.endpoint(&cn, 100).await;
            let reg = cluster.metrics();
            // The fabric's delivery pump is spawned by the first datagram
            // sent and stays parked for good: one call before the baseline.
            let req = Bytes::from(vec![0u8; 10_000]);
            client.rpc().call(server.addr(), 9, req).await.unwrap();
            let tasks = reg.value("sim.live_tasks");
            assert_eq!(tasks, Some(sim2.live_tasks() as u64));
            for _ in 0..100 {
                let req = Bytes::from(vec![0u8; 10_000]);
                client.rpc().call(server.addr(), 9, req).await.unwrap();
            }
            assert_eq!(reg.value("sim.live_tasks"), tasks);
            assert_eq!(reg.value("sim.timers_pending"), Some(1), "the RTO timer");
            reg
        });
        // Outside a run loop there is no executor to read.
        assert_eq!(reg.value("sim.live_tasks"), Some(0));
    }

    #[test]
    fn nic_rows_say_how_much_of_their_busy_time_is_per_packet() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 1);
            let (sn, cn) = (cluster.add_server("server"), cluster.add_server("client"));
            let server = cluster.endpoint(&sn, 100).await;
            server
                .rpc()
                .register(9, |_| async { Bytes::from_static(b"ok") });
            let client = cluster.endpoint(&cn, 100).await;
            let reg = cluster.metrics();
            let tx_row = |payload: usize, calls: u64| {
                let (reg, client, dst) = (reg.clone(), client.clone(), server.addr());
                async move {
                    let (before, t0) = (reg.snapshot(), simcore::now());
                    for _ in 0..calls {
                        let req = Bytes::from(vec![0u8; payload]);
                        client.rpc().call(dst, 9, req).await.unwrap();
                    }
                    let after = reg.snapshot();
                    let sent = after.delta(&before).get("node.client.nic.tx_pkts");
                    let ledger = utilization(&before, &after, simcore::now() - t0);
                    let row = ledger
                        .into_iter()
                        .find(|u| u.node == "client" && u.resource == "nic.tx");
                    (sent, row.unwrap().packet_share.unwrap())
                }
            };
            // A small RPC is one packet each way and almost all overhead; a
            // 64 KiB argument is 16 packets of mostly bytes.
            let (sent, share) = tx_row(8, 10).await;
            assert_eq!(sent, Some(10));
            assert!(share > 0.9, "{share}");
            let (sent, share) = tx_row(64 << 10, 1).await;
            assert_eq!(sent, Some(16));
            assert!(share < 0.3, "{share}");
        });
    }

    #[test]
    fn handler_mean_us_finds_the_right_endpoint() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 1);
            let sn = cluster.add_server("server");
            let cn = cluster.add_server("client");
            let server = cluster.endpoint(&sn, 100).await;
            server.rpc().register(9, |ctx| async move {
                simcore::sleep(std::time::Duration::from_micros(5)).await;
                ctx.payload
            });
            let client = cluster.endpoint(&cn, 100).await;
            for _ in 0..4 {
                client
                    .rpc()
                    .call(server.addr(), 9, Bytes::from_static(b"x"))
                    .await
                    .unwrap();
            }
            let mean = cluster
                .handler_mean_us(sn.id, 100, 9)
                .expect("histogram exists");
            assert!((mean - 5.0).abs() < 0.5, "mean {mean}");
            assert!(cluster.handler_mean_us(sn.id, 100, 8).is_none());
            assert!(cluster.handler_mean_us(cn.id, 101, 9).is_none());
        });
    }

    #[test]
    fn drop_breaks_handler_cycles() {
        let sim = Sim::new();
        let weak = sim.block_on(async {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 1);
            let node = cluster.add_server("svc");
            let ep = cluster.endpoint(&node, 100).await;
            // A handler that closes over the endpoint: the classic cycle.
            let me = ep.clone();
            ep.rpc().register(1, move |ctx| {
                let _keep = me.clone();
                async move { ctx.payload }
            });
            let weak = Rc::downgrade(&ep);
            drop(ep);
            drop(cluster); // Drop impl shuts down every endpoint's handlers
            weak
        });
        assert!(
            weak.upgrade().is_none(),
            "endpoint leaked: the handler cycle was not broken"
        );
    }
}
