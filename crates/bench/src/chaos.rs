//! Chaos harness (DESIGN.md §8): seed-swept fault injection over the
//! paper's workloads, with global invariant checks after every run.
//!
//! Each case builds a fresh simulation, runs one workload under one fault
//! class driven by a deterministic schedule, then heals the fabric and
//! verifies:
//!
//! * **refcount conservation** — every DM server's `check_invariants` holds;
//! * **no page leaks** — once every client process is gone (crashed, with
//!   its lease expired), the free list returns to the full pool capacity;
//! * **COW isolation** — a shared ref always reads its original bytes, no
//!   matter how many faulted writers COW-diverge their own mappings;
//! * **typed completion** — every request either completes or returns a
//!   typed error (a hang would deadlock `block_on`, failing the run);
//! * **determinism** — the same seed and fault class reproduce the same
//!   virtual-time fingerprint, bit for bit;
//! * **crash durability** — under the server-crash class every crash
//!   heals via `restart_from_log` and the rebuilt memory plane must be
//!   digest-identical to the acknowledged pre-crash state. Every
//!   acknowledged `put_ref` whose owner's lease survived must read back
//!   byte-exact; every ref of a lease-reclaimed owner must be fully
//!   released (zero lost acknowledged puts, zero resurrected frees —
//!   DESIGN.md §12).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::social::build_social_scaled;
use apps::workload::{run_closed_loop, run_open_loop_classified};
use bytes::Bytes;
use dmnet::{DmNetClient, DmServer, DmServerConfig};
use loadgen::Population;
use memsim::ModelParams;
use rpclib::{RpcBuilder, RpcConfig};
use simcore::{Sim, SimRng};
use simnet::{FabricConfig, GilbertElliott, Network, NicConfig, NodeId};

use crate::report::{Bound, Table};

/// The fault classes swept by the harness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Gilbert–Elliott bursty loss on random links.
    BurstyLoss,
    /// Transient partitions between random node pairs.
    Partition,
    /// Packet duplication + reordering on random links.
    DupReorder,
    /// DM-server crash windows plus one client fail-stop (exercises
    /// lease-based reclamation). Every crash comes back through
    /// `restart_from_log` (DESIGN.md §12), and the driver asserts the
    /// rebuilt memory plane is digest-identical to the pre-crash state
    /// (zero lost acknowledged ops, zero resurrected frees).
    ServerCrash,
}

impl FaultClass {
    /// All fault classes, in sweep order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::BurstyLoss,
        FaultClass::Partition,
        FaultClass::DupReorder,
        FaultClass::ServerCrash,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::BurstyLoss => "bursty-loss",
            FaultClass::Partition => "partition",
            FaultClass::DupReorder => "dup-reorder",
            FaultClass::ServerCrash => "server-crash",
        }
    }
}

/// Outcome of one chaos case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Requests that completed successfully inside the window.
    pub completed: u64,
    /// Requests that returned a typed error inside the window.
    pub errors: u64,
    /// Virtual end time of the run, ns.
    pub end_ns: u64,
    /// Executor poll count (schedule fingerprint).
    pub polls: u64,
    /// Order-sensitive checksum over successful payload reads.
    pub checksum: u64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

/// What a case's simulation hands back: (completed, errors, checksum,
/// violations).
type Tally = (u64, u64, u64, Vec<String>);

impl CaseResult {
    /// Close a case: its tally plus the schedule fingerprint of the
    /// simulation that produced it.
    fn of(sim: &Sim, (completed, errors, checksum, violations): Tally) -> CaseResult {
        CaseResult {
            completed,
            errors,
            end_ns: sim.now().nanos(),
            polls: sim.poll_count(),
            checksum,
            violations,
        }
    }

    /// The bit-for-bit reproducibility fingerprint.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.polls,
            self.end_ns,
            self.completed,
            self.errors,
            self.checksum,
        )
    }
}

/// RPC tuning for chaos runs: short RTOs and a hard retry budget so every
/// faulted request fails in bounded virtual time instead of hanging.
pub fn chaos_rpc_config() -> RpcConfig {
    RpcConfig {
        rto: Duration::from_micros(40),
        rto_per_packet: Duration::from_micros(10),
        rto_max: Duration::from_micros(320),
        max_retries: 8,
        retry_jitter: 0.1,
        retry_budget: Some(Duration::from_micros(600)),
        ..RpcConfig::default()
    }
}

/// Lease TTL used by chaos runs (short, so reclamation happens within the
/// drain phase).
const LEASE_TTL: Duration = Duration::from_micros(200);

/// The one chaos deployment, every plane composed (the bare-pool COW case
/// starts its server from its `.dm`): bounded retries, short leases, a
/// small pool so leaks show, and the zero-cost write-ahead log (DESIGN.md
/// §12), the only way a crashed server comes back. Every fault window also
/// races the death lists and counts of DESIGN.md §9, which are always on. Durability is
/// set here, never inherited from `DM_DURABLE`, so chaos fingerprints do
/// not depend on the environment.
fn chaos_config() -> ClusterConfig {
    ClusterConfig {
        rpc: chaos_rpc_config(),
        dm: DmServerConfig {
            capacity_pages: 4096,
            lease_ttl: Some(LEASE_TTL),
            durability: Some(dmnet::WalConfig::zero_cost()),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A bare-pool chaos client on its own node: chaos RPC tuning, no
/// concurrency limit, the client cache on iff `cached`.
async fn chaos_client(
    net: &Network,
    name: &str,
    pool: &[simnet::Addr],
    cached: bool,
) -> (NodeId, Rc<DmNetClient>) {
    let node = net.add_node(name, NicConfig::default());
    let rpc = RpcBuilder::new(net, node, 100)
        .config(chaos_rpc_config())
        .build();
    let client = DmNetClient::connect_with(rpc, pool.to_vec(), cached)
        .await
        .expect("fault-free connect");
    (node, Rc::new(client))
}

/// Every ordered pair of distinct nodes.
fn mesh(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    nodes
        .iter()
        .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
        .filter(|(a, b)| a != b)
        .collect()
}

/// The rig every case runs on: the fault driver over the case's links
/// (none for a fault-free run), the shared violation list and checksum,
/// and the two-step teardown ([`Rig::heal`], [`Rig::reclaim`]) that
/// proves nothing leaked.
struct Rig {
    net: Network,
    servers: Vec<Rc<DmServer>>,
    fault: Option<FaultClass>,
    stop: Cell<bool>,
    checksum: Cell<u64>,
    violations: RefCell<Vec<String>>,
}

impl Rig {
    /// Start the fault schedule for `seed` over `links`, crashing
    /// `servers` under [`FaultClass::ServerCrash`]. Each of them must have
    /// a log to come back through.
    fn start(
        net: &Network,
        servers: &[Rc<DmServer>],
        links: Vec<(NodeId, NodeId)>,
        fault: Option<FaultClass>,
        seed: u64,
    ) -> Rc<Rig> {
        assert!(
            servers.iter().all(|s| s.wal().is_some()),
            "a chaos DM server without a write-ahead log cannot recover from a crash"
        );
        let rig = Rc::new(Rig {
            net: net.clone(),
            servers: servers.to_vec(),
            fault,
            stop: Cell::new(false),
            checksum: Cell::new(0),
            violations: RefCell::new(Vec::new()),
        });
        if let Some(fault) = fault {
            spawn_fault_driver(rig.clone(), fault, links, SimRng::new(seed ^ 0xFA11));
        }
        rig
    }

    /// A rig over a whole cluster: every node pair is a fault candidate —
    /// services, the client, and the DM servers.
    fn over_cluster(cluster: &Cluster, fault: Option<FaultClass>, seed: u64) -> Rc<Rig> {
        let mut nodes: Vec<NodeId> = cluster.servers().iter().map(|s| s.id).collect();
        nodes.extend(cluster.dm_servers.iter().map(|s| s.addr().node));
        Rig::start(&cluster.net, &cluster.dm_servers, mesh(&nodes), fault, seed)
    }

    fn violation(&self, msg: impl Into<String>) {
        self.violations.borrow_mut().push(msg.into());
    }

    /// Order-sensitive fold of one successful result into the checksum.
    fn fold(&self, v: u64) {
        self.checksum
            .set(self.checksum.get().wrapping_mul(31).wrapping_add(v));
    }

    /// Bring crashed `s` back through its log. Its crashed memory is
    /// intact (fail-stop), so its digest is the recovery oracle: replaying
    /// the log must rebuild exactly the acknowledged pre-crash state.
    async fn recover(&self, s: &Rc<DmServer>) {
        let pre = s.pages_digest();
        let report = s.restart_from_log().await;
        if report.torn_tail {
            self.violation("recovery: torn tail in an uncorrupted log");
        }
        let post = s.pages_digest();
        if post != pre {
            self.violation(format!(
                "recovery: digest {post:#018x} != pre-crash {pre:#018x} \
                 ({} records replayed)",
                report.records_replayed
            ));
        }
    }

    /// Heal and drain: stop the schedule, clear every fault, recover any
    /// server still down; surviving retransmissions and async releases
    /// finish inside the retry budget.
    async fn heal(&self) {
        self.stop.set(true);
        self.net.clear_faults();
        for s in &self.servers {
            if s.is_crashed() {
                self.recover(s).await;
            }
        }
        simcore::sleep(Duration::from_millis(1)).await;
        for s in &self.servers {
            s.check_invariants_all();
        }
    }

    /// Fail-stop every client process; once the leases expire the sweeper
    /// must return every page — mappings leaked by faulted ops, a crashed
    /// client's pins, media of shed composes — to the free lists. Returns
    /// the case's violations.
    async fn reclaim(&self, clients: &[Rc<DmNetClient>]) -> Vec<String> {
        // eRPC has no DM plane: nothing to reclaim, no lease to wait out.
        if !self.servers.is_empty() {
            for c in clients {
                c.simulate_crash();
            }
            simcore::sleep(3 * LEASE_TTL).await;
            let (mut free, mut capacity, mut reclaimed) = (0, 0, 0);
            for s in &self.servers {
                s.sweep_expired_leases();
                s.check_invariants_all();
                free += s.free_pages_total();
                capacity += s.capacity_pages_total();
                reclaimed += s.leases_reclaimed();
            }
            if free != capacity {
                self.violation(format!(
                    "page leak after lease reclamation: {free} free of {capacity}"
                ));
            }
            if self.fault == Some(FaultClass::ServerCrash) && reclaimed == 0 {
                self.violation("crashed client's lease never reclaimed");
            }
        }
        self.violations.borrow().clone()
    }
}

/// The `fault` schedule of `rig`: toggles faults between random pairs from
/// `links` until the rig stops it, entirely driven by `rng`. The rig's
/// servers are the ones [`FaultClass::ServerCrash`] crashes; with none,
/// that class degrades to partition windows (a fail-stop node is
/// indistinguishable from a partitioned one). A crash ends in
/// [`Rig::recover`] unless the rig's heal already recovered the server.
fn spawn_fault_driver(rig: Rc<Rig>, fault: FaultClass, links: Vec<(NodeId, NodeId)>, rng: SimRng) {
    assert!(!links.is_empty(), "fault driver needs at least one link");
    simcore::spawn(async move {
        let (net, crash) = (&rig.net, &rig.servers);
        loop {
            let window = Duration::from_nanos(rng.gen_range_in(60_000, 250_000));
            let (a, b) = links[rng.gen_range(links.len() as u64) as usize];
            match fault {
                FaultClass::BurstyLoss => {
                    let ge = GilbertElliott::bursty();
                    net.set_link_gilbert(a, b, Some(ge));
                    net.set_link_gilbert(b, a, Some(ge));
                    simcore::sleep(window).await;
                    net.clear_link_faults(a, b);
                    net.clear_link_faults(b, a);
                }
                FaultClass::Partition => {
                    net.partition_for(a, b, window);
                    simcore::sleep(window).await;
                }
                FaultClass::DupReorder => {
                    net.set_link_duplicate(a, b, 0.3);
                    net.set_link_reorder(a, b, 0.3, Duration::from_micros(30));
                    net.set_link_duplicate(b, a, 0.3);
                    net.set_link_reorder(b, a, 0.3, Duration::from_micros(30));
                    simcore::sleep(window).await;
                    net.clear_link_faults(a, b);
                    net.clear_link_faults(b, a);
                }
                FaultClass::ServerCrash => {
                    if crash.is_empty() {
                        net.partition_for(a, b, window);
                        simcore::sleep(window).await;
                    } else {
                        let s = &crash[rng.gen_range(crash.len() as u64) as usize];
                        s.crash();
                        simcore::sleep(window).await;
                        if s.is_crashed() {
                            rig.recover(s).await;
                        }
                    }
                }
            }
            if rig.stop.get() {
                return;
            }
            let gap = Duration::from_nanos(rng.gen_range_in(40_000, 160_000));
            simcore::sleep(gap).await;
            if rig.stop.get() {
                return;
            }
        }
    });
}

/// Fig. 5 chain workload under one fault class. For `DmNet`, leases are on
/// and the teardown crashes every client, then verifies the sweeper returns
/// every page to the free list.
pub fn run_chain_case(kind: SystemKind, fault: FaultClass, seed: u64) -> CaseResult {
    let sim = Sim::new();
    let tally = sim.block_on(async move {
        let cluster = Cluster::new(kind, 2, chaos_config(), seed);
        let app = Rc::new(build_chain(&cluster, 3).await);
        let payload = Bytes::from(vec![7u8; 4096]);
        let want: u64 = payload.iter().map(|&b| b as u64).sum();
        app.request(&payload).await.expect("fault-free warmup");

        let rig = Rig::over_cluster(&cluster, Some(fault), seed);
        let m = {
            let app = app.clone();
            let rig = rig.clone();
            run_closed_loop(
                8,
                Duration::from_micros(100),
                Duration::from_micros(1200),
                Rc::new(move |_w, _i| {
                    let app = app.clone();
                    let payload = payload.clone();
                    let rig = rig.clone();
                    async move {
                        let sum = app.request(&payload).await?;
                        if sum != want {
                            rig.violation(format!("chain checksum {sum} != {want}"));
                        }
                        rig.fold(sum);
                        Ok::<(), dmcommon::DmError>(())
                    }
                }),
            )
            .await
        };

        rig.heal().await;
        let violations = rig.reclaim(&crate::rtt_budget::dm_clients(&cluster)).await;
        (m.completed, m.errors, rig.checksum.get(), violations)
    });
    CaseResult::of(&sim, tally)
}

/// Fig. 7 COW workload under one fault class: four clients hammer one
/// shared ref with map/COW-write/read cycles while faults run; one client
/// fail-stops mid-run under [`FaultClass::ServerCrash`]. Teardown crashes
/// the rest and verifies lease reclamation empties every pin.
pub fn run_cow_case(fault: FaultClass, seed: u64) -> CaseResult {
    const PATTERN: u8 = 0x5A;
    const REGION: usize = 8 * 4096;
    let sim = Sim::new();
    let tally = sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), seed);
        let params = ModelParams::new();
        let dm_node = net.add_node("dm0", NicConfig::default());
        let servers = dmnet::start_pool(&net, &[dm_node], &params, chaos_config().dm);
        let pool = vec![servers[0].addr()];
        let mut clients = Vec::new();
        let mut links = Vec::new();
        for i in 0..4 {
            // Client cache on: the fault sweep must hold every invariant
            // with the DESIGN.md §9 client cache in play.
            let (node, c) = chaos_client(&net, &format!("c{i}"), &pool, true).await;
            clients.push(c);
            links.push((node, dm_node));
        }

        // One shared region: the COW-isolation witness.
        let addr = clients[0].ralloc(REGION as u64).await.unwrap();
        clients[0]
            .rwrite(addr, &Bytes::from(vec![PATTERN; REGION]))
            .await
            .unwrap();
        let shared = Rc::new(clients[0].create_ref(addr, REGION as u64).await.unwrap());

        let rig = Rig::start(&net, &servers, links, Some(fault), seed);
        if fault == FaultClass::ServerCrash {
            // One client fail-stops mid-run; its lease must reclaim the
            // mapping it inevitably leaks.
            let victim = clients[3].clone();
            simcore::spawn(async move {
                simcore::sleep(Duration::from_micros(800)).await;
                victim.simulate_crash();
            });
        }

        // Zero-lost-acks oracle (crash class only): every acknowledged
        // `put_ref` from a non-victim client is recorded with its owner and
        // fill byte. After the last recovery the contract is a dichotomy:
        // an owner whose lease survived must read every acked ref back
        // byte-exact; an owner the lease plane reclaimed (repeated crash
        // windows can starve renewals past the TTL — that reclamation is
        // itself logged, hence crash-consistent) must see every ref
        // released, never a resurrected or half-alive one.
        let acked: Rc<RefCell<Vec<(usize, dmcommon::Ref, u8)>>> = Rc::new(RefCell::new(Vec::new()));
        let m = {
            let clients = clients.clone();
            let shared = shared.clone();
            let rig = rig.clone();
            let acked = acked.clone();
            run_closed_loop(
                4,
                Duration::from_micros(100),
                Duration::from_micros(1500),
                Rc::new(move |w: usize, i: u64| {
                    let ci = w % clients.len();
                    let victim = ci == 3;
                    let c = clients[ci].clone();
                    let shared = shared.clone();
                    let rig = rig.clone();
                    let acked = acked.clone();
                    async move {
                        // COW isolation: the shared ref always reads its
                        // original bytes, even while other workers write.
                        let probe = c.read_ref(&shared).await?;
                        if !probe.iter().all(|&b| b == PATTERN) {
                            rig.violation("COW isolation: shared ref mutated");
                        }
                        // Map, COW-diverge, verify the private copy, unmap.
                        // An op that faults mid-flight leaks its mapping —
                        // exactly what lease reclamation must clean up.
                        let mapping = c.map_ref(&shared).await?;
                        c.rwrite(mapping, &Bytes::from(vec![!PATTERN; 32])).await?;
                        let back = c.rread(mapping, 32).await?;
                        if !back.iter().all(|&b| b == !PATTERN) {
                            rig.violation("COW write lost on private mapping");
                        }
                        c.rfree(mapping).await?;
                        // Recovery oracle: record every acknowledged put
                        // (non-victim clients only — the victim fail-stops
                        // mid-run, racing its own worker). An errored put
                        // is indeterminate and stays out.
                        if fault == FaultClass::ServerCrash && !victim {
                            let fill = (w as u8).wrapping_mul(31).wrapping_add(i as u8) | 1;
                            if let Ok(r) = c.put_ref(&Bytes::from(vec![fill; 512])).await {
                                acked.borrow_mut().push((ci, r, fill));
                            }
                        }
                        rig.fold(probe[0] as u64);
                        Ok::<(), dmcommon::DmError>(())
                    }
                }),
            )
            .await
        };

        rig.heal().await;

        if fault == FaultClass::ServerCrash {
            // Which owners does the lease plane still recognize? A probe
            // alloc succeeds iff the pid is still registered (a reclaimed
            // owner gets `InvalidAddress` and would have to re-register).
            let mut alive = [false; 4];
            for (i, c) in clients.iter().enumerate() {
                if let Ok(probe) = c.ralloc(4096).await {
                    alive[i] = true;
                    let _ = c.rfree(probe).await;
                }
            }
            // Read every acked ref back through a fresh cache-off client,
            // so hits must come from the recovered server itself rather
            // than a survivor's cache.
            let (_, verifier) = chaos_client(&net, "verify", &pool, false).await;
            let acked_snapshot = acked.borrow().clone();
            for (ci, r, fill) in acked_snapshot.iter() {
                let got = verifier.read_ref(r).await;
                if alive[*ci] {
                    // Zero lost acknowledged puts.
                    match got {
                        Ok(b) if b.iter().all(|&x| x == *fill) => {}
                        Ok(_) => rig.violation(format!(
                            "recovery: acked put_ref (fill {fill:#04x}) read back wrong bytes"
                        )),
                        Err(e) => rig.violation(format!(
                            "recovery: acked put_ref (fill {fill:#04x}) lost: {e:?}"
                        )),
                    }
                } else {
                    // Zero resurrected frees: a reclaimed owner's refs are
                    // fully released, never half-alive.
                    match got {
                        Err(dmcommon::DmError::InvalidRef) => {}
                        other => rig.violation(format!(
                            "recovery: reclaimed owner's ref resurrected: {other:?}"
                        )),
                    }
                }
            }
            verifier.simulate_crash();
        }

        let violations = rig.reclaim(&clients).await;
        servers[0].shutdown(); // stops the lease sweeper
        (m.completed, m.errors, rig.checksum.get(), violations)
    });
    CaseResult::of(&sim, tally)
}

/// Scale factor for the overloaded social case: 10k users, big enough to
/// exercise the scaled population plumbing, small enough to keep the
/// seed sweep fast.
const SLO_SOCIAL_SF: u32 = 10;

/// Offered rate for the social case: 1.2× the SF=10 knee `slo_scale`
/// measures (and gates against its pin) — past saturation by design, so
/// the front-door window sheds under every fault class.
const SLO_SOCIAL_RATE: f64 = 1.2 * crate::slo_scale::SF10_KNEE_RPS;

/// DeathStarBench social workload over a scaled population, offered 1.2×
/// its measured knee with overload control ON (the front-door window of
/// `slo_scale`), under one fault class. On top of the shared invariants:
///
/// * **graceful degradation** — even overloaded and faulted, goodput
///   never collapses to zero: some requests complete, and `Busy` sheds
///   are typed rejections, never hangs or violations;
/// * **no leaks under shedding** — a shed compose must release the media
///   ref it minted before the front door bounced it; after heal +
///   client-crash + lease sweep, every page is back on the free lists
///   (media of shed composes included).
pub fn run_slo_social_case(fault: FaultClass, seed: u64) -> CaseResult {
    slo_social(Some(fault), seed)
}

/// The same deployment and load with no fault driver. The case tests
/// shed-under-fault, so the load must shed on its own: a run here without
/// a single `Busy` rejection is a violation (the offered rate has fallen
/// below the knee and the faulted cases have stopped covering shedding).
pub fn run_slo_social_fault_free(seed: u64) -> CaseResult {
    slo_social(None, seed)
}

fn slo_social(fault: Option<FaultClass>, seed: u64) -> CaseResult {
    let sim = Sim::new();
    let tally = sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, chaos_config(), seed);
        let pop = Population::new(SLO_SOCIAL_SF, 42);
        let window = Some(crate::slo_scale::FRONT_WINDOW);
        let app = Rc::new(build_social_scaled(&cluster, pop, 8192, seed, window).await);
        // Preload is fault-free: the driver spawns after it.
        app.preload(50).await.expect("fault-free preload");

        let rig = Rig::over_cluster(&cluster, fault, seed);
        let m = {
            let app = app.clone();
            let rig = rig.clone();
            run_open_loop_classified(
                SLO_SOCIAL_RATE,
                Duration::from_micros(100),
                Duration::from_micros(1000),
                SimRng::new(seed ^ 0x510),
                Rc::new(move |n: u64| {
                    let app = app.clone();
                    let rig = rig.clone();
                    async move {
                        app.mixed_request().await?;
                        // Completion-order fold: part of the determinism
                        // fingerprint.
                        rig.fold(n);
                        Ok::<(), dmcommon::DmError>(())
                    }
                }),
                Rc::new(|e: &dmcommon::DmError| matches!(e, dmcommon::DmError::Busy)),
            )
            .await
        };

        rig.heal().await;
        if m.completed == 0 {
            rig.violation(format!(
                "slo-social: goodput collapsed to zero ({} errors, {} rejected)",
                m.errors, m.rejected
            ));
        }
        if fault.is_none() && m.rejected == 0 {
            rig.violation(format!(
                "slo-social: {:.0} krps sheds nothing fault-free ({} completed) — \
                 the rate is no longer past the knee",
                SLO_SOCIAL_RATE / 1e3,
                m.completed
            ));
        }
        let violations = rig.reclaim(&crate::rtt_budget::dm_clients(&cluster)).await;
        // Rejections are deliberate shed, not errors: fold them into the
        // fingerprint via the error count so a classifier regression
        // (Busy counted as a real error) shifts the fingerprint.
        (
            m.completed,
            m.errors + m.rejected,
            rig.checksum.get(),
            violations,
        )
    });
    CaseResult::of(&sim, tally)
}

type Case = fn(FaultClass, u64) -> CaseResult;

/// Every workload the sweep runs under every fault class, in sweep order.
const CASES: [(&str, Case); 4] = [
    ("fig5-chain/erpc", |f, s| {
        run_chain_case(SystemKind::Erpc, f, s)
    }),
    ("fig5-chain/dmnet", |f, s| {
        run_chain_case(SystemKind::DmNet, f, s)
    }),
    ("fig7-cow/dmnet", run_cow_case),
    ("slo-social/dmnet", run_slo_social_case),
];

/// One executed case with its identity: the unit the sweep must reproduce
/// fingerprint-for-fingerprint at every thread count.
#[derive(Clone, Debug)]
pub struct CaseRecord {
    /// Workload label (e.g. `fig5-chain/dmnet`).
    pub name: &'static str,
    /// Fault class the case ran under.
    pub fault: FaultClass,
    /// Sweep seed.
    pub seed: u64,
    /// Whether this is a determinism rerun of the previous record (reruns
    /// count as cases but not toward completed/error totals).
    pub rerun: bool,
    /// The case outcome.
    pub result: CaseResult,
}

/// One seed's output: its case records plus any invariant violations.
type SeedResults = (Vec<CaseRecord>, Vec<String>);

/// Run every (workload × fault class) case for one seed, in a fixed
/// order, plus a determinism double-run of each case on every
/// `determinism_stride`-th seed (0 disables). This is the sweep's unit of
/// work: each case builds its own thread-local [`Sim`], so seeds are
/// independent by construction.
fn run_seed(seed: u64, determinism_stride: u64) -> SeedResults {
    let mut records = Vec::new();
    let mut violations: Vec<String> = run_slo_social_fault_free(seed)
        .violations
        .iter()
        .map(|v| format!("slo-social/dmnet fault-free seed {seed}: {v}"))
        .collect();
    for fault in FaultClass::ALL {
        for (name, case) in CASES {
            let r = case(fault, seed);
            for v in &r.violations {
                violations.push(format!("{name} {} seed {seed}: {v}", fault.label()));
            }
            let fp = r.fingerprint();
            records.push(CaseRecord {
                name,
                fault,
                seed,
                rerun: false,
                result: r,
            });
            if determinism_stride > 0 && seed.is_multiple_of(determinism_stride) {
                let again = case(fault, seed);
                if again.fingerprint() != fp {
                    violations.push(format!(
                        "{name} {} seed {seed}: nondeterministic ({:?} vs {:?})",
                        fault.label(),
                        fp,
                        again.fingerprint()
                    ));
                }
                records.push(CaseRecord {
                    name,
                    fault,
                    seed,
                    rerun: true,
                    result: again,
                });
            }
        }
    }
    (records, violations)
}

/// Result of one seed sweep.
pub struct SweepOutcome {
    /// Cases executed (workload x fault class x seed, counting reruns).
    pub cases: u64,
    /// Requests completed across all cases.
    pub completed: u64,
    /// Typed errors across all cases.
    pub errors: u64,
    /// All invariant violations, labeled with their case.
    pub violations: Vec<String>,
    /// Every executed case in deterministic (seed-major) order.
    pub records: Vec<CaseRecord>,
}

/// Sweep `seeds` serially across every fault class and workload: exactly
/// [`sweep_parallel`] on one thread.
pub fn sweep(seeds: std::ops::Range<u64>, determinism_stride: u64) -> SweepOutcome {
    sweep_parallel(seeds, determinism_stride, 1)
}

/// Sweep `seeds` across every fault class and workload on `threads` OS
/// threads via [`crate::pool::scoped_map`] (seed *i* → thread *i* mod
/// `threads`). Every `determinism_stride`-th seed (0 disables) runs each
/// case twice and the fingerprints must match bit for bit. Every case
/// builds its own thread-local [`Sim`], so nothing is shared between
/// workers; the pool returns results in ascending seed order, making the
/// outcome — per-seed fingerprints included — independent of `threads`.
pub fn sweep_parallel(
    seeds: std::ops::Range<u64>,
    determinism_stride: u64,
    threads: usize,
) -> SweepOutcome {
    let all: Vec<u64> = seeds.collect();
    let per_seed =
        crate::pool::scoped_map(all.len(), threads, |i| run_seed(all[i], determinism_stride));
    let mut out = SweepOutcome {
        cases: 0,
        completed: 0,
        errors: 0,
        violations: Vec::new(),
        records: Vec::new(),
    };
    for (records, violations) in per_seed {
        for r in &records {
            out.cases += 1;
            if !r.rerun {
                out.completed += r.result.completed;
                out.errors += r.result.errors;
            }
        }
        out.records.extend(records);
        out.violations.extend(violations);
    }
    out
}

/// Run the full sweep (`CHAOS_SEEDS` seeds per fault class, on
/// `SIM_THREADS` workers) and write `results/xtra_chaos.csv`. Any
/// violation fails the `violations` gate (the CI `chaos` job gates on the
/// exit status).
pub fn run() {
    let knobs = crate::pool::knobs();
    let out = sweep_parallel(0..knobs.chaos_seeds, 10, knobs.sim_threads);
    let mut t = Table::new(
        "xtra_chaos",
        &["fault", "cases", "completed", "errors", "violations"],
    );
    for fault in FaultClass::ALL {
        let mut cases = 0u64;
        let mut completed = 0u64;
        let mut errors = 0u64;
        let mut violations = 0usize;
        for r in out.records.iter().filter(|r| r.fault == fault) {
            cases += 1;
            if !r.rerun {
                completed += r.result.completed;
                errors += r.result.errors;
                violations += r.result.violations.len();
            }
        }
        t.row(&[&fault.label(), &cases, &completed, &errors, &violations]);
    }
    for v in &out.violations {
        eprintln!("VIOLATION: {v}");
    }
    t.gate(
        "chaos invariant violations",
        out.violations.len() as f64,
        Bound::AtMost(0.0),
    );
    t.finish();
    println!(
        "  chaos sweep: {} seeds x {} fault classes on {} threads",
        knobs.chaos_seeds,
        FaultClass::ALL.len(),
        knobs.sim_threads,
    );
}
