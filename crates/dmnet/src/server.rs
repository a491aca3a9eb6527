//! The DM server process (paper Fig. 3, right side).
//!
//! One `DmServer` runs on a memory node and serves the DM protocol over an
//! [`rpclib::Rpc`] endpoint. Every operation charges the server's CPU
//! ([`simcore::CpuPool`]) and memory system ([`memsim::NodeMemory`]):
//!
//! * per-operation dispatch CPU plus per-page refcount-update CPU;
//! * software address translation CPU (tracked separately so the paper's
//!   "translation is 0.17% of access time" observation can be reproduced);
//! * DRAM bandwidth and traffic for data reads/writes and for every page
//!   copied by COW or by the eager `-copy` ablation.
//!
//! **One page manager per server.** Paper §VI-C: "Concurrent requests
//! received in a single memory server will be dispatched to its different
//! CPU cores". Here that is [`DmServerConfig::cores`]: one [`PageManager`]
//! served by a pool of that many cores. A VA on the wire is the VA the
//! manager's tree returned and a plain ref key is the key it minted.
//! Memory is partitioned across *servers* only, by the consistent-hash
//! ring of DESIGN.md §13 — "shard" in this crate means a ring-placed
//! server.
//!
//! The server is split by plane. This file holds the configuration, the
//! process and lease lifecycle, key routing and the cost model. `dispatch`
//! holds the one body of every wire op; `recovery` the durable tier
//! (persist, snapshot, replay, `restart_from_log`); `coherence` everything
//! that decides how a change reaches client caches (epoch, versions, holder
//! directory, pushes); `migration` the `MIGRATE`/`MIGRATE_IN` pair.

mod coherence;
mod dispatch;
mod migration;
mod recovery;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use dmcommon::{CopyMode, DmError, DmResult, GlobalPid, PAGE_SIZE};
use memsim::NodeMemory;
use rpclib::{Message, Rpc, RpcBuilder, RpcConfig};
use simcore::{CpuPool, SimTime};
use simnet::{Addr, Network, NodeId};
use telemetry::SpanKind;

use crate::admission::{Admission, AdmissionConfig};
use crate::page_manager::{OpCost, PageManager};
use crate::proto::{self, moved_response};
use crate::shard::GKEY_BIT;
use crate::wal::{Record, Wal, WalConfig};

pub use coherence::CoherenceConfig;
pub use recovery::RecoveryReport;

/// Sentinel pid in a `Record::PutRef` (and owner node in a `MIGRATE_IN`
/// body) for an unowned ref (a migrated ref whose owner was not registered
/// at the destination); replay maps it back to `None`.
const NO_OWNER_PID: u32 = u32::MAX;

/// Translation lookups charged for touching `len` bytes of DM.
fn translations_for(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE as u64).max(1)
}

/// Outcome of resolving a wire ref key ([`DmServer::route_key`]): either
/// the page manager's key, or a ready-made redirect response for a gkey
/// that migrated away.
enum KeyRoute {
    Local(u64),
    Redirect(Message),
}

/// DM server tuning knobs. The four planes at the end are configured here
/// and nowhere else: what a client has to know about them it reads off the
/// reply to its `REGISTER` and the status of each response (DESIGN.md §15).
#[derive(Clone, Copy, Debug)]
pub struct DmServerConfig {
    /// Pinned pool size in pages (default 64 Ki pages = 256 MiB).
    pub capacity_pages: usize,
    /// COW (DmRPC) or eager copy (the `-copy` ablation).
    pub copy_mode: CopyMode,
    /// Worker cores serving DM requests (paper §VI-C; Fig. 7 uses 1).
    /// Request dispatch and every op's page-manager work share this pool.
    pub cores: u64,
    /// Fixed CPU cost per DM operation.
    pub per_op_cpu: Duration,
    /// CPU cost per page whose refcount / translation entry is updated.
    pub per_page_cpu: Duration,
    /// CPU cost of one software translation lookup.
    pub translation_cpu: Duration,
    /// Paper §V-A2 future work, implemented here as an option: "skip the
    /// software-based translation by modifying OS and letting MMU translate
    /// the DM virtual address directly to the physical address". When true,
    /// translation lookups cost no CPU.
    pub hw_translation: bool,
    /// Lease-based reclamation (DESIGN.md §8): when set, `REGISTER` grants
    /// each process a lease of this TTL (stated in the reply) and a
    /// background sweeper reclaims every pin of processes whose lease
    /// expires without renewal. `None` (default): no leases.
    pub lease_ttl: Option<Duration>,
    /// Durable tier (DESIGN.md §12): when set, every acknowledged mutating
    /// op appends a checksummed record to a write-ahead log *before* its
    /// response is sent, and [`DmServer::restart_from_log`] rebuilds the
    /// exact acknowledged state after a crash. The default is the one read
    /// of [`WalConfig::from_env`]: `None` unless `DM_DURABLE=1`, which
    /// selects the zero-cost media model (full bookkeeping, unchanged
    /// schedule — committed CSVs stay byte-identical).
    pub durability: Option<WalConfig>,
    /// Overload control (DESIGN.md §14): when set, requests pass a bounded
    /// admission queue with CoDel-style queue-delay shedding and are
    /// refused with the typed `Busy` wire code (which every client retries)
    /// when the server is saturated. `None` (default) admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Fine-grained cache coherence (DESIGN.md §15): when set, successful
    /// responses carry a `(key, version)` block for the refs they touched
    /// under their own ok status, mutating ops bump only the touched ref's
    /// version, and a bounded holder directory pushes targeted `INVALIDATE`
    /// messages instead of advancing the global epoch. `None` (default)
    /// keeps the global-epoch scheme.
    pub coherence: Option<CoherenceConfig>,
}

impl Default for DmServerConfig {
    fn default() -> Self {
        DmServerConfig {
            capacity_pages: 65536,
            copy_mode: CopyMode::CopyOnWrite,
            cores: 4,
            per_op_cpu: Duration::from_nanos(300),
            per_page_cpu: Duration::from_nanos(10),
            translation_cpu: Duration::from_nanos(15),
            hw_translation: false,
            lease_ttl: None,
            durability: WalConfig::from_env(),
            admission: None,
            coherence: None,
        }
    }
}

/// A running DM server.
pub struct DmServer {
    pm: RefCell<PageManager>,
    /// The server's cores: the RPC layer charges request dispatch on them
    /// and [`DmServer::charge`] every op's page-manager work.
    cpu: CpuPool,
    mem: NodeMemory,
    rpc: Rc<Rpc>,
    config: DmServerConfig,
    /// PID ownership: which endpoint registered each PID. Requests naming a
    /// PID are only honored from its owner (process isolation — a buggy or
    /// malicious service cannot free another process's regions).
    owners: RefCell<HashMap<u32, Addr>>,
    /// Lease expiry per PID (virtual time), present only when
    /// `config.lease_ttl` is set.
    leases: RefCell<HashMap<u32, SimTime>>,
    /// PIDs reclaimed by lease expiry (observability for chaos reports).
    leases_reclaimed: Cell<u64>,
    /// Invalidation epoch, piggybacked on every response (DESIGN.md §9).
    /// Advances whenever refs may have died: an explicit `RELEASE_REF` or a
    /// lease reclamation. Client caches fill at the epoch a response
    /// reports and self-invalidate when a later response reports a newer
    /// one.
    epoch: Cell<u64>,
    /// Set by [`DmServer::shutdown`]; stops the lease sweeper.
    stopping: Cell<bool>,
    /// Whether a lease-sweeper task is currently live. Crash cancels the
    /// sweeper outright (it disarms and exits at its next tick); restart
    /// paths re-arm a fresh one, and this flag keeps re-arming idempotent.
    sweeper_armed: Cell<bool>,
    /// The durable tier's write-ahead log, present when
    /// `config.durability` is set.
    wal: Option<Wal>,
    /// Completed `restart_from_log` recoveries (observability).
    recoveries: Cell<u64>,
    /// Sharded plane (DESIGN.md §13): global key → page-manager ref key
    /// for every gkey currently homed here.
    gmap: RefCell<HashMap<u64, u64>>,
    /// Redirect tombstones: gkeys that migrated away, with the forwarding
    /// address clients chase (one hop per tombstone).
    moved: RefCell<HashMap<u64, Addr>>,
    /// Requests served (the `dm.shard.<i>.ops` gauge; `<i>` is this
    /// server's index in the ring).
    ops_served: Cell<u64>,
    /// Migrations completed (outbound MIGRATE + inbound MIGRATE_IN).
    migrations: Cell<u64>,
    /// Redirect responses served off tombstones.
    redirects: Cell<u64>,
    translation_ns: Cell<u64>,
    op_ns: Cell<u64>,
    /// Overload controller, present when `config.admission` is set.
    admission: Option<Admission>,
    /// Coherence plane (DESIGN.md §15): per-ref versions, keyed by the
    /// wire-visible ref key (gkey or page-manager key). Holds only keys
    /// whose version differs from the implicit creation version 1 — in
    /// practice, migrated-in gkeys. Dead keys are removed (keys are
    /// minted once, so a dead key's version never needs to be compared
    /// again).
    versions: RefCell<HashMap<u64, u64>>,
    /// Holder directory: wire key → client endpoints granted a read
    /// lease on it, with grant expiry (BTreeMap: push order must be
    /// deterministic). Bounded by `CoherenceConfig::dir_max` total
    /// grants; overflow clears it and falls back to an epoch broadcast.
    dir: RefCell<coherence::HolderDir>,
    /// Total grants across `dir` (the bound is on grants, not keys).
    dir_grants: Cell<usize>,
    /// Targeted INVALIDATE messages pushed (observability).
    inv_pushed: Cell<u64>,
    /// Directory-overflow broadcasts (epoch bumps) taken (observability).
    broadcasts: Cell<u64>,
}

impl DmServer {
    /// Start a DM server on `node`, listening on [`proto::DM_PORT`].
    ///
    /// Must be called inside the simulation.
    pub fn start(
        net: &Network,
        node: NodeId,
        mem: NodeMemory,
        config: DmServerConfig,
    ) -> Rc<DmServer> {
        let cpu = CpuPool::new(config.cores);
        let rpc = RpcBuilder::new(net, node, proto::DM_PORT)
            .config(RpcConfig {
                // DMA lands directly in pinned pages; the data-path costs
                // are charged explicitly via the memory model instead.
                per_kb_cpu: Duration::ZERO,
                ..RpcConfig::default()
            })
            .mem(mem.clone())
            .cpu(cpu.clone())
            .build();
        let server = Rc::new(DmServer {
            pm: RefCell::new(PageManager::new(config.capacity_pages, config.copy_mode)),
            cpu,
            mem,
            rpc,
            config,
            owners: RefCell::default(),
            leases: RefCell::default(),
            leases_reclaimed: Cell::new(0),
            epoch: Cell::new(0),
            stopping: Cell::new(false),
            sweeper_armed: Cell::new(false),
            wal: config
                .durability
                .map(|w| Wal::new(format!("dmwal{}", node.0), w)),
            recoveries: Cell::new(0),
            gmap: RefCell::default(),
            moved: RefCell::default(),
            ops_served: Cell::new(0),
            migrations: Cell::new(0),
            redirects: Cell::new(0),
            translation_ns: Cell::new(0),
            op_ns: Cell::new(0),
            admission: config.admission.map(Admission::new),
            versions: RefCell::default(),
            dir: RefCell::default(),
            dir_grants: Cell::new(0),
            inv_pushed: Cell::new(0),
            broadcasts: Cell::new(0),
        });
        server.register_handlers();
        server.spawn_sweeper();
        server
    }

    /// Arm the lease sweeper (no-op when leases are off or one is already
    /// armed). The task holds only a Weak so dropping the server's last
    /// `Rc` also stops it; a crash cancels it outright at its next tick
    /// (it must not stay armed on a dead replica), and the restart paths
    /// call this again to re-arm.
    fn spawn_sweeper(self: &Rc<Self>) {
        let Some(ttl) = self.config.lease_ttl else {
            return;
        };
        if self.sweeper_armed.get() {
            return;
        }
        self.sweeper_armed.set(true);
        let weak = Rc::downgrade(self);
        simcore::spawn_detached(async move {
            loop {
                simcore::sleep(ttl / 2).await;
                let Some(srv) = weak.upgrade() else { return };
                if srv.stopping.get() || srv.rpc.is_offline() {
                    srv.sweeper_armed.set(false);
                    return;
                }
                srv.sweep_expired_leases();
            }
        });
    }

    /// Reclaim every process whose lease expired (called by the sweeper;
    /// public so chaos tests can force a sweep at a known virtual time).
    pub fn sweep_expired_leases(&self) {
        let now = simcore::now();
        let mut expired: Vec<u32> = self
            .leases
            .borrow()
            .iter()
            .filter(|&(_, &exp)| exp <= now)
            .map(|(&pid, _)| pid)
            .collect();
        // Several leases can expire in one sweep (after `restart_from_log`
        // every recovered owner shares one expiry): reclaim in pid order so
        // WAL records, trace events and pushes do not follow hash order.
        expired.sort_unstable();
        for pid in expired {
            self.reclaim_process(pid);
            self.leases_reclaimed.set(self.leases_reclaimed.get() + 1);
            // The sweeper acts outside any request, so it cannot await the
            // media; the append is charged as free background time (the
            // reclaim is not on any acked-response path).
            self.persist_untimed(Record::ReleaseProcess { pid });
            // The sweeper acts on its own, not on behalf of any request,
            // so each reclamation becomes a standalone trace.
            telemetry::root_event(
                SpanKind::LeaseReclaim,
                "dm.lease_reclaim",
                self.addr().node.0,
                &[("pid", pid as u64), ("epoch", self.epoch.get())],
            );
        }
    }

    /// Drop every pin, the lease and the registration of `pid` — the one
    /// body shared by the live sweep and the replay of its record.
    fn reclaim_process(&self, pid: u32) {
        // The dying pid's refs must be enumerated *before* they are freed.
        let dying = self.wire_keys_owned_by(GlobalPid(pid));
        // A pid already released (or never seen here) is fine:
        // reclamation must be idempotent.
        let _ = self.pm.borrow_mut().release_process(GlobalPid(pid));
        self.leases.borrow_mut().remove(&pid);
        self.owners.borrow_mut().remove(&pid);
        // Reclamation drops refs: caches filled before it are suspect.
        self.refs_died(&dying, None);
    }

    /// Register a process for the endpoint `owner`. Shared by `REGISTER`
    /// and the replay of its record.
    fn register_process(&self, owner: Addr) -> GlobalPid {
        let pid = self.pm.borrow_mut().register_process();
        self.owners.borrow_mut().insert(pid.0, owner);
        pid
    }

    /// Current invalidation epoch (observability for tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Crash the server: it stops receiving and sending until
    /// [`DmServer::restart`]. Page state survives (fail-stop with durable
    /// pinned memory — see DESIGN.md §8).
    pub fn crash(&self) {
        self.rpc.set_offline(true);
    }

    /// Recover from [`DmServer::crash`] with in-memory state intact (the
    /// fail-stop model of DESIGN.md §8; see [`DmServer::restart_from_log`]
    /// for the durable-tier recovery that rebuilds state from the log).
    /// Every live lease is extended by a full TTL from now so clients that
    /// outlived the crash can renew before the sweeper runs again.
    pub fn restart(self: &Rc<Self>) {
        self.rpc.set_offline(false);
        if let Some(ttl) = self.config.lease_ttl {
            let grace = simcore::now() + ttl;
            for exp in self.leases.borrow_mut().values_mut() {
                *exp = (*exp).max(grace);
            }
        }
        // Pre-crash queue-delay streaks say nothing about the restarted
        // server; shedding must not survive a restart.
        if let Some(a) = &self.admission {
            a.reset_transient();
        }
        self.spawn_sweeper();
    }

    /// Whether the server is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.rpc.is_offline()
    }

    /// Processes reclaimed by lease expiry so far.
    pub fn leases_reclaimed(&self) -> u64 {
        self.leases_reclaimed.get()
    }

    /// Whether a lease-sweeper task is live (observability: a crashed
    /// replica must report `false` once its sweeper ticks — crash cancels
    /// the sweeper outright rather than leaving it armed forever).
    pub fn sweeper_armed(&self) -> bool {
        self.sweeper_armed.get()
    }

    /// Worker cores.
    pub fn cpu_cores(&self) -> u64 {
        self.cpu.cores()
    }

    /// CPU busy time summed over those cores (the `node.<name>.cpu.busy_ns`
    /// telemetry gauge).
    pub fn cpu_busy_time(&self) -> Duration {
        self.cpu.busy_time()
    }

    /// Requests served (the `dm.shard.<i>.ops` telemetry gauge; `<i>` is
    /// the server's index in the ring).
    pub fn ops_served(&self) -> u64 {
        self.ops_served.get()
    }

    /// Requests refused because the admission queue was full (0 when
    /// overload control is off — the `dm.shard.<i>.rejected` gauge).
    pub fn admission_rejected(&self) -> u64 {
        self.admission.as_ref().map_or(0, |a| a.rejected())
    }

    /// Requests refused by CoDel shedding (the `dm.shard.<i>.shed` gauge).
    pub fn admission_shed(&self) -> u64 {
        self.admission.as_ref().map_or(0, |a| a.shed())
    }

    /// Tear down: unregister handlers so the `Rc` cycle through them is
    /// broken and the server (and its page pool) can be freed.
    pub fn shutdown(&self) {
        self.stopping.set(true);
        self.rpc.shutdown();
    }

    /// The server's RPC address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr()
    }

    /// The node memory model (traffic counters for Fig. 7c).
    pub fn memory(&self) -> &NodeMemory {
        &self.mem
    }

    /// Access the page manager (tests and invariant checks).
    pub fn with_page_manager<R>(&self, f: impl FnOnce(&mut PageManager) -> R) -> R {
        f(&mut self.pm.borrow_mut())
    }

    /// Check the page manager's invariants.
    pub fn check_invariants_all(&self) {
        self.pm.borrow().check_invariants();
    }

    /// Free pages in the pool.
    pub fn free_pages_total(&self) -> usize {
        self.pm.borrow().free_pages()
    }

    /// Pool capacity in pages.
    pub fn capacity_pages_total(&self) -> usize {
        self.pm.borrow().capacity_pages()
    }

    /// Fraction of DM operation time spent in software address translation
    /// (paper §V-A2 reports 0.17%).
    pub fn translation_fraction(&self) -> f64 {
        let total = self.op_ns.get();
        if total == 0 {
            return 0.0;
        }
        self.translation_ns.get() as f64 / total as f64
    }

    // -- routing -------------------------------------------------------------

    /// Validate that `src` owns `pid`.
    fn check_owner(&self, pid: GlobalPid, src: Addr) -> DmResult<()> {
        match self.owners.borrow().get(&pid.0) {
            Some(&owner) if owner == src => Ok(()),
            _ => Err(DmError::InvalidAddress),
        }
    }

    /// The pid the endpoint `addr` registered here (the lowest, should it
    /// have registered more than once — never the hash-order first). An
    /// unregistered endpoint, e.g. one whose lease already expired, is
    /// `InvalidAddress`.
    fn pid_of(&self, addr: Addr) -> DmResult<GlobalPid> {
        let owners = self.owners.borrow();
        let pids = owners.iter().filter(|&(_, &a)| a == addr);
        let lowest = pids.map(|(&pid, _)| pid).min();
        lowest.map(GlobalPid).ok_or(DmError::InvalidAddress)
    }

    /// Resolve a wire ref key: a plain key is the page manager's own; a
    /// gkey (bit 63) resolves through the binding table, or yields the
    /// ready-made redirect response when only a tombstone remains. An
    /// unknown gkey is an invalid ref.
    fn route_key(&self, raw: u64) -> DmResult<KeyRoute> {
        if raw & GKEY_BIT == 0 {
            return Ok(KeyRoute::Local(raw));
        }
        if let Some(&key) = self.gmap.borrow().get(&raw) {
            return Ok(KeyRoute::Local(key));
        }
        if let Some(&fwd) = self.moved.borrow().get(&raw) {
            self.redirects.set(self.redirects.get() + 1);
            return Ok(KeyRoute::Redirect(moved_response(
                self.epoch.get(),
                fwd.node.0,
                fwd.port,
            )));
        }
        Err(DmError::InvalidRef)
    }

    // -- cost model ----------------------------------------------------------

    /// Record data-path time in the op-time denominator (translation stat).
    fn note_data_time(&self, bytes: u64) {
        let t = self
            .mem
            .params()
            .access_time(memsim::MemClass::Local, bytes);
        self.op_ns.set(self.op_ns.get() + t.as_nanos() as u64);
    }

    /// Charge CPU for an operation and record the translation share (the
    /// RPC layer already charged the request's dispatch on the same cores).
    /// Page copies (COW / eager) occupy the serving core for the duration
    /// of the copy, on top of the DRAM traffic they generate.
    async fn charge(&self, cost: OpCost, translations: u64) {
        let c = &self.config;
        let translations = if c.hw_translation { 0 } else { translations };
        let copy_time = if cost.bytes_copied > 0 {
            self.mem.account(2 * cost.bytes_copied); // read + write traffic
            self.mem.params().copy_time(cost.bytes_copied)
        } else {
            Duration::ZERO
        };
        let cpu_time = c.per_op_cpu
            + c.per_page_cpu * (cost.refcount_updates + cost.pages_faulted) as u32
            + c.translation_cpu * translations as u32
            + copy_time;
        // The copy shares one `execute` with the op's bookkeeping CPU —
        // splitting it into a second execute could interleave with other
        // tasks and perturb schedules even with telemetry off. The COW
        // span therefore covers the whole charge; the copy dominates it,
        // and `copy_ns` records the exact share for analysis.
        let mut cow = if cost.bytes_copied > 0 {
            telemetry::leaf_span(SpanKind::Cow, "dm.cow_copy", self.addr().node.0)
        } else {
            None
        };
        if let Some(s) = cow.as_mut() {
            s.attr("bytes_copied", cost.bytes_copied);
            s.attr("copy_ns", copy_time.as_nanos() as u64);
        }
        self.cpu.execute(cpu_time).await;
        drop(cow);
        self.translation_ns.set(
            self.translation_ns.get() + (c.translation_cpu * translations as u32).as_nanos() as u64,
        );
        self.op_ns
            .set(self.op_ns.get() + cpu_time.as_nanos() as u64);
    }
}

/// Start `n` DM servers on dedicated nodes; returns their addresses.
/// Convenience used by benches ("We implement the global disaggregated
/// memory pool using two servers", §VI-A).
pub fn start_pool(
    net: &Network,
    nodes: &[NodeId],
    params: &memsim::ModelParams,
    config: DmServerConfig,
) -> Vec<Rc<DmServer>> {
    nodes
        .iter()
        .map(|&node| {
            let mem = NodeMemory::with_defaults(format!("dm{}", node.0), params.clone());
            DmServer::start(net, node, mem, config)
        })
        .collect()
}
