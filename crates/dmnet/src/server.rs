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
//! manager's tree returned and a ref key is the key it minted. Memory is
//! partitioned across *servers* only: clients place refs round-robin over
//! the pool (DESIGN.md §13), and a ref names the server that holds it.
//!
//! The server is split by plane. This file holds the configuration, the
//! process and lease lifecycle, owner checks and the cost model. `dispatch`
//! holds the one body of every wire op, which serving and replay share;
//! `recovery` the durable tier (persist, snapshot, replay,
//! `restart_from_log`). How a ref's death reaches the client caches is
//! [`crate::coherence`], held here as one `Holders`.

mod dispatch;
mod recovery;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use dmcommon::{CopyMode, DmError, DmResult, GlobalPid, PAGE_SIZE};
use memsim::NodeMemory;
use rpclib::{Rpc, RpcBuilder, RpcConfig};
use simcore::{CpuPool, SimTime};
use simnet::{Addr, Network, NodeId};
use telemetry::SpanKind;

use crate::page_manager::{OpCost, PageManager};
use crate::proto;
use crate::wal::{Record, Wal, WalConfig};

pub use recovery::RecoveryReport;

/// Translation lookups charged for touching `len` bytes of DM.
fn translations_for(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE as u64).max(1)
}

/// DM server tuning knobs. The two planes at the end are configured here
/// and nowhere else: what a client has to know about them it reads off the
/// reply to its `REGISTER` (DESIGN.md §15).
#[derive(Clone, Copy, Debug)]
pub struct DmServerConfig {
    /// Pinned pool size in pages (default 64 Ki pages = 256 MiB).
    pub capacity_pages: usize,
    /// COW (DmRPC) or eager copy (the `-copy` ablation).
    pub copy_mode: CopyMode,
    /// Worker cores serving DM requests (paper §VI-C; Fig. 7 uses 1).
    /// Request dispatch and every op's page-manager work share this pool.
    pub cores: u64,
    /// CPU cost of one software translation lookup. Zero models paper
    /// §V-A2's future work, "letting MMU translate the DM virtual address
    /// directly to the physical address": lookups then cost and count
    /// nothing.
    pub translation_cpu: Duration,
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
}

impl Default for DmServerConfig {
    fn default() -> Self {
        DmServerConfig {
            capacity_pages: 65536,
            copy_mode: CopyMode::CopyOnWrite,
            cores: 4,
            translation_cpu: Duration::from_nanos(15),
            lease_ttl: None,
            durability: WalConfig::from_env(),
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
    /// Set by [`DmServer::shutdown`]; stops the lease sweeper.
    stopping: Cell<bool>,
    /// Whether a lease-sweeper task is currently live. Crash cancels the
    /// sweeper outright (it disarms and exits at its next tick); recovery
    /// re-arms a fresh one, and this flag keeps re-arming idempotent.
    sweeper_armed: Cell<bool>,
    /// The durable tier's write-ahead log, present when
    /// `config.durability` is set.
    wal: Option<Wal>,
    /// Completed `restart_from_log` recoveries (observability).
    recoveries: Cell<u64>,
    /// Requests served (the `dm.shard.<i>.ops` gauge; `<i>` is this
    /// server's index in the pool).
    ops_served: Cell<u64>,
    translation_ns: Cell<u64>,
    op_ns: Cell<u64>,
    /// Who may cache what, the deaths not told yet, and the restarts the
    /// log has recorded (DESIGN.md §9, §12).
    holders: RefCell<crate::coherence::Holders>,
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
            stopping: Cell::new(false),
            sweeper_armed: Cell::new(false),
            wal: config
                .durability
                .map(|w| Wal::new(format!("dmwal{}", node.0), w)),
            recoveries: Cell::new(0),
            ops_served: Cell::new(0),
            translation_ns: Cell::new(0),
            op_ns: Cell::new(0),
            holders: RefCell::default(),
        });
        server.register_handlers();
        server.spawn_sweeper();
        server
    }

    /// Arm the lease sweeper (no-op when leases are off or one is already
    /// armed). The task holds only a Weak so dropping the server's last
    /// `Rc` also stops it; a crash cancels it outright at its next tick
    /// (it must not stay armed on a dead replica), and recovery calls this
    /// again to re-arm.
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
                &[("pid", pid as u64)],
            );
        }
    }

    /// Drop every pin, the lease and the registration of `pid` — the one
    /// body shared by the live sweep and the replay of its record.
    fn reclaim_process(&self, pid: u32) {
        // The dying pid's refs must be enumerated *before* they are freed.
        let dying = self.pm.borrow().keys_owned_by(GlobalPid(pid));
        // A pid already released (or never seen here) is fine:
        // reclamation must be idempotent.
        let _ = self.pm.borrow_mut().release_process(GlobalPid(pid));
        self.leases.borrow_mut().remove(&pid);
        let owner = self.owners.borrow_mut().remove(&pid);
        // Reclamation kills refs: list them to every client holding one.
        let mut holders = self.holders.borrow_mut();
        holders.died(&dying, None);
        if let Some(addr) = owner {
            holders.forget(addr);
        }
    }

    /// Restarts this server's log has recorded (observability for tests).
    pub fn incarnation(&self) -> u64 {
        self.holders.borrow().incarnation()
    }

    /// Dead or revoked keys listed in responses so far.
    pub fn invalidations_pushed(&self) -> u64 {
        self.holders.borrow().listed()
    }

    /// Restarts so far: each makes every holder drop this server's entries.
    pub fn coherence_broadcasts(&self) -> u64 {
        self.incarnation()
    }

    /// Crash the server (fail-stop, DESIGN.md §8): it stops receiving and
    /// sending, and [`DmServer::restart_from_log`] is the only way back.
    /// The memory it leaves in place is only the recovery oracle's witness
    /// (`pages_digest` before vs after replay); nothing serves from it
    /// again.
    pub fn crash(&self) {
        self.rpc.set_offline(true);
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

    /// Summed queueing wait for those cores (the `node.<name>.cpu.wait_ns`
    /// telemetry gauge).
    pub fn cpu_wait_time(&self) -> Duration {
        self.cpu.wait_time()
    }

    /// Requests served (the `dm.shard.<i>.ops` telemetry gauge; `<i>` is
    /// the server's index in the pool).
    pub fn ops_served(&self) -> u64 {
        self.ops_served.get()
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

    // -- owners --------------------------------------------------------------

    /// `pid`, if `src` owns it.
    fn check_owner(&self, pid: GlobalPid, src: Addr) -> DmResult<GlobalPid> {
        match self.owners.borrow().get(&pid.0) {
            Some(&owner) if owner == src => Ok(pid),
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

    // -- cost model ----------------------------------------------------------

    /// Record data-path time in the op-time denominator (translation stat).
    fn note_data_time(&self, bytes: u64) {
        let t = self
            .mem
            .params()
            .access_time(memsim::MemClass::Local, bytes);
        self.op_ns.set(self.op_ns.get() + t.as_nanos() as u64);
    }

    /// Fixed CPU cost of every DM operation.
    const PER_OP_CPU: Duration = Duration::from_nanos(300);
    /// CPU cost per page whose refcount or translation entry an op updates.
    const PER_PAGE_CPU: Duration = Duration::from_nanos(10);

    /// Charge CPU for an operation and record the translation share (the
    /// RPC layer already charged the request's dispatch on the same cores).
    /// Page copies (COW / eager) occupy the serving core for the duration
    /// of the copy, on top of the DRAM traffic they generate.
    async fn charge(&self, cost: OpCost, translations: u64) {
        let c = &self.config;
        let copy_time = if cost.bytes_copied > 0 {
            self.mem.account(2 * cost.bytes_copied); // read + write traffic
            self.mem.params().copy_time(cost.bytes_copied)
        } else {
            Duration::ZERO
        };
        let cpu_time = Self::PER_OP_CPU
            + Self::PER_PAGE_CPU * (cost.refcount_updates + cost.pages_faulted) as u32
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
