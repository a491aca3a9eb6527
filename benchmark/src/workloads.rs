//! The five workloads and the harness that builds, warms, measures and
//! checks one of them inside a single simulation.
//!
//! Every workload builds `Cluster::new(kind, 2, ClusterConfig::default(),
//! seed)` and sets no plane switch, so a later change that promotes a plane
//! to the default is measured with no edit here.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use apps::chain::{build_chain, ChainApp};
use apps::image_pipeline::{build_pipeline, ImagePipeline, OP_COMPRESS, OP_TRANSCODE};
use apps::sharebench::{build_sharebench, ShareBench};
use apps::social::{build_social_scaled, SocialApp};
use apps::workload::{run_closed_loop, run_open_loop_classified, Measured};
use apps::{Cluster, ClusterConfig, SystemKind};
use bytes::Bytes;
use dmcommon::{DmError, DmResult};
use dmrpc::{DmHandle, DmRpc};
use simcore::{Sim, SimRng, SimTime};
use telemetry::{Registry, Snapshot, SpanRecord};

use crate::hostclock::{Calibrator, CpuClock};
use crate::inputs::{
    slot, ChainInputs, ImageInputs, ShareInputs, SocialInputs, SocialOp, SHARE_WRITE_PCT,
    SOCIAL_MEDIA, SOCIAL_POP_DIGEST,
};
use crate::ledger;
use crate::spans::{HostSpans, SimSpanCollector};

/// Closed-loop concurrency: callers that each wait for their reply.
pub const WORKERS: usize = 16;
/// Warm-up, driven as its own call before the measured window.
pub const WARMUP: Duration = Duration::from_millis(20);
/// Every window is sized for at least this many completions, so at least
/// 150 samples lie beyond p99.
pub const MIN_SAMPLES: u64 = 15_000;
/// The program's tracer samples one request in this many.
pub const TRACE_SAMPLE_EVERY: u64 = 16;
/// Pieces a phase is run in, each preceded by a calibration slice.
const CHUNKS: u32 = 8;
/// First table slot of the measured window: past every slot the warm-up
/// can use (20 ms at the knee bracket's 300 krps is 6000 requests).
const WINDOW_BASE: usize = 8_192;
/// Size of the unloaded single-call probes (`dmrpc.*_us`).
const PROBE_BYTES: usize = 64 * 1024;

/// `social_open`: latency limit on p99, reference rate, and the knee search.
pub const SLO_BUDGET: Duration = Duration::from_micros(500);
pub const REFERENCE_KRPS: f64 = 150.0;
pub const KNEE_BRACKET_KRPS: (f64, f64) = (100.0, 300.0);
pub const KNEE_TOL_KRPS: f64 = 5.0;
pub const RATE_WINDOW: Duration = Duration::from_millis(100);
pub const MAX_FAIL_FRAC: f64 = 0.01;
/// A backlog that takes longer than this to drain is a growing backlog.
pub const MAX_DRAIN: Duration = Duration::from_millis(1);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ChainByRef,
    ChainByValue,
    ShareCow,
    ImageCxl,
    SocialOpen,
}

#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// [`WORKERS`] callers, each issuing its next request on the reply.
    Closed,
    /// Poisson arrivals at a fixed offered rate, whatever the backlog.
    Open { rate_rps: f64 },
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ChainByRef,
        Workload::ChainByValue,
        Workload::ShareCow,
        Workload::ImageCxl,
        Workload::SocialOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainByRef => "chain_byref",
            Workload::ChainByValue => "chain_byvalue",
            Workload::ShareCow => "share_cow",
            Workload::ImageCxl => "image_cxl",
            Workload::SocialOpen => "social_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json` on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ChainByRef => {
                "DmRPC-net 5-hop chain, 1-256 KiB args: dmrpc + dmnet client/cache/server do the work, rpclib carries ~19 B refs; 1 KiB stays inline (size-aware transfer)"
            }
            Workload::ChainByValue => {
                "Same inputs on eRPC: rpclib fragmentation, simnet NIC and memsim copies do all the work and dmnet none; the bypass workload for any DM-side change"
            }
            Workload::ShareCow => {
                "DmRPC-net 32 KiB shared block, callee writes 0-100%: same dmnet server as chain_byref with COW copies beside reads, so a read-path gain that taxes writes shows"
            }
            Workload::ImageCxl => {
                "DmRPC-CXL 7-tier image pipeline, 4-128 KiB: the only workload where dmcxl (G-FAM, coordinator, host page tables) does the DM work; has per-byte app CPU and by-ref results"
            }
            Workload::SocialOpen => {
                "DmRPC-net social network, SF=10, open-loop Poisson at 150 krps plus the SLO-knee search: many small RPCs, app CPU queues, ~100x fan-out per compose, client cache on reads"
            }
        }
    }

    pub fn system(self) -> SystemKind {
        match self {
            Workload::ChainByValue => SystemKind::Erpc,
            Workload::ImageCxl => SystemKind::DmCxl,
            _ => SystemKind::DmNet,
        }
    }

    /// Load model at the reference point.
    pub fn load(self) -> Load {
        match self {
            Workload::SocialOpen => Load::Open {
                rate_rps: REFERENCE_KRPS * 1e3,
            },
            _ => Load::Closed,
        }
    }

    /// Virtual length of the measured window, sized for [`MIN_SAMPLES`].
    pub fn window(self) -> Duration {
        Duration::from_millis(match self {
            Workload::ChainByRef => 170,
            Workload::ChainByValue => 300,
            Workload::ShareCow => 100,
            Workload::ImageCxl => 100,
            Workload::SocialOpen => 150,
        })
    }

    /// Whether every DM page is free again once the window has drained
    /// (the social network keeps its posts).
    pub fn releases_everything(self) -> bool {
        self != Workload::SocialOpen
    }
}

impl Load {
    pub fn describe(self) -> String {
        match self {
            Load::Closed => format!("closed loop, {WORKERS} workers"),
            Load::Open { rate_rps } => format!("open loop, rate {} krps", rate_rps / 1e3),
        }
    }
}

enum App {
    Chain(ChainApp, ChainInputs),
    Share(ShareBench, ShareInputs),
    Image(ImagePipeline, ImageInputs),
    Social(SocialApp, SocialInputs),
}

/// A built cluster, its app and inputs, and what the request closure
/// counts while it runs.
struct Deployment {
    cluster: Rc<Cluster>,
    app: App,
    /// The load generator's endpoint (the last one every builder creates).
    client: Rc<DmRpc>,
    /// Replies that failed their output check.
    wrong_outputs: Cell<u64>,
    /// Requests issued per argument payload (index into `arg_payloads`).
    issued_by_arg: RefCell<Vec<u64>>,
}

impl Deployment {
    /// Each distinct argument the workload sends (`None` = no argument),
    /// for the by-reference share.
    fn arg_payloads(&self) -> Vec<Option<Bytes>> {
        match &self.app {
            App::Chain(_, i) => i.payloads.iter().cloned().map(Some).collect(),
            App::Share(_, i) => vec![Some(i.block.clone())],
            App::Image(_, i) => i.images.iter().cloned().map(Some).collect(),
            App::Social(..) => vec![None, Some(Bytes::from(vec![0u8; SOCIAL_MEDIA]))],
        }
    }

    fn count_arg(&self, arg: usize) {
        let mut issued = self.issued_by_arg.borrow_mut();
        if issued.len() <= arg {
            issued.resize(arg + 1, 0);
        }
        issued[arg] += 1;
    }

    fn check(&self, ok: bool) {
        if !ok {
            self.wrong_outputs.set(self.wrong_outputs.get() + 1);
        }
    }
}

fn image_output_ok(input: &Bytes, op: u8, out: &Bytes, full: bool) -> bool {
    let want_len = if op == OP_COMPRESS {
        input.len() / 2
    } else {
        input.len()
    };
    if out.len() != want_len {
        return false;
    }
    let ok_at = |i: usize| out[i] == input[i].wrapping_add(1);
    if full {
        (0..want_len).all(ok_at)
    } else {
        [0, want_len / 2, want_len - 1].into_iter().all(ok_at)
    }
}

/// Issue the request in table slot `idx` and check its reply.
async fn issue(dep: Rc<Deployment>, idx: usize) -> DmResult<()> {
    // The chain opens its own trace root; the other apps have none, so the
    // harness opens one around the request (a no-op unless tracing is on).
    let _root = match dep.app {
        App::Chain(..) => None,
        _ => telemetry::start_trace("bench.request", dep.client.addr().node.0),
    };
    match &dep.app {
        App::Chain(app, inp) => {
            let class = inp.table[idx % inp.table.len()] as usize;
            dep.count_arg(class);
            let sum = app.request(&inp.payloads[class]).await?;
            dep.check(sum == inp.sums[class]);
        }
        App::Share(app, inp) => {
            let pct = SHARE_WRITE_PCT[inp.table[idx % inp.table.len()] as usize];
            dep.count_arg(0);
            app.request(&inp.block, pct).await?;
        }
        App::Image(app, inp) => {
            let (size, op) = ImageInputs::decode(inp.table[idx % inp.table.len()]);
            let (image, op) = (&inp.images[size], [OP_TRANSCODE, OP_COMPRESS][op]);
            dep.count_arg(size);
            let out = app.request(op, image).await?;
            // Every reply: length and three bytes; one in 16: every byte.
            dep.check(image_output_ok(image, op, &out, idx.is_multiple_of(16)));
        }
        App::Social(app, inp) => match inp.table[idx % inp.table.len()] {
            SocialOp::ReadHome(user) => {
                dep.count_arg(0);
                let bytes = app.read_home(user).await?;
                dep.check(bytes % SOCIAL_MEDIA == 0);
            }
            SocialOp::ReadUser(user) => {
                dep.count_arg(0);
                let bytes = app.read_user(user).await?;
                dep.check(bytes % SOCIAL_MEDIA == 0);
            }
            SocialOp::Compose(user) => {
                dep.count_arg(1);
                app.compose(user).await?;
            }
        },
    }
    Ok(())
}

/// Drive `load` for `len` of virtual time; also returns when the last
/// request it issued had completed. `base` offsets the table slots so that
/// the window does not replay the warm-up's requests; the arrival RNG
/// depends on the seed and the phase only, never on the rate.
async fn drive(
    dep: Rc<Deployment>,
    load: Load,
    len: Duration,
    base: usize,
    arrival_seed: u64,
) -> (Measured, SimTime) {
    let measured = match load {
        Load::Closed => {
            run_closed_loop(
                WORKERS,
                Duration::ZERO,
                len,
                Rc::new(move |w, i| issue(dep.clone(), base + slot(w, i))),
            )
            .await
        }
        Load::Open { rate_rps } => {
            run_open_loop_classified(
                rate_rps,
                Duration::ZERO,
                len,
                SimRng::new(arrival_seed),
                Rc::new(move |n| issue(dep.clone(), base + n as usize)),
                Rc::new(|e: &DmError| matches!(e, DmError::Busy)),
            )
            .await
        }
    };
    (measured, simcore::now())
}

/// What one measured window produced.
pub struct WindowOut {
    pub measured: Measured,
    /// Virtual time from the window's end until the last request completed.
    pub drain: Duration,
    /// Host CPU time of the window and its drain (calibration slices excluded).
    pub host: Duration,
    /// Counter deltas over window + drain, and the values at the end.
    pub delta: Snapshot,
    pub end: Snapshot,
    /// Sim-time spans of the sampled requests (traced runs only).
    pub sim_spans: Option<Vec<SpanRecord>>,
}

/// One workload deployed in one simulation.
pub struct Harness {
    pub workload: Workload,
    seed: u64,
    sim: Sim,
    dep: Option<Rc<Deployment>>,
    registry: Registry,
    collector: Option<SimSpanCollector>,
}

impl Harness {
    /// Build cluster and app and preload. With `traced`, turn on the
    /// program's existing tracer; nothing else differs.
    pub fn build(workload: Workload, seed: u64, traced: bool, spans: &mut HostSpans) -> Harness {
        let sim = Sim::new();
        let (cluster, tracer) = spans.scope("cluster_build", |_| {
            sim.block_on(async move {
                let c = Cluster::new(workload.system(), 2, ClusterConfig::default(), seed);
                let t = traced.then(|| c.enable_tracing(seed, TRACE_SAMPLE_EVERY));
                (Rc::new(c), t)
            })
        });
        let app = spans.scope("app_build", |_| {
            let c = cluster.clone();
            sim.block_on(async move {
                match workload {
                    Workload::ChainByRef | Workload::ChainByValue => {
                        App::Chain(build_chain(&c, 5).await, ChainInputs::new(seed))
                    }
                    Workload::ShareCow => {
                        App::Share(build_sharebench(&c).await, ShareInputs::new(seed))
                    }
                    Workload::ImageCxl => {
                        App::Image(build_pipeline(&c).await, ImageInputs::new(seed))
                    }
                    Workload::SocialOpen => {
                        let inp = SocialInputs::new(seed);
                        // The app's own RNG is unused: every op comes from the table.
                        let app = build_social_scaled(&c, inp.pop, SOCIAL_MEDIA, 3, None).await;
                        App::Social(app, inp)
                    }
                }
            })
        });
        let client = cluster
            .endpoints()
            .last()
            .expect("every app creates its client endpoint last")
            .clone();
        let dep = Rc::new(Deployment {
            cluster: cluster.clone(),
            app,
            client,
            wrong_outputs: Cell::new(0),
            issued_by_arg: RefCell::new(Vec::new()),
        });
        if let App::Social(..) = dep.app {
            spans.scope("preload", |_| {
                let d = dep.clone();
                sim.block_on(async move {
                    let App::Social(app, _) = &d.app else {
                        unreachable!()
                    };
                    app.preload(200).await.expect("preload");
                })
            });
        }
        let registry = spans.scope("registry_build", |_| ledger::registry(&sim, &cluster));
        Harness {
            workload,
            seed,
            sim,
            dep: Some(dep),
            registry,
            collector: tracer.map(SimSpanCollector::new),
        }
    }

    fn dep(&self) -> &Rc<Deployment> {
        self.dep.as_ref().expect("live until drop")
    }

    /// Drive `load` for `len`, then run the simulation until it is quiet
    /// (deferred releases done, stale timers gone). Returns the measurement,
    /// the drain (how long after the window's end the last request
    /// completed) and the host CPU time the simulation took. The window is
    /// run in [`CHUNKS`] pieces with a calibration slice before each, so the
    /// machine's speed is sampled while the window runs, not around it.
    fn run_phase(
        &self,
        phase: &str,
        load: Load,
        len: Duration,
        base: usize,
        mut cal: Option<&mut Calibrator>,
        spans: &mut HostSpans,
    ) -> (Measured, Duration, Duration) {
        let start = self.sim.now();
        let end = start + len;
        // Only the measured window is calibrated, and only it is traced.
        if let (Some(_), Some(c)) = (&cal, &self.collector) {
            self.sim.scope(|| c.start(end));
        }
        // Distinct arrival streams per phase, all functions of the seed alone.
        let arrival_seed = self.seed ^ (0xA441_7A15 + base as u64);
        let handle = self
            .sim
            .spawn(drive(self.dep().clone(), load, len, base, arrival_seed));
        let mut host = Duration::ZERO;
        let mut timed = |run: &dyn Fn()| {
            if let Some(c) = cal.as_deref_mut() {
                c.slice();
            }
            let clock = CpuClock::start();
            run();
            host += clock.elapsed();
        };
        spans.scope(phase, |_| {
            for i in 1..=CHUNKS {
                timed(&|| self.sim.run_until(start + len * i / CHUNKS));
            }
        });
        spans.scope(&format!("{phase}_drain"), |_| {
            timed(&|| {
                self.sim.run();
            })
        });
        let (measured, finished) = handle
            .try_take()
            .expect("drivers finish once the sim is quiet");
        (measured, finished.max(end) - end, host)
    }

    pub fn warm_up(&self, load: Load, spans: &mut HostSpans) {
        self.run_phase("warm_up", load, WARMUP, 0, None, spans);
    }

    /// The measured window. `cal` samples the machine's speed during it.
    pub fn window(
        &self,
        load: Load,
        len: Duration,
        cal: &mut Calibrator,
        spans: &mut HostSpans,
    ) -> WindowOut {
        let before = spans.scope("read_out_before", |_| self.registry.snapshot());
        self.dep().issued_by_arg.borrow_mut().fill(0);
        let (measured, drain, host) =
            self.run_phase("window", load, len, WINDOW_BASE, Some(cal), spans);
        let end = spans.scope("read_out_after", |_| self.registry.snapshot());
        WindowOut {
            measured,
            drain,
            host,
            delta: end.delta(&before),
            end,
            sim_spans: self.collector.as_ref().map(|c| c.finish()),
        }
    }

    /// Replies that failed their output check.
    pub fn wrong_outputs(&self) -> u64 {
        self.dep().wrong_outputs.get()
    }

    /// Output and end-state checks; each violation fails the run.
    pub fn violations(&self) -> Vec<String> {
        let dep = self.dep();
        let mut v = Vec::new();
        if dep.wrong_outputs.get() > 0 {
            v.push(format!(
                "{} replies failed the output check",
                dep.wrong_outputs.get()
            ));
        }
        if let App::Social(_, inp) = &dep.app {
            if inp.pop.digest() != SOCIAL_POP_DIGEST {
                v.push(format!(
                    "population digest {:#018x} is not the pinned one",
                    inp.pop.digest()
                ));
            }
        }
        // The invariant checkers panic with a description on violation,
        // which fails the child and with it the run.
        let cluster = &dep.cluster;
        for s in &cluster.dm_servers {
            s.check_invariants_all();
        }
        if let Some(f) = cluster.cxl_fabric() {
            let hosts: Vec<_> = cluster
                .endpoints()
                .iter()
                .filter_map(|ep| match ep.dm() {
                    Some(DmHandle::Cxl(h)) => Some(h.clone()),
                    _ => None,
                })
                .collect();
            // Everything is released after the drain: no live ref pins.
            dmcxl::check_fabric_invariants(f.gfam(), f.coordinator(), &hosts, &[]);
        }
        if self.workload.releases_everything() {
            // dmnet.server.free_frac_end must read 1.0.
            for s in &cluster.dm_servers {
                if s.free_pages_total() != s.capacity_pages_total() {
                    v.push(format!(
                        "DM server leaked pages: {} of {} free after drain",
                        s.free_pages_total(),
                        s.capacity_pages_total()
                    ));
                }
            }
        }
        v
    }

    /// Share of DM-server operation time spent in address translation
    /// (cumulative since the servers started; 0 without DM servers).
    pub fn translation_frac(&self) -> f64 {
        let servers = &self.dep().cluster.dm_servers;
        let total: f64 = servers.iter().map(|s| s.translation_fraction()).sum();
        total / servers.len().max(1) as f64
    }

    /// Share of the window's requests whose argument went by reference:
    /// each distinct argument is classified by `make_value` on the
    /// workload's own system and weighted by how often it was issued.
    /// Also the unloaded sim time of single 64 KiB calls, in µs: the client
    /// makes the value, a service endpoint (no cached copy) fetches it, the
    /// client releases it.
    pub fn dmrpc_probes(&self, spans: &mut HostSpans) -> (f64, [f64; 3]) {
        let dep = self.dep().clone();
        spans.scope("dmrpc_probes", |_| {
            self.sim.block_on(async move {
                let ep = &dep.client;
                let issued = dep.issued_by_arg.borrow().clone();
                let mut by_ref = 0;
                for (payload, n) in dep.arg_payloads().into_iter().zip(&issued) {
                    let Some(payload) = payload else { continue };
                    let v = ep.make_value(payload).await.expect("unloaded make_value");
                    if v.is_by_ref() {
                        by_ref += n;
                    }
                    ep.release(&v).await.expect("unloaded release");
                }
                let byref_frac = by_ref as f64 / issued.iter().sum::<u64>().max(1) as f64;

                let us = |d: Duration| d.as_nanos() as f64 / 1e3;
                let t0 = simcore::now();
                let v = ep
                    .make_value(Bytes::from(vec![9u8; PROBE_BYTES]))
                    .await
                    .expect("unloaded make_value");
                let t1 = simcore::now();
                let service = dep.cluster.endpoints()[0].clone();
                let got = service.fetch(&v).await.expect("unloaded fetch");
                let t2 = simcore::now();
                ep.release(&v).await.expect("unloaded release");
                let t3 = simcore::now();
                assert_eq!(got.len(), PROBE_BYTES);
                (byref_frac, [us(t1 - t0), us(t2 - t1), us(t3 - t2)])
            })
        })
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        // Cluster teardown shuts endpoints down; do it inside the simulation.
        let state = (
            self.dep.take(),
            self.collector.take(),
            std::mem::take(&mut self.registry),
        );
        self.sim.block_on(async move { drop(state) });
    }
}

/// One `social_open` point at a fixed offered rate, on a fresh cluster.
#[derive(Clone, Copy, Debug)]
pub struct RatePoint {
    pub p99_us: f64,
    pub fail_frac: f64,
    pub drain: Duration,
    pub samples: u64,
}

impl RatePoint {
    /// The knee's acceptance rule.
    pub fn meets_slo(&self) -> bool {
        self.p99_us <= SLO_BUDGET.as_nanos() as f64 / 1e3
            && self.fail_frac <= MAX_FAIL_FRAC
            && self.drain <= MAX_DRAIN
    }
}

pub fn fail_frac(m: &Measured) -> f64 {
    (m.errors + m.rejected) as f64 / m.issued.max(1) as f64
}

pub fn social_rate_point(seed: u64, krps: f64, spans: &mut HostSpans) -> RatePoint {
    spans.scope(&format!("rate_point_{krps}krps"), |spans| {
        let load = Load::Open {
            rate_rps: krps * 1e3,
        };
        let h = Harness::build(Workload::SocialOpen, seed, false, spans);
        h.warm_up(load, spans);
        // Only modeled time is read here; the window still wants its calibrator.
        let out = h.window(load, RATE_WINDOW, &mut Calibrator::new(), spans);
        RatePoint {
            p99_us: out.measured.latency_us(0.99),
            fail_frac: fail_frac(&out.measured),
            drain: out.drain,
            samples: out.measured.completed,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short window of `workload`: completions, p50, and every counter delta.
    fn short_window(workload: Workload, seed: u64) -> (u64, u64, Snapshot) {
        let mut spans = HostSpans::new(std::time::Instant::now());
        let h = Harness::build(workload, seed, false, &mut spans);
        let mut cal = Calibrator::new();
        let out = h.window(
            workload.load(),
            Duration::from_millis(2),
            &mut cal,
            &mut spans,
        );
        assert!(h.violations().is_empty());
        let m = out.measured;
        (m.completed, m.latency.quantile(0.5), out.delta)
    }

    #[test]
    fn same_seed_twice_gives_identical_modeled_results_and_counts() {
        for w in [Workload::ShareCow, Workload::ImageCxl, Workload::SocialOpen] {
            let (a, b) = (short_window(w, 5), short_window(w, 5));
            assert!(a.0 > 0, "{}", w.name());
            assert_eq!(a.0, b.0, "{}", w.name());
            assert_eq!(a.1, b.1, "{}", w.name());
            assert!(a.2 == b.2, "{}: counter deltas differ", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("chain"), None);
    }

    #[test]
    fn image_check_catches_wrong_bytes_and_lengths() {
        let input = Bytes::from(vec![255u8, 1, 2, 3]);
        let good = Bytes::from(vec![0u8, 2, 3, 4]);
        assert!(image_output_ok(&input, OP_TRANSCODE, &good, true));
        assert!(image_output_ok(&input, OP_COMPRESS, &good.slice(..2), true));
        assert!(!image_output_ok(&input, OP_COMPRESS, &good, true));
        let bad = Bytes::from(vec![0u8, 9, 3, 4]);
        assert!(!image_output_ok(&input, OP_TRANSCODE, &bad, true));
        // The spot check reads the first, middle and last byte only.
        assert!(image_output_ok(&input, OP_TRANSCODE, &bad, false));
    }
}
