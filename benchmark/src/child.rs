//! What one child process does: a single fresh simulation per measurement,
//! reported to the parent over stdout.

use std::path::PathBuf;
use std::time::Instant;

use telemetry::Category;

use crate::hostclock::{peak_rss_mib, Calibrator};
use crate::inputs::SocialInputs;
use crate::knee::{self, Edge};
use crate::ledger;
use crate::metrics::{tail_percentile, ChildReport};
use crate::micro;
use crate::spans::{analyze_sim_trace, HostSpans};
use crate::workloads::{
    fail_frac, social_rate_point, Harness, Workload, KNEE_BRACKET_KRPS, KNEE_TOL_KRPS,
    MAX_FAIL_FRAC, MIN_SAMPLES, SLO_BUDGET,
};

/// The child's job, from `--mode`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The reference window: every end-to-end metric and every count.
    Window,
    /// The reference window with the program's tracer on, then the
    /// micro-drivers: the per-layer ledger.
    Traced,
    /// `social_open` only: bisect for the SLO knee.
    Knee,
    /// `social_open` only: p99 at 100, 200 and 250 krps.
    Rates,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Window, Mode::Traced, Mode::Knee, Mode::Rates];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Window => "window",
            Mode::Traced => "traced",
            Mode::Knee => "knee",
            Mode::Rates => "rates",
        }
    }
}

/// Where traced runs leave their spans: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

pub fn run(workload: Workload, seed: u64, mode: Mode, process_start: Instant) -> ChildReport {
    let mut spans = HostSpans::new(process_start);
    match mode {
        Mode::Window => window(workload, seed, false, &mut spans),
        Mode::Traced => window(workload, seed, true, &mut spans),
        Mode::Knee => knee(seed, &mut spans),
        Mode::Rates => rates(seed, &mut spans),
    }
}

fn window(workload: Workload, seed: u64, traced: bool, spans: &mut HostSpans) -> ChildReport {
    let mut r = ChildReport::default();
    let load = workload.load();
    // Host times are reported at the reference machine speed: a slice of
    // the calibration loop runs at both ends of set-up and inside the window.
    let mut cal = spans.scope("calibrator_build", |_| Calibrator::new());
    spans.scope("calibrate", |_| (0..2).for_each(|_| cal.slice()));
    let h = Harness::build(workload, seed, traced, spans);
    h.warm_up(load, spans);
    spans.scope("calibrate", |_| (0..2).for_each(|_| cal.slice()));
    let setup_speed = cal.take_speed();
    let out = h.window(load, workload.window(), &mut cal, spans);
    let window_speed = cal.take_speed();
    let m = &out.measured;
    let reqs = m.completed.max(1);

    r.samples = m.completed;
    r.attempted = m.issued;
    r.failed = m.errors + m.rejected + h.wrong_outputs();
    r.notes.push(format!(
        "{}, {} ms window; generator lateness 0 us (arrivals are scheduled in virtual time, not polled)",
        load.describe(),
        workload.window().as_millis()
    ));

    // End to end. Only completions inside the latency limit are goodput
    // where there is a limit.
    let goodput_rps = match workload {
        Workload::SocialOpen => m.goodput_rps(SLO_BUDGET),
        _ => m.throughput_rps(),
    };
    r.set("sim_goodput_krps", goodput_rps / 1e3);
    r.set("sim_p50_us", m.latency_us(0.5));
    r.set("sim_p99_us", m.latency_us(0.99));
    r.set(
        "sim_moved_bytes_per_req",
        ledger::moved_bytes(&out.delta) as f64 / reqs as f64,
    );
    if workload != Workload::SocialOpen {
        // A closed loop has no offered rate to raise: the rate it sustains
        // is its goodput. `social_open` gets its knee from a `knee` child.
        r.set("slo_knee_krps", goodput_rps / 1e3);
    }
    let host_ns_per_req = out.host.as_nanos() as f64 / reqs as f64 * window_speed;
    r.set("host_us_per_req", host_ns_per_req / 1e3);
    let setup_s = spans.started_at("read_out_before").as_secs_f64();
    r.set("setup_s", setup_s * setup_speed);
    r.notes.push(format!(
        "machine speed against the reference: {setup_speed:.3} during set-up, {window_speed:.3} during the window \
         (as measured: host_us_per_req {:.2}, setup_s {setup_s:.4})",
        host_ns_per_req / window_speed / 1e3
    ));

    // Per layer: counts from the registry deltas.
    ledger::layer_counts(
        &out.delta,
        &out.end,
        reqs,
        workload.window() + out.drain,
        &mut r,
    );
    r.set("apps.fail_frac", fail_frac(m));
    r.set("apps.drain_ms", out.drain.as_secs_f64() * 1e3);
    r.set(
        "simcore.host_ns_per_poll",
        out.host.as_nanos() as f64 * window_speed
            / ledger::sum(&out.delta, "bench.sim.polls", "").max(1) as f64,
    );

    // Checks that fail the run.
    r.violations = h.violations();
    if m.completed < MIN_SAMPLES {
        r.violations.push(format!(
            "{} completions in the window, {MIN_SAMPLES} needed",
            m.completed
        ));
    }
    if tail_percentile(m.completed).is_none_or(|q| q < 0.99) {
        r.violations
            .push("fewer than ten samples lie beyond p99".into());
    }
    if fail_frac(m) >= MAX_FAIL_FRAC {
        r.violations.push(format!(
            "fail_frac {:.4} at the reference load",
            fail_frac(m)
        ));
    }

    let (byref_frac, [make_us, fetch_us, release_us]) = h.dmrpc_probes(spans);
    r.set("dmrpc.byref_frac", byref_frac);
    r.set("dmrpc.make_value_us", make_us);
    r.set("dmrpc.fetch_us", fetch_us);
    r.set("dmrpc.release_us", release_us);
    r.set("dmnet.server.translation_frac", h.translation_frac());

    if let Some(records) = &out.sim_spans {
        let trace = spans.scope("analyze_sim_trace", |_| analyze_sim_trace(records));
        r.set(
            "telemetry.spans_per_req",
            trace.spans as f64 / trace.roots.max(1) as f64,
        );
        for c in Category::ALL {
            r.set(
                &format!("trace.{}_us", c.label()),
                trace.mean.get(c) as f64 / 1e3,
            );
        }
        micro::run_all(SocialInputs::population(), &mut cal, spans, &mut r);
        micro::host_shares(host_ns_per_req, &mut r);
        drop(h); // inside the spans: teardown is harness time too
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        let json = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"sim_trace\": {},\n  \"host_spans\": {}\n}}\n",
            workload.name(),
            trace.to_json(),
            spans.to_json()
        );
        match std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, json)) {
            Ok(()) => r.notes.push(format!("spans written to {}", path.display())),
            Err(e) => r
                .violations
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    match peak_rss_mib() {
        Some(mib) => r.set("peak_rss_mb", mib),
        None => r.violations.push("VmHWM is unreadable".into()),
    }
    r
}

fn knee(seed: u64, spans: &mut HostSpans) -> ChildReport {
    let mut r = ChildReport::default();
    let mut points = Vec::new();
    let (lo, hi) = KNEE_BRACKET_KRPS;
    let k = knee::bisect(
        |krps| {
            let p = social_rate_point(seed, krps, spans);
            points.push((krps, p));
            p.meets_slo()
        },
        lo,
        hi,
        KNEE_TOL_KRPS,
    );
    for (krps, p) in &points {
        r.notes.push(format!(
            "knee probe {krps} krps: p99 {:.1} us, fail_frac {:.4}, drain {:.3} ms, n {} -> {}",
            p.p99_us,
            p.fail_frac,
            p.drain.as_secs_f64() * 1e3,
            p.samples,
            if p.meets_slo() { "meets" } else { "misses" }
        ));
    }
    match k.edge {
        Edge::Inside => {}
        Edge::NoRateMeets => r
            .notes
            .push(format!("no rate down to {lo} krps meets the SLO")),
        Edge::AllRatesMeet => r
            .notes
            .push(format!("every rate up to {hi} krps meets the SLO")),
    }
    r.set("slo_knee_krps", k.rate);
    r.samples = points.iter().map(|(_, p)| p.samples).min().unwrap_or(0);
    r
}

fn rates(seed: u64, spans: &mut HostSpans) -> ChildReport {
    let mut r = ChildReport::default();
    for krps in [100.0, 200.0, 250.0] {
        let p = social_rate_point(seed, krps, spans);
        r.set(&format!("apps.social.p99_us.r{krps}"), p.p99_us);
        r.notes.push(format!(
            "open loop, rate {krps} krps: p99 {:.1} us, fail_frac {:.4}, drain {:.3} ms, n {}",
            p.p99_us,
            p.fail_frac,
            p.drain.as_secs_f64() * 1e3,
            p.samples
        ));
    }
    r
}
