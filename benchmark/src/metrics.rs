//! Metric declarations (the single source `BENCHMARK.json` is generated
//! from), the statistics the report uses, and the line protocol a child
//! process reports its measurements in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// `sim_*` is modeled time and repeats exactly for one seed; the bounds
/// cover the spread across seeds. `host_*`, `setup_s` and `peak_rss_mb`
/// are harness cost on this machine and are medians over child processes.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "sim_goodput_krps",
        unit: "krps",
        better: Better::Higher,
        bound: 0.03,
    },
    EndToEnd {
        name: "sim_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.07,
    },
    EndToEnd {
        name: "sim_moved_bytes_per_req",
        unit: "B",
        better: Better::Lower,
        bound: 0.06,
    },
    EndToEnd {
        name: "slo_knee_krps",
        unit: "krps",
        better: Better::Higher,
        bound: 0.08,
    },
    EndToEnd {
        name: "host_us_per_req",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layers are the crates. Counts and sim times repeat exactly for one
/// seed; `*_host_ns*`, `host.*` and `telemetry.trace_host_overhead_frac`
/// are host time.
pub const PER_LAYER: &[PerLayer] = &[
    layer("apps.fail_frac", "ratio", Lower),
    layer("simcore.polls_per_req", "count", Lower),
    layer("simcore.host_ns_per_poll", "ns", Lower),
    layer("simcore.timer_host_ns", "ns", Lower),
    layer("simcore.spawn_host_ns", "ns", Lower),
    layer("simnet.datagrams_per_req", "count", Lower),
    layer("simnet.tx_bytes_per_req", "B", Lower),
    layer("simnet.nic_tx_util_max", "ratio", Lower),
    layer("simnet.dropped", "count", Lower),
    layer("simnet.datagram_host_ns", "ns", Lower),
    layer("memsim.node_bytes_per_req", "B", Lower),
    layer("memsim.dm_bytes_per_req", "B", Lower),
    layer("rpclib.calls_per_req", "count", Lower),
    layer("rpclib.retransmits", "count", Lower),
    layer("rpclib.timeouts", "count", Lower),
    layer("rpclib.handler_us_mean", "us", Lower),
    layer("rpclib.frag_host_ns_per_kib", "ns", Lower),
    layer("dmrpc.byref_frac", "ratio", Higher),
    layer("dmrpc.make_value_us", "us", Lower),
    layer("dmrpc.fetch_us", "us", Lower),
    layer("dmrpc.release_us", "us", Lower),
    layer("dmnet.cache.hit_rate", "ratio", Higher),
    layer("dmnet.cache.invalidations_per_kreq", "count", Lower),
    layer("dmnet.client.wire_msgs_per_req", "count", Lower),
    layer("dmnet.client.ops_per_batch", "count", Higher),
    layer("dmnet.client.busy_retried", "count", Lower),
    layer("dmnet.client.redirects_chased", "count", Lower),
    layer("dmnet.server.ops_per_req", "count", Lower),
    layer("dmnet.server.balance", "ratio", Higher),
    layer("dmnet.server.free_frac_end", "ratio", Higher),
    layer("dmnet.server.translation_frac", "ratio", Lower),
    layer("dmnet.admission.rejected", "count", Lower),
    layer("dmnet.admission.shed", "count", Lower),
    layer("dmnet.shard.migrations", "count", Lower),
    layer("dmnet.shard.redirects", "count", Lower),
    layer("dmnet.wal.records", "count", Lower),
    layer("dmnet.coherence.inv_pushed", "count", Lower),
    layer("dmnet.coherence.broadcasts", "count", Lower),
    layer("dmnet.page_manager.put_ref_host_ns_per_page", "ns", Lower),
    layer("dmnet.page_manager.read_ref_host_ns_per_page", "ns", Lower),
    layer("dmnet.page_manager.cow_fault_host_ns", "ns", Lower),
    layer("dmcxl.gfam_bytes_per_req", "B", Lower),
    layer("dmcxl.gfam_atomics_per_req", "count", Lower),
    layer("dmcxl.faults_per_req", "count", Lower),
    layer("dmcxl.cow_copies_per_req", "count", Lower),
    layer("dmcxl.coord_rpcs_per_kreq", "count", Lower),
    layer("apps.cpu_util_max", "ratio", Lower),
    layer("apps.cpu_ops_per_req", "count", Lower),
    layer("apps.drain_ms", "ms", Lower),
    layer("apps.social.p99_us.r100", "us", Lower),
    layer("apps.social.p99_us.r200", "us", Lower),
    layer("apps.social.p99_us.r250", "us", Lower),
    layer("loadgen.followers_host_ns", "ns", Lower),
    layer("telemetry.spans_per_req", "count", Lower),
    layer("telemetry.trace_host_overhead_frac", "ratio", Lower),
    layer("telemetry.trace_sim_shift_frac", "ratio", Lower),
    layer("trace.serialize_us", "us", Lower),
    layer("trace.queueing_us", "us", Lower),
    layer("trace.transport_us", "us", Lower),
    layer("trace.dm_control_us", "us", Lower),
    layer("trace.cow_copy_us", "us", Lower),
    layer("trace.mem_us", "us", Lower),
    layer("trace.other_us", "us", Lower),
    layer("host.est_share.simcore", "ratio", Lower),
    layer("host.est_share.simnet", "ratio", Lower),
    layer("host.est_share.rpclib", "ratio", Lower),
    layer("host.est_share.dmnet", "ratio", Lower),
    layer("host.unattributed_frac", "ratio", Lower),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Host-clock end-to-end metrics: medians over child processes, noisy.
pub fn is_host_metric(name: &str) -> bool {
    matches!(name, "host_us_per_req" | "setup_s" | "peak_rss_mb")
}

/// Named metric values, in name order.
pub type Values = BTreeMap<String, f64>;

// ---------------------------------------------------------------- statistics

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median (0 below two values).
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it; `None` when even the median does not.
pub fn tail_percentile(samples: u64) -> Option<f64> {
    // One sample in `k` lies beyond the percentile 1 - 1/k.
    [10_000u64, 1_000, 100, 10, 2]
        .into_iter()
        .find(|k| samples >= 10 * k)
        .map(|k| 1.0 - 1.0 / k as f64)
}

// ------------------------------------------------------------- child report

/// What one child process measured, as it crosses the pipe to the parent.
#[derive(Default, Debug, PartialEq)]
pub struct ChildReport {
    pub metrics: Values,
    /// Completions in the measured window (the latency sample count).
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, by description; empty means correct.
    pub violations: Vec<String>,
    /// Free-form lines for the human report (load model, lateness, knee probes).
    pub notes: Vec<String>,
}

impl ChildReport {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name.to_string(), value);
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            // `{:?}` prints the shortest digits that read back as the same f64.
            let _ = writeln!(out, "metric {k} {v:?}");
        }
        let _ = writeln!(out, "samples {}", self.samples);
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        for v in &self.violations {
            let _ = writeln!(out, "violation {v}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        out.push_str("end\n");
        out
    }

    /// `Err` unless the text is complete (ends with `end`), so a child
    /// that died mid-report is never taken for a result.
    pub fn parse(text: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        let mut complete = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let int = |s: &str| s.parse::<u64>().map_err(|e| format!("{line}: {e}"));
            match tag {
                "metric" => {
                    let (k, v) = rest.split_once(' ').ok_or(format!("bad line: {line}"))?;
                    let v = v.parse::<f64>().map_err(|e| format!("{line}: {e}"))?;
                    r.metrics.insert(k.to_string(), v);
                }
                "samples" => r.samples = int(rest)?,
                "attempted" => r.attempted = int(rest)?,
                "failed" => r.failed = int(rest)?,
                "violation" => r.violations.push(rest.to_string()),
                "note" => r.notes.push(rest.to_string()),
                "end" => complete = true,
                _ => return Err(format!("unknown line: {line}")),
            }
        }
        if complete {
            Ok(r)
        } else {
            Err("child report is incomplete".into())
        }
    }
}

// --------------------------------------------------------------------- JSON

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never produced by a correct run)
/// become `null` so the line stays parseable.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line the driver reads: `names` selects and orders the metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&str],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|n| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(values.get(*n).copied().unwrap_or(f64::NAN)),
                json_str(unit_of(n).expect("declared metric"))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The text of `BENCHMARK.json`, generated from the declarations above.
pub fn manifest_json(workloads: &[(&str, &str)], run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|(n, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(n),
                json_str(why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label()),
                json_num(m.bound)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(15_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn child_report_round_trips_and_rejects_truncation() {
        let mut r = ChildReport {
            samples: 15_001,
            attempted: 15_003,
            failed: 2,
            ..Default::default()
        };
        r.set("sim_p50_us", 0.1 + 0.2);
        r.set("dmnet.cache.hit_rate", 1.0 / 3.0);
        r.violations.push("chain checksum: 3 mismatches".into());
        r.notes.push("open loop, rate 150 krps".into());
        let text = r.to_lines();
        assert_eq!(ChildReport::parse(&text).unwrap(), r);
        let cut = &text[..text.len() - 4];
        assert!(ChildReport::parse(cut).is_err());
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }
}
