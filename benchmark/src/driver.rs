//! The parent process: runs each measurement in a fresh child, one at a
//! time, and reduces what the children report to named metrics.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::Mode;
use crate::metrics::{
    iqr_share, is_host_metric, median, quartiles, result_line, unit_of, ChildReport, Values,
    END_TO_END, PER_LAYER,
};
use crate::workloads::Workload;

/// Switches of the program under test that would change what is measured.
const SCRUBBED_ENV: [&str; 4] = ["DM_DURABLE", "SIM_THREADS", "CHAOS_THREADS", "SLO_ADAPTIVE"];
/// Child processes per untraced run: at least, and at most.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 9;

/// One workload's result, as printed.
pub struct WorkloadResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub values: Values,
    /// Raw per-child values of the host-clock metrics.
    pub host_samples: BTreeMap<String, Vec<f64>>,
    /// Latency samples (completions) behind the percentiles.
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn names(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The line the driver reads.
    pub fn result_line(&self) -> String {
        result_line(
            self.correct(),
            self.attempted.max(1),
            self.failed,
            &self.names(),
            &self.values,
        )
    }
}

/// Run one child to completion and parse its report. Never two at once:
/// the call returns only when the child has exited.
fn spawn_child(workload: Workload, seed: u64, mode: Mode) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name(),
        "--mode",
        mode.name(),
    ])
    .args(["--seed", &seed.to_string()])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let what = format!("{} {} child", workload.name(), mode.name());
    let out = cmd.output().map_err(|e| format!("{what}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what} exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("{what}: {e}"))?;
    ChildReport::parse(&text).map_err(|e| format!("{what}: {e}"))
}

/// The untraced run: end-to-end metrics. Modeled-time metrics must repeat
/// exactly in every child; host-time metrics are medians over the children.
pub fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let mut children = Vec::new();
    while children.len() < MIN_REPEATS
        || (children.len() < MAX_REPEATS && started.elapsed().as_secs_f64() < seconds)
    {
        children.push(spawn_child(workload, seed, Mode::Window)?);
    }
    let first = &children[0];
    let mut violations = first.violations.clone();
    let mut notes = first.notes.clone();
    let mut values = Values::new();
    let mut host_samples = BTreeMap::new();
    for m in END_TO_END {
        let per_child: Vec<f64> = children
            .iter()
            .filter_map(|c| c.metrics.get(m.name).copied())
            .collect();
        if per_child.is_empty() {
            continue; // social_open's knee comes from its own child below
        }
        if is_host_metric(m.name) {
            values.insert(m.name.to_string(), median(&per_child));
            host_samples.insert(m.name.to_string(), per_child);
        } else {
            if per_child
                .iter()
                .any(|v| v.to_bits() != per_child[0].to_bits())
            {
                violations.push(format!(
                    "{} differs between children of one seed: {per_child:?}",
                    m.name
                ));
            }
            values.insert(m.name.to_string(), per_child[0]);
        }
    }
    if children.iter().any(|c| {
        (c.samples, c.attempted, c.failed) != (first.samples, first.attempted, first.failed)
    }) {
        violations.push("request counts differ between children of one seed".into());
    }
    if workload == Workload::SocialOpen {
        let knee = spawn_child(workload, seed, Mode::Knee)?;
        values.extend(knee.metrics);
        notes.extend(knee.notes);
    }
    notes.push(format!("{} child processes, one at a time", children.len()));
    Ok(WorkloadResult {
        workload,
        seed,
        traced: false,
        values,
        host_samples,
        samples: first.samples,
        attempted: first.attempted,
        failed: first.failed + violations.len() as u64,
        violations,
        notes,
    })
}

/// The traced run: the per-layer ledger from one child with the program's
/// tracer on, compared against one untraced child for the tracing cost.
pub fn run_traced(workload: Workload, seed: u64) -> Result<WorkloadResult, String> {
    let plain = spawn_child(workload, seed, Mode::Window)?;
    let traced = spawn_child(workload, seed, Mode::Traced)?;
    let mut values = traced.metrics.clone();
    let mut notes = traced.notes.clone();
    let shift = |name: &str| traced.metrics[name] / plain.metrics[name] - 1.0;
    values.insert(
        "telemetry.trace_host_overhead_frac".into(),
        shift("host_us_per_req"),
    );
    values.insert("telemetry.trace_sim_shift_frac".into(), shift("sim_p50_us"));
    if workload == Workload::SocialOpen {
        let rates = spawn_child(workload, seed, Mode::Rates)?;
        values.extend(rates.metrics);
        notes.extend(rates.notes);
    } else {
        for r in ["r100", "r200", "r250"] {
            values.insert(format!("apps.social.p99_us.{r}"), 0.0);
        }
    }
    let mut violations = plain.violations.clone();
    violations.extend(traced.violations.iter().cloned());
    Ok(WorkloadResult {
        workload,
        seed,
        traced: true,
        values,
        host_samples: BTreeMap::new(),
        samples: traced.samples,
        attempted: traced.attempted,
        failed: traced.failed + violations.len() as u64,
        violations,
        notes,
    })
}

fn git_commit() -> String {
    Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The human-readable report; the result line follows it.
pub fn print_report(r: &WorkloadResult) {
    println!(
        "== {} | seed {} | {} | nproc {} | commit {} | one simulator thread",
        r.workload.name(),
        r.seed,
        if r.traced {
            "traced: per-layer ledger"
        } else {
            "untraced: end to end"
        },
        nproc(),
        git_commit(),
    );
    for n in &r.notes {
        println!("   {n}");
    }
    println!(
        "   latency samples (completions in the window): {}",
        r.samples
    );
    for name in r.names() {
        let Some(v) = r.values.get(name) else {
            println!("   {name:<46} MISSING");
            continue;
        };
        println!("   {name:<46} {v:>16.4} {}", unit_of(name).unwrap_or(""));
    }
    for (name, samples) in &r.host_samples {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.bound);
        let (q1, q3) = quartiles(samples).unwrap_or((samples[0], samples[0]));
        let spread = iqr_share(samples);
        println!(
            "   host noise {name:<18} median {:.4} q1 {q1:.4} q3 {q3:.4} n {} iqr {:.1}% of median (bound {:.0}%){}",
            median(samples),
            samples.len(),
            spread * 1e2,
            bound * 1e2,
            if spread > bound { "  UNRESOLVED: spread exceeds the bound" } else { "" }
        );
    }
    for v in &r.violations {
        println!("   VIOLATION: {v}");
    }
}

/// Run and print one workload; `Err` when a child died without a report.
pub fn run_and_print(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let r = if traced {
        run_traced(workload, seed)?
    } else {
        run_untraced(workload, seed, seconds)?
    };
    print_report(&r);
    println!("{}", r.result_line());
    Ok(r)
}

/// A/A: two full untraced sets back to back. Passes when every modeled
/// metric is bit-equal and no host metric is worse by more than its bound
/// in either direction.
pub fn aa(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        println!("#### set {set}");
        let mut results = Vec::new();
        for w in Workload::ALL {
            results.push(run_and_print(w, seed, seconds, false)?);
        }
        sets.push(results);
    }
    println!("#### A/A: set B against set A, seed {seed}");
    let mut pass = true;
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        if !a.correct() || !b.correct() {
            println!("{:<14} FAIL: a run was not correct", a.workload.name());
            pass = false;
        }
        for m in END_TO_END {
            let (Some(&va), Some(&vb)) = (a.values.get(m.name), b.values.get(m.name)) else {
                println!("{:<14} {:<26} FAIL: missing", a.workload.name(), m.name);
                pass = false;
                continue;
            };
            let rel = (vb - va) / va;
            let verdict = if is_host_metric(m.name) {
                let unresolved = [a, b]
                    .iter()
                    .any(|r| iqr_share(&r.host_samples[m.name]) > m.bound);
                // Same code on both sides: a difference either way is noise.
                if rel.abs() > m.bound {
                    pass = false;
                    "FAIL: beyond the bound"
                } else if unresolved {
                    "unresolved: a set's own spread exceeds the bound"
                } else {
                    "ok"
                }
            } else if va.to_bits() != vb.to_bits() {
                pass = false;
                "FAIL: modeled metric differs for one seed"
            } else {
                "ok (bit-equal)"
            };
            println!(
                "{:<14} {:<26} A {va:>14.4} B {vb:>14.4} diff {:>+8.3}% bound {:>4.1}% ({} is better)  {verdict}",
                a.workload.name(),
                m.name,
                rel * 1e2,
                m.bound * 1e2,
                m.better.label(),
            );
        }
        if (a.samples, a.attempted, a.failed) != (b.samples, b.attempted, b.failed) {
            println!("{:<14} FAIL: request counts differ", a.workload.name());
            pass = false;
        }
    }
    println!("#### A/A {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}
