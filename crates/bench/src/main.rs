//! `bench` — the one driver for every table, figure and `xtra_*` sweep.
//!
//! ```text
//! cargo run --release -p bench -- list                 # what there is
//! cargo run --release -p bench -- fig7 chaos           # run some
//! cargo run --release -p bench -- all                  # the committed fault-free set
//! cargo run --release -p bench -- scenario --app lb    # one ad-hoc cell
//! ```
//!
//! A run that names `all` also times each experiment it ran and writes the
//! wall-clock trajectory (`results/BENCH_wall_clock.json`, machine-dependent
//! and exempt from the CI byte-diff).
//!
//! Exit status: 0 clean, 1 when a gate or an artifact write failed (after
//! every artifact that could be written is on disk), 2 on a usage error
//! or a malformed environment knob (`SIM_THREADS`, `CHAOS_SEEDS`).

mod scenario;

use bench::report::{f2, Table};
use bench::{
    cache_coherence, chaos, extras, fig10, fig11, fig12, fig5, fig6, fig7, fig8, latency_breakdown,
    recovery, rtt_budget, shard_scaling, sim_throughput, slo_scale, table1,
};

/// One registered experiment: the name given on the command line,
/// whether `all` runs it, its entry point, and the files under `results/`
/// it owns (and nobody else writes).
type Experiment = (&'static str, bool, fn(), &'static [&'static str]);

/// Every experiment, once (each module's `//!` header says what it
/// reproduces). `all` is the fault-free, virtual-time set whose artifacts
/// CI regenerates three ways and byte-diffs; it runs in this order.
#[rustfmt::skip]
const REGISTRY: &[Experiment] = &[
    ("table1",               true,  table1::run,                             &["table1_sharing_methods.csv"]),
    ("fig5",                 true,  fig5::run,                               &["fig5_nested.csv"]),
    ("fig6",                 true,  fig6::run,                               &["fig6_loadbalancer.csv"]),
    ("fig7",                 true,  fig7::run,                               &["fig7_cow.csv"]),
    ("fig8",                 true,  fig8::run,                               &["fig8_datastore.csv"]),
    ("fig10",                true,  fig10::run,                              &["fig10a_image_throughput.csv", "fig10b_image_latency.csv"]),
    ("fig11",                true,  fig11::run,                              &["fig11_deathstarbench.csv", "BENCH_fig11.json"]),
    ("fig12",                true,  fig12::run,                              &["fig12_cxl_latency.csv"]),
    ("translation_overhead", true,  extras::translation_overhead,            &["xtra_translation_overhead.csv"]),
    ("size_threshold",       true,  extras::size_threshold,                  &["xtra_size_threshold.csv"]),
    ("ownership_batching",   true,  extras::ownership_batching,              &["xtra_ownership_batching.csv"]),
    ("hw_translation",       true,  extras::hw_translation,                  &["xtra_hw_translation.csv"]),
    ("core_scaling",         true,  extras::core_scaling,                    &["xtra_core_scaling.csv"]),
    ("rtt_budget",           true,  rtt_budget::run,                         &["xtra_rtt_budget.csv"]),
    ("cache_coherence",      true,  cache_coherence::run,                    &["xtra_cache_coherence.csv", "BENCH_cache_coherence.json"]),
    ("latency_breakdown",    true,  latency_breakdown::run,                  &["xtra_latency_breakdown.csv"]),
    ("recovery",             true,  recovery::run,                           &["xtra_recovery.csv"]),
    ("chaos",                false, chaos::run,                              &["xtra_chaos.csv"]),
    ("shard_scaling",        false, shard_scaling::run,                      &["xtra_shard_scaling.csv", "BENCH_shard_scaling.json"]),
    ("slo_scale",            false, slo_scale::run,                          &["xtra_slo_scale.csv", "BENCH_slo_scale.json"]),
    ("sim_throughput",       false, sim_throughput::run,                     &["xtra_sim_throughput.csv", "BENCH_sim_throughput.json"]),
    ("telemetry_overhead",   false, sim_throughput::telemetry_overhead_gate, &[]),
];

/// What a run naming `all` writes on top of its experiments' own files: how
/// long each took on this host (see [`wall_clock`]).
const ALL_WRITES: &[&str] = &["xtra_wall_clock.csv", "BENCH_wall_clock.json"];

fn listing() -> String {
    let paths = |files: &[&str]| {
        let files: Vec<String> = files.iter().map(|f| format!("results/{f}")).collect();
        files.join(" ")
    };
    let mut out = String::from("experiments (* = part of `all`):\n");
    for &(name, in_all, _, files) in REGISTRY {
        let star = if in_all { '*' } else { ' ' };
        out += &format!("  {star} {name:<21} {}\n", paths(files));
    }
    out += &format!("    {:<21} {}\n", "all", paths(ALL_WRITES));
    out + "also: list | scenario [--system ..] [--app ..] ..\n"
}

/// The harness's own clock, one row per experiment of this run: the
/// wall-time trajectory of DESIGN.md §11. One file for the whole run
/// rather than a `wall_ms` in every `BENCH_*.json`, which would fail the
/// byte-diff every gated CI job runs.
fn wall_clock(rows: &[(&str, std::time::Duration)]) {
    let mut t = Table::new("xtra_wall_clock", &["experiment", "wall_ms"]).trajectory("wall_clock");
    t.meta(
        "host_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    t.meta("SIM_THREADS", bench::pool::knobs().sim_threads);
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    t.meta_text("commit", &commit);
    let total: std::time::Duration = rows.iter().map(|&(_, wall)| wall).sum();
    t.headline("total_wall_ms", f2(total.as_secs_f64() * 1e3));
    for &(name, wall) in rows {
        t.row(&[&name, &f2(wall.as_secs_f64() * 1e3)]);
    }
    t.finish();
}

/// Resolve command-line names (`all` expands in place) against the
/// registry, all of them before any runs.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut picked = Vec::new();
    for name in names {
        if name == "all" {
            picked.extend(REGISTRY.iter().filter(|&&(_, in_all, ..)| in_all));
        } else {
            let found = REGISTRY.iter().find(|&&(known, ..)| known == name);
            picked.push(found.ok_or_else(|| format!("unknown experiment {name:?}"))?);
        }
    }
    Ok(picked)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let knobs = bench::pool::knobs();
    match args.first().map(String::as_str) {
        Some("list") => return print!("{}", listing()),
        Some("scenario") => return scenario::run(&args[1..]),
        _ => {}
    }
    let picked = match select(&args) {
        Ok(picked) if !picked.is_empty() => picked,
        other => {
            let why = other.err().unwrap_or("no experiment named".to_string());
            eprintln!("error: {why}\n\n{}", listing());
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    println!(
        "# DmRPC reproduction — {} experiment(s), SIM_THREADS={}",
        picked.len(),
        knobs.sim_threads,
    );
    let mut walls = Vec::new();
    for &&(name, _, run, _) in &picked {
        let started = std::time::Instant::now();
        run();
        walls.push((name, started.elapsed()));
    }
    if args.iter().any(|a| a == "all") {
        wall_clock(&walls);
    }
    println!("\ndone in {:.1}s wall time", t0.elapsed().as_secs_f64());
    let failures = bench::report::failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILED: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_results_file_has_exactly_one_owner_and_exists() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let on_disk: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("results/ is committed")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let owned: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|&(.., files)| files)
            .chain(ALL_WRITES)
            .copied()
            .collect();
        let distinct: BTreeSet<String> = owned.iter().map(|f| f.to_string()).collect();
        assert_eq!(distinct.len(), owned.len(), "a file has two owners");
        assert_eq!(distinct, on_disk, "registry (left) vs results/ (right)");
    }

    #[test]
    fn names_are_unique_and_all_is_the_pinned_fault_free_set() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|&(name, ..)| name).collect();
        assert_eq!(names.len(), REGISTRY.len());
        assert!(!names.contains("all") && !names.contains("list") && !names.contains("scenario"));
        // The set and order `results` regenerates three
        // ways: changing it changes what that CI job costs and covers.
        let all: Vec<&str> = select(&["all".to_string()])
            .unwrap()
            .iter()
            .map(|&&(name, ..)| name)
            .collect();
        assert_eq!(
            all,
            [
                "table1",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig10",
                "fig11",
                "fig12",
                "translation_overhead",
                "size_threshold",
                "ownership_batching",
                "hw_translation",
                "core_scaling",
                "rtt_budget",
                "cache_coherence",
                "latency_breakdown",
                "recovery",
            ]
        );
    }

    #[test]
    fn unknown_names_are_rejected_before_anything_runs() {
        let err = select(&["fig7".to_string(), "fig99".to_string()]).err();
        assert_eq!(err.as_deref(), Some("unknown experiment \"fig99\""));
    }
}
