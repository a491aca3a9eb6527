//! Workspace chaos test: a bounded seed sweep of the fault-injection
//! harness (the full 100-seed sweep runs as `bench chaos`).
//!
//! Checks the global invariants of DESIGN.md §8 on the Fig. 5 chain and
//! Fig. 7 COW workloads: refcount conservation, no page leaks after lease
//! reclamation, COW isolation under concurrent faulted writers, typed
//! completion of every request, and per-seed reproducibility. Both
//! workloads run with the DESIGN.md §9 client cache + coalescer enabled
//! (the chain via the cluster default, the COW case explicitly), so every
//! fault sweep also exercises epoch invalidation and batched control ops.

use bench::chaos::{
    run_chain_case, run_cow_case, run_slo_social_case, run_slo_social_fault_free, sweep,
    sweep_parallel, FaultClass,
};

#[test]
fn bounded_sweep_holds_all_invariants() {
    // 6 seeds x 4 fault classes x 4 cases, with a determinism double-run
    // every 3rd seed.
    let out = sweep(0..6, 3);
    assert!(
        out.violations.is_empty(),
        "chaos invariant violations:\n{}",
        out.violations.join("\n")
    );
    assert!(out.completed > 0, "no request ever completed");
    assert!(out.cases >= 6 * 4 * 4, "sweep ran {} cases", out.cases);
}

/// `CaseResult::fingerprint()` — (polls, end_ns, completed, errors,
/// checksum) — of seeds 0–1 × 4 fault classes × 4 cases in sweep order,
/// from runs identical at 1 and 8 threads. The DmRPC-net rows were last
/// re-recorded when a coherent server stopped putting a version block in
/// every success (each response got shorter); the `fig5-chain/erpc` rows
/// never talk to a DM server. The table then went from 40 to 32 rows when
/// a crashed DM server stopped coming back with its memory intact: that
/// `server-crash` class went, and the 8 rows of the class that recovers
/// through the log took its label, verbatim but one (`fig7-cow/dmnet` seed
/// 1 lost 46 polls, a second replay of a server the heal had recovered).
/// The other 24 rows stayed verbatim with the write-ahead log on in every
/// case, which is schedule-neutral.
/// The other tests only compare a run with itself; this compares it with
/// that recording. Re-record only for a change that means to move the
/// schedule.
#[rustfmt::skip]
const GOLDEN: [(u64, u64, u64, u64, u64); 32] = [
    (28916, 2327617, 640, 0, 16607590119150452736),
    (56345, 21373392, 676, 0, 12261166499321085952),
    (28691, 3300000, 541, 0, 3419493524301013466),
    (113585, 3700000, 1455, 1338, 1750681676916994718),
    (28916, 2327617, 640, 0, 16607590119150452736),
    (43972, 21365120, 501, 0, 8357379164467916800),
    (24984, 21120000, 280, 958, 16125716307107751258),
    (87701, 3700000, 1034, 1759, 2669207494345446557),
    (28916, 2327617, 640, 0, 16607590119150452736),
    (56379, 21363935, 673, 0, 9043904479978090496),
    (27984, 3300000, 519, 0, 7805749023079703962),
    (111934, 3700000, 1419, 1374, 9779365401590354073),
    (28916, 2327617, 640, 0, 16607590119150452736),
    (10459, 1421518952, 80, 0, 11647770628469977088),
    (5112, 4624605, 41, 1, 10924419358618961792),
    (45277, 3940653, 376, 2417, 12689228911642003702),
    (27968, 2328197, 608, 0, 15012980976271753216),
    (55598, 1421411908, 657, 0, 9277664715626541056),
    (29454, 3300000, 552, 0, 2867668832742722880),
    (109836, 3700000, 1402, 1401, 15495097073502881831),
    (16156, 2328433, 317, 0, 5102585835025100800),
    (26139, 1421294148, 233, 0, 6738719797178036224),
    (24657, 20620000, 147, 1595, 9901911934741466),
    (76830, 3700000, 841, 1962, 17400233135125364149),
    (26318, 2328131, 560, 0, 15845299204350017536),
    (51147, 21365927, 592, 0, 1485715726095876096),
    (28453, 3300000, 530, 0, 18265571817558072064),
    (110715, 3711672, 1424, 1379, 18036858915691306175),
    (16156, 2328433, 317, 0, 5102585835025100800),
    (13831, 1420889573, 105, 0, 1261051463411171328),
    (2702, 4538549, 12, 1, 2362988351365649280),
    (64909, 3740637, 710, 2093, 8779483624368381817),
];

#[test]
fn sweep_matches_the_pinned_fingerprints_at_any_thread_count() {
    // One sweep path, two thread counts: same records in the same order,
    // same per-seed fingerprints, same aggregates. Two seeds on two
    // threads exercise the round-robin assignment and the seed-order
    // merge.
    let serial = sweep(0..2, 0);
    let parallel = sweep_parallel(0..2, 0, 2);
    assert_eq!(serial.records.len(), GOLDEN.len());
    assert_eq!(serial.records.len(), parallel.records.len());
    for ((a, b), golden) in serial.records.iter().zip(&parallel.records).zip(GOLDEN) {
        assert_eq!(
            (a.name, a.fault, a.seed, a.rerun),
            (b.name, b.fault, b.seed, b.rerun),
            "record order diverged"
        );
        assert_eq!(
            a.result.fingerprint(),
            golden,
            "{} {} seed {}: fingerprint moved off the pinned table",
            a.name,
            a.fault.label(),
            a.seed
        );
        assert_eq!(
            a.result.fingerprint(),
            b.result.fingerprint(),
            "{} {} seed {}: fingerprint depends on the thread count",
            a.name,
            a.fault.label(),
            a.seed
        );
    }
    assert_eq!(serial.cases, parallel.cases);
    assert_eq!(serial.completed, parallel.completed);
    assert_eq!(serial.errors, parallel.errors);
    assert_eq!(serial.violations, parallel.violations);
}

#[test]
fn faults_actually_bite() {
    // Sanity: the harness is not vacuous — across a few seeds the chain
    // workload under partitions must produce at least one typed error.
    let mut errors = 0;
    for seed in 0..4 {
        let r = run_chain_case(
            apps::cluster::SystemKind::DmNet,
            FaultClass::Partition,
            seed,
        );
        errors += r.errors;
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    }
    assert!(errors > 0, "partitions never produced a single typed error");
}

#[test]
fn cow_case_is_reproducible_per_seed() {
    for fault in FaultClass::ALL {
        let a = run_cow_case(fault, 42);
        let b = run_cow_case(fault, 42);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "fault class {} not reproducible",
            fault.label()
        );
    }
    // Different seeds explore different schedules. A single pair can
    // collide by luck (two seeds whose loss windows both miss every
    // packet), so require distinct fingerprints across a small set.
    let fps: Vec<_> = (1..5)
        .map(|seed| run_cow_case(FaultClass::BurstyLoss, seed).fingerprint())
        .collect();
    assert!(
        fps.windows(2).any(|w| w[0] != w[1]),
        "seed has no effect: {fps:?}"
    );
}

#[test]
fn overloaded_social_survives_faults_without_leaks() {
    // The DESIGN.md §14 case: an SF=10 population offered 1.2x its
    // measured knee with the front-door window on. The case itself
    // flags goodput-collapse-to-zero and post-heal page leaks as
    // violations, and its fault-free twin flags a rate that sheds nothing
    // (every sweep seed runs the twin); here we additionally pin that the
    // twin's only non-completions are Busy sheds and that the case
    // reproduces.
    let calm = run_slo_social_fault_free(5);
    assert!(
        calm.violations.is_empty(),
        "violations: {:?}",
        calm.violations
    );
    assert!(
        calm.errors > 0 && calm.errors < calm.completed,
        "1.2x knee must shed some, not most: {} shed, {} completed",
        calm.errors,
        calm.completed
    );
    let a = run_slo_social_case(FaultClass::BurstyLoss, 5);
    assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
    assert!(a.completed > 0, "goodput collapsed under bursty loss");
    let b = run_slo_social_case(FaultClass::BurstyLoss, 5);
    assert_eq!(a.fingerprint(), b.fingerprint(), "case not reproducible");
}

#[test]
fn server_crash_recovery_rebuilds_acknowledged_state() {
    // Every server crash heals through `restart_from_log`, so beyond the
    // shared invariants (the fail-stopped victim client's lease among
    // them) the case checks digest-exact recovery and byte-exact readback
    // of every acknowledged put (DESIGN.md §12). A handful of seeds hits
    // crash windows at many different log lengths.
    for seed in [3, 7, 11, 29] {
        let r = run_cow_case(FaultClass::ServerCrash, seed);
        assert!(
            r.violations.is_empty(),
            "seed {seed} violations: {:?}",
            r.violations
        );
        assert!(
            r.completed > 0,
            "seed {seed}: nothing completed around the recovery windows"
        );
    }
}
