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
    // 6 seeds x 5 fault classes x 4 cases, with a determinism double-run
    // every 3rd seed.
    let out = sweep(0..6, 3);
    assert!(
        out.violations.is_empty(),
        "chaos invariant violations:\n{}",
        out.violations.join("\n")
    );
    assert!(out.completed > 0, "no request ever completed");
    assert!(out.cases >= 6 * 5 * 4, "sweep ran {} cases", out.cases);
}

/// `CaseResult::fingerprint()` — (polls, end_ns, completed, errors,
/// checksum) — of seeds 0–1 × 5 fault classes × 4 cases in sweep order,
/// recorded once when `simnet`'s task per datagram became one delivery
/// pump (ISSUE 19), from runs identical at 1 and 8 threads: against the
/// previous recording every row lost polls (four per datagram became at
/// most two) and every row kept its `end_ns`, completions, errors and
/// checksum. The sharded-migration case's rows went with that case; no
/// other row moved. The ten `slo-social/dmnet` rows were re-recorded when
/// the client cache became one page budget per client and compose began
/// writing both timelines at once, which raised the SF=10 knee `slo_scale`
/// measures from 1700 to 2400 krps: that case offers 1.2× the knee, so it
/// now runs at 2880 instead of 2040 krps; the other 30 rows did not move.
/// The other tests only compare a run with itself; this compares it with
/// that recording. Re-record only for a change that means to move the
/// schedule.
#[rustfmt::skip]
const GOLDEN: [(u64, u64, u64, u64, u64); 40] = [
    (28916, 2327617, 640, 0, 16607590119150452736),
    (56313, 21372169, 675, 0, 2775746541747073024),
    (28760, 3300000, 541, 0, 3419493524301013466),
    (111044, 3700000, 1399, 1394, 4808999026650606739),
    (28916, 2327617, 640, 0, 16607590119150452736),
    (44353, 21369814, 507, 0, 6962149848249430016),
    (24962, 21120000, 281, 956, 16125716307107751258),
    (87484, 3736206, 1029, 1764, 7572614360911582323),
    (28916, 2327617, 640, 0, 16607590119150452736),
    (56923, 21366875, 675, 0, 2775746541747073024),
    (27976, 3300000, 520, 0, 7805749023079703962),
    (110515, 3714900, 1397, 1396, 15016909303906164989),
    (28916, 2327617, 640, 0, 16607590119150452736),
    (10454, 1421518856, 80, 0, 11647770628469977088),
    (3889, 3724599, 50, 1, 17551138416216931290),
    (47269, 3953261, 413, 2380, 937171329067023703),
    (28916, 2327617, 640, 0, 16607590119150452736),
    (10454, 1421518856, 80, 0, 11647770628469977088),
    (5106, 4624599, 41, 1, 10924419358618961792),
    (47269, 3953261, 413, 2380, 937171329067023703),
    (27968, 2328197, 608, 0, 15012980976271753216),
    (52469, 1421347097, 605, 0, 2220051872788803584),
    (29466, 3300000, 552, 0, 2867668832742722880),
    (112216, 3700000, 1449, 1354, 2189700180123590119),
    (16156, 2328433, 317, 0, 5102585835025100800),
    (25517, 1421297957, 224, 0, 15376600451673227264),
    (25198, 20620000, 148, 1686, 9901911934741466),
    (76273, 3700000, 840, 1963, 3249873562294591557),
    (26318, 2328131, 560, 0, 15845299204350017536),
    (51294, 21363885, 591, 0, 8973770220378681344),
    (28276, 3300000, 527, 0, 9740711954995428314),
    (110967, 3700000, 1437, 1366, 9970817236577941872),
    (16156, 2328433, 317, 0, 5102585835025100800),
    (13707, 1420889613, 104, 0, 2199107218327236608),
    (2071, 3738559, 14, 1, 1882284596114112192),
    (62416, 3740627, 664, 2139, 12339903471317786183),
    (16156, 2328433, 317, 0, 5102585835025100800),
    (13707, 1420889613, 104, 0, 2199107218327236608),
    (2749, 4538559, 12, 1, 2362988351365649280),
    (62416, 3740627, 664, 2139, 12339903471317786183),
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
fn server_crash_class_reclaims_crashed_client() {
    let r = run_cow_case(FaultClass::ServerCrash, 7);
    assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    assert!(
        r.completed > 0,
        "nothing completed around the crash windows"
    );
}

#[test]
fn server_crash_recovery_rebuilds_acknowledged_state() {
    // The durable-tier fault class: every server crash heals through
    // `restart_from_log`, so beyond the shared invariants the case checks
    // digest-exact recovery and byte-exact readback of every acknowledged
    // put (DESIGN.md §12). A handful of seeds hits crash windows at many
    // different log lengths.
    for seed in [3, 11, 29] {
        let r = run_cow_case(FaultClass::ServerCrashRecovery, seed);
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
