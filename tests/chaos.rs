//! Workspace chaos test: a bounded seed sweep of the fault-injection
//! harness (the full 100-seed sweep runs as `bench chaos`).
//!
//! Checks the global invariants of DESIGN.md §8 on the Fig. 5 chain and
//! Fig. 7 COW workloads: refcount conservation, no page leaks after lease
//! reclamation, COW isolation under concurrent faulted writers, typed
//! completion of every request, and per-seed reproducibility. Both
//! workloads run with the DESIGN.md §9 client cache + coalescer enabled
//! (the chain via the cluster default, the COW case explicitly), so every
//! fault sweep also exercises death lists and batched control ops.

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
/// from runs identical at 1 and 8 threads. All 32 rows were last
/// re-recorded when the fabric began to call each port's receive function
/// at the hand-over instant, before that instant's timers, instead of
/// waking a delivery task and an endpoint's receive-loop task per
/// datagram: polls fell by 54–64 % on every row, and the new same-instant
/// order moved end time, completions or errors on 11 of them (3 of the 8
/// `fig5-chain/erpc` rows included). Four rows of seed 1 were re-recorded
/// when the fabric began to hand a message's packets over together, at its
/// last packet: a reply resent to a retransmitted request and a reassembly
/// completed by a retransmission's middle packet act at that instant, and
/// an endpoint that crashes or comes back while a message is on its NIC
/// hears all of it or none. Three `fig5-chain/erpc` rows moved their end
/// time only; `slo-social/dmnet` server-crash completed 30 more requests.
/// Five rows lost 1–9 polls, and nothing else, when a CPU core became a
/// booking: an op that finds every core taken sleeps to its finish instead
/// of being woken by a semaphore grant first (`fig7-cow/dmnet` partition
/// and dup-reorder seed 0, bursty-loss and dup-reorder seed 1,
/// `slo-social/dmnet` server-crash seed 1). `fig5-chain/erpc` bursty-loss
/// seed 1 was re-recorded when a duplicate request on an answered slot
/// began to get one resent reply per hand-over, not one per packet: its
/// retransmitted 2-packet requests had each drawn two replies.
/// `fig5-chain/erpc` dup-reorder seed 1 lost one poll, and nothing else,
/// when a server entry left receiving began to be reclaimed: a request
/// that arrived in pieces armed its endpoint's reclaim sweep, a wake-up of
/// the endpoint's timer task (the sweep found it complete and reclaimed
/// nothing; no entry is reclaimed anywhere in the 32 runs).
/// The other tests only compare a run
/// with itself; this compares it with that recording. Re-record only for
/// a change that means to move the schedule.
#[rustfmt::skip]
const GOLDEN: [(u64, u64, u64, u64, u64); 32] = [
    (10687, 2327617, 640, 0, 16607590119150452736),
    (21363, 3064731, 669, 0, 15496240774982692864),
    (13110, 3300000, 563, 0, 10876830090532357274),
    (51276, 3700000, 1969, 824, 13258190860806131245),
    (10687, 2327617, 640, 0, 16607590119150452736),
    (16949, 3000000, 505, 0, 5209188130929799168),
    (10314, 3300000, 291, 951, 17103789764085610586),
    (39869, 3700000, 1339, 1454, 11748914024996246127),
    (10687, 2327617, 640, 0, 16607590119150452736),
    (21488, 3000000, 676, 0, 12261166499321085952),
    (12781, 3300000, 548, 0, 2612831732973756058),
    (50907, 3700000, 1942, 851, 7381678493121961902),
    (10687, 2327617, 640, 0, 16607590119150452736),
    (4188, 3297127, 80, 0, 11647770628469977088),
    (2169, 4524597, 32, 1, 17789005190053865754),
    (37095, 3952128, 1207, 1586, 16590015648492559351),
    (9957, 2327990, 591, 0, 11340223911458402304),
    (20179, 3046935, 622, 0, 4257190990579367936),
    (13318, 3300000, 569, 0, 8400739255624275866),
    (50032, 3700000, 1900, 903, 6679325932300895042),
    (5761, 2328259, 310, 0, 13598952673238450176),
    (9955, 3000000, 230, 0, 5218268974822850560),
    (10461, 3500000, 346, 577, 6649643468387741248),
    (34106, 3714320, 1013, 1790, 2332623918505472940),
    (9493, 2326310, 560, 0, 15845299204350017536),
    (19517, 3000000, 598, 0, 2606996286084349952),
    (12892, 3300000, 550, 0, 4829329783433873434),
    (49235, 3700000, 1875, 928, 17574465219268444355),
    (5761, 2328259, 310, 0, 13598952673238450176),
    (5301, 3213884, 105, 0, 16702254371847696384),
    (1213, 4552484, 7, 1, 82537842330),
    (39445, 3740621, 1313, 1490, 3184397611762086797),
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
