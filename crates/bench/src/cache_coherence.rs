//! `xtra_cache_coherence` — client-cache hit rate under write churn, with
//! each ref's death listed to the clients that cached it (DESIGN.md §9).
//!
//! A DM server lists a dead key on the next answer each client that may
//! cache it gets, so unrelated cached entries keep serving. The global
//! epoch this replaced dropped *every* entry a server's clients cached on
//! any ref's death, so even a small write fraction collapsed the read hit
//! rate cluster-wide; its last hit rates at [`GATE_PCT`] are kept as
//! [`EPOCH_HIT_RATE`], the bar this scheme must stay twice over.
//!
//! Two workloads measure it:
//!
//! * **mixed chain** — the Fig. 5 chain where reads re-send one of a
//!   fixed set of long-lived by-ref arguments (the final service's fetch
//!   is cacheable) and writes run the standard fresh-argument
//!   put/forward/release cycle, whose release is a death;
//! * **social** — the DeathStarBench mix with a capped post storage, so
//!   every steady-state compose evicts and releases the oldest post's
//!   media ref while readers fetch the recent posts of hot timelines.
//!
//! Emits `results/xtra_cache_coherence.csv` and
//! `results/BENCH_cache_coherence.json`. Cells are independent
//! simulations fanned out over `SIM_THREADS` and assembled in sweep
//! order, so both artifacts are byte-identical at every thread count.

use std::rc::Rc;
use std::time::Duration;

use apps::chain::{build_chain, CHAIN_REQ};
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::social::build_social_capped;
use apps::workload::run_closed_loop;
use bytes::Bytes;
use simcore::Sim;

use crate::report::{f2, Bound, Table};
use crate::rtt_budget::{measure, RttPoint};

/// Social-network population (small enough that the hot set fits each
/// client's cache: [`POST_CAP`] two-page posts are 320 pages, under a
/// 1536-page share of two DM servers — the sweep isolates coherence churn,
/// not capacity misses).
pub const USERS: u32 = 32;

/// Media payload per post. Above the one-page pass-by-reference
/// threshold, so every post is DM-backed.
pub const MEDIA: usize = 8192;

/// Post-storage capacity for the bench deployment: smaller than the
/// preload volume, so each steady-state compose evicts (and releases)
/// the oldest post's media ref.
pub const POST_CAP: usize = 160;

/// Posts preloaded before measuring (> [`POST_CAP`]: eviction churn is
/// active from the first measured compose).
pub const PRELOAD: usize = 200;

/// Compose/write percentages swept; 0 is the churn-free baseline.
pub const WRITE_PCTS: [u32; 4] = [0, 5, 10, 25];

/// The write fraction at which the ≥2× gate is evaluated.
pub const GATE_PCT: u32 = 10;

/// Minimum `hit rate / the global epoch's` at [`GATE_PCT`].
pub const MIN_HIT_RATE_RATIO: f64 = 2.0;

/// The global epoch's hit rate at [`GATE_PCT`] per workload, from the last
/// `BENCH_cache_coherence.json` that ran it (its `global_epoch` rows).
pub const EPOCH_HIT_RATE: [(&str, f64); 2] = [("chain", 0.29), ("social", 0.48)];

/// Chain length for the mixed read/write chain (Fig. 5 shape).
pub const CHAIN_LEN: usize = 3;

/// Chain argument size (paper Fig. 5: 4 KB array — exactly the by-ref
/// threshold, so arguments travel as refs).
pub const ARG_SIZE: usize = 4096;

/// Long-lived by-ref arguments the chain's read side cycles over.
pub const STABLE_REFS: usize = 16;

/// `hit rate / the global epoch's` at [`GATE_PCT`] for `workload`.
pub fn hit_rate_ratio(workload: &str, p: &RttPoint) -> f64 {
    let (_, epoch) = EPOCH_HIT_RATE
        .iter()
        .find(|(w, _)| *w == workload)
        .expect("a swept workload");
    p.hit_rate() / epoch
}

/// Deterministic per-(worker, iteration) draw — identical op sequence
/// for every cell, so the only degree of freedom is the write fraction.
fn mix_draw(w: usize, i: u64) -> u64 {
    (w as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// One social cell: `write_pct`% composes (each evicting + releasing an
/// old post from the capped storage), the rest home-timeline reads.
pub fn run_social_point(write_pct: u32) -> RttPoint {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 17);
        let app = Rc::new(build_social_capped(&cluster, USERS, MEDIA, 7, POST_CAP).await);
        // All writes go through a second client endpoint: the reading
        // client's cache is warmed by reads alone, so an "unrelated
        // writer" is exactly that.
        let writer_node = cluster.add_server("soc-writer");
        let writer = cluster.endpoint(&writer_node, 100).await;
        for i in 0..PRELOAD {
            app.compose_from(&writer, (i as u32) % USERS)
                .await
                .expect("preload");
        }
        // Warm every timeline once so the measured window starts from a
        // populated cache.
        for u in 0..USERS {
            app.read_home(u).await.expect("warm");
            app.read_user(u).await.expect("warm");
        }
        measure(&cluster, |ops| async move {
            let m = run_closed_loop(
                4,
                Duration::from_micros(100),
                Duration::from_millis(4),
                Rc::new(move |w: usize, i: u64| {
                    let app = app.clone();
                    let writer = writer.clone();
                    let ops = ops.clone();
                    async move {
                        let h = mix_draw(w, i);
                        let user = ((h >> 32) % USERS as u64) as u32;
                        if (h % 100) < write_pct as u64 {
                            app.compose_from(&writer, user).await?;
                        } else if (h >> 16) % 3 == 2 {
                            app.read_user(user).await?;
                        } else {
                            app.read_home(user).await?;
                        }
                        ops.set(ops.get() + 1);
                        Ok::<(), dmcommon::DmError>(())
                    }
                }),
            )
            .await;
            m.throughput_rps() / 1e3
        })
        .await
    })
}

/// One chain cell: reads re-send a long-lived by-ref argument down the
/// chain (the final service's fetch of it is cacheable), writes run the
/// standard fresh-argument request whose release is a death.
pub fn run_chain_point(write_pct: u32) -> RttPoint {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 42);
        let app = Rc::new(build_chain(&cluster, CHAIN_LEN).await);
        let payload = Bytes::from(vec![7u8; ARG_SIZE]);
        // The stable read set: long-lived by-ref arguments owned by the
        // client for the whole run.
        let mut stable = Vec::with_capacity(STABLE_REFS);
        for k in 0..STABLE_REFS {
            let data = Bytes::from(vec![(k + 1) as u8; ARG_SIZE]);
            stable.push(app.client.make_value(data).await.expect("stable ref"));
        }
        // Warm: one pass so the final service has every stable ref cached.
        for v in &stable {
            app.client
                .call(app.entry, CHAIN_REQ, v)
                .await
                .expect("warm read");
        }
        app.request(&payload).await.expect("warm write");
        let stable = Rc::new(stable);
        measure(&cluster, |ops| async move {
            let m = run_closed_loop(
                4,
                Duration::from_micros(200),
                Duration::from_millis(2),
                Rc::new(move |w: usize, i: u64| {
                    let app = app.clone();
                    let payload = payload.clone();
                    let stable = stable.clone();
                    let ops = ops.clone();
                    async move {
                        let h = mix_draw(w, i);
                        if (h % 100) < write_pct as u64 {
                            app.request(&payload).await?;
                        } else {
                            let v = &stable[(h >> 32) as usize % STABLE_REFS];
                            app.client
                                .call(app.entry, CHAIN_REQ, v)
                                .await
                                .map_err(|_| dmcommon::DmError::Transport)?;
                        }
                        ops.set(ops.get() + 1);
                        Ok::<(), dmcommon::DmError>(())
                    }
                }),
            )
            .await;
            m.throughput_rps() / 1e3
        })
        .await
    })
}

/// Run the sweep, emit both artifacts, and gate the ≥2× retention on
/// both workloads at [`GATE_PCT`].
pub fn run() {
    // One cell per (workload, write pct), independent sims fanned out in
    // a fixed order.
    let specs: Vec<(&'static str, u32)> = ["chain", "social"]
        .iter()
        .flat_map(|&w| WRITE_PCTS.iter().map(move |&pct| (w, pct)))
        .collect();
    let cells = crate::pool::sweep(&specs, |&(workload, pct)| match workload {
        "chain" => run_chain_point(pct),
        _ => run_social_point(pct),
    });

    let mut t = Table::new(
        "xtra_cache_coherence",
        &[
            "workload",
            "write_pct",
            "ops",
            "hits",
            "misses",
            "hit_rate",
            "invalidations",
            "listed",
            "resets",
            "ctrl_msgs",
            "ctrl_per_op",
            "throughput_krps",
        ],
    )
    .trajectory("cache_coherence");
    t.meta("users", USERS);
    t.meta("gate_write_pct", GATE_PCT);
    for (&(workload, pct), p) in specs.iter().zip(&cells) {
        t.row(&[
            &workload,
            &pct,
            &p.ops,
            &p.hits,
            &p.misses,
            &f2(p.hit_rate()),
            &p.invalidations,
            &p.listed,
            &p.resets,
            &p.ctrl,
            &f2(p.ctrl_per_op()),
            &f2(p.tput_krps),
        ]);
    }
    for (&(workload, pct), p) in specs.iter().zip(&cells) {
        t.headline(
            &format!("{workload}_hit_rate_at_{pct}pct"),
            f2(p.hit_rate()),
        );
        if pct != GATE_PCT {
            continue;
        }
        let name = format!("{workload}_hit_rate_ratio_at_{pct}pct");
        let ratio = hit_rate_ratio(workload, p);
        t.headline(&name, f2(ratio));
        t.gate(&name, ratio, Bound::AtLeast(MIN_HIT_RATE_RATIO));
        // Deaths must be listed, and a fault-free cell must never reset.
        let listed = format!("{workload}_listed_at_{pct}pct");
        t.gate(&listed, p.listed as f64, Bound::AtLeast(1.0));
        let resets = format!("{workload}_resets_at_{pct}pct");
        t.gate(&resets, p.resets as f64, Bound::AtMost(0.0));
    }
    t.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar on one workload, evaluated on its gate cell only
    /// (the full sweep runs in the binary / CI).
    fn retains_twice_the_epochs_hit_rate(workload: &str, p: RttPoint) {
        assert!(p.ops > 0);
        assert!(p.listed > 0, "deaths were listed");
        assert_eq!(p.resets, 0, "a fault-free run must not reset");
        let ratio = hit_rate_ratio(workload, &p);
        assert!(
            ratio >= MIN_HIT_RATE_RATIO,
            "{workload} hit-rate ratio {ratio:.2}x < {MIN_HIT_RATE_RATIO}x (hit rate {:.3})",
            p.hit_rate(),
        );
    }

    #[test]
    fn social_churn_keeps_twice_the_epochs_hit_rate() {
        retains_twice_the_epochs_hit_rate("social", run_social_point(GATE_PCT));
    }

    #[test]
    fn mixed_chain_keeps_twice_the_epochs_hit_rate() {
        retains_twice_the_epochs_hit_rate("chain", run_chain_point(GATE_PCT));
    }
}
