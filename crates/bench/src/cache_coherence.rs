//! `xtra_cache_coherence` — client-cache hit rate under write churn: the
//! global invalidation epoch versus per-ref fine-grained coherence with
//! targeted invalidation (DESIGN.md §15).
//!
//! Under the §9 global epoch, *any* ref-releasing event on a server
//! invalidates *every* entry each of its clients cached, so even a small
//! write fraction collapses the read hit rate cluster-wide. Fine-grained
//! mode keeps a per-ref version instead: responses piggyback `(key,
//! version)` pairs for the refs they touched, the server pushes targeted
//! `INVALIDATE` messages to the read-lease holders of a ref that just
//! died, and unrelated cached entries keep serving.
//!
//! Two workloads measure the difference at the same write rate:
//!
//! * **mixed chain** — the Fig. 5 chain where reads re-send one of a
//!   fixed set of long-lived by-ref arguments (the final service's fetch
//!   is cacheable) and writes run the standard fresh-argument
//!   put/forward/release cycle, whose release churns the global epoch;
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
use dmnet::{CoherenceConfig, DmServerConfig};
use simcore::Sim;

use crate::report::{f2, Bound, Table};
use crate::rtt_budget::{measure, RttPoint};

/// Social-network population (small enough that the hot set fits the
/// 256-entry per-server cache in *both* modes — the sweep isolates
/// coherence churn, not capacity misses).
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

/// Minimum `fine-grained hit rate / global hit rate` at [`GATE_PCT`].
pub const MIN_HIT_RATE_RATIO: f64 = 2.0;

/// Chain length for the mixed read/write chain (Fig. 5 shape).
pub const CHAIN_LEN: usize = 3;

/// Chain argument size (paper Fig. 5: 4 KB array — exactly the by-ref
/// threshold, so arguments travel as refs).
pub const ARG_SIZE: usize = 4096;

/// Long-lived by-ref arguments the chain's read side cycles over.
pub const STABLE_REFS: usize = 16;

/// Read lease used by the fine-grained cells. Long enough that hot
/// entries are not cycled by lease expiry inside the measurement window
/// and that the server's holder directory still covers a post when the
/// capped storage evicts it; staleness on a *lost* push is still bounded
/// by it (the chaos suite exercises that path — this bench is
/// fault-free).
pub const LEASE: Duration = Duration::from_millis(10);

/// `fine-grained hit rate / global hit rate` for one (workload, pct) pair.
pub fn hit_rate_ratio(global: &RttPoint, fg: &RttPoint) -> f64 {
    if global.hit_rate() == 0.0 {
        f64::INFINITY
    } else {
        fg.hit_rate() / global.hit_rate()
    }
}

/// The deployment of one cell: the default cluster, its DM servers
/// coherent on a [`LEASE`] read lease for the fg cells. Nothing changes on
/// the client side — the endpoints learn the scheme when they register.
fn config_for(fine_grained: bool) -> ClusterConfig {
    let coherence = fine_grained.then(|| CoherenceConfig {
        read_lease: LEASE,
        ..Default::default()
    });
    ClusterConfig {
        dm: DmServerConfig {
            coherence,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Deterministic per-(worker, iteration) draw — identical op sequence
/// for every cell, so the only degree of freedom is the coherence mode.
fn mix_draw(w: usize, i: u64) -> u64 {
    (w as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// One social cell: `write_pct`% composes (each evicting + releasing an
/// old post from the capped storage), the rest home-timeline reads.
pub fn run_social_point(write_pct: u32, fine_grained: bool) -> RttPoint {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, config_for(fine_grained), 17);
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
        // populated cache in both modes.
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
/// standard fresh-argument request whose release churns the epoch.
pub fn run_chain_point(write_pct: u32, fine_grained: bool) -> RttPoint {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, config_for(fine_grained), 42);
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
    // Cell layout: for each workload, (global, fg) per write pct. All
    // cells are independent sims, fanned out in a fixed order.
    let specs: Vec<(&'static str, u32, bool)> = ["chain", "social"]
        .iter()
        .flat_map(|&w| {
            WRITE_PCTS
                .iter()
                .flat_map(move |&pct| [false, true].into_iter().map(move |fg| (w, pct, fg)))
        })
        .collect();
    let cells = crate::pool::sweep(&specs, |&(workload, pct, fg)| match workload {
        "chain" => run_chain_point(pct, fg),
        _ => run_social_point(pct, fg),
    });

    let mut t = Table::new(
        "xtra_cache_coherence",
        &[
            "workload",
            "write_pct",
            "config",
            "ops",
            "hits",
            "misses",
            "hit_rate",
            "invalidations",
            "targeted_inv",
            "broadcast_inv",
            "ctrl_msgs",
            "ctrl_per_op",
            "throughput_krps",
        ],
    )
    .trajectory("cache_coherence");
    t.meta("users", USERS);
    t.meta("read_lease_us", LEASE.as_micros());
    t.meta("gate_write_pct", GATE_PCT);
    for (&(workload, pct, fg), p) in specs.iter().zip(&cells) {
        let label = if fg { "fine_grained" } else { "global_epoch" };
        t.row(&[
            &workload,
            &pct,
            &label,
            &p.ops,
            &p.hits,
            &p.misses,
            &f2(p.hit_rate()),
            &p.invalidations,
            &p.targeted_inv,
            &p.broadcast_inv,
            &p.ctrl,
            &f2(p.ctrl_per_op()),
            &f2(p.tput_krps),
        ]);
    }
    for (spec, pair) in specs.chunks(2).zip(cells.chunks(2)) {
        let ((workload, pct, _), [global, fg]) = (spec[0], pair) else {
            unreachable!("cells come in (global, fine-grained) pairs")
        };
        let ratio = hit_rate_ratio(global, fg);
        let name = format!("{workload}_hit_rate_ratio_at_{pct}pct");
        t.headline(&name, f2(ratio));
        if pct != GATE_PCT {
            continue;
        }
        t.gate(&name, ratio, Bound::AtLeast(MIN_HIT_RATE_RATIO));
        // The coherence plane must be engaged (pushes observed) and a
        // fault-free cell must never fall back to an epoch broadcast.
        t.gate(
            &format!("{workload}_targeted_inv_at_{pct}pct"),
            fg.targeted_inv as f64,
            Bound::AtLeast(1.0),
        );
        t.gate(
            &format!("{workload}_broadcast_inv_at_{pct}pct"),
            fg.broadcast_inv as f64,
            Bound::AtMost(0.0),
        );
    }
    t.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_grained_retains_twice_the_hit_rate_under_social_churn() {
        // The ISSUE 10 acceptance bar, evaluated on the gate cells only
        // (the full sweep runs in the binary / CI).
        let global = run_social_point(GATE_PCT, false);
        let fg = run_social_point(GATE_PCT, true);
        assert!(global.ops > 0 && fg.ops > 0);
        assert!(fg.targeted_inv > 0, "targeted invalidations flowed");
        assert_eq!(fg.broadcast_inv, 0, "no broadcast fallback");
        let ratio = hit_rate_ratio(&global, &fg);
        assert!(
            ratio >= MIN_HIT_RATE_RATIO,
            "social hit-rate ratio {ratio:.2}x < {MIN_HIT_RATE_RATIO}x \
             (global {:.3}, fine-grained {:.3})",
            global.hit_rate(),
            fg.hit_rate(),
        );
    }

    #[test]
    fn fine_grained_retains_twice_the_hit_rate_on_mixed_chain() {
        let global = run_chain_point(GATE_PCT, false);
        let fg = run_chain_point(GATE_PCT, true);
        assert!(global.ops > 0 && fg.ops > 0);
        assert_eq!(fg.broadcast_inv, 0, "fault-free run must not broadcast");
        let ratio = hit_rate_ratio(&global, &fg);
        assert!(
            ratio >= MIN_HIT_RATE_RATIO,
            "chain hit-rate ratio {ratio:.2}x < {MIN_HIT_RATE_RATIO}x \
             (global {:.3}, fine-grained {:.3})",
            global.hit_rate(),
            fg.hit_rate(),
        );
    }
}
