//! Telemetry integration: one causal span tree across the full DmRPC-net
//! stack, golden-fingerprint trace export, and zero-overhead-when-off.

use std::collections::{HashMap, HashSet};

use apps::chain::{build_chain, CHAIN_REQ};
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use bytes::Bytes;
use simcore::Sim;
use telemetry::{SpanKind, SpanRecord};

/// One traced request against a 3-service DmRPC-net chain: argument
/// upload, a COW-provoking overwrite, the chain call, aggregation and the
/// deferred (coalesced) release. Returns the records and the trace id.
fn traced_chain_spans() -> (Vec<SpanRecord>, u64) {
    let sim = Sim::new();
    sim.block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 7);
        let tracer = cluster.enable_tracing(11, 1);
        let app = build_chain(&cluster, 3).await;
        let client = app.client.clone();
        let payload = Bytes::from(vec![9u8; 8192]);
        let trace_id;
        {
            let root = telemetry::start_trace("test.request", client.addr().node.0)
                .expect("1-in-1 sampling selects the first request");
            trace_id = root.ctx().trace_id;
            let v = client.make_value(payload.clone()).await.expect("upload");
            assert!(v.is_by_ref(), "8 KiB argument must go by reference");
            // Writing a shared ref's pages forces the DM server to COW.
            client.overwrite_fraction(&v, 0.5).await.expect("overwrite");
            let reply = client.call(app.entry, CHAIN_REQ, &v).await.expect("chain");
            drop(reply);
            client.release_async(v);
        }
        // Let the detached release and the coalescer's flush drain so the
        // batched sub-op's span is recorded too.
        simcore::sleep(std::time::Duration::from_millis(5)).await;
        (tracer.records(), trace_id)
    })
}

/// The traced request forms a single causal tree whose kinds and
/// parentage cover every layer: client call, fabric hops, server
/// handling, DM control ops, COW, and application memory charges.
#[test]
fn chain_request_forms_one_causal_span_tree() {
    let (records, trace_id) = traced_chain_spans();
    let spans: Vec<&SpanRecord> = records.iter().filter(|r| r.trace_id == trace_id).collect();
    assert!(
        spans.len() >= 10,
        "expected a rich tree, got {}",
        spans.len()
    );

    // Exactly one root, and it is the Request span.
    let roots: Vec<&&SpanRecord> = spans.iter().filter(|r| r.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one causal root");
    assert_eq!(roots[0].kind, SpanKind::Request);
    let root_id = roots[0].span_id;

    // Every span's parent chain resolves to that root: a single tree with
    // no dangling parents and no cycles.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|r| (r.span_id, *r)).collect();
    for s in &spans {
        let mut cur = **s;
        let mut steps = 0;
        while cur.parent_id != 0 {
            cur = **by_id.get(&cur.parent_id).unwrap_or_else(|| {
                panic!("span {} ({}) has a dangling parent", cur.span_id, cur.name)
            });
            steps += 1;
            assert!(steps < 64, "parent chain did not terminate");
        }
        assert_eq!(cur.span_id, root_id, "span {} roots elsewhere", s.name);
    }

    // Every layer of the stack appears in the tree.
    for kind in [
        SpanKind::Request,
        SpanKind::ClientCall,
        SpanKind::Serialize,
        SpanKind::NetHop,
        SpanKind::ServerHandle,
        SpanKind::DmOp,
        SpanKind::Cow,
        SpanKind::MemCharge,
    ] {
        assert!(
            spans.iter().any(|s| s.kind == kind),
            "kind {kind:?} missing from the tree"
        );
    }

    // Parentage is structurally correct per kind.
    let parent_kind = |s: &SpanRecord| by_id[&s.parent_id].kind;
    for s in &spans {
        match s.kind {
            SpanKind::ServerHandle => assert_eq!(
                parent_kind(s),
                SpanKind::ClientCall,
                "server handling parents under the originating client call"
            ),
            SpanKind::Cow => assert_eq!(
                parent_kind(s),
                SpanKind::DmOp,
                "COW copies happen inside a DM operation"
            ),
            SpanKind::Serialize => assert_eq!(
                parent_kind(s),
                SpanKind::ServerHandle,
                "dispatch CPU is charged inside the handler"
            ),
            SpanKind::NetHop => assert!(
                matches!(
                    parent_kind(s),
                    SpanKind::ClientCall | SpanKind::ServerHandle
                ),
                "hops start from a sender with request context"
            ),
            _ => {}
        }
    }

    // The chain itself was traced across distinct machines: three services
    // plus at least one DM server handled RPCs inside this one trace.
    let handler_nodes: HashSet<u32> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::ServerHandle)
        .map(|s| s.node)
        .collect();
    assert!(
        handler_nodes.len() >= 4,
        "traced handlers on {} nodes, expected the 3 services plus a DM server",
        handler_nodes.len()
    );

    // The deferred release rode a coalesced batch and was re-parented into
    // this trace via its on-wire context.
    assert!(
        spans
            .iter()
            .any(|s| s.kind == SpanKind::DmOp && s.name == "dm.release_ref"),
        "batched release_ref must stay attributed to the request"
    );
}

/// Deterministic export: the same seeded run produces byte-identical
/// Chrome-trace JSON on repeat runs and on other OS threads (so sweeping
/// harnesses — e.g. chaos with any `SIM_THREADS` setting — cannot
/// perturb traces).
#[test]
fn trace_export_is_byte_identical_across_runs_and_threads() {
    fn traced_run_json() -> String {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 21);
            cluster.enable_tracing(5, 2);
            let app = build_chain(&cluster, 3).await;
            let payload = Bytes::from(vec![3u8; 4096]);
            for _ in 0..10 {
                app.request(&payload).await.expect("request");
            }
            simcore::sleep(std::time::Duration::from_millis(5)).await;
            cluster.trace_json().expect("tracing enabled")
        })
    }
    let golden = traced_run_json();
    assert!(golden.contains("\"traceEvents\""));
    assert_eq!(golden, traced_run_json(), "second run diverged");
    for h in [
        std::thread::spawn(traced_run_json),
        std::thread::spawn(traced_run_json),
    ] {
        assert_eq!(
            h.join().expect("worker"),
            golden,
            "cross-thread run diverged"
        );
    }
}

/// A tracer that is installed but sampling-off must not perturb the
/// simulation at all: identical poll counts and virtual end time.
#[test]
fn installed_but_off_telemetry_is_zero_overhead() {
    fn fingerprint(install_tracer: bool) -> (u64, u64) {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 33);
            if install_tracer {
                cluster.enable_tracing(9, 0); // installed, sampling off
            }
            let app = build_chain(&cluster, 3).await;
            let payload = Bytes::from(vec![1u8; 16384]);
            for _ in 0..8 {
                app.request(&payload).await.expect("request");
            }
            simcore::sleep(std::time::Duration::from_millis(5)).await;
        });
        (sim.poll_count(), sim.now().nanos())
    }
    assert_eq!(fingerprint(false), fingerprint(true));
}

/// The deepest-span-wins sweep attributes every instant to exactly one
/// category, so per-category sums must equal end-to-end latency (within
/// 1% for integer-averaged rows) on all three systems — the self-check
/// behind `results/xtra_latency_breakdown.csv`.
#[test]
fn breakdown_sums_match_end_to_end_on_all_systems() {
    for kind in SystemKind::ALL {
        let b = bench::latency_breakdown::measure(kind);
        assert!(b.total_ns > 0, "{kind:?} produced an empty breakdown");
        let (sum, total) = (b.category_sum() as f64, b.total_ns as f64);
        assert!(
            (sum - total).abs() <= total * 0.01,
            "{kind:?}: categories sum to {sum}, end-to-end {total}"
        );
    }
}
