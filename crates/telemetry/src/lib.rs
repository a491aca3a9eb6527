//! # telemetry — deterministic sim-time observability
//!
//! The measurement plane of the DmRPC reproduction: distributed tracing,
//! a metrics registry, Chrome-trace export, and a per-RPC latency
//! breakdown — all **deterministic**. Span ids are drawn from a seeded
//! [`simcore::SimRng`], timestamps are virtual [`simcore::SimTime`], and
//! storage is a bounded per-node ring, so the same seed exports
//! byte-identical traces on every run and on any host.
//!
//! ## Shape
//!
//! * [`Tracer`] — the flight recorder. Install it on the current thread
//!   ([`Tracer::install`]); instrumentation hooks throughout the stack
//!   ([`start_trace`], [`span`], [`leaf_span`], [`event`]) then record
//!   into it. With no tracer installed (or a request unsampled) every
//!   hook is a single thread-local flag check — the simulation's event
//!   schedule, wire bytes, and poll counts are unchanged.
//! * [`TraceCtx`] — what crosses task and wire boundaries. The executor's
//!   task identity ([`simcore::current_task`]) keys per-task context
//!   stacks, so concurrent requests never contaminate each other's trees;
//!   `rpclib` carries the context in an optional header extension so the
//!   tree spans client → network → DM server → COW.
//! * [`Registry`] — stable hierarchical names over the stack's live
//!   [`simcore::Counter`]s/[`simcore::Histogram`]s, with snapshot/delta
//!   and cross-node histogram merging.
//! * [`chrome_trace_json`] — Perfetto-loadable export;
//!   [`analyze_trace`] — deepest-span-wins critical-path breakdown whose
//!   per-category sums equal end-to-end latency by construction.

#![warn(missing_docs)]

mod breakdown;
mod export;
mod registry;
mod slo;
mod span;
mod tracer;

pub use breakdown::{analyze_trace, average, roots, Breakdown};
pub use export::chrome_trace_json;
pub use registry::{Metric, Registry, Snapshot};
pub use slo::{SloBudget, SloReport};
pub use span::{Category, SpanKind, SpanRecord, TraceCtx, MAX_ATTRS};
pub use tracer::{
    current_ctx, enabled, event, event_with_parent, leaf_span, root_event, set_ctx, span,
    span_with_parent, start_trace, CtxGuard, InstallGuard, SpanGuard, Tracer, DEFAULT_RING_CAP,
};

impl Tracer {
    /// Export everything recorded so far as Chrome trace-event JSON (see
    /// [`chrome_trace_json`]).
    pub fn export_chrome_json(&self) -> String {
        chrome_trace_json(&self.records(), &self.node_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;
    use std::time::Duration;

    async fn sleep_ns(ns: u64) {
        simcore::sleep(Duration::from_nanos(ns)).await
    }

    #[test]
    fn hooks_are_inert_without_a_tracer() {
        assert!(!enabled());
        assert!(start_trace("r", 0).is_none());
        assert!(span(SpanKind::DmOp, "x", 0).is_none());
        assert!(current_ctx().is_none());
        event(SpanKind::Retry, "x", 0, &[]);
    }

    #[test]
    fn spans_nest_and_record() {
        let tracer = Tracer::new(7, 1);
        let _g = tracer.install();
        let sim = Sim::new();
        sim.block_on(async {
            let mut root = start_trace("req", 0).expect("sampled");
            root.attr("bytes", 4096);
            sleep_ns(10).await;
            {
                let call = span(SpanKind::ClientCall, "rpc.call", 0).expect("child");
                sleep_ns(20).await;
                let hop = leaf_span(SpanKind::NetHop, "net.hop", 1).expect("leaf");
                sleep_ns(30).await;
                hop.end();
                call.end();
            }
            sleep_ns(5).await;
            root.end();
        });
        let recs = tracer.records();
        assert_eq!(recs.len(), 3);
        let root = recs.iter().find(|r| r.kind == SpanKind::Request).unwrap();
        let call = recs
            .iter()
            .find(|r| r.kind == SpanKind::ClientCall)
            .unwrap();
        let hop = recs.iter().find(|r| r.kind == SpanKind::NetHop).unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(call.parent_id, root.span_id);
        assert_eq!(hop.parent_id, call.span_id, "leaf parents under the call");
        assert_eq!(root.trace_id, hop.trace_id);
        assert_eq!(root.dur_nanos(), 65);
        assert_eq!(call.dur_nanos(), 50);
        assert_eq!(root.attrs(), &[("bytes", 4096)]);
        assert_eq!(hop.node, 1);
    }

    #[test]
    fn contexts_are_task_local() {
        let tracer = Tracer::new(7, 1);
        let _g = tracer.install();
        let sim = Sim::new();
        sim.block_on(async {
            let root = start_trace("req", 0).expect("sampled");
            let ctx = root.ctx();
            // A freshly spawned task has no context of its own...
            let plain = simcore::spawn(async { current_ctx() });
            // ...until one is set explicitly.
            let seeded = simcore::spawn(async move {
                let _c = set_ctx(ctx);
                current_ctx()
            });
            simcore::yield_now().await;
            assert_eq!(plain.await, None);
            assert_eq!(seeded.await, Some(ctx));
            assert_eq!(current_ctx(), Some(ctx), "creator still holds its ctx");
        });
    }

    #[test]
    fn head_sampling_selects_one_in_n() {
        let tracer = Tracer::new(7, 3);
        let _g = tracer.install();
        let sim = Sim::new();
        let sampled = sim.block_on(async {
            let mut n = 0;
            for _ in 0..9 {
                if let Some(s) = start_trace("req", 0) {
                    n += 1;
                    s.end();
                }
            }
            n
        });
        assert_eq!(sampled, 3);
        assert_eq!(tracer.sampling_stats(), (9, 3));
        // Rate 0 disables sampling outright.
        tracer.set_sample_every(0);
        let sim = Sim::new();
        assert!(sim.block_on(async { start_trace("req", 0).is_none() }));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let tracer = Tracer::with_capacity(7, 1, 4);
        let _g = tracer.install();
        let sim = Sim::new();
        sim.block_on(async {
            for i in 0..10u64 {
                let mut s = start_trace("req", 0).expect("sampled");
                s.attr("i", i);
                sleep_ns(1).await;
                s.end();
            }
        });
        let recs = tracer.records();
        assert_eq!(recs.len(), 4, "bounded by ring capacity");
        let kept: Vec<u64> = recs.iter().map(|r| r.attrs()[0].1).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest spans overwritten");
    }

    #[test]
    fn export_is_valid_and_deterministic() {
        fn run() -> String {
            let tracer = Tracer::new(42, 1);
            tracer.set_node_name(0, "client");
            let _g = tracer.install();
            let sim = Sim::new();
            sim.block_on(async {
                let root = start_trace("req", 0).expect("sampled");
                sleep_ns(1500).await;
                let s = span(SpanKind::DmOp, "dm.read", 1).expect("child");
                sleep_ns(250).await;
                s.end();
                root.end();
            });
            tracer.export_chrome_json()
        }
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same bytes");
        assert!(a.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(a.ends_with("]}"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"process_name\""));
        assert!(a.contains("\"client\""));
        assert!(a.contains("\"ts\":1.500"), "ns mapped to µs: {a}");
        // Each span id referenced as a parent is defined in the export.
        assert!(a.contains("\"cat\":\"dm_op\""));
    }

    #[test]
    fn breakdown_attributes_every_nanosecond() {
        let tracer = Tracer::new(7, 1);
        let _g = tracer.install();
        let sim = Sim::new();
        sim.block_on(async {
            let root = start_trace("req", 0).expect("sampled");
            sleep_ns(100).await; // 100ns of root-only time → other
            {
                let call = span(SpanKind::ClientCall, "c", 0).expect("child");
                sleep_ns(40).await; // 40ns queueing
                {
                    let hop = leaf_span(SpanKind::NetHop, "h", 0).expect("leaf");
                    sleep_ns(60).await; // 60ns transport
                    hop.end();
                }
                sleep_ns(10).await; // 10ns queueing
                call.end();
            }
            root.end();
        });
        let recs = tracer.records();
        let root = roots(&recs)[0];
        let b = analyze_trace(&recs, root.trace_id).expect("root present");
        assert_eq!(b.total_ns, 210);
        assert_eq!(b.category_sum(), b.total_ns, "every instant attributed");
        assert_eq!(b.get(Category::Other), 100);
        assert_eq!(b.get(Category::Queueing), 50);
        assert_eq!(b.get(Category::Transport), 60);
    }

    #[test]
    fn registry_snapshot_delta_and_merge() {
        use simcore::{Counter, Histogram};
        let reg = Registry::new();
        let c = Counter::new();
        reg.register_counter("node.0.rpc.calls", &c);
        let h0 = Histogram::new();
        let h1 = Histogram::new();
        reg.register_histogram("node.0.rpc.handler_ns", &h0);
        reg.register_histogram("node.1.rpc.handler_ns", &h1);
        reg.register_gauge("net.delivered", || 17);

        c.add(5);
        h0.record(1000);
        h1.record(3000);
        let s1 = reg.snapshot();
        assert_eq!(s1.get("node.0.rpc.calls"), Some(5));
        assert_eq!(s1.get("net.delivered"), Some(17));
        assert_eq!(s1.get("node.0.rpc.handler_ns.count"), Some(1));

        c.add(2);
        h0.record(2000);
        let d = reg.snapshot().delta(&s1);
        assert_eq!(d.get("node.0.rpc.calls"), Some(2));
        assert_eq!(d.get("node.0.rpc.handler_ns.count"), Some(1));

        let merged = reg.merged_histogram("rpc.handler_ns");
        assert_eq!(merged.count(), 3, "cross-node aggregation");
        assert_eq!(merged.max(), 3000);

        let dump = reg.dump();
        assert!(dump.contains("net.delivered 17"));
        let lines: Vec<&str> = dump.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "dump is in stable sorted order");
    }
}
