//! Chrome `trace_event` JSON export.
//!
//! Emits the subset of the format that Perfetto and `chrome://tracing`
//! load: complete (`ph: "X"`) events with microsecond timestamps, one
//! "process" per simulated node, plus `process_name` metadata. The string
//! is built by hand — deterministic field order, no float formatting —
//! so a fixed seed exports byte-identical JSON on every run.

use std::fmt::Write as _;

use crate::span::SpanRecord;

/// Format sim-nanoseconds as a µs decimal with exactly 3 fraction digits
/// (`1234` → `"1.234"`), keeping full ns precision without floats.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render spans (already in a stable order — see `Tracer::records`) as a
/// Chrome trace-event JSON document. `node_names[i]` labels node `i`'s
/// process track; missing/empty entries fall back to `node<i>`.
pub fn chrome_trace_json(records: &[SpanRecord], node_names: &[String]) -> String {
    let mut out = String::with_capacity(256 + records.len() * 192);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;

    // Process-name metadata for every node that appears in the trace.
    let mut nodes: Vec<u32> = records.iter().map(|r| r.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for node in nodes {
        let fallback = format!("node{node}");
        let name = node_names
            .get(node as usize)
            .filter(|n| !n.is_empty())
            .cloned()
            .unwrap_or(fallback);
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&name)
        );
    }

    for r in records {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":0,\"args\":{{\"trace_id\":\"{:016x}\",\
             \"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\"",
            escape(r.name),
            r.kind.label(),
            micros(r.start.nanos()),
            micros(r.dur_nanos()),
            r.node,
            r.trace_id,
            r.span_id,
            r.parent_id,
        );
        for (k, v) in r.attrs() {
            let _ = write!(out, ",\"{}\":{v}", escape(k));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Escape a string for inclusion in a JSON string literal. Span names are
/// static identifiers, so this almost never rewrites anything, but the
/// export must stay valid JSON for arbitrary node names.
fn escape(s: &str) -> String {
    if s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
