//! The benchmark's own tracing, recorded from outside the program: host-time
//! spans around every call the harness makes into a layer, and the
//! averaged critical-path breakdown of the sim-time spans the program's
//! existing tracer samples.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use simcore::SimTime;
use telemetry::{Breakdown, Category, SpanRecord, Tracer};

use crate::metrics::json_str;

struct HostSpan {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Host-time spans (name, start, end, parent), kept in memory and written
/// out once at exit.
pub struct HostSpans {
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl HostSpans {
    /// `origin` is the process start, so span times are also time since
    /// the process began.
    pub fn new(origin: Instant) -> HostSpans {
        HostSpans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a child of the innermost open span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut HostSpans) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(HostSpan {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recent finished span called `name`.
    #[cfg(test)]
    pub fn last(&self, name: &str) -> Duration {
        let s = self
            .spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no host span named {name}"));
        Duration::from_nanos(s.end_ns - s.start_ns)
    }

    /// Host time from process start to the start of the first span `name`.
    pub fn started_at(&self, name: &str) -> Duration {
        let s = self
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no host span named {name}"));
        Duration::from_nanos(s.start_ns)
    }

    /// A span's self time: its duration minus what its children cover
    /// (children of one parent never overlap: the harness is one thread).
    fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(covered)
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = (0..self.spans.len())
            .map(|id| {
                let s = &self.spans[id];
                format!(
                    "    {{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"self_ns\": {}}}",
                    json_str(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self.self_ns(id)
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// Drains the program's flight recorder while a window runs. The recorder
/// keeps only the last 4096 spans per node, far fewer than a window
/// produces, so a harness task empties it every `PERIOD` of virtual time.
#[derive(Clone)]
pub struct SimSpanCollector {
    tracer: Rc<Tracer>,
    records: Rc<RefCell<Vec<SpanRecord>>>,
}

impl SimSpanCollector {
    const PERIOD: Duration = Duration::from_micros(250);

    pub fn new(tracer: Rc<Tracer>) -> SimSpanCollector {
        SimSpanCollector {
            tracer,
            records: Rc::default(),
        }
    }

    fn drain(&self) {
        self.records.borrow_mut().extend(self.tracer.records());
        self.tracer.clear();
    }

    /// Spawn the draining task; it ends by itself at `until`, because a
    /// periodic task that never ends would keep the simulation from
    /// going quiet. Must be called inside the simulation.
    pub fn start(&self, until: SimTime) {
        self.drain(); // drop what set-up and warm-up recorded
        self.records.borrow_mut().clear();
        let me = self.clone();
        simcore::spawn(async move {
            while simcore::now() < until {
                simcore::sleep(Self::PERIOD).await;
                me.drain();
            }
        });
    }

    /// Everything recorded since [`SimSpanCollector::start`].
    pub fn finish(&self) -> Vec<SpanRecord> {
        self.drain();
        std::mem::take(&mut self.records.borrow_mut())
    }
}

/// Sim-time spans of the sampled requests, reduced to the averaged
/// per-category critical path.
pub struct SimTrace {
    pub roots: u64,
    pub spans: u64,
    pub mean: Breakdown,
}

pub fn analyze_sim_trace(records: &[SpanRecord]) -> SimTrace {
    // `analyze_trace` scans its whole input per trace, so hand it one
    // trace's records at a time.
    let mut by_trace: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    for r in records {
        by_trace.entry(r.trace_id).or_default().push(*r);
    }
    let mut ids: Vec<u64> = by_trace.keys().copied().collect();
    ids.sort_unstable(); // HashMap order varies between runs
    let breakdowns: Vec<Breakdown> = ids
        .iter()
        .filter_map(|id| telemetry::analyze_trace(&by_trace[id], *id))
        .collect();
    SimTrace {
        roots: breakdowns.len() as u64,
        spans: records.len() as u64,
        mean: telemetry::average(&breakdowns),
    }
}

impl SimTrace {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"sampled_roots\": {}, \"spans\": {}, \"mean_total_ns\": {}",
            self.roots, self.spans, self.mean.total_ns
        );
        for c in Category::ALL {
            let _ = write!(out, ", \"{}_ns\": {}", c.label(), self.mean.get(c));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = HostSpans::new(Instant::now());
        s.scope("outer", |s| {
            s.scope("a", |_| std::thread::sleep(Duration::from_millis(2)));
            s.scope("b", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);
        let outer = s.last("outer").as_nanos() as u64;
        let kids = (s.last("a") + s.last("b")).as_nanos() as u64;
        assert_eq!(s.self_ns(0), outer - kids);
        assert!(s.self_ns(0) < outer / 2);
        assert!(s.started_at("b") >= s.started_at("a") + s.last("a"));
        assert!(s.to_json().contains("\"name\": \"outer\""));
    }
}
