//! Spans recorded by the benchmark around each call into a layer. Each load
//! thread owns a [`Recorder`]; spans stay in memory and are written once, at
//! exit, as Chrome trace-event JSON. Self time per layer is derived from
//! the parent links.

use crate::common::Metrics;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per thread; beyond this a run keeps timing but stops
/// recording, so memory stays bounded on fast future builds.
const MAX_SPANS_PER_THREAD: usize = 1 << 20;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    /// Request or session id shared by every span of one unit of work.
    pub req: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. A disabled recorder records nothing.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, for a parent whose children are recorded first.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        ((self.tid as u64) << 40) | self.next
    }

    /// Record a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled || self.spans.len() >= MAX_SPANS_PER_THREAD {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            tid: self.tid,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Record a finished leaf span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.reserve();
            self.record_as(id, name, parent, req, start, end);
        }
    }
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microsecond clock).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (n, s) in spans.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Every layer a span name can start with, so each run reports the same
/// `self_pct.*` keys whether or not its workload touched the layer.
pub const LAYERS: [&str; 12] = [
    "bench",
    "service",
    "router",
    "engine",
    "wire",
    "ir",
    "core",
    "symbolic",
    "tilesearch",
    "analysis",
    "deps",
    "cachesim",
];

/// Self time per layer — each span's duration minus the part its children
/// cover — as a share of the time covered by root spans.
pub fn self_time_pct(spans: &[Span], out: &mut Metrics) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        if s.parent.is_none() {
            root_ns += dur;
        }
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *by_layer.entry(layer_of(s.name)).or_default() += own;
    }
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        let pct = if root_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / root_ns as f64
        };
        out.set(format!("self_pct.{layer}"), pct, "%", spans.len());
    }
}
