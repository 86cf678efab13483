//! In-memory spans around the harness's calls into the library.
//!
//! A span records which public call ran (`name`), when (`start_ns`,
//! `end_ns` from the tracer's origin), the span that caused it (`parent`)
//! and the operation it belongs to (`op`: one episode, window or round).
//! Spans stay in memory while the pass runs and are written out when it
//! ends. A span's self time is its duration minus its children's. Wall time
//! never flows back into the library: spans are only read after the pass.

use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let r = f();
        self.end(id);
        r
    }

    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Seconds spent in spans of this name.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations(name).count()
    }

    /// Mean seconds per span of this name (0 when there is none).
    pub fn mean_s(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_s(name) / n as f64
        }
    }

    /// Seconds spent in spans of this name outside their child spans.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9)
            .sum()
    }

    /// Write every span as JSON, durably (temp file + fsync + rename).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "op": s.op,
                })
            })
            .collect();
        let text = serde_json::to_string(&json!({ "spans": spans })).map_err(|e| e.to_string())?;
        lpa_store::atomic_write(path, text.as_bytes()).map_err(|e| e.to_string())
    }
}
