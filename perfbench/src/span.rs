//! In-memory span recorder for the traced run.
//!
//! Spans are timed by the benchmark around its own calls into each
//! crate's public functions; nothing inside the program is
//! instrumented. A span is named `<layer>.<what>`, where the layer is
//! the crate (`gpu-sim`, `core`, `mem`, `workloads`, `sim`,
//! `experiments`) or `bench` for the benchmark's own glue. Spans stay
//! in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host::json_str;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Start offset from the recorder's origin; `None` for an
    /// aggregate of many short calls whose intervals were not kept.
    pub start_ns: Option<u64>,
    pub dur_ns: u64,
    /// Calls the span covers (1 for a plain span).
    pub calls: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(i, _)| i),
            start_ns: Some(now.duration_since(self.origin).as_nanos() as u64),
            dur_ns: 0,
            calls: 1,
        });
        self.open.push((self.spans.len() - 1, now));
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let (i, start) = self.open.pop().expect("exit without a matching enter");
        let d = start.elapsed();
        self.spans[i].dur_ns = d.as_nanos() as u64;
        d
    }

    /// Records `calls` calls totalling `dur` as one child of the
    /// innermost open span (calls too short to time one by one).
    pub fn aggregate(&mut self, name: &'static str, dur: Duration, calls: u64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(i, _)| i),
            start_ns: None,
            dur_ns: dur.as_nanos() as u64,
            calls,
        });
    }

    /// Index of the next span to be recorded; pass it to
    /// [`total_ms`](Self::total_ms) to restrict sums to later spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of every span named `name` recorded since `from`.
    pub fn total_ms(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-6)
            .sum()
    }

    /// Self time per layer over the spans recorded since `from`: each
    /// span's duration minus the part its children cover, summed by
    /// the layer prefix of its name.
    pub fn self_ms_by_layer(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let own = s.dur_ns.saturating_sub(child_ns[i]) as f64 * 1e-6;
            *out.entry(layer_of(s.name)).or_insert(0.0) += own;
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"calls\": {}}}\n",
                json_str(s.name),
                opt(s.parent.map(|p| p as u64)),
                opt(s.start_ns),
                s.dur_ns,
                s.calls,
            ));
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::default();
        s.enter("bench.cell");
        s.enter("gpu-sim.run_kernel");
        std::thread::sleep(Duration::from_millis(2));
        s.exit();
        // An aggregate covers time that really passed inside its parent.
        std::thread::sleep(Duration::from_micros(50));
        s.aggregate("core.fault_service", Duration::from_micros(10), 3);
        let total = s.exit();
        let by_layer = s.self_ms_by_layer(0);
        let sum: f64 = by_layer.values().sum();
        assert!((sum - total.as_secs_f64() * 1e3).abs() < 1e-6);
        assert!(by_layer["gpu-sim"] >= 2.0);
        assert!((by_layer["core"] - 0.01).abs() < 1e-9);
        assert!((s.total_ms(0, "core.fault_service") - 0.01).abs() < 1e-12);
        assert_eq!(s.to_jsonl().lines().count(), 3);
    }
}
