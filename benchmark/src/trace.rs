//! Harness-side spans: name, start, end, parent, and the batch id every span
//! of one batch shares. Spans live in a pre-sized buffer and are written out
//! as JSON lines when the run ends, so recording one costs two clock reads
//! and one `Vec::push` into reserved capacity.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// The batch this span belongs to.
    pub batch: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// The in-memory span buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index.
    pub fn begin(&mut self, name: &'static str, batch: u32, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            batch,
            parent,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Close a span.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Drop the most recently opened span and everything recorded after it
    /// (the look-ahead span of an exhausted stream).
    pub fn cancel(&mut self, id: u32) {
        self.spans.truncate(id as usize);
    }

    /// Duration of a closed span in milliseconds.
    pub fn duration_ms(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the part its child spans cover, summed by name.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        by_name
    }

    /// Summed duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// The spans as JSON lines: `{"span":i,"name":..,"batch":..,"parent":..,
    /// "start_ns":..,"end_ns":..}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"batch\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.batch, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Tracer::with_capacity(8);
        let root = t.begin("batch", 0, None);
        let a = t.begin("a", 0, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("b", 0, Some(root));
        t.end(b);
        t.end(root);
        let own = t.self_time_ms();
        assert!(own["a"] >= 2.0);
        assert!(own["batch"] >= 0.0);
        let sum: f64 = own.values().sum();
        assert!((sum - t.duration_ms(root)).abs() < 1e-6);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn cancel_drops_the_lookahead_span() {
        let mut t = Tracer::with_capacity(4);
        let root = t.begin("batch", 0, None);
        let s = t.begin("snapshot", 0, Some(root));
        t.end(s);
        t.cancel(root);
        assert!(t.spans().is_empty());
    }
}
