//! Spans recorded from the benchmark's own code around calls into the
//! workspace's public functions. Spans stay in memory and are written
//! out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Disabled, it records nothing and costs two clock
/// reads per root; that is the untraced arm of the overhead comparison.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
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

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// For each span named `root`, in order: the seconds the spans
    /// directly below it account for.
    pub fn covered(&self, root: &str) -> Vec<f64> {
        let children = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, s)| children[id].min(s.duration_ns()) as f64 / 1e9)
            .collect()
    }

    /// Per span: the summed duration of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        children
    }

    /// Over every span named in `roots`: the share of their wall time
    /// that the layer spans directly below them account for, i.e. one
    /// minus the roots' own self time over their duration.
    pub fn coverage(&self, roots: &[&str]) -> f64 {
        let children = self.child_ns();
        let (mut wall, mut covered) = (0u64, 0u64);
        for (id, s) in self.spans.iter().enumerate() {
            if roots.contains(&s.name) {
                wall += s.duration_ns();
                covered += children[id].min(s.duration_ns());
            }
        }
        if wall == 0 {
            return 0.0;
        }
        covered as f64 / wall as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_coverage() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("a.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                })
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let c = t.coverage(&["root"]);
        assert!(c > 0.9 && c <= 1.0, "{c}");
        assert_eq!(t.durations("b").len(), 1);
        let covered = t.covered("root");
        assert_eq!(covered.len(), 1);
        assert!(covered[0] >= 0.010 && covered[0] <= t.durations("root")[0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("root", |t| t.span("a", |_| 7)), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage(&["root"]), 0.0);
    }
}
