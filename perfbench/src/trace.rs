//! Span and count recording around public-call boundaries.
//!
//! A [`Tracer`] keeps every span (name, start, end, parent) in memory
//! and writes them out only when asked, after the pass it traced. With
//! tracing disabled, [`Tracer::begin`] and [`Tracer::end`] record
//! nothing, so the same replay code yields the untraced time; counts
//! are kept either way, because they cost nothing measurable and the
//! untraced pass needs them too.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named after the layer whose public call it wraps.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop().expect("end() matches a begin()");
        assert_eq!(top, open.0, "spans must close innermost first");
        self.spans[top as usize].end_ns = self.now_ns();
    }

    /// Adds `n` to a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Durations of every span with this name, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-3)
            .collect()
    }

    /// Writes the spans as CSV (`id,parent,name,start_ns,end_ns`; a root
    /// span's parent is empty).
    pub fn write_csv(&self, mut to: impl Write) -> std::io::Result<()> {
        writeln!(to, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(to, "{i},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        to.flush()
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        let selfs = t.self_seconds();
        let outer_total = spans[0].duration_ns() as f64 * 1e-9;
        assert!(selfs["inner"] >= 0.005);
        assert!(selfs["outer"] < outer_total - 0.004);
        assert!((selfs["outer"] + selfs["inner"] - outer_total).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_keeps_counts_but_no_spans() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.count("n", 3);
        t.end(s);
        t.count("n", 2);
        assert!(t.spans().is_empty());
        assert_eq!(t.get("n"), 5);
        assert_eq!(t.get("missing"), 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn csv_lists_every_span() {
        let mut t = Tracer::new(true);
        let a = t.begin("a");
        let b = t.begin("b");
        t.end(b);
        t.end(a);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,,a,"));
        assert!(lines[2].starts_with("1,0,b,"));
    }
}
