//! Benchmark-side spans and sample statistics.
//!
//! A span is one timed call the harness made: a name, start and end
//! (nanoseconds since the run began), the span that caused it and the
//! request it belongs to. Spans are kept in memory and written as JSON
//! lines when the run ends; the program itself is never instrumented.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread. Span id `0` means "no parent".
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: u64, req: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start: Instant::now(),
        }
    }

    /// End `open` now; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns: ns(open.start),
                end_ns: ns(end),
            });
        end.duration_since(open.start).as_nanos() as f64
    }

    /// Run `f` inside a span; returns its result and duration in ns.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, parent, req);
        let r = f();
        (r, self.close(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span name: count, total time and self time (ms). Self time is a
/// span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = by_name.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += dur as f64 / 1e6;
        e.2 += (dur - covered) as f64 / 1e6;
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// The `p`-th percentile (0–100) of `xs`, linearly interpolated between
/// order statistics. `xs` must be non-empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            req: 0,
            name: if parent == 0 { "outer" } else { "inner" },
            start_ns,
            end_ns,
        };
        // Two overlapping children cover 30..70 of the parent's 0..100.
        let spans = [span(1, 0, 0, 100), span(2, 1, 30, 60), span(3, 1, 50, 70)];
        let t = self_times(&spans);
        let outer = t.iter().find(|r| r.0 == "outer").unwrap();
        assert!((outer.3 - 60e-6).abs() < 1e-12, "{t:?}");
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.5);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }
}
