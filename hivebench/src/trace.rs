//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, and the self-time arithmetic over them.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent) and the pass or request id it belongs to. Spans stay
//! in memory while the run measures and are written out once it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Spans nest by call order: a span begun while another
/// is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tag the spans begun from now on with this pass or request id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record an interval measured elsewhere (e.g. on a client thread) as a
    /// root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `id parent op name start_ns end_ns` (`-` for a root's parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(count, total_ns, self_ns)`.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Share of the root spans' wall time that their descendant (stage) spans
/// account for: the sum of every non-root span's self time over the sum of
/// root durations. Near 1 when the stages tile the wall time.
pub fn stage_sum_over_wall(spans: &[Span]) -> f64 {
    let (staged, wall) = stage_parts(spans);
    if wall == 0 {
        0.0
    } else {
        staged as f64 / wall as f64
    }
}

/// The two sums behind [`stage_sum_over_wall`]: `(staged_ns, wall_ns)`,
/// so the ratio can pool several span sets.
pub fn stage_parts(spans: &[Span]) -> (u64, u64) {
    let selfs = self_times(spans);
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let staged: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_some())
        .map(|(_, &own)| own)
        .sum();
    (staged, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // pass [0,100) ⊃ chunk [10,90) ⊃ {a [10,40), b [50,60)}
        let spans = vec![
            span("pass", 0, 100, None),
            span("chunk", 10, 90, Some(0)),
            span("a", 10, 40, Some(1)),
            span("b", 50, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["chunk"], (1, 80, 40));
        // Stages cover 80 of the root's 100.
        assert!((stage_sum_over_wall(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [5,30) and [20,50) overlap on [20,30); a third child
        // overhangs the parent's end and is clipped to it.
        let spans = vec![
            span("root", 0, 60, None),
            span("x", 5, 30, Some(0)),
            span("x", 20, 50, Some(0)),
            span("y", 55, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60 - 45 - 5);
        let totals = layer_totals(&spans);
        assert_eq!(totals["x"], (2, 55, 55));
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new();
        t.set_op(7);
        let root = t.begin("root");
        let v = t.span("child", || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
    }
}
