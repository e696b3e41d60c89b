//! The benchmark's own span recorder.
//!
//! Spans are recorded in memory from the benchmark's files, around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Every span has a name, an optional tag (the ERI class of
//! a replay chunk), a start, an end and a parent; the spans of one run
//! share the recorder's run id. [`Tracer::write_jsonl`] writes them when
//! the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Tracer {
        Tracer { run_id, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.tagged(name, "", f)
    }

    /// Run `f` inside a span named `name` carrying `tag`.
    pub fn tagged<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, tag, start, end: start, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name` (+0.0 when none ran;
    /// a plain `sum` of no floats would give -0.0).
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).fold(0.0, |a, d| a + d)
    }

    /// Summed duration of the spans named `name` with tag `tag`.
    pub fn total_tagged(&self, name: &str, tag: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(Span::duration)
            .fold(0.0, |a, d| a + d)
    }

    /// Summed self time of every span named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let self_times = self_times(&self.spans);
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |a, (_, t)| a + t)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_times = self_times(&self.spans);
        for (id, (s, self_s)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{:016x}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"tag\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}",
                self.run_id, s.name, s.tag, s.start, s.end, self_s
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: "x", tag: "", start, end, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0.0, 10.0, None),
            span(1.0, 4.0, Some(0)),
            span(3.0, 6.0, Some(0)), // overlaps the first child
            span(8.0, 9.0, Some(0)),
            span(1.5, 2.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 4.0).abs() < 1e-12, "root self {}", t[0]);
        assert!((t[1] - 2.5).abs() < 1e-12);
        assert!((t[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(7);
        tr.span("outer", |tr| tr.tagged("inner", "b0k0", |_| ()));
        let s = tr.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].tag, s[1].parent), ("inner", "b0k0", Some(0)));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
    }
}
