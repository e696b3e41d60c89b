//! Trace analysis: merging streams, deriving the paper's breakdown
//! metrics (per-thread busy time, imbalance ratio, DLB wait), span
//! histograms, well-formedness checks, and the machine-readable
//! summary shared with `knlsim`.

use crate::{Event, Stream};
use std::collections::BTreeMap;

/// A point event, resolved with its owning stream's ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstantEvent {
    pub rank: u32,
    pub thread: u32,
    pub name: &'static str,
    pub t: u64,
    pub value: u64,
    pub aux: u64,
}

/// Fixed-width histogram over span durations (nanoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub lo_ns: u64,
    pub hi_ns: u64,
    pub bin_width_ns: u64,
    pub bins: Vec<u64>,
}

impl Histogram {
    pub fn total_count(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// Everything one [`crate::TraceSession`] recorded, merged per
/// `(rank, thread)` actor, plus derived breakdown metrics.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// One stream per `(rank, thread)` actor, sorted by ids; events in
    /// recording order (segments concatenated in time order).
    pub streams: Vec<Stream>,
}

impl TraceReport {
    /// Merge raw stream segments (one per TLS flush) into one stream
    /// per `(rank, thread)` actor. Segments of the same actor never
    /// overlap in time — an actor is a single OS thread at any given
    /// moment — so concatenating them in order of first timestamp
    /// preserves program order.
    pub fn from_streams(segments: Vec<Stream>) -> Self {
        let mut by_id: BTreeMap<(u32, u32), Vec<Stream>> = BTreeMap::new();
        for seg in segments {
            if seg.events.is_empty() {
                continue;
            }
            by_id.entry((seg.rank, seg.thread)).or_default().push(seg);
        }
        let streams = by_id
            .into_iter()
            .map(|((rank, thread), mut segs)| {
                segs.sort_by_key(|s| s.events.first().map(Event::t).unwrap_or(0));
                let events = segs.into_iter().flat_map(|s| s.events).collect();
                Stream { rank, thread, events }
            })
            .collect();
        TraceReport { streams }
    }

    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Earliest and latest timestamp across all streams.
    pub fn time_bounds_ns(&self) -> Option<(u64, u64)> {
        let mut bounds: Option<(u64, u64)> = None;
        for ev in self.streams.iter().flat_map(|s| s.events.iter()) {
            let t = ev.t();
            bounds = Some(match bounds {
                None => (t, t),
                Some((lo, hi)) => (lo.min(t), hi.max(t)),
            });
        }
        bounds
    }

    // -- counters ------------------------------------------------------

    /// Sum of all contributions to each counter, across all streams.
    pub fn counter_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for ev in self.streams.iter().flat_map(|s| s.events.iter()) {
            if let Event::Counter { name, value, .. } = *ev {
                *totals.entry(name).or_insert(0) += value;
            }
        }
        totals
    }

    pub fn counter_total(&self, name: &str) -> u64 {
        self.streams
            .iter()
            .flat_map(|s| s.events.iter())
            .filter_map(|ev| match *ev {
                Event::Counter { name: n, value, .. } if n == name => Some(value),
                _ => None,
            })
            .sum()
    }

    // -- instants ------------------------------------------------------

    pub fn instants(&self, name: &str) -> Vec<InstantEvent> {
        let mut out = Vec::new();
        for s in &self.streams {
            for ev in &s.events {
                if let Event::Instant { name: n, t, value, aux } = *ev {
                    if n == name {
                        out.push(InstantEvent {
                            rank: s.rank,
                            thread: s.thread,
                            name: n,
                            t,
                            value,
                            aux,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|i| i.t);
        out
    }

    // -- spans ---------------------------------------------------------

    /// Walk every closed span of a stream: `f(name, t_begin, t_end,
    /// depth)` where depth 0 is top level. Spans close LIFO on a
    /// stream, so a simple stack recovers the tree.
    pub fn for_each_span_in(stream: &Stream, mut f: impl FnMut(&'static str, u64, u64, usize)) {
        let mut stack: Vec<(&'static str, u64)> = Vec::new();
        for ev in &stream.events {
            match *ev {
                Event::Begin { name, t } => stack.push((name, t)),
                Event::End { t, .. } => {
                    if let Some((name, t0)) = stack.pop() {
                        f(name, t0, t, stack.len());
                    }
                }
                _ => {}
            }
        }
    }

    /// Durations (ns) of every completed span named `name`.
    pub fn span_durations_ns(&self, name: &str) -> Vec<u64> {
        let mut out = Vec::new();
        for s in &self.streams {
            Self::for_each_span_in(s, |n, t0, t1, _| {
                if n == name {
                    out.push(t1.saturating_sub(t0));
                }
            });
        }
        out
    }

    pub fn span_count(&self, name: &str) -> usize {
        self.span_durations_ns(name).len()
    }

    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.span_durations_ns(name).iter().sum()
    }

    /// Total time in spans named `name`, per `(rank, thread)` stream.
    pub fn span_total_by_stream(&self, name: &str) -> BTreeMap<(u32, u32), u64> {
        let mut out = BTreeMap::new();
        for s in &self.streams {
            let mut total = 0u64;
            Self::for_each_span_in(s, |n, t0, t1, _| {
                if n == name {
                    total += t1.saturating_sub(t0);
                }
            });
            if total > 0 {
                out.insert((s.rank, s.thread), total);
            }
        }
        out
    }

    /// Total time in spans named `name`, per rank (all threads summed).
    pub fn span_total_by_rank(&self, name: &str) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((rank, _), ns) in self.span_total_by_stream(name) {
            *out.entry(rank).or_insert(0) += ns;
        }
        out
    }

    /// Histogram of `name` span durations with `n_bins` equal-width
    /// bins spanning [min, max]. `None` if no such span completed.
    pub fn histogram_ns(&self, name: &str, n_bins: usize) -> Option<Histogram> {
        let durations = self.span_durations_ns(name);
        if durations.is_empty() || n_bins == 0 {
            return None;
        }
        let lo = *durations.iter().min().unwrap();
        let hi = *durations.iter().max().unwrap();
        // Smallest equal width whose n_bins bins tightly cover [lo, hi]:
        // ceil((hi - lo) / n_bins), clamped to 1 for the all-equal case.
        // (The old `(hi - lo) / n_bins + 1` overstated the width whenever
        // n_bins divides the range — e.g. hi - lo = 8 with 4 bins reported
        // width 3, covering 12 ns of an 8 ns range.)
        let width = (hi - lo).div_ceil(n_bins as u64).max(1);
        let mut bins = vec![0u64; n_bins];
        for d in durations {
            // `d == hi` lands exactly on the upper edge when the range is
            // a multiple of the width; clamp it into the last bin.
            let idx = ((d - lo) / width) as usize;
            bins[idx.min(n_bins - 1)] += 1;
        }
        Some(Histogram { lo_ns: lo, hi_ns: hi, bin_width_ns: width, bins })
    }

    // -- the paper's breakdown metrics ---------------------------------

    /// Per-thread busy time: the sum of `omp.loop` span durations of
    /// each `(rank, thread)` stream — the time a thread spent inside
    /// worksharing loop bodies, the quantity behind the paper's Fig. 8.
    pub fn per_thread_busy_ns(&self) -> BTreeMap<(u32, u32), u64> {
        self.span_total_by_stream("omp.loop")
    }

    /// Fig. 8's load-imbalance metric for one rank's team: max/mean of
    /// per-thread busy time. 1.0 is perfect balance; `None` if the
    /// rank recorded no worksharing loops.
    pub fn imbalance_ratio(&self, rank: u32) -> Option<f64> {
        let busy: Vec<u64> = self
            .per_thread_busy_ns()
            .into_iter()
            .filter(|((r, _), _)| *r == rank)
            .map(|(_, ns)| ns)
            .collect();
        if busy.is_empty() {
            return None;
        }
        let max = *busy.iter().max().unwrap() as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean == 0.0 {
            return None;
        }
        Some(max / mean)
    }

    /// Mean/max of per-thread busy time over every thread that ran
    /// worksharing loops (1.0 = perfectly balanced team, the inverse view
    /// of [`imbalance_ratio`](Self::imbalance_ratio)). `None` when the
    /// recording has no `omp.loop` span — an MPI-only, distributed or
    /// sharded run has no thread team to balance.
    pub fn busy_fraction(&self) -> Option<f64> {
        let busy: Vec<u64> = self.per_thread_busy_ns().into_values().collect();
        let max = *busy.iter().max()? as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        Some(if max == 0.0 { 1.0 } else { mean / max })
    }

    /// Imbalance ratio for every rank that ran worksharing loops.
    pub fn imbalance_ratios(&self) -> BTreeMap<u32, f64> {
        let mut ranks: Vec<u32> = self.per_thread_busy_ns().keys().map(|&(r, _)| r).collect();
        ranks.dedup();
        ranks.into_iter().filter_map(|r| self.imbalance_ratio(r).map(|x| (r, x))).collect()
    }

    /// Total time all ranks spent waiting on the DLB counter.
    pub fn dlb_wait_total_ns(&self) -> u64 {
        self.span_total_ns("dlb.wait")
    }

    /// DLB wait per rank.
    pub fn dlb_wait_by_rank_ns(&self) -> BTreeMap<u32, u64> {
        self.span_total_by_rank("dlb.wait")
    }

    // -- well-formedness ----------------------------------------------

    /// Structural invariants every report must satisfy:
    /// * per stream, Begin/End bracket like parentheses with matching
    ///   names (RAII guards make this automatic);
    /// * timestamps are monotone non-decreasing within a stream;
    /// * every span ends no earlier than it begins;
    /// * no span is left open.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for s in &self.streams {
            let who = format!("stream (rank {}, thread {})", s.rank, s.thread);
            let mut stack: Vec<(&'static str, u64)> = Vec::new();
            let mut prev_t = 0u64;
            for ev in &s.events {
                let t = ev.t();
                if t < prev_t {
                    return Err(format!(
                        "{who}: timestamp went backwards ({t} after {prev_t} at {ev:?})"
                    ));
                }
                prev_t = t;
                match *ev {
                    Event::Begin { name, t } => stack.push((name, t)),
                    Event::End { name, t } => match stack.pop() {
                        Some((open, t0)) => {
                            if open != name {
                                return Err(format!(
                                    "{who}: End({name}) closes Begin({open}) — spans must nest"
                                ));
                            }
                            if t < t0 {
                                return Err(format!("{who}: span {name} ends before it begins"));
                            }
                        }
                        None => return Err(format!("{who}: End({name}) with no open span")),
                    },
                    _ => {}
                }
            }
            if let Some((open, _)) = stack.last() {
                return Err(format!("{who}: span {open} never closed"));
            }
        }
        Ok(())
    }

    // -- exports -------------------------------------------------------

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev)). pid = rank, tid = thread.
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::render(self)
    }

    /// The machine-readable breakdown. Shares its schema with
    /// `knlsim`'s simulated results so measured and modeled breakdowns
    /// can sit in one table:
    /// * `fock_seconds` — max over ranks of total `fock.build` time;
    /// * `reduction_seconds` — max over ranks of total `mpi.gsum` time;
    /// * `total_seconds` — wall span of the whole recording;
    /// * `busy_fraction` — [`busy_fraction`](Self::busy_fraction), or
    ///   1.0 when the recording ran no worksharing loops (the shared
    ///   schema has no absent value; callers that print it check
    ///   [`busy_fraction`](Self::busy_fraction) first).
    pub fn summary(&self) -> TraceSummary {
        let ns = 1e-9;
        let fock_seconds =
            self.span_total_by_rank("fock.build").values().copied().max().unwrap_or(0) as f64 * ns;
        let reduction_seconds =
            self.span_total_by_rank("mpi.gsum").values().copied().max().unwrap_or(0) as f64 * ns;
        let total_seconds =
            self.time_bounds_ns().map(|(lo, hi)| (hi - lo) as f64 * ns).unwrap_or(0.0);
        let busy_fraction = self.busy_fraction().unwrap_or(1.0);
        TraceSummary { fock_seconds, reduction_seconds, total_seconds, busy_fraction }
    }
}

/// Stable machine-readable breakdown: the schema is shared between
/// measured traces ([`TraceReport::summary`]) and `knlsim` simulated
/// results, so `benches/` and EXPERIMENTS.md can compare the two
/// directly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceSummary {
    pub fock_seconds: f64,
    pub reduction_seconds: f64,
    pub total_seconds: f64,
    pub busy_fraction: f64,
}

impl TraceSummary {
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"fock_seconds\":{},\"reduction_seconds\":{},",
                "\"total_seconds\":{},\"busy_fraction\":{}}}"
            ),
            self.fock_seconds, self.reduction_seconds, self.total_seconds, self.busy_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_begin(name: &'static str, t: u64) -> Event {
        Event::Begin { name, t }
    }
    fn ev_end(name: &'static str, t: u64) -> Event {
        Event::End { name, t }
    }

    fn stream(rank: u32, thread: u32, events: Vec<Event>) -> Stream {
        Stream { rank, thread, events }
    }

    #[test]
    fn merges_segments_in_time_order() {
        let report = TraceReport::from_streams(vec![
            stream(0, 0, vec![ev_begin("b", 50), ev_end("b", 60)]),
            stream(0, 0, vec![ev_begin("a", 10), ev_end("a", 20)]),
        ]);
        assert_eq!(report.streams.len(), 1);
        report.check_well_formed().unwrap();
        assert_eq!(report.streams[0].events[0], ev_begin("a", 10));
        assert_eq!(report.time_bounds_ns(), Some((10, 60)));
    }

    #[test]
    fn span_totals_and_histogram() {
        let report = TraceReport::from_streams(vec![stream(
            0,
            0,
            vec![ev_begin("x", 0), ev_end("x", 100), ev_begin("x", 100), ev_end("x", 400)],
        )]);
        assert_eq!(report.span_count("x"), 2);
        assert_eq!(report.span_total_ns("x"), 400);
        let h = report.histogram_ns("x", 4).unwrap();
        assert_eq!(h.total_count(), 2);
        assert_eq!((h.lo_ns, h.hi_ns), (100, 300));
    }

    /// Pins the histogram bin edges: `width = ceil((hi - lo) / n_bins)`,
    /// so `lo + n_bins * width` tightly covers `hi`. The old
    /// `(hi - lo) / n_bins + 1` width reported 3 here (covering 12 ns of
    /// an 8 ns range) and misbinned the upper half of the durations.
    #[test]
    fn histogram_bin_edges_tightly_cover_the_range() {
        // Nine spans with durations 0..=8 ns.
        let events: Vec<Event> =
            (0u64..=8).flat_map(|d| [ev_begin("x", 100 * d), ev_end("x", 100 * d + d)]).collect();
        let report = TraceReport::from_streams(vec![stream(0, 0, events)]);
        let h = report.histogram_ns("x", 4).unwrap();
        assert_eq!((h.lo_ns, h.hi_ns), (0, 8));
        assert_eq!(h.bin_width_ns, 2, "ceil(8 / 4) = 2, not 8 / 4 + 1 = 3");
        assert_eq!(h.lo_ns + 4 * h.bin_width_ns, h.hi_ns, "bins tightly cover [lo, hi]");
        // Bins [0,2) [2,4) [4,6) [6,8]: d = 8 sits on the upper edge and
        // clamps into the last bin.
        assert_eq!(h.bins, vec![2, 2, 2, 3]);
        assert_eq!(h.total_count(), 9);

        // Degenerate range: all durations equal -> width clamps to 1.
        let report = TraceReport::from_streams(vec![stream(
            0,
            0,
            vec![ev_begin("y", 0), ev_end("y", 5), ev_begin("y", 10), ev_end("y", 15)],
        )]);
        let h = report.histogram_ns("y", 3).unwrap();
        assert_eq!(h.bin_width_ns, 1);
        assert_eq!(h.bins, vec![2, 0, 0]);
    }

    #[test]
    fn imbalance_ratio_matches_hand_computation() {
        // Thread busy times 100 and 300 -> max/mean = 300/200 = 1.5.
        let report = TraceReport::from_streams(vec![
            stream(0, 0, vec![ev_begin("omp.loop", 0), ev_end("omp.loop", 100)]),
            stream(0, 1, vec![ev_begin("omp.loop", 0), ev_end("omp.loop", 300)]),
        ]);
        let r = report.imbalance_ratio(0).unwrap();
        assert!((r - 1.5).abs() < 1e-12, "got {r}");
        let s = report.summary();
        assert!((s.busy_fraction - 200.0 / 300.0).abs() < 1e-12);
        assert_eq!(report.busy_fraction(), Some(s.busy_fraction));
    }

    #[test]
    fn busy_fraction_is_absent_without_worksharing_loops() {
        // An MPI-only build: two ranks, Fock spans, no thread team.
        let report = TraceReport::from_streams(vec![
            stream(0, 0, vec![ev_begin("fock.build", 0), ev_end("fock.build", 100)]),
            stream(1, 0, vec![ev_begin("fock.build", 0), ev_end("fock.build", 300)]),
        ]);
        assert_eq!(report.busy_fraction(), None);
        assert!(report.imbalance_ratios().is_empty());
        // The shared schema keeps its field.
        assert_eq!(report.summary().busy_fraction, 1.0);
    }

    #[test]
    fn well_formed_rejects_mismatched_nesting() {
        let report = TraceReport::from_streams(vec![stream(
            0,
            0,
            vec![ev_begin("a", 0), ev_begin("b", 1), ev_end("a", 2), ev_end("b", 3)],
        )]);
        assert!(report.check_well_formed().is_err());
    }

    #[test]
    fn well_formed_rejects_unclosed_span() {
        let report = TraceReport::from_streams(vec![stream(0, 0, vec![ev_begin("a", 0)])]);
        assert!(report.check_well_formed().is_err());
    }

    #[test]
    fn summary_json_is_stable() {
        let s = TraceSummary {
            fock_seconds: 1.5,
            reduction_seconds: 0.25,
            total_seconds: 2.0,
            busy_fraction: 0.75,
        };
        assert_eq!(
            s.to_json(),
            "{\"fock_seconds\":1.5,\"reduction_seconds\":0.25,\
             \"total_seconds\":2,\"busy_fraction\":0.75}"
        );
    }
}
