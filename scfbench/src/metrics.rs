//! Metric names, units and the result line.
//!
//! The declared lists here are the contract with `BENCHMARK.json`: a
//! result is checked against them before it is printed, and a test checks
//! them against the file.

use phi_integrals::CLASS_LABELS;

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("scf_s", "s"),
    ("setup_s", "s"),
    ("fock_build_s", "s"),
    ("iterations", "count"),
    ("peak_rank_mib", "MiB"),
    ("serial_build_s", "s"),
];

/// ERI classes reported by name: each took at least 5% of the replay's
/// ERI time on at least one workload at seed 0. The rest is
/// `eri.class_s.other`.
pub const REPORTED_CLASSES: [&str; 13] = [
    "b0k0", "b0k1", "b0k2", "b1k0", "b1k1", "b1k2", "b2k0", "b2k1", "b2k2", "b2k3", "b3k1", "b3k2",
    "b3k3",
];

/// Per-layer metrics of the traced run, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = fixed(&[
        ("setup.one_electron_s", "s"),
        ("setup.orthogonalizer_s", "s"),
        ("setup.shell_pairs_s", "s"),
        ("setup.screening_s", "s"),
        ("setup.shell_pairs_bytes", "bytes"),
        ("screen.test_s", "s"),
        ("screen.canonical_quartets", "count"),
        ("screen.survival_ratio", "ratio"),
        ("eri.self_s", "s"),
        ("eri.quartets", "count"),
        ("eri.prim_quartets", "count"),
        ("eri.ns_per_quartet", "ns"),
        ("eri.spec_ratio", "ratio"),
    ]);
    out.extend(REPORTED_CLASSES.iter().map(|c| (format!("eri.class_s.{c}"), "s")));
    out.push(("eri.class_s.other".into(), "s"));
    out.extend(fixed(&[
        ("digest.self_s", "s"),
        ("digest.integrals", "count"),
        ("fock.build_s", "s"),
        ("fock.overhead_s", "s"),
        ("fock.parallel_eff", "ratio"),
        ("fock.dlb_calls", "count"),
        ("fock.dlb_tasks", "count"),
        ("fock.flushes", "count"),
        ("fock.acks", "count"),
        ("fock.retransmits", "count"),
        ("fock.rank_peak_bytes", "bytes"),
    ]));
    out.extend(crate::replay::SWEEP.iter().map(|(s, _)| (format!("fock.build_s.{s}"), "s")));
    out.extend(fixed(&[
        ("incremental.full_builds", "count"),
        ("incremental.delta_builds", "count"),
        ("incremental.quartet_ratio", "ratio"),
        ("scf.fock_s", "s"),
        ("scf.diis_s", "s"),
        ("scf.diag_s", "s"),
        ("scf.purify_s", "s"),
        ("purify.iterations", "count"),
        ("scf.other_s", "s"),
        ("checkpoint.save_s", "s"),
        ("checkpoint.bytes", "bytes"),
        ("trace.overhead_ratio", "ratio"),
    ]));
    debug_assert!(REPORTED_CLASSES.iter().all(|c| CLASS_LABELS.contains(c)));
    out
}

/// An ordered list of measured values.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// Differences from a declared list, in order, name and unit; empty
    /// when they match.
    pub fn mismatch(&self, declared: &[(String, &'static str)]) -> Vec<String> {
        let got: Vec<(String, &str)> = self.0.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
        let want: Vec<(String, &str)> = declared.iter().map(|(n, u)| (n.clone(), *u)).collect();
        let mut out: Vec<String> = want
            .iter()
            .filter(|w| !got.contains(w))
            .map(|(n, u)| format!("missing {n} ({u})"))
            .collect();
        out.extend(
            got.iter().filter(|g| !want.contains(g)).map(|(n, u)| format!("undeclared {n} ({u})")),
        );
        out.extend(
            self.0
                .iter()
                .filter(|(_, v, _)| !v.is_finite())
                .map(|(n, v, _)| format!("{n} is not finite ({v})")),
        );
        out
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The end-to-end list in the shape of [`per_layer`].
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        all.extend(crate::workload::Workload::ALL.iter().map(|w| w.name().to_string()));
        for n in &all {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names must be unique");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn the_result_line_carries_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("scf_s", 1.25, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"scf_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(m.mismatch(&[("scf_s".into(), "s")]), Vec::<String>::new());
        assert_eq!(m.mismatch(&[("scf_s".into(), "ms")]).len(), 2);
    }
}
