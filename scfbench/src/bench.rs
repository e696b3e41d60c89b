//! The two kinds of run: end-to-end (tracing off) and traced (per layer).

use crate::check::{failures, recomputed_energy, RunFacts};
use crate::driver::{mirror, mirror_mismatch, run, setup, Case, Outcome};
use crate::metrics::{median, Metrics, REPORTED_CLASSES};
use crate::replay::{channels, class_seconds, max_gap, serial_replay, sweep};
use crate::span::Tracer;
use hf::fock::engine::{FockBuilder, SerialBuilder};
use hf::{FockAlgorithm, FockBuildStats};
use phi_integrals::CLASS_LABELS;
use std::path::Path;
use std::time::{Duration, Instant};

/// Before each operation, set-up of that operation's input is repeated
/// at least [`SETUP_BATCH_REPS`] times and for at least
/// [`SETUP_BATCH_TIME`], at most [`SETUP_BATCH_MAX`] times. Spreading the
/// samples over the run like the operations themselves makes their median
/// follow the host's speed over the whole run, not over one moment.
const SETUP_BATCH_REPS: usize = 5;
const SETUP_BATCH_TIME: Duration = Duration::from_millis(500);
const SETUP_BATCH_MAX: usize = 40;

const MIB: f64 = 1024.0 * 1024.0;

/// Largest allowed gap between the replayed and the program's serial `G`.
const REPLAY_TOL: f64 = 1e-9;

/// A finished run: operations attempted and failed, why, the metrics.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

/// Workers (ranks x threads) of an algorithm.
pub fn workers(alg: FockAlgorithm) -> usize {
    match alg {
        FockAlgorithm::Serial => 1,
        FockAlgorithm::MpiOnly { n_ranks }
        | FockAlgorithm::Distributed { n_ranks }
        | FockAlgorithm::Sharded { n_ranks, .. } => n_ranks,
        FockAlgorithm::PrivateFock { n_ranks, n_threads }
        | FockAlgorithm::SharedFock { n_ranks, n_threads } => n_ranks * n_threads,
    }
}

fn facts(out: &Outcome) -> RunFacts {
    RunFacts {
        converged: out.converged,
        energy: out.energy,
        iterations: out.iterations,
        retransmits: out.retransmits(),
    }
}

/// Serial check builds are repeated until they have taken this long, at
/// most [`SERIAL_MAX_REPS`] times, so that short builds (CH4: about
/// 65 ms) get several samples per operation.
const SERIAL_MIN_TIME: Duration = Duration::from_millis(250);
const SERIAL_MAX_REPS: usize = 8;

/// Time serial reference builds at the outcome's densities and return
/// their seconds and the energy recomputed from the first.
fn serial_energy(case: &Case, out: &Outcome) -> (Vec<f64>, f64) {
    let setup = setup(&mut Tracer::new(0), case);
    let (mut times, mut energy) = (Vec::new(), None);
    let start = Instant::now();
    while times.is_empty() || (start.elapsed() < SERIAL_MIN_TIME && times.len() < SERIAL_MAX_REPS) {
        let t = Instant::now();
        let g = SerialBuilder.build(&setup.context(), &out.density_set());
        times.push(t.elapsed().as_secs_f64());
        energy.get_or_insert_with(|| recomputed_energy(&setup.h, setup.e_nn, &out.densities, &g));
    }
    (times, energy.expect("at least one serial build"))
}

fn peak_rank_bytes(stats: &[FockBuildStats]) -> usize {
    stats.iter().map(FockBuildStats::max_rank_peak).max().unwrap_or(0)
}

/// End-to-end run with tracing off: operations until `seconds` have
/// passed, at least one. Operation `k` runs `inputs(k)`: a batch of
/// timed set-ups, then the driver, then its serial check builds.
/// Checkpointing configurations write into `dir`.
pub fn end_to_end(inputs: &dyn Fn(usize) -> Case, seconds: f64, dir: &Path) -> Report {
    let mut setup_times = Vec::new();
    let (mut scf_times, mut serial_times, mut build_times) = (Vec::new(), Vec::new(), Vec::new());
    let (mut iterations, mut peak) = (Vec::new(), 0);
    let (mut failed, mut n_failed, mut notes) = (Vec::new(), 0, Vec::new());
    let start = Instant::now();
    loop {
        let k = scf_times.len() + 1;
        let case = inputs(k - 1);
        let batch = Instant::now();
        for rep in 0..SETUP_BATCH_MAX {
            if rep >= SETUP_BATCH_REPS && batch.elapsed() >= SETUP_BATCH_TIME {
                break;
            }
            let t = Instant::now();
            std::hint::black_box(setup(&mut Tracer::new(0), &case));
            setup_times.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let out = run(&case, dir);
        let scf_s = t.elapsed().as_secs_f64();
        let (serial_s, recomputed) = serial_energy(&case, &out);
        let serial_med = median(&serial_s);
        notes.push(format!(
            "run {k}: scf {scf_s:.3} s, {} iterations, E = {:.10} Eh (serial recompute {:.10}), \
             serial build {serial_med:.3} s (median of {})",
            out.iterations,
            out.energy,
            recomputed,
            serial_s.len()
        ));
        let why = failures(&facts(&out), recomputed, case.pinned);
        n_failed += usize::from(!why.is_empty());
        failed.extend(why.into_iter().map(|f| format!("run {k}: {f}")));
        scf_times.push(scf_s);
        serial_times.extend(serial_s);
        build_times.extend(out.fock_stats.iter().map(|s| s.seconds));
        iterations.push(out.iterations as f64);
        peak = peak.max(peak_rank_bytes(&out.fock_stats));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    notes.push(format!(
        "samples: {} set-ups, {} SCF runs, {} Fock builds, {} serial builds",
        setup_times.len(),
        scf_times.len(),
        build_times.len(),
        serial_times.len()
    ));

    let mut m = Metrics::default();
    m.push("scf_s", median(&scf_times), "s");
    m.push("setup_s", median(&setup_times), "s");
    m.push("fock_build_s", median(&build_times), "s");
    m.push("iterations", median(&iterations), "count");
    m.push("peak_rank_mib", peak as f64 / MIB, "MiB");
    m.push("serial_build_s", median(&serial_times), "s");
    Report { attempted: scf_times.len(), failed: n_failed, failures: failed, metrics: m, notes }
}

/// Traced run: one untraced driver run, then under one tracer the mirror
/// of the driver, a serial replay at the mirror's converged density and a
/// build of every sweep builder there. Spans are written to `trace_path`.
pub fn traced(case: &Case, dir: &Path, run_id: u64, trace_path: &Path) -> Report {
    let t = Instant::now();
    let driver_out = run(case, dir);
    let scf_wall = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new(run_id);
    let m = mirror(&mut tr, case, dir);
    let ctx = m.setup.context();
    let dens = m.outcome.density_set();
    let replay = serial_replay(&mut tr, &ctx, &dens);
    let builds = sweep(&mut tr, &ctx, &dens);
    if let Err(e) = tr.write_jsonl(trace_path) {
        eprintln!("warning: could not write spans to {}: {e}", trace_path.display());
    }

    let serial = builds.iter().find(|b| b.algorithm == FockAlgorithm::Serial).expect("in sweep");
    let mine = builds
        .iter()
        .find(|b| b.algorithm == case.driver.algorithm())
        .expect("the case's builder is in the sweep");
    let recomputed =
        recomputed_energy(&m.setup.h, m.setup.e_nn, &m.outcome.densities, &serial.build);
    // Two operations: the driver run and its traced mirror.
    let driver_failures = failures(&facts(&driver_out), recomputed, case.pinned);
    let mismatch = mirror_mismatch(&driver_out, &m.outcome);
    let mut mirror_failures = failures(&facts(&m.outcome), recomputed, None);
    mirror_failures.extend(mismatch.iter().cloned());
    let gap = max_gap(&replay.g, &channels(&serial.build));
    if gap.is_nan() || gap > REPLAY_TOL {
        mirror_failures.push(format!("serial replay differs from the serial build by {gap:.2e}"));
    }
    let n_failed =
        usize::from(!driver_failures.is_empty()) + usize::from(!mirror_failures.is_empty());
    let mut failed: Vec<String> =
        driver_failures.into_iter().map(|f| format!("driver: {f}")).collect();
    failed.extend(mirror_failures.into_iter().map(|f| format!("mirror: {f}")));

    let mut notes = vec![format!(
        "driver: {} iterations, E = {:.10} Eh, {scf_wall:.3} s; mirror: {} iterations, \
         E = {:.10} Eh",
        driver_out.iterations, driver_out.energy, m.outcome.iterations, m.outcome.energy
    )];
    let mut metrics = Metrics::default();
    if mismatch.is_empty() {
        let w = workers(case.driver.algorithm()) as f64;
        let [screen, eri, digest] =
            ["replay.screen", "replay.eri", "replay.digest"].map(|n| tr.self_total(n));
        let classes = class_seconds(&tr);
        let stats = &m.outcome.fock_stats;
        let sum = |f: fn(&FockBuildStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let delta_builds = stats.iter().filter(|s| s.incremental).count();
        let mean_quartets = sum(|s| s.quartets_computed) / stats.len() as f64;
        let spans = |names: &[&str]| names.iter().map(|n| tr.total(n)).sum::<f64>();
        let (fock_s, diis_s, diag_s, purify_s, ckpt_s) = (
            tr.total("scf.fock"),
            tr.total("scf.diis"),
            tr.total("scf.diag"),
            tr.total("scf.purify"),
            tr.total("checkpoint.save"),
        );
        let ckpt_bytes = if m.checkpoint_bytes.is_empty() {
            0.0
        } else {
            m.checkpoint_bytes.iter().sum::<u64>() as f64 / m.checkpoint_bytes.len() as f64
        };

        let mx = &mut metrics;
        mx.push("setup.one_electron_s", tr.total("setup.one_electron"), "s");
        mx.push("setup.orthogonalizer_s", tr.total("setup.orthogonalizer"), "s");
        mx.push("setup.shell_pairs_s", tr.total("setup.shell_pairs"), "s");
        mx.push("setup.screening_s", tr.total("setup.screening"), "s");
        mx.push("setup.shell_pairs_bytes", m.setup.data.pairs.bytes() as f64, "bytes");
        mx.push("screen.test_s", screen, "s");
        mx.push("screen.canonical_quartets", replay.canonical_quartets as f64, "count");
        mx.push(
            "screen.survival_ratio",
            replay.quartets as f64 / replay.canonical_quartets as f64,
            "ratio",
        );
        mx.push("eri.self_s", eri, "s");
        mx.push("eri.quartets", replay.quartets as f64, "count");
        mx.push("eri.prim_quartets", replay.prim_quartets as f64, "count");
        mx.push("eri.ns_per_quartet", eri / replay.quartets as f64 * 1e9, "ns");
        mx.push("eri.spec_ratio", replay.spec_quartets as f64 / replay.quartets as f64, "ratio");
        let mut other = eri;
        for c in REPORTED_CLASSES {
            let slot = CLASS_LABELS.iter().position(|l| *l == c).expect("a known class label");
            mx.push(format!("eri.class_s.{c}"), classes[slot], "s");
            other -= classes[slot];
        }
        mx.push("eri.class_s.other", other.max(0.0), "s");
        mx.push("digest.self_s", digest, "s");
        mx.push("digest.integrals", replay.integrals as f64, "count");
        mx.push("fock.build_s", mine.seconds, "s");
        mx.push("fock.overhead_s", mine.seconds - (screen + eri + digest) / w, "s");
        mx.push("fock.parallel_eff", serial.seconds / (w * mine.seconds), "ratio");
        mx.push("fock.dlb_calls", stats.iter().map(|s| s.dlb_calls).sum::<usize>() as f64, "count");
        mx.push("fock.dlb_tasks", stats.iter().map(|s| s.dlb_tasks).sum::<usize>() as f64, "count");
        mx.push("fock.flushes", sum(|s| s.flushes), "count");
        mx.push("fock.acks", sum(|s| s.acks), "count");
        mx.push("fock.retransmits", sum(|s| s.retransmits), "count");
        mx.push("fock.rank_peak_bytes", peak_rank_bytes(stats) as f64, "bytes");
        for b in &builds {
            mx.push(format!("fock.build_s.{}", b.suffix), b.seconds, "s");
        }
        mx.push("incremental.full_builds", (stats.len() - delta_builds) as f64, "count");
        mx.push("incremental.delta_builds", delta_builds as f64, "count");
        mx.push("incremental.quartet_ratio", mean_quartets / replay.quartets as f64, "ratio");
        mx.push("scf.fock_s", fock_s, "s");
        mx.push("scf.diis_s", diis_s, "s");
        mx.push("scf.diag_s", diag_s, "s");
        mx.push("scf.purify_s", purify_s, "s");
        mx.push("purify.iterations", m.purify_iterations as f64, "count");
        let other_s = tr.total("scf")
            - spans(&["setup", "scf.fock", "scf.diis", "scf.diag"])
            - purify_s
            - ckpt_s;
        mx.push("scf.other_s", other_s, "s");
        mx.push("checkpoint.save_s", ckpt_s, "s");
        mx.push("checkpoint.bytes", ckpt_bytes, "bytes");
        mx.push("trace.overhead_ratio", tr.total("scf") / scf_wall, "ratio");

        let layer_sum = screen + eri + digest;
        notes.push(format!(
            "serial replay: screen {:.1}%, ERI {:.1}%, digest {:.1}% of {layer_sum:.3} s",
            100.0 * screen / layer_sum,
            100.0 * eri / layer_sum,
            100.0 * digest / layer_sum
        ));
        let mut shares: Vec<(usize, f64)> =
            classes.iter().copied().enumerate().filter(|c| c.1 > 0.0).collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let shares: Vec<String> = shares
            .iter()
            .map(|&(slot, s)| format!("{} {:.1}%", CLASS_LABELS[slot], 100.0 * s / eri))
            .collect();
        notes.push(format!("ERI time by class: {}", shares.join(", ")));
        notes.push(format!(
            "fock.overhead_s is {:.1}% of the {} build",
            100.0 * (mine.seconds - layer_sum / w) / mine.seconds,
            mine.suffix
        ));
    } else {
        notes.push("mirror does not reproduce the driver: per-layer numbers withheld".into());
    }
    // Each builder counts screened quartets its own way (task-level
    // prescreens are counted differently), so the counts are printed per
    // builder beside the replay's survival ratio rather than compared.
    notes.push(format!(
        "quartets screened as each builder reports it (not comparable across builders; \
         screen.survival_ratio comes from the serial replay, {} of {} survive): {}",
        replay.quartets,
        replay.canonical_quartets,
        builds
            .iter()
            .map(|b| format!("{}={}", b.suffix, b.build.stats.quartets_screened))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push("the serial builder tracks no memory: no memory figure is reported for it".into());
    Report { attempted: 2, failed: n_failed, failures: failed, metrics, notes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::workload::Driver;
    use hf::ScfConfig;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    /// The `name` values of one top-level array in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    fn names(m: &Metrics) -> Vec<String> {
        m.iter().map(|(n, _, _)| n.clone()).collect()
    }

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn water() -> Case {
        Case {
            mol: small::water(),
            basis: BasisName::Sto3g,
            driver: Driver::Rhf(ScfConfig::default()),
            pinned: None,
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scfbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn emitted_end_to_end_names_are_exactly_the_declared_ones() {
        let dir = scratch("e2e");
        let report = end_to_end(&|_| water(), 0.0, &dir);
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        assert_eq!((report.attempted, report.failed), (1, 0), "{:?}", report.failures);
        let emitted = names(&report.metrics);
        assert!(emitted.iter().all(|n| valid(n)), "{emitted:?}");
        assert_eq!(emitted, declared("end_to_end"));
        assert!(report.metrics.mismatch(&metrics::end_to_end()).is_empty());
    }

    #[test]
    fn emitted_per_layer_names_are_exactly_the_declared_ones() {
        let dir = scratch("layers");
        let report = traced(&water(), &dir, 1, &dir.join("spans.jsonl"));
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        assert_eq!((report.attempted, report.failed), (2, 0), "{:?}", report.failures);
        let emitted = names(&report.metrics);
        assert!(emitted.iter().all(|n| valid(n)), "{emitted:?}");
        assert_eq!(emitted, declared("per_layer"));
        assert!(report.metrics.mismatch(&metrics::per_layer()).is_empty());
    }
}
