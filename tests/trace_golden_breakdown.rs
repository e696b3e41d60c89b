//! Golden-breakdown regression: trace the serial, private-Fock and
//! shared-Fock builds of the C6 ring in 6-31G(d) (the shape of the
//! paper's single-node benchmark) and pin the *paper-shaped* structure of
//! the breakdown — which phases exist, how they relate across algorithms,
//! and how DLB traffic scales with the rank count. Absolute times are
//! machine-dependent and are never asserted; every inequality below is
//! either exact counter arithmetic or an ordering the paper's model
//! guarantees (e.g. the shared-Fock code flushes FI/FJ buffers, the
//! private-Fock code has no flush phase at all).
//!
//! The C6/6-31G(d) builds are expensive in debug mode, so each
//! configuration is built exactly once and all invariants are asserted
//! from those four reports in a single test.
#![cfg(feature = "trace")]

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockBuildStats, FockData};
use phi_scf::linalg::Mat;
use phi_scf::trace::{TraceReport, TraceSession};

fn density(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.15 + ((i * 3 + j * 13) % 9) as f64 * 0.07
    })
}

fn flush_total_ns(r: &TraceReport) -> u64 {
    r.span_total_ns("fock.flush_fi") + r.span_total_ns("fock.flush_fj")
}

#[test]
fn c6_631gd_breakdown_has_the_paper_shape() {
    let b = BasisSet::build(&small::c_ring(6, 1.39), BasisName::B631gd);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-10);
    let d = density(b.n_basis());
    let dens = DensitySet::Restricted(&d);

    let trace = |alg: FockAlgorithm| -> (TraceReport, FockBuildStats) {
        let session = TraceSession::begin();
        let gb = alg.builder().build(&ctx, &dens);
        let report = session.finish();
        report
            .check_well_formed()
            .unwrap_or_else(|e| panic!("{}: malformed trace: {e}", alg.label()));
        (report, gb.stats)
    };

    let (serial, serial_stats) = trace(FockAlgorithm::Serial);
    let (private, _) = trace(FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 });
    let (shared1, shared1_stats) = trace(FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 });
    let (shared2, shared2_stats) = trace(FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 });

    // -- serial: one build span, no parallel phases at all -------------
    assert_eq!(serial.span_count("fock.build"), 1);
    assert_eq!(serial.span_count("dlb.wait"), 0);
    assert_eq!(serial.span_count("omp.loop"), 0);
    assert_eq!(serial.span_count("mpi.gsum"), 0);
    assert_eq!(flush_total_ns(&serial), 0);
    let s = serial.summary();
    assert!(s.fock_seconds > 0.0 && s.fock_seconds <= s.total_seconds);
    assert_eq!(serial.counter_total("quartets_computed"), serial_stats.quartets_computed);
    assert!(serial_stats.quartets_screened > 0, "6-31G(d) at 1e-10 must screen something");

    // -- flush phase: exists for shared Fock, absent for private Fock --
    // (the paper's Algorithm 3 pays FI/FJ buffer flushes for its shared
    // Fock matrix; Algorithm 2's thread-private Fock never flushes).
    assert_eq!(flush_total_ns(&private), 0, "private Fock has no flush phase");
    assert!(shared1.span_count("fock.flush_fi") > 0, "shared Fock flushes FI");
    assert!(shared1.span_count("fock.flush_fj") > 0, "shared Fock flushes FJ");
    assert!(
        flush_total_ns(&shared1) > flush_total_ns(&private),
        "shared-Fock flush time must exceed private-Fock flush time"
    );

    // -- gsum: one reduction span per rank -----------------------------
    assert_eq!(shared1.span_count("mpi.gsum"), 1);
    assert_eq!(shared2.span_count("mpi.gsum"), 2);

    // -- DLB traffic grows with the rank count -------------------------
    // Each lease_next call is one dlb.wait span; every rank makes one
    // final out-of-range call, so two ranks make exactly one claim more
    // than one rank over the same task pool.
    assert_eq!(shared1.span_count("dlb.wait"), shared1_stats.dlb_calls);
    assert_eq!(shared2.span_count("dlb.wait"), shared2_stats.dlb_calls);
    assert_eq!(shared2_stats.dlb_calls, shared1_stats.dlb_calls + 1);
    assert!(shared1.dlb_wait_total_ns() > 0);
    assert!(shared2.dlb_wait_by_rank_ns().len() == 2, "both ranks wait on the counter");

    // -- per-thread busy and imbalance (paper Fig. 8) ------------------
    for (label, report, ranks) in [("shared 1x2", &shared1, 1u32), ("shared 2x2", &shared2, 2)] {
        let summary = report.summary();
        assert!(
            summary.busy_fraction > 0.0 && summary.busy_fraction <= 1.0,
            "{label}: busy fraction {} out of range",
            summary.busy_fraction
        );
        for rank in 0..ranks {
            let ratio = report
                .imbalance_ratio(rank)
                .unwrap_or_else(|| panic!("{label}: rank {rank} ran no omp loops"));
            assert!(ratio >= 1.0, "{label}: rank {rank} imbalance {ratio} < 1");
        }
    }

    // -- the same physics under every breakdown ------------------------
    // The shared-Fock task prescreen only drops whole tasks whose
    // quartets the serial loop screens one-by-one, and counts each
    // dropped task's quartets as screened, so both counts match exactly.
    assert_eq!(shared1_stats.quartets_computed, serial_stats.quartets_computed);
    assert_eq!(shared2_stats.quartets_computed, serial_stats.quartets_computed);
    assert_eq!(shared1_stats.quartets_screened, serial_stats.quartets_screened);
}
