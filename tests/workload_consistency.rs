//! The simulator's workload statistics must agree with what the *real*
//! Fock builders actually do: same quartet counts, same screening
//! behaviour. This ties the performance model to the executing code.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::DdiMode;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext, FockData};
use phi_scf::integrals::screening::WorkloadStats;
use phi_scf::integrals::{Screening, ShellPairs};
use phi_scf::linalg::Mat;

#[test]
fn fenwick_counts_match_real_build_quartets() {
    for (mol, label) in [
        (small::water(), "water"),
        (small::h_chain(12, 3.0), "H12"),
        (small::c_ring(6, 1.39), "C6"),
    ] {
        let basis = BasisSet::build(&mol, BasisName::Sto3g);
        let pairs = ShellPairs::build(&basis);
        let screening = Screening::from_pairs(&basis, &pairs);
        let tau = 1e-9;
        let stats = WorkloadStats::compute(&basis, &screening, tau);
        let n = basis.n_basis();
        let d = Mat::identity(n);
        let ctx = FockContext::new(&basis, &pairs, &screening, tau);
        let build = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));
        let counted = stats.surviving_quartets() as i64;
        let real = build.stats.quartets_computed as i64;
        // Quantized-bucket boundary effects only: within 1% + small slack.
        assert!(
            (counted - real).unsigned_abs() as f64 <= 0.01 * real as f64 + 3.0,
            "{label}: statistics {counted} vs real build {real}"
        );
    }
}

#[test]
fn prescreened_tasks_do_no_work_in_the_real_builder() {
    // Two far-apart fragments: tasks joining them must be prescreened by
    // the statistics AND produce no computed quartets in the real build.
    let mut atoms = small::water().atoms().to_vec();
    atoms.extend(small::water().translated([0.0, 0.0, 80.0]).atoms().iter().copied());
    let mol = phi_scf::chem::Molecule::neutral(atoms);
    let basis = BasisSet::build(&mol, BasisName::Sto3g);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    let tau = 1e-10;
    let stats = WorkloadStats::compute(&basis, &screening, tau);
    assert!(stats.pairs_prescreened > 0, "distant fragments must prescreen pairs");

    let n = basis.n_basis();
    let d = Mat::identity(n);
    let mono_basis = BasisSet::build(&small::water(), BasisName::Sto3g);
    let mono_pairs = ShellPairs::build(&mono_basis);
    let mono_screening = Screening::from_pairs(&mono_basis, &mono_pairs);
    let serial = |ctx: FockContext<'_>, d: &Mat| {
        FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(d))
    };
    let one =
        serial(FockContext::new(&mono_basis, &mono_pairs, &mono_screening, tau), &Mat::identity(7));
    let two = serial(FockContext::new(&basis, &pairs, &screening, tau), &d);
    // Schwarz keeps long-range *Coulomb* blocks (ij on fragment A | kl on
    // fragment B) — the interaction decays as 1/R, not exponentially — but
    // kills every inter-fragment *pair*. So the dimer workload grows
    // quadratically in the fragment count (~4x), far below the unscreened
    // quartic growth (~12x here: 666 vs 55 canonical quartets).
    let ratio = two.stats.quartets_computed as f64 / one.stats.quartets_computed as f64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "expected quadratic growth, got dimer/monomer quartet ratio {ratio}"
    );
}

#[test]
fn builder_counters_are_deterministic_across_algorithms() {
    // The counters the builders report (and, with the `trace` feature,
    // emit as trace counter events) are exact work accounting, not
    // timings: every parallel decomposition of the same workload must
    // land on the same totals as the serial enumeration, run after run —
    // for both spin cases and with density-weighted screening. The
    // stretched H8 chain makes Algorithm 3's ij-task prescreen drop whole
    // tasks, whose quartets must still count as screened.
    let water = BasisSet::build(&small::water(), BasisName::Sto3g);
    let h8 = BasisSet::build(&small::h_chain(8, 5.0), BasisName::B631gdp);
    for (system, basis, tau) in [("water", &water, 1e-12), ("stretched H8", &h8, 1e-10)] {
        let data = FockData::build(basis);
        let n = basis.n_basis();
        let d = Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
        });
        let mut d_beta = d.clone();
        d_beta.scale(0.6);
        let ns = basis.n_shells();
        let n_pair = ns * (ns + 1) / 2;
        let canonical = (n_pair * (n_pair + 1) / 2) as u64;
        for dens in
            [DensitySet::Restricted(&d), DensitySet::Unrestricted { alpha: &d, beta: &d_beta }]
        {
            let dmax = dens.density_max(basis);
            let plain = data.context(basis, tau);
            for (ctx, weighting) in
                [(plain, "static"), (plain.with_dmax(&dmax), "density-weighted")]
            {
                let serial = FockAlgorithm::Serial.builder().build(&ctx, &dens);
                let total = serial.stats.quartets_computed + serial.stats.quartets_screened;
                assert_eq!(total, canonical, "{system}: serial canonical coverage");
                let surviving_pairs = (0..ns)
                    .flat_map(|i| (0..=i).map(move |j| (i, j)))
                    .filter(|&(i, j)| ctx.task_survives(i, j))
                    .count();
                for (alg, ranks) in [
                    (FockAlgorithm::MpiOnly { n_ranks: 3 }, 3),
                    (FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 }, 2),
                    (FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 }, 2),
                    (FockAlgorithm::Distributed { n_ranks: 3 }, 3),
                    (FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided }, 2),
                ] {
                    let got = alg.builder().build(&ctx, &dens);
                    let label = format!(
                        "{system}, {} channel(s), {weighting}, {}",
                        dens.n_channels(),
                        alg.label()
                    );
                    assert_eq!(
                        got.stats.quartets_computed, serial.stats.quartets_computed,
                        "{label}: every surviving quartet exactly once"
                    );
                    assert_eq!(
                        got.stats.quartets_computed + got.stats.quartets_screened,
                        total,
                        "{label}: full canonical coverage"
                    );
                    assert_eq!(
                        got.stats.prim_quartets, serial.stats.prim_quartets,
                        "{label}: primitive quartets"
                    );
                    assert_eq!(
                        got.stats.eri_class_quartets, serial.stats.eri_class_quartets,
                        "{label}: per-class quartets"
                    );
                    // DLB accounting: tasks pulled plus one final
                    // out-of-range claim per rank — exact, not approximate.
                    // Shared Fock counts only the tasks its prescreen keeps.
                    let (leases, tasks) = match alg {
                        FockAlgorithm::PrivateFock { .. } => (ns, ns),
                        FockAlgorithm::SharedFock { .. } => (n_pair, surviving_pairs),
                        _ => (n_pair, n_pair),
                    };
                    assert_eq!(got.stats.dlb_tasks, tasks, "{label}: one lease per task");
                    assert_eq!(
                        got.stats.dlb_calls,
                        leases + ranks,
                        "{label}: claims + final polls"
                    );
                }
                if system == "stretched H8" {
                    assert!(surviving_pairs < n_pair, "{weighting}: the task prescreen must fire");
                }
            }
        }
    }
}

#[test]
fn screened_fraction_grows_with_system_extent() {
    let basis_of = |n: usize| BasisSet::build(&small::h_chain(n, 3.0), BasisName::Sto3g);
    let frac = |n: usize| {
        let b = basis_of(n);
        let s = Screening::compute(&b);
        WorkloadStats::compute(&b, &s, 1e-10).screened_fraction()
    };
    let small_sys = frac(6);
    let large_sys = frac(24);
    assert!(
        large_sys > small_sys,
        "longer chain must screen a larger fraction: {large_sys} vs {small_sys}"
    );
}
