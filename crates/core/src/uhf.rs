//! Unrestricted Hartree-Fock (UHF).
//!
//! The paper's conclusion (§7) notes that its parallel-assembly strategy
//! transfers directly to "UHF, GVB, DFT, CPHF — all have this structure".
//! This module demonstrates that: the UHF spin Fock matrices
//!
//! ```text
//! F_alpha = H + J(D_total) - K(D_alpha)
//! F_beta  = H + J(D_total) - K(D_beta)
//! ```
//!
//! are assembled from the *same* canonical-quartet digestion used by the
//! RHF builders through the unified engine layer: each iteration makes one
//! [`DensitySet::Unrestricted`] build, so every surviving ERI is evaluated
//! once and digested into both spin channels — under any of the paper's
//! parallel algorithms, selected via [`UhfConfig::algorithm`].

use crate::fock::engine::FockData;
use crate::fock::incremental::IncrementalFock;
use crate::fock::{DensitySet, FockAlgorithm};
use crate::guess::{density_from_orbitals, solve_roothaan};
use crate::scf::{DivergenceDetector, ScfStop};
use crate::stats::FockBuildStats;
use phi_chem::{BasisSet, Molecule};
use phi_dmpi::{FaultPlan, RetryPolicy};
use phi_integrals::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix};
use phi_linalg::{sym_inv_sqrt, Mat};

/// UHF configuration.
#[derive(Clone, Debug)]
pub struct UhfConfig {
    /// Which Fock-build parallelization to use — all of the paper's
    /// algorithms serve UHF through the unified engine.
    pub algorithm: FockAlgorithm,
    pub screening_tau: f64,
    pub convergence: f64,
    pub max_iterations: usize,
    pub s_threshold: f64,
    /// Mix the alpha HOMO/LUMO of the initial guess to break spin symmetry
    /// (needed to reach broken-symmetry solutions, e.g. stretched H2).
    pub break_symmetry: bool,
    /// Deterministic fault plan replayed on every spin-Fock build. The
    /// serial algorithm ignores it.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery policy for rank messages and DDI window
    /// requests (see [`crate::scf::ScfConfig::retry`]).
    pub retry: RetryPolicy,
    /// Incremental (ΔD) spin-Fock builds: both channels accumulate
    /// `G_s,n = G_s,ref + G_s(ΔD)` — valid because each `G_s` is jointly
    /// linear in `(D_alpha, D_beta)`. See [`crate::fock::incremental`].
    pub incremental: bool,
    /// In incremental mode, perform a full rebuild every this many builds
    /// (clamped to >= 1; `1` makes every build full).
    pub full_rebuild_every: usize,
    /// Build each spin density by canonical purification instead of
    /// diagonalization (the partner of [`FockAlgorithm::Sharded`]; see
    /// [`crate::scf::ScfConfig::purification`]). Orbital energies are not
    /// produced; `<S^2>` is computed from the densities, which gives the
    /// same value either way.
    pub purification: bool,
}

impl Default for UhfConfig {
    fn default() -> Self {
        UhfConfig {
            algorithm: FockAlgorithm::Serial,
            screening_tau: 1e-10,
            convergence: 1e-8,
            max_iterations: 200,
            s_threshold: 1e-8,
            break_symmetry: false,
            faults: None,
            retry: RetryPolicy::default(),
            incremental: false,
            full_rebuild_every: 8,
            purification: false,
        }
    }
}

/// Outcome of a UHF run.
#[derive(Clone, Debug)]
pub struct UhfResult {
    pub energy: f64,
    pub converged: bool,
    /// Why the iteration loop stopped ([`ScfStop::Converged`] iff
    /// `converged`).
    pub stop_reason: ScfStop,
    pub iterations: usize,
    /// `<S^2>` expectation value (spin contamination diagnostic).
    pub s_squared: f64,
    pub orbital_energies_alpha: Vec<f64>,
    pub orbital_energies_beta: Vec<f64>,
    /// Converged alpha-spin density (no factor 2).
    pub density_alpha: Mat,
    /// Converged beta-spin density.
    pub density_beta: Mat,
    /// Per-iteration Fock-build statistics, collected identically to the
    /// RHF driver's ("TIME TO FORM FOCK" for the spin-Fock builds).
    pub fock_stats: Vec<FockBuildStats>,
}

/// A half-density: `C_occ C_occᵀ` (no factor 2) for one spin channel.
fn spin_density(c: &Mat, n_occ: usize) -> Mat {
    let mut d = density_from_orbitals(c, n_occ);
    d.scale(0.5);
    d
}

/// Run UHF with `n_alpha`/`n_beta` electrons of each spin.
pub fn run_uhf(
    mol: &Molecule,
    basis: &BasisSet,
    n_alpha: usize,
    n_beta: usize,
    config: &UhfConfig,
) -> UhfResult {
    assert_eq!(n_alpha + n_beta, mol.n_electrons(), "spin counts must sum to the electron count");
    assert!(n_alpha >= n_beta, "convention: n_alpha >= n_beta");
    let n = basis.n_basis();
    let s = overlap_matrix(basis);
    let h = kinetic_matrix(basis).add(&nuclear_attraction_matrix(basis, mol));
    let x = sym_inv_sqrt(&s, config.s_threshold);
    let data = FockData::build(basis);
    let ctx = data.context(basis, config.screening_tau);
    let builder = config.algorithm.builder_with_comm(config.faults.clone(), config.retry);
    let e_nn = mol.nuclear_repulsion();

    // Core guess for both spins.
    let (_e0, c0) = solve_roothaan(&h, &x);
    let mut c_alpha = c0.clone();
    let c_beta = c0;
    if config.break_symmetry && n_alpha <= n && n_alpha >= 1 && n_alpha < n {
        // Rotate alpha HOMO/LUMO by 45 degrees.
        let (homo, lumo) = (n_alpha - 1, n_alpha);
        let inv_sqrt2 = 1.0 / 2f64.sqrt();
        for r in 0..n {
            let (ch, cl) = (c_alpha[(r, homo)], c_alpha[(r, lumo)]);
            c_alpha[(r, homo)] = inv_sqrt2 * (ch + cl);
            c_alpha[(r, lumo)] = inv_sqrt2 * (cl - ch);
        }
    }
    let mut d_a = spin_density(&c_alpha, n_alpha);
    let mut d_b = if n_beta > 0 { spin_density(&c_beta, n_beta) } else { Mat::zeros(n, n) };

    let mut converged = false;
    let mut stop_reason = ScfStop::MaxIterations;
    let mut divergence = DivergenceDetector::new();
    let mut energy_history = Vec::new();
    let mut iterations = 0;
    let mut energy = 0.0;
    let mut eps_a = Vec::new();
    let mut eps_b = Vec::new();
    let mut fock_stats = Vec::new();
    let mut incremental =
        config.incremental.then(|| IncrementalFock::new(config.full_rebuild_every));

    for it in 0..config.max_iterations {
        iterations = it + 1;
        let _iter_span = phi_trace::span("scf.iteration");
        // One spin-generalized build per iteration: every surviving ERI is
        // evaluated once and digested into both channels,
        // G_s = J(D_a + D_b) - K(D_s).
        let gb = {
            let _span = phi_trace::span("scf.fock");
            match incremental.as_mut() {
                Some(inc) => inc.build(ctx, builder.as_ref(), &[&d_a, &d_b]),
                None => builder.build(&ctx, &DensitySet::Unrestricted { alpha: &d_a, beta: &d_b }),
            }
        };
        let g_b = gb.g_beta.unwrap_or_else(|| {
            panic!(
                "Fock builder '{}' returned no beta channel for an unrestricted \
                 density — every builder must digest both spin channels",
                builder.label()
            )
        });
        let mut f_a = h.add(&gb.g);
        let mut f_b = h.add(&g_b);
        fock_stats.push(gb.stats);
        f_a.symmetrize();
        f_b.symmetrize();

        // E = 1/2 [ D_t . H + D_a . F_a + D_b . F_b ] + E_nn
        let d_t = d_a.add(&d_b);
        energy = 0.5 * (d_t.dot(&h) + d_a.dot(&f_a) + d_b.dot(&f_b)) + e_nn;
        energy_history.push(energy);
        if let Some(stop) = divergence.check(&energy_history) {
            stop_reason = stop;
            break;
        }

        let (d_a_new, d_b_new) = if config.purification {
            // Diagonalization-free spin densities. `purify_density` returns
            // a closed-shell matrix (factor 2); each spin channel is half.
            let _span = phi_trace::span("scf.purify");
            let mut da = crate::purification::purify_density(&f_a, &x, n_alpha, 200, 1e-12).density;
            da.scale(0.5);
            let db = if n_beta > 0 {
                let mut db =
                    crate::purification::purify_density(&f_b, &x, n_beta, 200, 1e-12).density;
                db.scale(0.5);
                db
            } else {
                Mat::zeros(n, n)
            };
            (da, db)
        } else {
            let (ea, ca, eb, cb) = {
                let _span = phi_trace::span("scf.diag");
                let (ea, ca) = solve_roothaan(&f_a, &x);
                let (eb, cb) = solve_roothaan(&f_b, &x);
                (ea, ca, eb, cb)
            };
            let da = spin_density(&ca, n_alpha);
            let db = if n_beta > 0 { spin_density(&cb, n_beta) } else { Mat::zeros(n, n) };
            eps_a = ea;
            eps_b = eb;
            (da, db)
        };

        let rms =
            (d_a_new.sub(&d_a).frobenius_norm() + d_b_new.sub(&d_b).frobenius_norm()) / (n as f64);
        d_a = d_a_new;
        d_b = d_b_new;
        if rms < config.convergence {
            converged = true;
            stop_reason = ScfStop::Converged;
            break;
        }
    }

    // <S^2> = S(S+1) + N_beta - tr(D_a S D_b S): with D_s the occupied
    // projector of spin s, the trace equals sum_ij |<a_i|S|b_j>|^2 over
    // occupied pairs — but needs only densities, so it works identically
    // for the diagonalizing and the purification-based update.
    let sz = 0.5 * (n_alpha as f64 - n_beta as f64);
    let mut s2 = sz * (sz + 1.0) + n_beta as f64;
    s2 -= d_a.matmul(&s).matmul(&d_b.matmul(&s)).trace();

    UhfResult {
        energy,
        converged,
        stop_reason,
        iterations,
        s_squared: s2,
        orbital_energies_alpha: eps_a,
        orbital_energies_beta: eps_b,
        density_alpha: d_a,
        density_beta: d_b,
        fock_stats,
    }
}

/// Mulliken spin populations: `n_A(spin) = sum_{mu in A} ((D_a - D_b) S)_{mu mu}`.
/// Sums to `n_alpha - n_beta`.
pub fn mulliken_spin_populations(mol: &Molecule, basis: &BasisSet, result: &UhfResult) -> Vec<f64> {
    let s = phi_integrals::overlap_matrix(basis);
    let spin = result.density_alpha.sub(&result.density_beta);
    let ds = spin.matmul(&s);
    let mut pops = vec![0.0f64; mol.n_atoms()];
    for shell in &basis.shells {
        for f in 0..shell.n_functions() {
            pops[shell.atom] += ds[(shell.first_bf + f, shell.first_bf + f)];
        }
    }
    pops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::{run_scf, ScfConfig};
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::{Atom, Element};

    #[test]
    fn hydrogen_atom_energy_is_the_core_matrix_element() {
        // With one electron and one basis function, the UHF energy must be
        // exactly H_core[0,0] + 0 — an integral-level self-check.
        let mol = Molecule::neutral(vec![Atom { element: Element::H, pos: [0.0; 3] }]);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let r = run_uhf(&mol, &b, 1, 0, &UhfConfig::default());
        assert!(r.converged);
        let h = kinetic_matrix(&b).add(&nuclear_attraction_matrix(&b, &mol));
        assert!(
            (r.energy - h[(0, 0)]).abs() < 1e-10,
            "UHF H atom {} vs H_core {}",
            r.energy,
            h[(0, 0)]
        );
        // The textbook STO-3G hydrogen atom value.
        assert!((r.energy - (-0.4665819)).abs() < 1e-4, "H atom energy {}", r.energy);
        // A doublet: <S^2> = 0.75 exactly (one unpaired electron).
        assert!((r.s_squared - 0.75).abs() < 1e-10);
    }

    #[test]
    fn closed_shell_uhf_reduces_to_rhf() {
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let rhf = run_scf(
            &mol,
            &b,
            &ScfConfig { diis: false, max_iterations: 200, ..Default::default() },
        );
        let uhf = run_uhf(&mol, &b, 5, 5, &UhfConfig::default());
        assert!(rhf.converged && uhf.converged);
        assert!((rhf.energy - uhf.energy).abs() < 1e-7, "RHF {} vs UHF {}", rhf.energy, uhf.energy);
        assert!(uhf.s_squared.abs() < 1e-8, "closed shell must have <S^2> = 0");
    }

    #[test]
    fn triplet_h2_at_long_range_is_two_hydrogen_atoms() {
        let mol = small::hydrogen_molecule(50.0);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let r = run_uhf(&mol, &b, 2, 0, &UhfConfig::default());
        assert!(r.converged);
        // Two non-interacting neutral H atoms: the monopole terms (e-n
        // attraction to the far nucleus, e-e repulsion, n-n repulsion) all
        // cancel at 1/R, so the limit is exactly 2 x E(H atom).
        let atom = Molecule::neutral(vec![Atom { element: Element::H, pos: [0.0; 3] }]);
        let ab = BasisSet::build(&atom, BasisName::Sto3g);
        let e_atom = run_uhf(&atom, &ab, 1, 0, &UhfConfig::default()).energy;
        assert!(
            (r.energy - 2.0 * e_atom).abs() < 1e-6,
            "triplet H2 at 50 a0: {} vs {}",
            r.energy,
            2.0 * e_atom
        );
        // Triplet: <S^2> = 2.
        assert!((r.s_squared - 2.0).abs() < 1e-6);
    }

    #[test]
    fn broken_symmetry_uhf_beats_rhf_for_stretched_h2() {
        // At 5 bohr RHF pays the ionic-term penalty; symmetry-broken UHF
        // must fall below it (toward two H atoms).
        let mol = small::hydrogen_molecule(5.0);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let rhf = run_scf(&mol, &b, &ScfConfig::default());
        let uhf =
            run_uhf(&mol, &b, 1, 1, &UhfConfig { break_symmetry: true, ..Default::default() });
        assert!(rhf.converged && uhf.converged);
        assert!(
            uhf.energy < rhf.energy - 1e-4,
            "UHF {} should break symmetry below RHF {}",
            uhf.energy,
            rhf.energy
        );
        // Spin contamination appears (singlet <S^2> = 0 is violated).
        assert!(uhf.s_squared > 0.5, "expected contamination, got {}", uhf.s_squared);
    }

    #[test]
    fn spin_populations_localize_on_the_radical_center() {
        // Broken-symmetry stretched H2: one alpha electron on each atom,
        // opposite spins; populations are +-1 and sum to n_a - n_b = 0.
        let mol = small::hydrogen_molecule(8.0);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let r = run_uhf(&mol, &b, 1, 1, &UhfConfig { break_symmetry: true, ..Default::default() });
        assert!(r.converged);
        let pops = mulliken_spin_populations(&mol, &b, &r);
        assert!((pops[0] + pops[1]).abs() < 1e-8, "spin sums to zero: {pops:?}");
        assert!(pops[0].abs() > 0.9, "spin localizes at long range: {pops:?}");
        // Triplet far-apart H2: both spins up, one per atom.
        let t = run_uhf(&mol, &b, 2, 0, &UhfConfig::default());
        let tp = mulliken_spin_populations(&mol, &b, &t);
        assert!((tp[0] - 1.0).abs() < 0.05 && (tp[1] - 1.0).abs() < 0.05, "{tp:?}");
    }

    #[test]
    fn uhf_energy_is_algorithm_invariant() {
        // The engine unlocks every parallel algorithm for UHF; all must
        // land on the serial driver's converged energy.
        let mol = small::hydrogen_molecule(5.0);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let base = UhfConfig { break_symmetry: true, ..Default::default() };
        let want = run_uhf(&mol, &b, 1, 1, &base);
        assert!(want.converged);
        for algorithm in [
            FockAlgorithm::MpiOnly { n_ranks: 2 },
            FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 },
            FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
            FockAlgorithm::Distributed { n_ranks: 2 },
            FockAlgorithm::Sharded { n_ranks: 2, mode: phi_dmpi::DdiMode::Mpi3OneSided },
        ] {
            let r = run_uhf(&mol, &b, 1, 1, &UhfConfig { algorithm, ..base.clone() });
            assert!(r.converged, "{} did not converge", algorithm.label());
            assert!(
                (r.energy - want.energy).abs() < 1e-8,
                "{}: {} vs serial {}",
                algorithm.label(),
                r.energy,
                want.energy
            );
        }
        assert!(!want.fock_stats.is_empty(), "UHF surfaces per-iteration Fock stats");
    }

    #[test]
    fn sharded_uhf_with_purification_matches_diagonalization() {
        // Memory-lean open-shell pipeline: sharded spin-Fock builds plus
        // per-channel purification, including the density-based <S^2>.
        let mol = small::hydrogen_molecule(5.0);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let base = UhfConfig { break_symmetry: true, ..Default::default() };
        let want = run_uhf(&mol, &b, 1, 1, &base);
        let lean = run_uhf(
            &mol,
            &b,
            1,
            1,
            &UhfConfig {
                algorithm: FockAlgorithm::Sharded {
                    n_ranks: 2,
                    mode: phi_dmpi::DdiMode::Mpi3OneSided,
                },
                purification: true,
                ..base
            },
        );
        assert!(want.converged && lean.converged);
        assert!(
            (lean.energy - want.energy).abs() < 1e-8,
            "lean {} vs diagonalizing {}",
            lean.energy,
            want.energy
        );
        assert!(
            (lean.s_squared - want.s_squared).abs() < 1e-6,
            "<S^2> {} vs {}",
            lean.s_squared,
            want.s_squared
        );
    }

    #[test]
    fn jk_pieces_recombine_to_rhf_g() {
        // G(D) = J(D) - K(D)/2 must equal the one-pass RHF digestion.
        use crate::fock::engine::FockContext;
        use crate::fock::serial::{build_jk_serial, build_serial};
        use phi_integrals::{Screening, ShellPairs};
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let pairs = ShellPairs::build(&b);
        let s = Screening::from_pairs(&b, &pairs);
        let n = b.n_basis();
        let d = Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.1 + ((i + 3 * j) % 5) as f64 * 0.07
        });
        let g = build_serial(&FockContext::new(&b, &pairs, &s, 0.0), &DensitySet::Restricted(&d)).g;
        let j = build_jk_serial(&b, &pairs, &s, 0.0, &d, 1.0, 0.0).g;
        let mk_half = build_jk_serial(&b, &pairs, &s, 0.0, &d, 0.0, -0.5).g;
        let recombined = j.add(&mk_half);
        assert!(g.max_abs_diff(&recombined) < 1e-10);
    }
}
