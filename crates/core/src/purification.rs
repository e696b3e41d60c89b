//! Density-matrix purification: diagonalization-free density construction.
//!
//! The paper's related work (§2) highlights Chow et al.'s Tianhe-2 runs
//! where "density matrix construction was achieved by density purification
//! techniques" to sidestep the poor parallel scaling of diagonalization.
//! This module implements canonical purification (Palser–Manolopoulos) with
//! McWeeny iterations as that alternative path:
//!
//! 1. transform the Fock matrix to the orthogonal basis, `F' = Xᵀ F X`;
//! 2. map its spectrum into [0, 1] with the occupied end near 1 using
//!    Gershgorin bounds and the trace constraint;
//! 3. iterate `D <- 3D² - 2D³` (McWeeny), which drives every eigenvalue to
//!    0 or 1 while preserving the trace ordering;
//! 4. back-transform, `D = X D' Xᵀ` (times 2 for closed shells).
//!
//! The result matches the diagonalization-based density whenever the
//! HOMO–LUMO gap is nonzero.

use phi_linalg::Mat;

/// Outcome of a purification run.
#[derive(Clone, Debug)]
pub struct Purification {
    /// Closed-shell density matrix (includes the factor 2).
    pub density: Mat,
    pub iterations: usize,
    pub converged: bool,
    /// `|D² - D|` idempotency residual at exit (orthogonal basis).
    pub idempotency_error: f64,
}

/// Gershgorin bounds on the spectrum of a symmetric matrix.
fn gershgorin(a: &Mat) -> (f64, f64) {
    let n = a.rows();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let radius: f64 = (0..n).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
        lo = lo.min(a[(i, i)] - radius);
        hi = hi.max(a[(i, i)] + radius);
    }
    (lo, hi)
}

/// Build the closed-shell density from a Fock matrix by canonical
/// purification. `x` is the orthogonalizer (`Xᵀ S X = 1`), `n_occ` the
/// number of doubly occupied orbitals.
pub fn purify_density(f: &Mat, x: &Mat, n_occ: usize, max_iter: usize, tol: f64) -> Purification {
    purify_density_threaded(f, x, n_occ, max_iter, tol, 1)
}

/// Threaded purification: identical algorithm with the matrix products —
/// its entire cost — split over `n_threads` (what makes purification the
/// scalable alternative to diagonalization in Chow et al.).
pub fn purify_density_threaded(
    f: &Mat,
    x: &Mat,
    n_occ: usize,
    max_iter: usize,
    tol: f64,
    n_threads: usize,
) -> Purification {
    let f_prime = f.congruence(x);
    let n = f_prime.rows();
    let (emin, emax) = gershgorin(&f_prime);
    let mu = f_prime.trace() / n as f64;
    let ne = n_occ as f64;

    // Palser-Manolopoulos canonical initialization: D0 = alpha (mu I - F')
    // + (ne/n) I with alpha chosen so the spectrum stays in [0, 1].
    let alpha = (ne / (emax - mu)).min((n as f64 - ne) / (mu - emin)) / n as f64;
    let mut d = Mat::from_fn(n, n, |i, j| {
        let fij = f_prime[(i, j)];
        let delta = if i == j { 1.0 } else { 0.0 };
        alpha * (mu * delta - fij) + ne / n as f64 * delta
    });

    let mut converged = false;
    let mut iterations = 0;
    let mut idempotency = f64::INFINITY;
    for it in 0..max_iter {
        iterations = it + 1;
        let d2 = d.matmul_threaded(&d, n_threads);
        let d3 = d2.matmul_threaded(&d, n_threads);
        idempotency = d2.max_abs_diff(&d);
        if idempotency < tol {
            converged = true;
            break;
        }
        // Palser-Manolopoulos trace-conserving update: unlike the plain
        // McWeeny step, this keeps tr(D) = n_occ exactly, so the iteration
        // cannot drift to an idempotent of the wrong occupation.
        let denom = d.trace() - d2.trace();
        let c = if denom.abs() > 1e-300 { (d2.trace() - d3.trace()) / denom } else { 0.5 };
        let mut next;
        if c >= 0.5 {
            // D <- ((1 + c) D^2 - D^3) / c
            next = d2.clone();
            next.scale(1.0 + c);
            next.axpy(-1.0, &d3);
            next.scale(1.0 / c);
        } else {
            // D <- ((1 - 2c) D + (1 + c) D^2 - D^3) / (1 - c)
            next = d.clone();
            next.scale(1.0 - 2.0 * c);
            next.axpy(1.0 + c, &d2);
            next.axpy(-1.0, &d3);
            next.scale(1.0 / (1.0 - c));
        }
        d = next;
    }

    // Back-transform and apply closed-shell occupancy.
    let mut density = x.matmul(&d).matmul_nt(x);
    density.scale(2.0);
    Purification { density, iterations, converged, idempotency_error: idempotency }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::FockData;
    use crate::fock::serial::build_serial;
    use crate::fock::DensitySet;
    use crate::guess::{core_guess, density_from_orbitals, solve_roothaan};
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;
    use phi_integrals::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix};
    use phi_linalg::sym_inv_sqrt;

    fn water_fock() -> (Mat, Mat, Mat, usize) {
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let s = overlap_matrix(&b);
        let h = kinetic_matrix(&b).add(&nuclear_attraction_matrix(&b, &mol));
        let x = sym_inv_sqrt(&s, 1e-8);
        // One SCF iteration's Fock matrix (guess density).
        let data = FockData::build(&b);
        let d0 = core_guess(&h, &x, mol.n_occupied());
        let g = build_serial(&data.context(&b, 1e-10), &DensitySet::Restricted(&d0)).g;
        (h.add(&g), x, s, mol.n_occupied())
    }

    #[test]
    fn purified_density_matches_diagonalization() {
        let (f, x, _s, n_occ) = water_fock();
        let p = purify_density(&f, &x, n_occ, 200, 1e-12);
        assert!(p.converged, "purification did not converge");
        let (_e, c) = solve_roothaan(&f, &x);
        let d_diag = density_from_orbitals(&c, n_occ);
        assert!(
            p.density.max_abs_diff(&d_diag) < 1e-7,
            "purified vs diagonalized density differ by {}",
            p.density.max_abs_diff(&d_diag)
        );
    }

    #[test]
    fn purified_density_has_correct_trace_and_idempotency() {
        let (f, x, s, n_occ) = water_fock();
        let p = purify_density(&f, &x, n_occ, 200, 1e-12);
        let tr = p.density.matmul(&s).trace();
        assert!((tr - 2.0 * n_occ as f64).abs() < 1e-7, "tr(DS) = {tr}");
        // D S D = 2 D for the closed-shell density.
        let dsd = p.density.matmul(&s).matmul(&p.density);
        let mut d2 = p.density.clone();
        d2.scale(2.0);
        assert!(dsd.max_abs_diff(&d2) < 1e-6);
    }

    #[test]
    fn threaded_purification_matches_serial() {
        let (f, x, _s, n_occ) = water_fock();
        let serial = purify_density(&f, &x, n_occ, 200, 1e-12);
        let par = purify_density_threaded(&f, &x, n_occ, 200, 1e-12, 4);
        assert!(par.converged);
        assert!(
            serial.density.max_abs_diff(&par.density) < 1e-9,
            "threaded purification differs by {}",
            serial.density.max_abs_diff(&par.density)
        );
    }

    #[test]
    fn gershgorin_contains_the_spectrum() {
        let a = Mat::from_fn(5, 5, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            ((i * 3 + j) % 7) as f64 - 3.0
        });
        let (lo, hi) = gershgorin(&a);
        let e = phi_linalg::eigh(&a);
        assert!(e.values[0] >= lo - 1e-12);
        assert!(e.values[4] <= hi + 1e-12);
    }

    #[test]
    fn full_scf_with_purification_reaches_the_same_energy() {
        // Replace the diagonalization in a hand-rolled SCF loop with
        // purification; the converged energy must match run_scf.
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let s = overlap_matrix(&b);
        let h = kinetic_matrix(&b).add(&nuclear_attraction_matrix(&b, &mol));
        let x = sym_inv_sqrt(&s, 1e-8);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let n_occ = mol.n_occupied();
        let mut d = core_guess(&h, &x, n_occ);
        let mut energy = 0.0;
        for _ in 0..60 {
            let g = build_serial(&ctx, &DensitySet::Restricted(&d)).g;
            let f = h.add(&g);
            energy = 0.5 * (d.dot(&h) + d.dot(&f)) + mol.nuclear_repulsion();
            d = purify_density(&f, &x, n_occ, 200, 1e-13).density;
        }
        let reference = crate::scf::run_scf(&mol, &b, &crate::scf::ScfConfig::default());
        assert!(
            (energy - reference.energy).abs() < 1e-6,
            "purification SCF {energy} vs diagonalization {}",
            reference.energy
        );
    }
}
