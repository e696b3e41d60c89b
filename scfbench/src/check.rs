//! The correctness check every SCF run passes or fails.
//!
//! A run fails if it did not converge, if its energy differs by more than
//! [`CONSISTENCY_TOL`] from `E = 1/2 sum D (H + F)` recomputed from an
//! independent serial build at its converged density, if any build needed
//! a retransmission (the runs are fault-free), or — at seed 0 — if its
//! energy misses the workload's pinned energy by more than [`PINNED_TOL`]
//! or its iteration count differs from the pinned one.

use crate::workload::Pinned;
use hf::GBuild;
use phi_linalg::Mat;

/// Largest allowed gap between the driver's energy and the recomputed one
/// (Eh). Measured gaps are 1e-9 Eh or smaller.
pub const CONSISTENCY_TOL: f64 = 1e-7;

/// Largest allowed distance from the pinned seed-0 energy (Eh).
pub const PINNED_TOL: f64 = 1e-8;

/// Total energy of the densities `dens` (one matrix: closed-shell RHF with
/// the factor 2; two: UHF alpha/beta) given the core Hamiltonian `h` and a
/// two-electron build `g` of those same densities.
pub fn recomputed_energy(h: &Mat, e_nn: f64, dens: &[Mat], g: &GBuild) -> f64 {
    let fock = |gm: &Mat| {
        let mut f = h.add(gm);
        f.symmetrize();
        f
    };
    match dens {
        [d] => 0.5 * (d.dot(h) + d.dot(&fock(&g.g))) + e_nn,
        [da, db] => {
            let gb = g.g_beta.as_ref().expect("an unrestricted build has a beta channel");
            let dt = da.add(db);
            0.5 * (dt.dot(h) + da.dot(&fock(&g.g)) + db.dot(&fock(gb))) + e_nn
        }
        _ => panic!("a density set has one or two channels, got {}", dens.len()),
    }
}

/// What one SCF run reported, as far as the check needs it.
pub struct RunFacts {
    pub converged: bool,
    pub energy: f64,
    pub iterations: usize,
    pub retransmits: u64,
}

/// Reasons the run failed; empty when it passed. `pinned` is the seed-0
/// reference, `None` for other seeds.
pub fn failures(run: &RunFacts, recomputed: f64, pinned: Option<Pinned>) -> Vec<String> {
    let mut out = Vec::new();
    if !run.converged {
        out.push("did not converge".to_string());
    }
    let gap = (run.energy - recomputed).abs();
    if gap.is_nan() || gap > CONSISTENCY_TOL {
        out.push(format!(
            "energy {:.10} differs from the recomputed {:.10} by {gap:.2e} Eh",
            run.energy, recomputed
        ));
    }
    if run.retransmits != 0 {
        out.push(format!("{} retransmissions on a fault-free run", run.retransmits));
    }
    if let Some(pinned) = pinned {
        let miss = (run.energy - pinned.energy).abs();
        if miss.is_nan() || miss > PINNED_TOL {
            out.push(format!(
                "seed-0 energy {:.10} misses the pinned {:.10} by {miss:.2e} Eh",
                run.energy, pinned.energy
            ));
        }
        if run.iterations != pinned.iterations {
            out.push(format!(
                "seed-0 run took {} iterations, pinned {}",
                run.iterations, pinned.iterations
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn facts(energy: f64, iterations: usize) -> RunFacts {
        RunFacts { converged: true, energy, iterations, retransmits: 0 }
    }

    #[test]
    fn a_consistent_run_passes() {
        let p = Workload::C6Shared.pinned();
        assert!(failures(&facts(p.energy, p.iterations), p.energy + 1e-12, Some(p)).is_empty());
    }

    #[test]
    fn an_energy_perturbed_by_a_microhartree_is_flagged() {
        let p = Workload::H24Sharded.pinned();
        let (e, it) = (p.energy, p.iterations);
        // Against the recomputed energy, at any seed.
        assert_eq!(failures(&facts(e + 1e-6, it), e, None).len(), 1);
        assert_eq!(failures(&facts(e - 1e-6, it), e, None).len(), 1);
        // Against the pinned seed-0 energy, even when self-consistent.
        assert_eq!(failures(&facts(e + 1e-6, it), e + 1e-6, Some(p)).len(), 1);
        // A run at another seed is not held to the pinned energy.
        assert!(failures(&facts(e + 1e-6, it), e + 1e-6, None).is_empty());
    }

    #[test]
    fn non_convergence_retransmits_and_nan_are_flagged() {
        let p = Workload::Ch4UhfMpi.pinned();
        let (e, it) = (p.energy, p.iterations);
        let run = RunFacts { converged: false, energy: e, iterations: it, retransmits: 0 };
        assert_eq!(failures(&run, e, Some(p)).len(), 1);
        let run = RunFacts { converged: true, energy: e, iterations: it, retransmits: 2 };
        assert_eq!(failures(&run, e, Some(p)).len(), 1);
        assert_eq!(failures(&facts(e, it + 1), e, Some(p)).len(), 1);
        assert!(!failures(&facts(f64::NAN, it), e, None).is_empty());
    }
}
