//! Running a case: the set-up calls, the real drivers (`run_scf` /
//! `run_uhf`) and a traced mirror of their iteration loops.
//!
//! The mirror rebuilds each driver's loop from the program's public calls
//! and wraps every call in a span. It must reproduce the driver's
//! iteration count exactly and its energy within [`MIRROR_ENERGY_TOL`];
//! otherwise the per-layer numbers are withheld.

use crate::span::Tracer;
use crate::workload::{Driver, Pinned};
use hf::checkpoint::CHECKPOINT_KEEP;
use hf::diis::Diis;
use hf::guess::{core_guess, density_from_orbitals, solve_roothaan};
use hf::{
    run_scf, run_uhf, DensitySet, FockBuildStats, FockData, GBuild, IncrementalFock, ScfCheckpoint,
    ScfConfig, UhfConfig,
};
use phi_chem::{BasisName, BasisSet, Molecule};
use phi_integrals::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix};
use phi_integrals::{Screening, ShellPairs};
use phi_linalg::{sym_inv_sqrt, Mat};
use std::path::Path;

/// Largest allowed energy gap between the mirror and the driver (Eh).
pub const MIRROR_ENERGY_TOL: f64 = 1e-8;

/// One benchmark input: a generated molecule and how to run it.
pub struct Case {
    pub mol: Molecule,
    pub basis: BasisName,
    pub driver: Driver,
    /// The energy to reproduce; set only for seed 0.
    pub pinned: Option<Pinned>,
}

/// Everything the driver computes before it iterates.
pub struct Setup {
    pub basis: BasisSet,
    pub s: Mat,
    pub h: Mat,
    pub x: Mat,
    pub data: FockData,
    pub e_nn: f64,
    pub tau: f64,
}

impl Setup {
    pub fn context(&self) -> hf::FockContext<'_> {
        self.data.context(&self.basis, self.tau)
    }
}

/// The driver's set-up calls, one span each.
pub fn setup(tr: &mut Tracer, case: &Case) -> Setup {
    let mol = &case.mol;
    tr.span("setup", |tr| {
        let basis = tr.span("setup.basis", |_| BasisSet::build(mol, case.basis));
        let (s, h) = tr.span("setup.one_electron", |_| {
            let s = overlap_matrix(&basis);
            let h = kinetic_matrix(&basis).add(&nuclear_attraction_matrix(&basis, mol));
            (s, h)
        });
        let x = tr.span("setup.orthogonalizer", |_| sym_inv_sqrt(&s, case.driver.s_threshold()));
        let pairs = tr.span("setup.shell_pairs", |_| ShellPairs::build(&basis));
        let screening = tr.span("setup.screening", |_| Screening::from_pairs(&basis, &pairs));
        Setup {
            basis,
            s,
            h,
            x,
            data: FockData { pairs, screening },
            e_nn: mol.nuclear_repulsion(),
            tau: case.driver.screening_tau(),
        }
    })
}

/// What one SCF run produced.
pub struct Outcome {
    pub energy: f64,
    pub converged: bool,
    pub iterations: usize,
    pub fock_stats: Vec<FockBuildStats>,
    /// Converged densities: one (RHF, factor 2) or two (UHF alpha, beta).
    pub densities: Vec<Mat>,
}

impl Outcome {
    pub fn density_set(&self) -> DensitySet<'_> {
        match self.densities.as_slice() {
            [d] => DensitySet::Restricted(d),
            [a, b] => DensitySet::Unrestricted { alpha: a, beta: b },
            _ => unreachable!("an outcome holds one or two densities"),
        }
    }

    pub fn retransmits(&self) -> u64 {
        self.fock_stats.iter().map(|s| s.retransmits).sum()
    }
}

/// Run the real driver once. A checkpointing configuration writes into
/// `dir`, which must exist.
pub fn run(case: &Case, dir: &Path) -> Outcome {
    let basis = BasisSet::build(&case.mol, case.basis);
    match &case.driver {
        Driver::Rhf(cfg) => {
            let cfg = with_checkpoint_dir(cfg, dir);
            let r = run_scf(&case.mol, &basis, &cfg);
            Outcome {
                energy: r.energy,
                converged: r.converged,
                iterations: r.iterations,
                fock_stats: r.fock_stats,
                densities: vec![r.density],
            }
        }
        Driver::Uhf { n_alpha, n_beta, config } => {
            let r = run_uhf(&case.mol, &basis, *n_alpha, *n_beta, config);
            Outcome {
                energy: r.energy,
                converged: r.converged,
                iterations: r.iterations,
                fock_stats: r.fock_stats,
                densities: vec![r.density_alpha, r.density_beta],
            }
        }
    }
}

/// Re-home a configured checkpoint path into `dir`.
fn with_checkpoint_dir(cfg: &ScfConfig, dir: &Path) -> ScfConfig {
    let mut cfg = cfg.clone();
    if let Some(p) = &cfg.checkpoint_path {
        let file = p.file_name().expect("a checkpoint path names a file");
        cfg.checkpoint_path = Some(dir.join(file));
    }
    cfg
}

/// What the mirror saw besides the outcome.
pub struct Mirror {
    pub outcome: Outcome,
    pub setup: Setup,
    /// Purification sweeps summed over the run.
    pub purify_iterations: usize,
    /// Size of each checkpoint written (bytes).
    pub checkpoint_bytes: Vec<u64>,
}

/// The traced mirror of the case's driver: set-up plus iteration loop
/// under one `scf` span. Checkpoints go to `dir`.
pub fn mirror(tr: &mut Tracer, case: &Case, dir: &Path) -> Mirror {
    tr.span("scf", |tr| {
        let setup = setup(tr, case);
        match &case.driver {
            Driver::Rhf(cfg) => mirror_rhf(tr, case, setup, &with_checkpoint_dir(cfg, dir)),
            Driver::Uhf { n_alpha, n_beta, config } => {
                mirror_uhf(tr, setup, *n_alpha, *n_beta, config)
            }
        }
    })
}

fn mirror_rhf(tr: &mut Tracer, case: &Case, setup: Setup, cfg: &ScfConfig) -> Mirror {
    assert!(
        cfg.damping.is_none()
            && cfg.level_shift.is_none()
            && cfg.incore_max_bytes.is_none()
            && cfg.resume_from.is_none()
            && cfg.faults.is_none(),
        "the RHF mirror covers plain, DIIS, incremental, purifying and checkpointing runs only"
    );
    let n = setup.basis.n_basis();
    let n_occ = case.mol.n_occupied();
    let (h, s, x) = (&setup.h, &setup.s, &setup.x);
    let ctx = setup.context();
    let builder = cfg.algorithm.builder_with_comm(None, cfg.retry);
    let mut incremental = cfg.incremental.then(|| IncrementalFock::new(cfg.full_rebuild_every));
    let mut d = tr.span("scf.guess", |_| core_guess(h, x, n_occ));
    let mut diis = Diis::new(8);
    let mut energy_history = Vec::new();
    let mut fock_stats = Vec::new();
    let (mut converged, mut iterations, mut energy) = (false, 0, 0.0);
    let mut purify_iterations = 0;
    let mut checkpoint_bytes = Vec::new();

    for it in 0..cfg.max_iterations {
        iterations = it + 1;
        let done = tr.span("scf.iteration", |tr| {
            let gb = tr.span("scf.fock", |_| match incremental.as_mut() {
                Some(inc) => inc.build(ctx, builder.as_ref(), &[&d]),
                None => builder.build(&ctx, &DensitySet::Restricted(&d)),
            });
            fock_stats.push(gb.stats);
            let mut f = h.add(&gb.g);
            f.symmetrize();
            let e_elec = 0.5 * (d.dot(h) + d.dot(&f));
            energy = e_elec + setup.e_nn;
            energy_history.push(energy);

            let f_use = if cfg.diis {
                tr.span("scf.diis", |_| {
                    let err = Diis::error_vector(&f, &d, s, x);
                    diis.extrapolate(f, err)
                })
            } else {
                f
            };
            let d_new = if cfg.purification {
                let p = tr.span("scf.purify", |_| hf::purify_density(&f_use, x, n_occ, 200, 1e-12));
                purify_iterations += p.iterations;
                p.density
            } else {
                tr.span("scf.diag", |_| {
                    let (_eps, c) = solve_roothaan(&f_use, x);
                    density_from_orbitals(&c, n_occ)
                })
            };
            let rms = d_new.sub(&d).frobenius_norm() / (n as f64);
            d = d_new;

            if let Some(path) = &cfg.checkpoint_path {
                tr.span("checkpoint.save", |_| {
                    let ck = ScfCheckpoint {
                        iteration: iterations,
                        density: d.clone(),
                        energy_history: energy_history.clone(),
                        diis: diis.snapshot(),
                    };
                    ck.save_rotating(path, CHECKPOINT_KEEP).unwrap_or_else(|e| {
                        panic!("failed to write SCF checkpoint to {}: {e}", path.display())
                    });
                });
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or_else(|e| {
                    panic!("checkpoint {} missing after save: {e}", path.display())
                });
                checkpoint_bytes.push(bytes);
            }
            rms < cfg.convergence
        });
        if done {
            converged = true;
            break;
        }
    }
    Mirror {
        outcome: Outcome { energy, converged, iterations, fock_stats, densities: vec![d] },
        setup,
        purify_iterations,
        checkpoint_bytes,
    }
}

/// A half-density `C_occ C_occᵀ` (no factor 2), as the UHF driver forms it.
fn spin_density(c: &Mat, n_occ: usize) -> Mat {
    let mut d = density_from_orbitals(c, n_occ);
    d.scale(0.5);
    d
}

fn mirror_uhf(
    tr: &mut Tracer,
    setup: Setup,
    n_alpha: usize,
    n_beta: usize,
    cfg: &UhfConfig,
) -> Mirror {
    assert!(
        !cfg.break_symmetry && !cfg.purification && cfg.faults.is_none(),
        "the UHF mirror covers plain and incremental diagonalizing runs only"
    );
    let n = setup.basis.n_basis();
    let (h, x) = (&setup.h, &setup.x);
    let ctx = setup.context();
    let builder = cfg.algorithm.builder_with_comm(None, cfg.retry);
    let mut incremental = cfg.incremental.then(|| IncrementalFock::new(cfg.full_rebuild_every));
    let (mut d_a, mut d_b) = tr.span("scf.guess", |_| {
        let (_e0, c0) = solve_roothaan(h, x);
        let d_b = if n_beta > 0 { spin_density(&c0, n_beta) } else { Mat::zeros(n, n) };
        (spin_density(&c0, n_alpha), d_b)
    });
    let mut fock_stats = Vec::new();
    let (mut converged, mut iterations, mut energy) = (false, 0, 0.0);

    for it in 0..cfg.max_iterations {
        iterations = it + 1;
        let done = tr.span("scf.iteration", |tr| {
            let gb: GBuild = tr.span("scf.fock", |_| match incremental.as_mut() {
                Some(inc) => inc.build(ctx, builder.as_ref(), &[&d_a, &d_b]),
                None => builder.build(&ctx, &DensitySet::Unrestricted { alpha: &d_a, beta: &d_b }),
            });
            let g_b = gb.g_beta.expect("an unrestricted build returns a beta channel");
            let mut f_a = h.add(&gb.g);
            let mut f_b = h.add(&g_b);
            fock_stats.push(gb.stats);
            f_a.symmetrize();
            f_b.symmetrize();
            let d_t = d_a.add(&d_b);
            energy = 0.5 * (d_t.dot(h) + d_a.dot(&f_a) + d_b.dot(&f_b)) + setup.e_nn;

            let (d_a_new, d_b_new) = tr.span("scf.diag", |_| {
                let (_ea, ca) = solve_roothaan(&f_a, x);
                let (_eb, cb) = solve_roothaan(&f_b, x);
                let db = if n_beta > 0 { spin_density(&cb, n_beta) } else { Mat::zeros(n, n) };
                (spin_density(&ca, n_alpha), db)
            });
            let rms = (d_a_new.sub(&d_a).frobenius_norm() + d_b_new.sub(&d_b).frobenius_norm())
                / (n as f64);
            d_a = d_a_new;
            d_b = d_b_new;
            rms < cfg.convergence
        });
        if done {
            converged = true;
            break;
        }
    }
    Mirror {
        outcome: Outcome { energy, converged, iterations, fock_stats, densities: vec![d_a, d_b] },
        setup,
        purify_iterations: 0,
        checkpoint_bytes: Vec::new(),
    }
}

/// Why the mirror does not reproduce the driver; empty when it does.
pub fn mirror_mismatch(driver: &Outcome, mirror: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    if driver.iterations != mirror.iterations {
        out.push(format!(
            "mirror took {} iterations, the driver {}",
            mirror.iterations, driver.iterations
        ));
    }
    let gap = (driver.energy - mirror.energy).abs();
    if gap.is_nan() || gap > MIRROR_ENERGY_TOL {
        out.push(format!(
            "mirror energy {:.10} differs from the driver's {:.10} by {gap:.2e} Eh",
            mirror.energy, driver.energy
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf::FockAlgorithm;
    use phi_chem::geom::small;

    fn check_mirror(label: &str, case: &Case) {
        let dir =
            std::env::temp_dir().join(format!("scfbench-mirror-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the test's checkpoint dir");
        let driver = run(case, &dir);
        let mirrored = mirror(&mut Tracer::new(1), case, &dir).outcome;
        std::fs::remove_dir_all(&dir).expect("remove the test's checkpoint dir");
        assert!(driver.converged && mirrored.converged);
        let mismatch = mirror_mismatch(&driver, &mirrored);
        assert!(mismatch.is_empty(), "{label}: {mismatch:?}");
    }

    #[test]
    fn mirror_reproduces_run_scf_on_water_sto3g_serial() {
        check_mirror(
            "water-sto3g",
            &Case {
                mol: small::water(),
                basis: BasisName::Sto3g,
                driver: Driver::Rhf(ScfConfig::default()),
                pinned: None,
            },
        );
    }

    #[test]
    fn mirror_reproduces_run_uhf_on_water_triplet_mpi2() {
        check_mirror(
            "water-triplet",
            &Case {
                mol: small::water(),
                basis: BasisName::B631gd,
                driver: Driver::Uhf {
                    n_alpha: 6,
                    n_beta: 4,
                    config: UhfConfig {
                        algorithm: FockAlgorithm::MpiOnly { n_ranks: 2 },
                        ..Default::default()
                    },
                },
                pinned: None,
            },
        );
    }

    #[test]
    fn mirror_reproduces_the_checkpointing_purifying_sharded_driver() {
        check_mirror(
            "water-sharded",
            &Case {
                mol: small::water(),
                basis: BasisName::Sto3g,
                driver: Driver::Rhf(ScfConfig {
                    algorithm: FockAlgorithm::Sharded {
                        n_ranks: 2,
                        mode: phi_dmpi::DdiMode::Mpi3OneSided,
                    },
                    purification: true,
                    max_iterations: 200,
                    checkpoint_path: Some("scf.ckpt".into()),
                    ..Default::default()
                }),
                pinned: None,
            },
        );
    }
}
