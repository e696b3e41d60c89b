//! The three benchmark workloads and their seeded inputs.
//!
//! Each workload fixes a molecule, a basis, a driver (RHF or UHF) and a
//! driver configuration. The seed only moves atoms. Seed 0 is the nominal
//! geometry for every operation of a run. Any other seed starts a stream
//! of geometries, one per operation, each moving every atom by at most
//! [`MAX_JITTER_BOHR`] with the benchmark's own generator (see [`jitter`]).
//! The program receives nothing but the generated `Molecule`. See
//! `README.md` for why each workload was chosen.

use hf::{FockAlgorithm, ScfConfig, UhfConfig};
use phi_chem::geom::small;
use phi_chem::molecule::dist;
use phi_chem::{Atom, BasisName, Molecule};
use phi_dmpi::DdiMode;
use std::path::PathBuf;

/// Largest displacement of any atom from its nominal position (bohr).
pub const MAX_JITTER_BOHR: f64 = 0.02;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// C6 ring / 6-31G(d), RHF + DIIS, shared Fock (Algorithm 3) 1x2.
    C6Shared,
    /// Linear H24 / 6-31G(d,p), RHF + DIIS, sharded 2 ranks (MPI-3
    /// one-sided DDI), purification, rotating checkpoint every iteration.
    H24Sharded,
    /// CH4 triplet / 6-31G(d,p), UHF, incremental ΔD builds (full rebuild
    /// every 8), MPI-only (Algorithm 1) 2 ranks.
    Ch4UhfMpi,
}

/// The seed-0 reference a workload must reproduce.
#[derive(Clone, Copy, Debug)]
pub struct Pinned {
    pub energy: f64,
    pub iterations: usize,
}

/// A workload's driver and configuration.
pub enum Driver {
    Rhf(ScfConfig),
    Uhf { n_alpha: usize, n_beta: usize, config: UhfConfig },
}

impl Driver {
    pub fn algorithm(&self) -> FockAlgorithm {
        match self {
            Driver::Rhf(c) => c.algorithm,
            Driver::Uhf { config, .. } => config.algorithm,
        }
    }

    pub(crate) fn screening_tau(&self) -> f64 {
        match self {
            Driver::Rhf(c) => c.screening_tau,
            Driver::Uhf { config, .. } => config.screening_tau,
        }
    }

    pub(crate) fn s_threshold(&self) -> f64 {
        match self {
            Driver::Rhf(c) => c.s_threshold,
            Driver::Uhf { config, .. } => config.s_threshold,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::C6Shared, Workload::H24Sharded, Workload::Ch4UhfMpi];

    pub fn name(self) -> &'static str {
        match self {
            Workload::C6Shared => "c6-631gd-shared",
            Workload::H24Sharded => "h24-631gdp-sharded",
            Workload::Ch4UhfMpi => "ch4-uhf-mpi",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn basis(self) -> BasisName {
        match self {
            Workload::C6Shared => BasisName::B631gd,
            Workload::H24Sharded | Workload::Ch4UhfMpi => BasisName::B631gdp,
        }
    }

    pub fn algorithm(self) -> FockAlgorithm {
        match self {
            Workload::C6Shared => FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 },
            Workload::H24Sharded => {
                FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided }
            }
            Workload::Ch4UhfMpi => FockAlgorithm::MpiOnly { n_ranks: 2 },
        }
    }

    /// Energy and iteration count at seed 0 (release build, any host).
    pub fn pinned(self) -> Pinned {
        match self {
            Workload::C6Shared => Pinned { energy: -226.6538347937, iterations: 11 },
            Workload::H24Sharded => Pinned { energy: -12.8859906308, iterations: 15 },
            Workload::Ch4UhfMpi => Pinned { energy: -39.7806043514, iterations: 72 },
        }
    }

    pub fn nominal(self) -> Molecule {
        match self {
            Workload::C6Shared => small::c_ring(6, 1.39),
            Workload::H24Sharded => small::h_chain(24, 1.8),
            Workload::Ch4UhfMpi => small::methane(),
        }
    }

    /// The input of operation `k` of a run with `seed`: the nominal
    /// geometry at seed 0, otherwise the `k`-th draw of the seed's stream.
    ///
    /// Each operation gets its own geometry because the UHF workload's
    /// iteration count is not smooth in the geometry: breathing CH4 by
    /// 0.1% or by 1% gives anywhere from 66 to 87 iterations. A run's
    /// median over several geometries is far steadier from seed to seed
    /// than one geometry's count.
    pub fn molecule(self, seed: u64, k: usize) -> Molecule {
        if seed == 0 {
            return self.nominal();
        }
        let mut rng = SplitMix64::new(seed);
        let draw = (0..=k).map(|_| rng.next_signed_unit()).last().expect("k + 1 draws");
        jitter(&self.nominal(), draw)
    }

    /// The driver configuration. `checkpoint_dir` receives the rotating
    /// checkpoint of the workloads that write one.
    pub fn driver(self, checkpoint_dir: &std::path::Path) -> Driver {
        match self {
            Workload::C6Shared => {
                Driver::Rhf(ScfConfig { algorithm: self.algorithm(), ..Default::default() })
            }
            Workload::H24Sharded => Driver::Rhf(ScfConfig {
                algorithm: self.algorithm(),
                purification: true,
                checkpoint_path: Some(checkpoint_path(checkpoint_dir)),
                ..Default::default()
            }),
            Workload::Ch4UhfMpi => Driver::Uhf {
                n_alpha: 6,
                n_beta: 4,
                config: UhfConfig {
                    algorithm: self.algorithm(),
                    incremental: true,
                    full_rebuild_every: 8,
                    ..Default::default()
                },
            },
        }
    }
}

fn checkpoint_path(dir: &std::path::Path) -> PathBuf {
    dir.join("scf.ckpt")
}

/// SplitMix64: a tiny, fully specified generator, so the same seed gives
/// the same geometry on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn next_signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Breathe `mol` about its centroid by a uniform scale chosen by `draw`
/// in `[-1, 1]`: the farthest atom moves `draw * MAX_JITTER_BOHR`, every
/// other atom less.
///
/// The draw changes every bond length by the same factor, and nothing
/// else. Three other motions were measured and rejected, because each
/// makes time to solution a property of the seed:
///
/// - independent per-atom displacements break the point-group symmetry;
///   the C6 ring then takes 28 to 32 iterations instead of 11;
/// - a rotation tilts the molecule off the axes, which made the C6
///   ring's builds 15-25% dearer than at seed 0 (integral components that
///   vanish in the aligned frame no longer do);
/// - a translation moves atoms off the origin and the axes; the same
///   components then come out as rounding residue instead of exact zeros,
///   which made the H24 chain's builds about 30% dearer.
pub fn jitter(mol: &Molecule, draw: f64) -> Molecule {
    let c = mol.centroid();
    let r_max = mol.atoms().iter().map(|a| dist(a.pos, c)).fold(0.0, f64::max);
    let scale = 1.0 + MAX_JITTER_BOHR / r_max * draw.clamp(-1.0, 1.0);
    let atoms = mol
        .atoms()
        .iter()
        .map(|a| Atom {
            element: a.element,
            pos: [0, 1, 2].map(|k| c[k] + scale * (a.pos[k] - c[k])),
        })
        .collect();
    Molecule::new(atoms, mol.charge())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_within_its_bound() {
        for w in Workload::ALL {
            let nominal = w.nominal();
            for k in 0..4 {
                assert_eq!(w.molecule(0, k), nominal, "seed 0 must be the nominal geometry");
            }
            for (seed, k) in (1..50).flat_map(|s| (0..3).map(move |k| (s, k))) {
                let a = w.molecule(seed, k);
                assert_eq!(a, w.molecule(seed, k), "seed {seed} must repeat exactly");
                assert_ne!(a, nominal, "seed {seed} must move the atoms");
                for (p, q) in a.atoms().iter().zip(nominal.atoms()) {
                    assert_eq!(p.element, q.element);
                    let d = dist(p.pos, q.pos);
                    assert!(
                        d <= MAX_JITTER_BOHR,
                        "{}: seed {seed} moved an atom {d} bohr",
                        w.name()
                    );
                }
            }
            assert_ne!(w.molecule(1, 0), w.molecule(2, 0), "different seeds give different inputs");
            assert_ne!(w.molecule(1, 0), w.molecule(1, 1), "operations get their own inputs");
        }
    }

    #[test]
    fn jitter_keeps_every_interatomic_distance_ratio() {
        // Uniform breathing: all distances scale alike, so the point group
        // survives.
        for w in Workload::ALL {
            let (a, b) = (w.nominal(), w.molecule(17, 2));
            let pairs = |m: &Molecule| -> Vec<f64> {
                let at = m.atoms();
                (0..at.len())
                    .flat_map(|i| (0..i).map(move |j| (i, j)))
                    .map(|(i, j)| dist(at[i].pos, at[j].pos))
                    .collect()
            };
            let (da, db) = (pairs(&a), pairs(&b));
            let ratio = db[0] / da[0];
            for (x, y) in da.iter().zip(&db) {
                assert!((y / x - ratio).abs() < 1e-12, "{}: distances scaled unevenly", w.name());
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("c6-631g-shared"), None);
    }
}
