//! Layer split of one Fock build, timed from outside the program.
//!
//! [`serial_replay`] redoes the serial reference build at a given density
//! in three passes, each under its own spans: the quartet screening test
//! over every canonical quartet, ERI evaluation of the survivors (in
//! chunks of one class, tagged with the class label) and digestion of
//! those integrals. [`sweep`] then times one build of every Fock builder
//! at the same density.
//!
//! Closed-shell digestion calls the program's `digest_quartet`. The
//! unrestricted digestion routine is private to the program, so UHF
//! digestion here applies the public `digest_value_scaled` three times
//! per integral (Coulomb of the total density, exchange of each spin);
//! on a UHF case `digest.self_s` therefore overstates the program's own
//! digestion. Both paths are checked against the program's serial build.

use crate::span::Tracer;
use hf::fock::{digest_quartet, digest_value_scaled, kl_bounds, tri_to_full, TriSink};
use hf::{DensitySet, FockAlgorithm, FockContext, GBuild};
use phi_chem::BasisSet;
use phi_dmpi::DdiMode;
use phi_integrals::{class_index, CLASS_LABELS, GENERIC_SLOT, N_CLASS_SLOTS};
use phi_linalg::Mat;

/// Survivors evaluated per ERI span.
const CHUNK: usize = 128;

/// What the replay counted.
pub struct Replay {
    /// The replayed `G`, one matrix per spin channel.
    pub g: Vec<Mat>,
    pub canonical_quartets: u64,
    pub quartets: u64,
    pub prim_quartets: u64,
    /// Quartets that ran a class-specialized kernel.
    pub spec_quartets: u64,
    /// Nonzero symmetry-unique integrals digested.
    pub integrals: u64,
}

/// Replay one serial build of `dens` under `ctx`, split into screening,
/// ERI and digestion spans (`replay.screen`, `replay.eri`,
/// `replay.digest`) below one `replay` span.
pub fn serial_replay(tr: &mut Tracer, ctx: &FockContext<'_>, dens: &DensitySet<'_>) -> Replay {
    tr.span("replay", |tr| {
        let basis = ctx.basis;
        let ns = basis.n_shells();
        let (mut survivors, canonical_quartets) = tr.span("replay.screen", |_| {
            let mut survivors: Vec<[usize; 4]> = Vec::new();
            let mut canonical = 0u64;
            for i in 0..ns {
                for j in 0..=i {
                    for k in 0..=i {
                        for l in 0..=kl_bounds(i, j, k) {
                            canonical += 1;
                            if ctx.survives(i, j, k, l) {
                                survivors.push([i, j, k, l]);
                            }
                        }
                    }
                }
            }
            (survivors, canonical)
        });
        let slot_of = |q: &[usize; 4]| {
            class_index(ctx.pairs.pair(q[0], q[1]).l_sum, ctx.pairs.pair(q[2], q[3]).l_sum)
        };
        survivors.sort_by_key(slot_of);

        let n = basis.n_basis();
        let mut digest = Digest::new(dens, n);
        let mut engine = ctx.engine();
        let mut eri: Vec<f64> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let mut integrals = 0u64;
        for class in survivors.chunk_by(|a, b| slot_of(a) == slot_of(b)) {
            let slot = if ctx.eri_kernels { slot_of(&class[0]) } else { GENERIC_SLOT };
            for chunk in class.chunks(CHUNK) {
                tr.tagged("replay.eri", CLASS_LABELS[slot], |_| {
                    eri.clear();
                    offsets.clear();
                    for q in chunk {
                        let (bra, ket) = (ctx.pairs.pair(q[0], q[1]), ctx.pairs.pair(q[2], q[3]));
                        let off = eri.len();
                        offsets.push(off);
                        eri.resize(off + bra.n_fn() * ket.n_fn(), 0.0);
                        engine.shell_quartet_pairs(bra, ket, &mut eri[off..]);
                    }
                    offsets.push(eri.len());
                });
                tr.span("replay.digest", |_| {
                    for (q, w) in chunk.iter().zip(offsets.windows(2)) {
                        digest.quartet(basis, q, &eri[w[0]..w[1]]);
                    }
                });
                for (q, w) in chunk.iter().zip(offsets.windows(2)) {
                    for_each_unique(basis, q, &eri[w[0]..w[1]], |_, _, _, _, _| integrals += 1);
                }
            }
        }
        debug_assert_eq!(engine.shell_quartets_computed(), survivors.len() as u64);
        Replay {
            g: digest.into_mats(n),
            canonical_quartets,
            quartets: survivors.len() as u64,
            prim_quartets: engine.prim_quartets_computed(),
            spec_quartets: engine.spec_quartets_computed(),
            integrals,
        }
    })
}

/// Per-class ERI seconds of a replay, indexed by class slot.
pub fn class_seconds(tr: &Tracer) -> [f64; N_CLASS_SLOTS] {
    std::array::from_fn(|slot| tr.total_tagged("replay.eri", CLASS_LABELS[slot]))
}

/// Visit every nonzero symmetry-unique integral of a canonical quartet
/// the way the program's digestion does: `f(mu, nu, lam, sig, x)`.
fn for_each_unique(
    basis: &BasisSet,
    q: &[usize; 4],
    eri: &[f64],
    mut f: impl FnMut(usize, usize, usize, usize, f64),
) {
    let [si, sj, sk, sl] = *q;
    let sh = [si, sj, sk, sl].map(|s| &basis.shells[s]);
    let [ni, nj, nk, nl] = sh.map(|s| s.n_functions());
    let same_pair = si == sk && sj == sl;
    for a in 0..ni {
        let mu = sh[0].first_bf + a;
        for b in 0..if si == sj { a + 1 } else { nj } {
            let nu = sh[1].first_bf + b;
            let munu = mu * (mu + 1) / 2 + nu;
            for c in 0..nk {
                let lam = sh[2].first_bf + c;
                for dd in 0..if sk == sl { c + 1 } else { nl } {
                    let sig = sh[3].first_bf + dd;
                    if same_pair && lam * (lam + 1) / 2 + sig > munu {
                        continue;
                    }
                    let x = eri[((a * nj + b) * nk + c) * nl + dd];
                    if x != 0.0 {
                        f(mu, nu, lam, sig, x);
                    }
                }
            }
        }
    }
}

/// Triangular accumulators for one replay.
enum Digest<'a> {
    Restricted {
        d: &'a Mat,
        g: Vec<f64>,
    },
    Unrestricted {
        total: Mat,
        alpha: &'a Mat,
        beta: &'a Mat,
        j: Vec<f64>,
        ka: Vec<f64>,
        kb: Vec<f64>,
    },
}

impl<'a> Digest<'a> {
    fn new(dens: &DensitySet<'a>, n: usize) -> Digest<'a> {
        match *dens {
            DensitySet::Restricted(d) => Digest::Restricted { d, g: vec![0.0; n * n] },
            DensitySet::Unrestricted { alpha, beta } => Digest::Unrestricted {
                total: alpha.add(beta),
                alpha,
                beta,
                j: vec![0.0; n * n],
                ka: vec![0.0; n * n],
                kb: vec![0.0; n * n],
            },
        }
    }

    fn quartet(&mut self, basis: &BasisSet, q: &[usize; 4], eri: &[f64]) {
        let n = basis.n_basis();
        match self {
            Digest::Restricted { d, g } => {
                let [i, j, k, l] = *q;
                digest_quartet(basis, i, j, k, l, eri, d, &mut TriSink { buf: g, n });
            }
            Digest::Unrestricted { total, alpha, beta, j, ka, kb } => {
                let (mut sj, mut sa, mut sb) =
                    (TriSink { buf: j, n }, TriSink { buf: ka, n }, TriSink { buf: kb, n });
                for_each_unique(basis, q, eri, |mu, nu, lam, sig, x| {
                    digest_value_scaled(mu, nu, lam, sig, x, total, 1.0, 0.0, &mut sj);
                    digest_value_scaled(mu, nu, lam, sig, x, alpha, 0.0, -1.0, &mut sa);
                    digest_value_scaled(mu, nu, lam, sig, x, beta, 0.0, -1.0, &mut sb);
                });
            }
        }
    }

    fn into_mats(self, n: usize) -> Vec<Mat> {
        match self {
            Digest::Restricted { g, .. } => vec![tri_to_full(&g, n)],
            Digest::Unrestricted { j, ka, kb, .. } => {
                let j = tri_to_full(&j, n);
                vec![j.add(&tri_to_full(&ka, n)), j.add(&tri_to_full(&kb, n))]
            }
        }
    }
}

/// The builders every traced run times, with their metric suffixes.
pub const SWEEP: [(&str, FockAlgorithm); 6] = [
    ("serial", FockAlgorithm::Serial),
    ("mpi2", FockAlgorithm::MpiOnly { n_ranks: 2 }),
    ("private1x2", FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 }),
    ("shared1x2", FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 }),
    ("distributed2", FockAlgorithm::Distributed { n_ranks: 2 }),
    ("sharded2", FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided }),
];

/// One builder's build in the sweep.
pub struct SweepBuild {
    pub suffix: &'static str,
    pub algorithm: FockAlgorithm,
    /// Wall seconds of the `build` call, timed by the benchmark.
    pub seconds: f64,
    pub build: GBuild,
}

/// One build of every [`SWEEP`] builder at `dens`, each in a
/// `sweep.build` span tagged with its suffix.
pub fn sweep(tr: &mut Tracer, ctx: &FockContext<'_>, dens: &DensitySet<'_>) -> Vec<SweepBuild> {
    SWEEP
        .iter()
        .map(|&(suffix, algorithm)| {
            let builder = algorithm.builder();
            let build = tr.tagged("sweep.build", suffix, |_| builder.build(ctx, dens));
            let seconds = tr.total_tagged("sweep.build", suffix);
            SweepBuild { suffix, algorithm, seconds, build }
        })
        .collect()
}

/// Largest elementwise gap between two channel lists.
pub fn max_gap(a: &[Mat], b: &[Mat]) -> f64 {
    assert_eq!(a.len(), b.len(), "channel counts differ");
    a.iter().zip(b).map(|(x, y)| x.max_abs_diff(y)).fold(0.0, f64::max)
}

/// The channels of a build as a list.
pub fn channels(g: &GBuild) -> Vec<Mat> {
    std::iter::once(g.g.clone()).chain(g.g_beta.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf::fock::engine::{FockBuilder, SerialBuilder};
    use hf::FockData;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    fn test_density(n: usize, shift: f64) -> Mat {
        Mat::from_fn(n, n, |i, j| 0.2 + shift / (1.0 + (i as f64 - j as f64).abs()))
    }

    #[test]
    fn replay_reproduces_the_serial_build_in_both_spin_cases() {
        let mol = small::water();
        let basis = BasisSet::build(&mol, BasisName::B631gd);
        let data = FockData::build(&basis);
        let ctx = data.context(&basis, 1e-10);
        let n = basis.n_basis();
        let (da, db) = (test_density(n, 0.3), test_density(n, 0.1));
        for dens in
            [DensitySet::Restricted(&da), DensitySet::Unrestricted { alpha: &da, beta: &db }]
        {
            let mut tr = Tracer::new(0);
            let replay = serial_replay(&mut tr, &ctx, &dens);
            let serial = SerialBuilder.build(&ctx, &dens);
            assert!(max_gap(&replay.g, &channels(&serial)) < 1e-10);
            assert_eq!(replay.quartets, serial.stats.quartets_computed);
            assert_eq!(
                replay.canonical_quartets,
                serial.stats.quartets_computed + serial.stats.quartets_screened
            );
            assert_eq!(replay.prim_quartets, serial.stats.prim_quartets);
            let classes = class_seconds(&tr);
            let eri = tr.total("replay.eri");
            assert!((classes.iter().sum::<f64>() - eri).abs() < 1e-9);
        }
    }
}
