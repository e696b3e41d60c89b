//! Two-electron Fock matrix construction.
//!
//! Shared machinery lives here: the canonical shell-quartet enumeration and
//! the *digestion* of one computed quartet into Fock matrix updates — the
//! paper's equations (2a)–(2f). Every algorithm then differs only in how
//! quartets are distributed over ranks/threads and where updates land,
//! which is exactly the paper's framing.
//!
//! Digestion works per shell quartet (module `digest`). A canonical quartet
//! `(ij|kl)` stands for the up to eight orderings of its orbit; instead of
//! walking that orbit one integral at a time, the whole ERI block is
//! contracted once into six J/K blocks — `J_ab`, `J_cd` from the Coulomb
//! density and `K_ac`, `K_ad`, `K_bc`, `K_bd` from each spin channel's
//! exchange density — weighted by the quartet's degeneracy factor
//! `f = 1 / ((i==j ? 2 : 1) (k==l ? 2 : 1) (ij==kl ? 2 : 1))`. Each block
//! element is then written once per quartet to canonical (`row >= col`)
//! storage, matching GAMESS's triangular Fock storage: `2f J` and
//! `k f K` with `k = -1/2` for RHF and `-1` per UHF spin channel.
//!
//! The element-level orbit walk survives as the oracle the tests and the
//! benchmark replay check against: [`digest_value_scaled`] applies one
//! integral's ordered orbit, and [`serial::build_jk_serial`] runs it over a
//! whole build.
//!
//! Note: Algorithm 1/2 in the paper print the inner loop bound as
//! `k==i ? lmax <- k : lmax <- j`; the canonical unique-quartet bound
//! (which the text's "symmetry-unique quartets" requires, and which GAMESS
//! implements) is `k==i ? lmax <- j : lmax <- k`. We implement the
//! canonical bound and note the typo here.

mod digest;
pub mod distributed;
pub mod engine;
pub mod incremental;
pub mod matrix;
pub mod mpi_only;
pub mod private_fock;
pub mod serial;
pub mod sharded;
pub mod shared_fock;
mod skeleton;

use crate::stats::FockBuildStats;
pub(crate) use digest::BlockDigest;
pub use digest::FockBlock;
use phi_chem::BasisSet;
use phi_linalg::Mat;

/// Which Fock-build parallelization to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FockAlgorithm {
    /// Single-threaded reference.
    Serial,
    /// Algorithm 1: MPI-only, everything replicated per rank.
    MpiOnly { n_ranks: usize },
    /// Algorithm 2: hybrid, density shared per rank, Fock private per thread.
    PrivateFock { n_ranks: usize, n_threads: usize },
    /// Algorithm 3: hybrid, density and Fock both shared per rank.
    SharedFock { n_ranks: usize, n_threads: usize },
    /// Related-work baseline: Fock distributed over ranks (one-sided
    /// accumulates), never replicated or reduced.
    Distributed { n_ranks: usize },
    /// Fully sharded: density *and* Fock live in tri-packed DDI windows;
    /// no rank ever holds a full N x N matrix. `mode` picks the DDI
    /// transport (data servers vs MPI-3 one-sided).
    Sharded { n_ranks: usize, mode: phi_dmpi::DdiMode },
}

impl FockAlgorithm {
    pub fn label(self) -> &'static str {
        match self {
            FockAlgorithm::Serial => "serial",
            FockAlgorithm::MpiOnly { .. } => "MPI-only",
            FockAlgorithm::PrivateFock { .. } => "private Fock",
            FockAlgorithm::SharedFock { .. } => "shared Fock",
            FockAlgorithm::Distributed { .. } => "distributed",
            FockAlgorithm::Sharded { .. } => "sharded",
        }
    }
}

/// Result of one two-electron Fock build, spin-generalized: restricted
/// builds fill `g` only; unrestricted builds fill `g` with the alpha
/// channel and `g_beta` with the beta channel.
pub struct GBuild {
    /// The two-electron contribution `G` (full symmetric matrix): the RHF
    /// `G(D)`, or the alpha-spin `G_alpha = J(D_t) - K(D_alpha)` of a UHF
    /// build.
    pub g: Mat,
    /// The beta-spin channel of a UHF build; `None` for restricted builds.
    pub g_beta: Option<Mat>,
    pub stats: FockBuildStats,
}

impl GBuild {
    /// Wrap a restricted (single-channel) result.
    pub fn restricted(g: Mat, stats: FockBuildStats) -> GBuild {
        GBuild { g, g_beta: None, stats }
    }

    /// Assemble from per-channel matrices (one = restricted, two = UHF
    /// alpha/beta).
    pub fn from_channels(mats: Vec<Mat>, stats: FockBuildStats) -> GBuild {
        let mut it = mats.into_iter();
        let g = it
            .next()
            .expect("from_channels needs at least one spin-channel matrix (got an empty vec)");
        GBuild { g, g_beta: it.next(), stats }
    }
}

/// Spin-generalized density input for one Fock build.
///
/// Every builder consumes this and produces the matching [`GBuild`]:
///
/// * `Restricted(D)` — closed-shell RHF; the output is
///   `G = J(D) - K(D)/2`.
/// * `Unrestricted { alpha, beta }` — the UHF spin densities (each without
///   the RHF factor of 2); the outputs are `G_s = J(D_a + D_b) - K(D_s)`
///   for `s` in alpha, beta — exactly the two-electron parts of the UHF
///   spin Fock matrices `F_s = H + G_s`. Every ERI is computed once and
///   digested into both spin channels, which is the generalization the
///   paper's conclusion points at ("UHF, GVB, DFT, CPHF all have this
///   structure").
#[derive(Clone, Copy)]
pub enum DensitySet<'a> {
    Restricted(&'a Mat),
    Unrestricted { alpha: &'a Mat, beta: &'a Mat },
}

impl<'a> DensitySet<'a> {
    /// Number of spin channels (1 restricted, 2 unrestricted).
    pub fn n_channels(&self) -> usize {
        match self {
            DensitySet::Restricted(_) => 1,
            DensitySet::Unrestricted { .. } => 2,
        }
    }

    /// Per-shell-pair density-max table over every matrix this set feeds
    /// into digestion. Restricted input bounds `|D|`; unrestricted input
    /// bounds `|D_alpha| + |D_beta|`, which dominates each spin density
    /// *and* the Coulomb source `D_total = D_alpha + D_beta` — so one
    /// table covers every channel's updates.
    pub fn density_max(&self, basis: &BasisSet) -> phi_integrals::DensityMax {
        match *self {
            DensitySet::Restricted(d) => {
                phi_integrals::DensityMax::build(basis, |p, q| d[(p, q)].abs())
            }
            DensitySet::Unrestricted { alpha, beta } => {
                phi_integrals::DensityMax::build(basis, |p, q| {
                    alpha[(p, q)].abs() + beta[(p, q)].abs()
                })
            }
        }
    }

    /// Precompute the per-build digestion data (the UHF Coulomb source
    /// `D_total = D_alpha + D_beta`). Called once per build, outside the
    /// quartet loops.
    pub fn prepare(&self) -> DensityWork<'a> {
        match *self {
            DensitySet::Restricted(d) => DensityWork::Restricted(d),
            DensitySet::Unrestricted { alpha, beta } => {
                DensityWork::Unrestricted { total: alpha.add(beta), alpha, beta }
            }
        }
    }
}

/// Prepared per-build density data: what the digestion loops actually read.
/// Public because the sharded build scatters it into density windows
/// ([`matrix::scatter_density`]); constructed via [`DensitySet::prepare`].
pub enum DensityWork<'a> {
    Restricted(&'a Mat),
    Unrestricted { total: Mat, alpha: &'a Mat, beta: &'a Mat },
}

impl DensityWork<'_> {
    pub(crate) fn n_channels(&self) -> usize {
        match self {
            DensityWork::Restricted(_) => 1,
            DensityWork::Unrestricted { .. } => 2,
        }
    }
}

/// Destination of canonical Fock updates (`mu >= nu` always).
pub trait FockSink {
    fn add(&mut self, mu: usize, nu: usize, v: f64);

    /// Add one digested shell-pair block, `scale * (B + B^T)`, in
    /// canonical storage. Sinks that route by shell override this to pick
    /// the destination once per block.
    #[inline(always)]
    fn add_block(&mut self, blk: &FockBlock<'_>, scale: f64) {
        blk.fold(scale, |p, q, v| self.add(p, q, v));
    }
}

/// A plain lower-triangle sink over a square row-major buffer with known
/// dimension (avoids the sqrt in the `[f64]` impl on hot paths).
pub struct TriSink<'a> {
    pub buf: &'a mut [f64],
    pub n: usize,
}

impl FockSink for TriSink<'_> {
    #[inline]
    fn add(&mut self, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        self.buf[mu * self.n + nu] += v;
    }
}

/// Digest one *canonical* shell quartet `(si sj | sk sl)` (shell indices
/// `si >= sj`, `sk >= sl`, `pair(si,sj) >= pair(sk,sl)`) of a closed-shell
/// build into canonical Fock updates: `G = J(D) - K(D)/2`.
///
/// `quartet` is the ERI buffer laid out `[n_i][n_j][n_k][n_l]`; `d` the
/// (full, symmetric) density matrix; updates flow into `sink`. This is the
/// block digestion every builder runs, with a per-thread scratch.
#[allow(clippy::too_many_arguments)]
pub fn digest_quartet(
    basis: &BasisSet,
    si: usize,
    sj: usize,
    sk: usize,
    sl: usize,
    quartet: &[f64],
    d: &Mat,
    sink: &mut impl FockSink,
) {
    thread_local! {
        static SCRATCH: std::cell::RefCell<BlockDigest> = Default::default();
    }
    let mut dens = &DensityWork::Restricted(d);
    SCRATCH.with_borrow_mut(|dig| {
        dig.quartet(basis, [si, sj, sk, sl], quartet, &mut dens, std::slice::from_mut(sink))
    });
}

/// Apply the updates of one unique integral value over its ordered orbit,
/// with separate Coulomb and exchange scale factors: the element-level
/// oracle of digestion.
///
/// Each distinct ordered tuple `(a,b,c,e)` of the orbit of `(mu nu|lam sig)`
/// adds `cj * D_ce * X` to `F_ab` and `ck * X * D_be` to `F_ac`, canonical
/// (`row >= col`) emissions only. The closed-shell RHF digestion is
/// `(cj, ck) = (1, -1/2)`; UHF is `(1, 0)` on the total density plus
/// `(0, -1)` on each spin density. No builder calls this: the tests and
/// the benchmark replay check the block digestion against it,
/// and [`serial::build_jk_serial`] runs it over a whole build.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn digest_value_scaled(
    mu: usize,
    nu: usize,
    lam: usize,
    sig: usize,
    x: f64,
    d: &Mat,
    cj: f64,
    ck: f64,
    sink: &mut impl FockSink,
) {
    let orbit = [
        (mu, nu, lam, sig),
        (nu, mu, lam, sig),
        (mu, nu, sig, lam),
        (nu, mu, sig, lam),
        (lam, sig, mu, nu),
        (sig, lam, mu, nu),
        (lam, sig, nu, mu),
        (sig, lam, nu, mu),
    ];
    for (idx, &(a, b, c, e)) in orbit.iter().enumerate() {
        if orbit[..idx].contains(&(a, b, c, e)) {
            continue;
        }
        if cj != 0.0 && a >= b {
            sink.add(a, b, cj * d[(c, e)] * x);
        }
        if ck != 0.0 && a >= c {
            sink.add(a, c, ck * x * d[(b, e)]);
        }
    }
}

/// Mirror a lower-triangular accumulation into a full symmetric matrix.
pub fn tri_to_full(buf: &[f64], n: usize) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = buf[i * n + j];
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

/// Canonical shell-quartet enumeration: the last `l` of row `(i, j, k)`
/// of an `(i, j)` task (the task skeleton's quartet loops use it).
#[inline]
pub fn kl_bounds(i: usize, j: usize, k: usize) -> usize {
    // l runs over 0..=bound; canonical unique-quartet bound (see module
    // docs on the paper's typo).
    if k == i {
        j
    } else {
        k
    }
}

/// Triangular pair index of shells `i >= j` (the combined `ij` task index
/// of Algorithm 3).
#[inline]
pub fn pair_index(i: usize, j: usize) -> usize {
    debug_assert!(i >= j);
    i * (i + 1) / 2 + j
}

/// Inverse of [`pair_index`]: recover `(i, j)` from a combined index
/// (Algorithm 3 lines 11 and 21, "deduce I and J indices").
#[inline]
pub fn pair_decode(t: usize) -> (usize, usize) {
    let mut i = ((((8 * t + 1) as f64).sqrt() as usize).max(1) - 1) / 2;
    while (i + 1) * (i + 2) / 2 <= t {
        i += 1;
    }
    while i * (i + 1) / 2 > t {
        i -= 1;
    }
    (i, t - i * (i + 1) / 2)
}

/// Brute-force reference: build G (the two-electron Fock contribution)
/// from all ERIs with no symmetry exploitation. O(N^4) quartet evaluations
/// — tests only.
pub fn brute_force_g(basis: &BasisSet, d: &Mat) -> Mat {
    use phi_integrals::EriEngine;
    let n = basis.n_basis();
    let ns = basis.n_shells();
    let mut g = Mat::zeros(n, n);
    let mut engine = EriEngine::new();
    engine.prefactor_cutoff = 0.0;
    let mut buf = Vec::new();
    for si in 0..ns {
        for sj in 0..ns {
            for sk in 0..ns {
                for sl in 0..ns {
                    let (a, b, c, e) = (
                        &basis.shells[si],
                        &basis.shells[sj],
                        &basis.shells[sk],
                        &basis.shells[sl],
                    );
                    buf.clear();
                    buf.resize(
                        a.n_functions() * b.n_functions() * c.n_functions() * e.n_functions(),
                        0.0,
                    );
                    engine.shell_quartet(a, b, c, e, &mut buf);
                    for ia in 0..a.n_functions() {
                        for ib in 0..b.n_functions() {
                            for ic in 0..c.n_functions() {
                                for id in 0..e.n_functions() {
                                    let x = buf[((ia * b.n_functions() + ib) * c.n_functions()
                                        + ic)
                                        * e.n_functions()
                                        + id];
                                    let (mu, nu, lam, sig) = (
                                        a.first_bf + ia,
                                        b.first_bf + ib,
                                        c.first_bf + ic,
                                        e.first_bf + id,
                                    );
                                    // J
                                    g[(mu, nu)] += d[(lam, sig)] * x;
                                    // K with the RHF -1/2 factor.
                                    g[(mu, lam)] -= 0.5 * d[(nu, sig)] * x;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    fn test_density(n: usize) -> Mat {
        // A symmetric, not-too-structured density stand-in.
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = 0.3 + 0.1 * ((i * 7 + j * 3) % 5) as f64 - 0.05 * (i as f64 - j as f64);
                d[(i, j)] = v;
                d[(j, i)] = v;
            }
        }
        d
    }

    fn serial_g(b: &BasisSet, tau: f64, d: &Mat) -> Mat {
        let data = engine::FockData::build(b);
        serial::build_serial(&data.context(b, tau), &DensitySet::Restricted(d)).g
    }

    #[test]
    fn serial_digestion_matches_brute_force() {
        for (mol, basis) in [
            (small::hydrogen_molecule(1.4), BasisName::Sto3g),
            (small::water(), BasisName::Sto3g),
            (small::water(), BasisName::B631g),
        ] {
            let b = BasisSet::build(&mol, basis);
            let n = b.n_basis();
            let d = test_density(n);
            let want = brute_force_g(&b, &d);
            let got = serial_g(&b, 0.0, &d);
            assert!(
                got.max_abs_diff(&want) < 1e-10,
                "{:?}: digestion differs from brute force by {}",
                basis,
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn digestion_with_d_functions_matches_brute_force() {
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let n = b.n_basis();
        let d = test_density(n);
        let want = brute_force_g(&b, &d);
        let got = serial_g(&b, 0.0, &d);
        assert!(got.max_abs_diff(&want) < 1e-9, "differs by {}", got.max_abs_diff(&want));
    }

    #[test]
    fn screening_changes_g_only_within_tau_budget() {
        let b = BasisSet::build(&small::h_chain(6, 2.5), BasisName::Sto3g);
        let n = b.n_basis();
        let d = test_density(n);
        let exact = serial_g(&b, 0.0, &d);
        let screened = serial_g(&b, 1e-9, &d);
        // Dropped quartets are bounded by tau * |D| * multiplicity; stay
        // well under a conservative bound.
        assert!(exact.max_abs_diff(&screened) < 1e-6);
        let coarse = serial_g(&b, 1e-3, &d);
        assert!(exact.max_abs_diff(&coarse) > exact.max_abs_diff(&screened));
    }

    #[test]
    fn orbit_dedup_handles_all_coincidence_patterns() {
        // Exercise the closed-shell element oracle on every
        // index-coincidence pattern and compare against an equivalent
        // brute-force ordered expansion.
        let n = 4;
        let d = test_density(n);
        let cases = [
            (3, 2, 1, 0), // all distinct
            (2, 2, 1, 0), // i == j
            (3, 2, 1, 1), // k == l
            (2, 2, 1, 1), // both diagonal
            (3, 2, 3, 2), // pair equality
            (2, 2, 2, 2), // fully diagonal
            (3, 1, 3, 1),
        ];
        for (mu, nu, lam, sig) in cases {
            let x = 0.7;
            let mut got = vec![0.0; n * n];
            {
                let mut sink = TriSink { buf: &mut got, n };
                digest_value_scaled(mu, nu, lam, sig, x, &d, 1.0, -0.5, &mut sink);
            }
            // Reference: enumerate the orbit as a set, apply full updates.
            let mut orbit = vec![
                (mu, nu, lam, sig),
                (nu, mu, lam, sig),
                (mu, nu, sig, lam),
                (nu, mu, sig, lam),
                (lam, sig, mu, nu),
                (sig, lam, mu, nu),
                (lam, sig, nu, mu),
                (sig, lam, nu, mu),
            ];
            orbit.sort_unstable();
            orbit.dedup();
            let mut want_full = Mat::zeros(n, n);
            for &(a, b, c, e) in &orbit {
                want_full[(a, b)] += d[(c, e)] * x;
                want_full[(a, c)] -= 0.5 * x * d[(b, e)];
            }
            // Compare lower triangles (the sink only receives canonical).
            for r in 0..n {
                for c in 0..=r {
                    assert!(
                        (got[r * n + c] - want_full[(r, c)]).abs() < 1e-13,
                        "case {:?} element ({r},{c}): {} vs {}",
                        (mu, nu, lam, sig),
                        got[r * n + c],
                        want_full[(r, c)]
                    );
                }
            }
        }
    }

    /// One shell of every width on three centers: s (1), SP (4), p (3),
    /// d (6), a synthetic f (10) and a second s — 25 functions. Every
    /// canonical quartet of six shells covers each shell-coincidence
    /// pattern.
    fn mixed_width_basis() -> BasisSet {
        use phi_chem::basis::AngBlock;
        let shell = |center: [f64; 3], exps: &[f64], ls: &[usize]| phi_chem::Shell {
            atom: 0,
            center,
            exps: exps.to_vec(),
            blocks: ls
                .iter()
                .map(|&l| AngBlock { l, coefs: exps.iter().map(|e| 0.4 + 0.1 * e).collect() })
                .collect(),
            first_bf: 0,
        };
        let (a, b, c) = ([0.0, 0.0, 0.0], [0.0, 0.3, 1.4], [0.9, 0.7, -0.5]);
        BasisSet::from_shells(
            BasisName::B631gd,
            vec![
                shell(a, &[3.4, 0.6], &[0]),
                shell(a, &[1.1, 0.3], &[0, 1]),
                shell(b, &[0.9], &[1]),
                shell(b, &[0.8], &[2]),
                shell(c, &[0.7], &[3]),
                shell(c, &[0.5], &[0]),
            ],
        )
    }

    /// Every canonical quartet `[i, j, k, l]` of `b` with its ERI block.
    fn all_quartets(b: &BasisSet) -> Vec<([usize; 4], Vec<f64>)> {
        let mut engine = phi_integrals::EriEngine::new();
        engine.prefactor_cutoff = 0.0;
        let mut out = Vec::new();
        for i in 0..b.n_shells() {
            for j in 0..=i {
                for k in 0..=i {
                    for l in 0..=kl_bounds(i, j, k) {
                        let sh = [i, j, k, l].map(|s| &b.shells[s]);
                        let mut eri = vec![0.0; sh.iter().map(|s| s.n_functions()).product()];
                        engine.shell_quartet(sh[0], sh[1], sh[2], sh[3], &mut eri);
                        out.push(([i, j, k, l], eri));
                    }
                }
            }
        }
        out
    }

    /// The element oracle for one quartet: each nonzero symmetry-unique
    /// integral through `digest_value_scaled`.
    fn oracle_quartet(
        b: &BasisSet,
        [i, j, k, l]: [usize; 4],
        eri: &[f64],
        d: &Mat,
        (cj, ck): (f64, f64),
        sink: &mut TriSink<'_>,
    ) {
        let sh = [i, j, k, l].map(|s| &b.shells[s]);
        let [ni, nj, nk, nl] = sh.map(|s| s.n_functions());
        for fa in 0..ni {
            let mu = sh[0].first_bf + fa;
            for fb in 0..if i == j { fa + 1 } else { nj } {
                let nu = sh[1].first_bf + fb;
                for fc in 0..nk {
                    let lam = sh[2].first_bf + fc;
                    for fd in 0..if k == l { fc + 1 } else { nl } {
                        let sig = sh[3].first_bf + fd;
                        let before = lam * (lam + 1) / 2 + sig > mu * (mu + 1) / 2 + nu;
                        let x = eri[((fa * nj + fb) * nk + fc) * nl + fd];
                        if !(i == k && j == l && before) && x != 0.0 {
                            digest_value_scaled(mu, nu, lam, sig, x, d, cj, ck, sink);
                        }
                    }
                }
            }
        }
    }

    /// Per-channel oracle `G` of one quartet: RHF `J(D) - K(D)/2`, UHF
    /// `J(D_a + D_b) - K(D_s)`.
    fn oracle_channels(
        b: &BasisSet,
        q: [usize; 4],
        eri: &[f64],
        dens: &DensitySet<'_>,
    ) -> Vec<Mat> {
        let n = b.n_basis();
        let digest = |d: &Mat, f: (f64, f64)| {
            let mut buf = vec![0.0; n * n];
            oracle_quartet(b, q, eri, d, f, &mut TriSink { buf: &mut buf, n });
            tri_to_full(&buf, n)
        };
        match *dens {
            DensitySet::Restricted(d) => vec![digest(d, (1.0, -0.5))],
            DensitySet::Unrestricted { alpha, beta } => {
                let j = digest(&alpha.add(beta), (1.0, 0.0));
                vec![j.add(&digest(alpha, (0.0, -1.0))), j.add(&digest(beta, (0.0, -1.0)))]
            }
        }
    }

    /// The block digestion of one quartet through the replicated reader
    /// and writer (the one every replicated builder runs).
    fn block_replicated(
        b: &BasisSet,
        q: [usize; 4],
        eri: &[f64],
        dens: &DensitySet<'_>,
    ) -> Vec<Mat> {
        let work = dens.prepare();
        let mut fock = matrix::ReplicatedFock::new(work.n_channels(), b.n_basis());
        let mut sinks = fock.sinks();
        BlockDigest::default().quartet(b, q, eri, &mut &work, &mut sinks[..]);
        drop(sinks);
        fock.into_mats()
    }

    /// The block digestion of one quartet through the sharded reader and
    /// writer, as a one-quartet task of the sharded builder.
    fn block_sharded(b: &BasisSet, q: [usize; 4], eri: &[f64], dens: &DensitySet<'_>) -> Vec<Mat> {
        use matrix::{gather_tri, scatter_density, tri_len, RowShardFock, ShardDensity};
        let n = b.n_basis();
        let work = dens.prepare();
        let d_wins = scatter_density(&work, n, 2, phi_dmpi::DdiMode::Mpi3OneSided);
        let f_wins: Vec<phi_dmpi::DistributedArray> = (0..work.n_channels())
            .map(|_| phi_dmpi::DistributedArray::new(tri_len(n), 2))
            .collect();
        let mut fock = RowShardFock::new(&f_wins, b, 0);
        fock.begin_task(q[0], q[1]);
        fock.begin_k(q[2]);
        let mut reader = ShardDensity::new(&d_wins, n, b.max_shell_functions(), 0);
        BlockDigest::default().quartet(b, q, eri, &mut reader, &mut fock);
        fock.end_task();
        fock.flush();
        f_wins.iter().map(|w| gather_tri(w, n)).collect()
    }

    #[test]
    fn block_digestion_matches_element_oracle_on_every_pattern_width_and_backend() {
        // Real ERIs of s, SP, p, d and f shells; every canonical quartet
        // separately, so a failure names its quartet.
        let b = mixed_width_basis();
        let n = b.n_basis();
        assert_eq!(n, 25);
        let d_a = test_density(n);
        let d_b = Mat::from_fn(n, n, |p, q| 0.2 / (1.0 + (p as f64 - q as f64).abs()));
        let quartets = all_quartets(&b);
        let mut patterns = [0usize; 5];
        for (q, eri) in &quartets {
            let [i, j, k, l] = *q;
            let hits =
                [i == j, k == l, i == k && j == l, i == k && j != l, i == j && j == k && k == l];
            for (count, hit) in patterns.iter_mut().zip(hits) {
                *count += usize::from(hit);
            }
            for dens in
                [DensitySet::Restricted(&d_a), DensitySet::Unrestricted { alpha: &d_a, beta: &d_b }]
            {
                let want = oracle_channels(&b, *q, eri, &dens);
                let scale =
                    want.iter().flat_map(|m| m.as_slice()).fold(0.0f64, |m, v| m.max(v.abs()));
                for (backend, got) in [
                    ("replicated", block_replicated(&b, *q, eri, &dens)),
                    ("sharded", block_sharded(&b, *q, eri, &dens)),
                ] {
                    for (ch, (g, w)) in got.iter().zip(&want).enumerate() {
                        let gap = g.max_abs_diff(w);
                        assert!(
                            gap <= 1e-13 * scale,
                            "{backend} {q:?} {} channel {ch}: gap {gap:e}, max |G| {scale:e}",
                            dens.n_channels()
                        );
                    }
                }
            }
        }
        assert!(patterns.iter().all(|&c| c > 0), "coincidence patterns covered: {patterns:?}");
    }

    /// A sink that only counts canonical updates.
    struct CountingSink(usize);

    impl FockSink for CountingSink {
        fn add(&mut self, _: usize, _: usize, _: f64) {
            self.0 += 1;
        }
    }

    #[test]
    fn block_digestion_emits_each_dd_dd_block_element_once_per_channel() {
        // Two carbons in 6-31G(d): shells 3 and 7 are the d shells.
        let b = BasisSet::build(&small::c_ring(2, 1.3), BasisName::B631gd);
        let d_shells: Vec<usize> =
            (0..b.n_shells()).filter(|&s| b.shells[s].n_functions() == 6).collect();
        assert_eq!(d_shells.len(), 2);
        let (hi, lo) = (d_shells[1], d_shells[0]);
        let n = b.n_basis();
        let d_a = test_density(n);
        let mut d_b = test_density(n);
        d_b.scale(0.5);
        let mut engine = phi_integrals::EriEngine::new();
        for q in [[hi, lo, hi, lo], [hi, hi, lo, lo], [hi, lo, lo, lo], [hi, hi, hi, hi]] {
            let sh = q.map(|s| &b.shells[s]);
            let mut eri = vec![0.0; 6 * 6 * 6 * 6];
            engine.shell_quartet(sh[0], sh[1], sh[2], sh[3], &mut eri);
            // ni nj + nk nl + ni nk + ni nl + nj nk + nj nl
            let bound = 6 * 36;
            let mut rhf = CountingSink(0);
            digest_quartet(&b, q[0], q[1], q[2], q[3], &eri, &d_a, &mut rhf);
            assert!(rhf.0 <= bound, "{q:?} RHF: {} updates > {bound}", rhf.0);
            let work = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b }.prepare();
            let mut uhf = [CountingSink(0), CountingSink(0)];
            BlockDigest::default().quartet(&b, q, &eri, &mut &work, &mut uhf[..]);
            for (ch, s) in uhf.iter().enumerate() {
                assert!(s.0 <= bound, "{q:?} UHF channel {ch}: {} updates > {bound}", s.0);
            }
        }
    }

    #[test]
    fn pair_encode_decode_roundtrip() {
        let mut t = 0;
        for i in 0..60 {
            for j in 0..=i {
                assert_eq!(pair_index(i, j), t);
                assert_eq!(pair_decode(t), (i, j));
                t += 1;
            }
        }
        // A large index as well.
        let big = pair_index(8063, 4000);
        assert_eq!(pair_decode(big), (8063, 4000));
    }

    #[test]
    fn tri_to_full_mirrors() {
        let buf = vec![1.0, 0.0, 2.0, 3.0];
        let m = tri_to_full(&buf, 2);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 1)], 3.0);
    }
}
