//! Two-electron Fock matrix construction.
//!
//! Shared machinery lives here: the canonical shell-quartet enumeration and
//! the *digestion* of one computed quartet into Fock matrix updates — the
//! paper's equations (2a)–(2f). Every algorithm then differs only in how
//! quartets are distributed over ranks/threads and where updates land,
//! which is exactly the paper's framing.
//!
//! Digestion works on the ordered-orbit principle: a unique integral
//! `(ij|kl)` stands for up to eight ordered index tuples; each distinct
//! ordered tuple `(a,b,c,d)` contributes a Coulomb update
//! `F_ab += D_cd * X` and an exchange update `F_ac -= X/2 * D_bd`
//! (closed-shell RHF). Only canonical (`row >= col`) updates are emitted —
//! mirror updates are redundant by symmetry — matching GAMESS's triangular
//! Fock storage.
//!
//! Note: Algorithm 1/2 in the paper print the inner loop bound as
//! `k==i ? lmax <- k : lmax <- j`; the canonical unique-quartet bound
//! (which the text's "symmetry-unique quartets" requires, and which GAMESS
//! implements) is `k==i ? lmax <- j : lmax <- k`. We implement the
//! canonical bound and note the typo here.

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
/// `si >= sj`, `sk >= sl`, `pair(si,sj) >= pair(sk,sl)`) into Fock updates.
///
/// `quartet` is the ERI buffer laid out `[n_i][n_j][n_k][n_l]`; `d` the
/// (full, symmetric) density matrix; updates flow into `sink`.
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
    let sh_i = &basis.shells[si];
    let sh_j = &basis.shells[sj];
    let sh_k = &basis.shells[sk];
    let sh_l = &basis.shells[sl];
    let (ni, nj, nk, nl) =
        (sh_i.n_functions(), sh_j.n_functions(), sh_k.n_functions(), sh_l.n_functions());
    let (fi, fj, fk, fl) = (sh_i.first_bf, sh_j.first_bf, sh_k.first_bf, sh_l.first_bf);
    let same_ij = si == sj;
    let same_kl = sk == sl;
    let same_pair = si == sk && sj == sl;

    for a in 0..ni {
        let mu = fi + a;
        let b_hi = if same_ij { a + 1 } else { nj };
        for b in 0..b_hi {
            let nu = fj + b;
            let munu = mu * (mu + 1) / 2 + nu;
            for c in 0..nk {
                let lam = fk + c;
                let d_hi = if same_kl { c + 1 } else { nl };
                for dd in 0..d_hi {
                    let sig = fl + dd;
                    if same_pair && lam * (lam + 1) / 2 + sig > munu {
                        continue;
                    }
                    let x = quartet[((a * nj + b) * nk + c) * nl + dd];
                    if x == 0.0 {
                        continue;
                    }
                    digest_value(mu, nu, lam, sig, x, d, sink);
                }
            }
        }
    }
}

/// Digest one canonical shell quartet into every spin channel of a
/// prepared [`DensityWork`], one sink per channel.
///
/// Restricted input routes through the monomorphic RHF fast path
/// ([`digest_quartet`]) so the closed-shell hot loop is byte-for-byte the
/// pre-engine code; unrestricted input walks the same orbit once, reading
/// the total density for Coulomb and the per-spin densities for exchange.
#[allow(clippy::too_many_arguments)]
pub(crate) fn digest_quartet_dens<S: FockSink>(
    basis: &BasisSet,
    si: usize,
    sj: usize,
    sk: usize,
    sl: usize,
    quartet: &[f64],
    dens: &DensityWork<'_>,
    sinks: &mut [S],
) {
    match dens {
        DensityWork::Restricted(d) => {
            digest_quartet(basis, si, sj, sk, sl, quartet, d, &mut sinks[0])
        }
        DensityWork::Unrestricted { total, alpha, beta } => {
            let (sa, sb) = sinks.split_at_mut(1);
            digest_quartet_uhf(
                basis, si, sj, sk, sl, quartet, total, alpha, beta, &mut sa[0], &mut sb[0],
            )
        }
    }
}

/// UHF digestion of one canonical quartet: per unique integral,
/// `G_s[ab] += D_t[ce] * X` (Coulomb, both spins) and
/// `G_s[ac] -= X * D_s[be]` (exchange, per spin, full factor — no RHF 1/2).
#[allow(clippy::too_many_arguments)]
fn digest_quartet_uhf<SA: FockSink, SB: FockSink>(
    basis: &BasisSet,
    si: usize,
    sj: usize,
    sk: usize,
    sl: usize,
    quartet: &[f64],
    d_total: &Mat,
    d_alpha: &Mat,
    d_beta: &Mat,
    sink_a: &mut SA,
    sink_b: &mut SB,
) {
    let sh_i = &basis.shells[si];
    let sh_j = &basis.shells[sj];
    let sh_k = &basis.shells[sk];
    let sh_l = &basis.shells[sl];
    let (ni, nj, nk, nl) =
        (sh_i.n_functions(), sh_j.n_functions(), sh_k.n_functions(), sh_l.n_functions());
    let (fi, fj, fk, fl) = (sh_i.first_bf, sh_j.first_bf, sh_k.first_bf, sh_l.first_bf);
    let same_ij = si == sj;
    let same_kl = sk == sl;
    let same_pair = si == sk && sj == sl;

    for a in 0..ni {
        let mu = fi + a;
        let b_hi = if same_ij { a + 1 } else { nj };
        for b in 0..b_hi {
            let nu = fj + b;
            let munu = mu * (mu + 1) / 2 + nu;
            for c in 0..nk {
                let lam = fk + c;
                let d_hi = if same_kl { c + 1 } else { nl };
                for dd in 0..d_hi {
                    let sig = fl + dd;
                    if same_pair && lam * (lam + 1) / 2 + sig > munu {
                        continue;
                    }
                    let x = quartet[((a * nj + b) * nk + c) * nl + dd];
                    if x == 0.0 {
                        continue;
                    }
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
                    for (idx, &(p, q, r, s)) in orbit.iter().enumerate() {
                        if orbit[..idx].contains(&(p, q, r, s)) {
                            continue;
                        }
                        if p >= q {
                            let j = d_total[(r, s)] * x;
                            sink_a.add(p, q, j);
                            sink_b.add(p, q, j);
                        }
                        if p >= r {
                            sink_a.add(p, r, -x * d_alpha[(q, s)]);
                            sink_b.add(p, r, -x * d_beta[(q, s)]);
                        }
                    }
                }
            }
        }
    }
}

/// Apply the updates of one unique integral value over its ordered orbit,
/// with separate Coulomb and exchange scale factors.
///
/// The closed-shell RHF digestion is `(cj, ck) = (1, -1/2)`; the
/// open-shell builders (UHF) recombine passes with other factors —
/// exactly the generalization the paper's conclusion points at ("UHF,
/// GVB, DFT, CPHF all have this structure").
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

/// Apply the updates of one unique integral value over its ordered orbit.
#[inline]
pub fn digest_value(
    mu: usize,
    nu: usize,
    lam: usize,
    sig: usize,
    x: f64,
    d: &Mat,
    sink: &mut impl FockSink,
) {
    // The eight ordered representatives of the orbit.
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
        // Skip duplicates arising from index coincidences.
        if orbit[..idx].contains(&(a, b, c, e)) {
            continue;
        }
        // Coulomb: F_ab += D_ce * X  (canonical emission only).
        if a >= b {
            sink.add(a, b, d[(c, e)] * x);
        }
        // Exchange: F_ac -= X/2 * D_be (canonical emission only).
        if a >= c {
            sink.add(a, c, -0.5 * x * d[(b, e)]);
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
        // Exercise digest_value on every index-coincidence pattern and
        // compare against an equivalent brute-force ordered expansion.
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
                digest_value(mu, nu, lam, sig, x, &d, &mut sink);
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
