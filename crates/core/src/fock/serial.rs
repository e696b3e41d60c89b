//! Serial reference Fock build: the canonical quartet loops of Algorithm 1
//! on a single thread, no MPI, no OpenMP. Ground truth for the parallel
//! builders and the baseline for workload statistics.

use super::digest::BlockDigest;
use super::engine::FockContext;
use super::matrix::ReplicatedFock;
use super::skeleton::Worker;
use super::{digest_value_scaled, DensitySet, GBuild, TriSink};
use phi_chem::BasisSet;
use phi_integrals::{Screening, ShellPairs};
use phi_linalg::Mat;
use std::time::Instant;

/// Build the two-electron matrices for a [`DensitySet`] with the serial
/// canonical loops: `G(D)` for a restricted set, `G_alpha`/`G_beta` for an
/// unrestricted one — every surviving ERI evaluated once and digested into
/// every spin channel.
pub fn build_serial(ctx: &FockContext<'_>, dens: &DensitySet<'_>) -> GBuild {
    // One span and a few counters per build — nothing per quartet, so the
    // serial path carries essentially zero tracing overhead (asserted by
    // benches/trace_overhead.rs).
    let _span = phi_trace::span("fock.build");
    let start = Instant::now();
    let basis = ctx.basis;
    let work = dens.prepare();
    let mut fock = ReplicatedFock::new(work.n_channels(), basis.n_basis());
    let mut w = Worker::new(ctx);
    {
        let mut sinks = fock.sinks();
        let (mut dig, mut src) = (BlockDigest::default(), &work);
        for i in 0..basis.n_shells() {
            for j in 0..=i {
                w.ij_task(i, j, |k, l, eri| {
                    dig.quartet(basis, [i, j, k, l], eri, &mut src, &mut sinks[..])
                });
            }
        }
    }
    let mut stats = w.finish(0);
    // Per-class dispatch counters (serial reference only — the parallel
    // builders emit the aggregate; see trace_invariants.rs).
    for (ci, &count) in stats.eri_class_quartets.iter().enumerate() {
        if count > 0 {
            phi_trace::counter(phi_integrals::CLASS_TRACE_NAMES[ci], count);
        }
    }
    let mats = fock.into_mats();
    stats.seconds = start.elapsed().as_secs_f64();
    GBuild::from_channels(mats, stats)
}

/// Build a generalized two-electron matrix
/// `M_{mu nu} = cj * J(D)_{mu nu} + |ck| * sign(ck) * K(D)_{mu nu}`
/// with the serial canonical loops, digesting one integral at a time
/// through [`digest_value_scaled`]: the element-level oracle of a whole
/// build. `(1, -0.5)` recovers the RHF `G`; `(1, 0)` gives pure Coulomb,
/// `(0, -1)` gives `-K` — the building blocks of the UHF spin Fock
/// matrices. The tests check the block digestion every builder runs
/// against it.
pub fn build_jk_serial(
    basis: &BasisSet,
    pairs: &ShellPairs,
    screening: &Screening,
    tau: f64,
    d: &Mat,
    cj: f64,
    ck: f64,
) -> GBuild {
    let start = Instant::now();
    let n = basis.n_basis();
    let mut buf = vec![0.0; n * n];
    let mut w = Worker::new(&FockContext::new(basis, pairs, screening, tau));
    let mut sink = TriSink { buf: &mut buf, n };
    for i in 0..basis.n_shells() {
        for j in 0..=i {
            w.ij_task(i, j, |k, l, eri| {
                // Digest with custom J/K factors over canonical function
                // quartets.
                let sh = [&basis.shells[i], &basis.shells[j], &basis.shells[k], &basis.shells[l]];
                let (ni, nj, nk, nl) = (
                    sh[0].n_functions(),
                    sh[1].n_functions(),
                    sh[2].n_functions(),
                    sh[3].n_functions(),
                );
                let same_ij = i == j;
                let same_kl = k == l;
                let same_pair = i == k && j == l;
                for fa in 0..ni {
                    let mu = sh[0].first_bf + fa;
                    let b_hi = if same_ij { fa + 1 } else { nj };
                    for fb in 0..b_hi {
                        let nu = sh[1].first_bf + fb;
                        let munu = mu * (mu + 1) / 2 + nu;
                        for fc in 0..nk {
                            let lam = sh[2].first_bf + fc;
                            let d_hi = if same_kl { fc + 1 } else { nl };
                            for fd in 0..d_hi {
                                let sig = sh[3].first_bf + fd;
                                if same_pair && lam * (lam + 1) / 2 + sig > munu {
                                    continue;
                                }
                                let x = eri[((fa * nj + fb) * nk + fc) * nl + fd];
                                if x != 0.0 {
                                    digest_value_scaled(mu, nu, lam, sig, x, d, cj, ck, &mut sink);
                                }
                            }
                        }
                    }
                }
            });
        }
    }
    let mut stats = w.finish(0);
    stats.seconds = start.elapsed().as_secs_f64();
    GBuild::restricted(super::tri_to_full(&buf, n), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    fn pairs_and_screening(b: &BasisSet) -> (ShellPairs, Screening) {
        let pairs = ShellPairs::build(b);
        let s = Screening::from_pairs(b, &pairs);
        (pairs, s)
    }

    #[test]
    fn g_is_symmetric() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let n = b.n_basis();
        let mut d = Mat::identity(n);
        d.scale(0.4);
        let (pairs, s) = pairs_and_screening(&b);
        let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
        let g = build_serial(&ctx, &DensitySet::Restricted(&d)).g;
        assert!(g.is_symmetric(1e-12));
    }

    #[test]
    fn g_is_linear_in_density() {
        let b = BasisSet::build(&small::hydrogen_molecule(1.4), BasisName::Sto3g);
        let n = b.n_basis();
        let (pairs, s) = pairs_and_screening(&b);
        let d1 = Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.2 });
        let mut d2 = d1.clone();
        d2.scale(3.0);
        let ctx = FockContext::new(&b, &pairs, &s, 0.0);
        let g1 = build_serial(&ctx, &DensitySet::Restricted(&d1)).g;
        let g2 = build_serial(&ctx, &DensitySet::Restricted(&d2)).g;
        let mut g1x3 = g1.clone();
        g1x3.scale(3.0);
        assert!(g2.max_abs_diff(&g1x3) < 1e-10);
    }

    #[test]
    fn stats_are_populated() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let n = b.n_basis();
        let d = Mat::identity(n);
        let (pairs, s) = pairs_and_screening(&b);
        let ctx = FockContext::new(&b, &pairs, &s, 1e-10);
        let out = build_serial(&ctx, &DensitySet::Restricted(&d));
        let ns = b.n_shells();
        // Total canonical quartets = P(P+1)/2 with P = ns(ns+1)/2.
        let p = ns * (ns + 1) / 2;
        assert_eq!(
            out.stats.quartets_computed + out.stats.quartets_screened,
            (p * (p + 1) / 2) as u64
        );
        assert!(out.stats.quartets_computed > 0);
        assert!(out.stats.prim_quartets > 0);
    }

    #[test]
    fn unrestricted_channels_match_jk_recombination() {
        // The single-pass UHF digestion must reproduce the three-pass
        // reference: G_s = J(D_a + D_b) - K(D_s).
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let n = b.n_basis();
        let (pairs, s) = pairs_and_screening(&b);
        let d_a = Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.15 + ((i * 3 + j) % 5) as f64 * 0.06
        });
        let d_b = Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.1 + ((i + 2 * j) % 7) as f64 * 0.04
        });
        let d_t = d_a.add(&d_b);
        let ctx = FockContext::new(&b, &pairs, &s, 0.0);
        let got = build_serial(&ctx, &DensitySet::Unrestricted { alpha: &d_a, beta: &d_b });
        let j_t = build_jk_serial(&b, &pairs, &s, 0.0, &d_t, 1.0, 0.0).g;
        let k_a = build_jk_serial(&b, &pairs, &s, 0.0, &d_a, 0.0, -1.0).g;
        let k_b = build_jk_serial(&b, &pairs, &s, 0.0, &d_b, 0.0, -1.0).g;
        let want_a = j_t.add(&k_a);
        let want_b = j_t.add(&k_b);
        let got_b = got.g_beta.expect("unrestricted build has a beta channel");
        assert!(got.g.max_abs_diff(&want_a) < 1e-11, "alpha {}", got.g.max_abs_diff(&want_a));
        assert!(got_b.max_abs_diff(&want_b) < 1e-11, "beta {}", got_b.max_abs_diff(&want_b));
    }
}
