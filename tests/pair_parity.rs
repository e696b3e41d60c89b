//! Regression tests for the persistent shell-pair dataset: sharing one
//! `ShellPairs` across the screening build and every Fock algorithm must
//! not change a single screening decision, and must leave the Fock numbers
//! untouched up to floating-point summation order.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext};
use phi_scf::integrals::{Screening, ShellPairs};
use phi_scf::linalg::Mat;

fn density(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.2 + ((i * 5 + j * 3) % 7) as f64 * 0.09
    })
}

#[test]
fn pair_based_screening_is_bitwise_identical_to_legacy_compute() {
    // `Screening::compute` (per-call pair rebuild) and the pair-cached
    // Schwarz build route the same diagonal quartets through the same
    // engine, so with pruning disabled the stored f32 bounds must agree
    // bit for bit — and with them, every survivor decision.
    for (mol, basis) in [
        (small::water(), BasisName::B631gd),
        (small::h_chain(8, 3.0), BasisName::Sto3g),
        (small::c_ring(6, 1.39), BasisName::B631g),
    ] {
        let b = BasisSet::build(&mol, basis);
        let legacy = Screening::compute(&b);
        let pairs = ShellPairs::build_with(&b, 0.0);
        let cached = Screening::from_pairs(&b, &pairs);
        let ns = b.n_shells();
        for i in 0..ns {
            for j in 0..=i {
                assert_eq!(
                    legacy.q(i, j).to_bits(),
                    cached.q(i, j).to_bits(),
                    "{basis:?}: Q({i},{j}) differs: {} vs {}",
                    legacy.q(i, j),
                    cached.q(i, j)
                );
            }
        }
        assert_eq!(legacy.q_max().to_bits(), cached.q_max().to_bits());
        // Survivor decisions follow from the bounds; spot-check anyway over
        // every canonical quartet at two thresholds.
        for tau in [1e-6, 1e-10] {
            for i in 0..ns {
                for j in 0..=i {
                    for k in 0..=i {
                        for l in 0..=k {
                            assert_eq!(
                                legacy.survives(i, j, k, l, tau),
                                cached.survives(i, j, k, l, tau)
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn default_pruning_does_not_change_survivor_counts_on_compact_systems() {
    // The default primitive-pair cutoff (1e-16) only drops pairs whose
    // prefactor bound is far below every screening threshold; on a compact
    // molecule the surviving-quartet census must be unchanged.
    let b = BasisSet::build(&small::water(), BasisName::B631gd);
    let legacy = Screening::compute(&b);
    let pairs = ShellPairs::build(&b);
    let cached = Screening::from_pairs(&b, &pairs);
    let tau = 1e-10;
    let ns = b.n_shells();
    let (mut l_count, mut c_count) = (0u64, 0u64);
    for i in 0..ns {
        for j in 0..=i {
            for k in 0..=i {
                for l in 0..=k {
                    l_count += legacy.survives(i, j, k, l, tau) as u64;
                    c_count += cached.survives(i, j, k, l, tau) as u64;
                }
            }
        }
    }
    assert_eq!(l_count, c_count);
    assert!(l_count > 0);
}

#[test]
fn all_parallel_builders_share_pairs_and_match_serial() {
    // One dataset, five algorithms: survivor counts must be exactly the
    // serial count, and the assembled G must agree up to floating-point
    // summation order (the parallel reductions add the same contributions
    // in a different order — observed differences are O(1e-15)).
    let b = BasisSet::build(&small::water(), BasisName::B631g);
    let pairs = ShellPairs::build(&b);
    let s = Screening::from_pairs(&b, &pairs);
    let d = density(b.n_basis());
    let tau = 1e-10;
    let ctx = FockContext::new(&b, &pairs, &s, tau);
    let dens = DensitySet::Restricted(&d);

    let want = FockAlgorithm::Serial.builder().build(&ctx, &dens);
    for alg in [
        FockAlgorithm::MpiOnly { n_ranks: 3 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 2 },
    ] {
        let (name, got) = (alg.label(), alg.builder().build(&ctx, &dens));
        assert_eq!(
            got.stats.quartets_computed, want.stats.quartets_computed,
            "{name}: computed-quartet census drifted from serial"
        );
        assert!(
            got.g.max_abs_diff(&want.g) < 1e-12,
            "{name}: G differs from serial by {}",
            got.g.max_abs_diff(&want.g)
        );
    }
}

#[test]
fn shared_pairs_memory_is_charged_per_rank() {
    // Each rank charges the (shared, read-only) dataset once; the tracked
    // peak must therefore grow by at least pairs.bytes() per extra rank and
    // the dataset must never be replicated per thread.
    let b = BasisSet::build(&small::water(), BasisName::Sto3g);
    let pairs = ShellPairs::build(&b);
    let s = Screening::from_pairs(&b, &pairs);
    let d = density(b.n_basis());
    let ctx = FockContext::new(&b, &pairs, &s, 1e-10);
    let build = |alg: FockAlgorithm| alg.builder().build(&ctx, &DensitySet::Restricted(&d));
    let two_threads = build(FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 });
    let four_threads = build(FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 4 });
    let n = b.n_basis();
    // Thread scaling adds only the private Fock copies (n^2 words each),
    // not extra pair-dataset copies.
    let delta = four_threads.stats.memory_total_peak - two_threads.stats.memory_total_peak;
    assert_eq!(delta, 2 * n * n * std::mem::size_of::<f64>());
    // Rank scaling replicates the dataset.
    let one_rank = build(FockAlgorithm::MpiOnly { n_ranks: 1 });
    let two_ranks = build(FockAlgorithm::MpiOnly { n_ranks: 2 });
    let rank_delta = two_ranks.stats.memory_total_peak - one_rank.stats.memory_total_peak;
    assert!(rank_delta >= pairs.bytes());
}
