//! Fully sharded Fock build: density *and* Fock live in tri-packed DDI
//! windows striped over ranks — no rank ever holds a full `N x N` matrix.
//!
//! This is the step past the paper's ~200x memory headline: Algorithm 3
//! stopped replicating Fock per *thread*; the HONPAS-lineage distributed
//! codes (and GAMESS's distributed-data SCF) stop replicating density and
//! Fock per *rank*. Each rank owns a `~N(N+1)/2 / R` stripe of every
//! window plus O(N) buffers ([`ShardBudget`]):
//!
//! * reads go through [`ShardDensity`] — on-demand row `get`s into a
//!   direct-indexed FIFO row cache, one cached row per density block row
//!   of a quartet;
//! * writes accumulate in [`RowShardFock`]'s dense row blocks for shells
//!   i, j and k of the current task — Algorithm 3's `FI`/`FJ` write
//!   pattern — flushed as one `acc` per block row when k advances and at
//!   task end.
//!
//! Durability reuses the distributed builder's contract: windows are
//! created *outside* the world so flushed contributions survive rank
//! deaths, leases are [`LeaseMode::Durable`], and under fault injection
//! every task is flushed before it completes (kills only fire inside
//! `lease_next`, so a dead rank dies holding an unstarted task — never
//! stranding flushed-but-incomplete or completed-but-unflushed work).

use super::digest::BlockDigest;
use super::engine::FockContext;
use super::matrix::{
    gather_tri, scatter_density, tri_len, RowShardFock, ShardBudget, ShardDensity,
};
use super::skeleton::{lease_loop, run_ranks, window, Charge, Worker};
use super::{pair_decode, DensitySet, GBuild};
use phi_dmpi::{DdiMode, DistributedArray, LeaseMode, WorldConfig};

/// Build the two-electron matrices for `dens` with DLB over `(i, j)`
/// pairs, sharded density reads and sharded Fock accumulation.
pub(crate) fn build(
    ctx: &FockContext<'_>,
    dens: &DensitySet<'_>,
    cfg: WorldConfig,
    mode: DdiMode,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let ns = basis.n_shells();
    let n_ranks = cfg.n_ranks;
    let work = dens.prepare();
    let nch = work.n_channels();

    // All windows are created outside the world: the density scatter is
    // the driver's job (it already owns the full matrices), and the Fock
    // windows must survive rank deaths for the durable-lease contract.
    let wins: Vec<DistributedArray> = scatter_density(&work, n, n_ranks, mode)
        .into_iter()
        .chain((0..nch).map(|_| DistributedArray::new_with_mode(tri_len(n), n_ranks, mode)))
        .map(|w| window(w, &cfg))
        .collect();
    let (d_wins, f_wins) = wins.split_at(wins.len() - nch);
    // Per-rank resident bytes: this rank's owned stripe of every window
    // plus the O(N) buffers. Nothing here scales as a full N x N matrix.
    let budget = ShardBudget::new(n, basis.max_shell_functions(), n_ranks, nch);

    let (_, stats) = run_ranks(cfg, &wins, |rank| {
        let mut reader = ShardDensity::new(d_wins, n, basis.max_shell_functions(), rank.rank());
        let mut fock = RowShardFock::new(f_wins, basis, rank.rank());
        debug_assert_eq!(budget.buffer_bytes, reader.resident_bytes() + fock.resident_bytes());
        let _charge = Charge::new(rank, budget.total() + ctx.pairs.bytes());

        let fault_mode = rank.faults_enabled();
        let mut w = Worker::new(ctx);
        let mut dig = BlockDigest::default();
        let alive = lease_loop(rank, ns * (ns + 1) / 2, LeaseMode::Durable, &mut w, |w, t| {
            let (i, j) = pair_decode(t);
            fock.begin_task(i, j);
            for k in 0..=i {
                fock.begin_k(k);
                w.l_row(i, j, k, &mut |k, l, eri| {
                    dig.quartet(basis, [i, j, k, l], eri, &mut reader, &mut fock)
                });
            }
            fock.end_task();
            if fault_mode {
                // Flush-then-complete: this task's contributions are
                // durable in the windows before the lease completes.
                fock.flush();
            }
        });
        if alive {
            fock.flush();
            // Every live rank's accumulates must land before anyone
            // reads; dead ranks have deregistered.
            let _ = rank.ft_barrier();
        }
        (None::<()>, w.finish(fock.flushes))
    });
    GBuild::from_channels(f_wins.iter().map(|w| gather_tri(w, n)).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::FockBuilder;
    use crate::fock::serial::build_serial;
    use crate::fock::FockAlgorithm;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;
    use phi_integrals::{Screening, ShellPairs};
    use phi_linalg::Mat;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.25 + ((i * 7 + j * 5) % 6) as f64 * 0.08
        })
    }

    fn pairs_and_screening(b: &BasisSet) -> (ShellPairs, Screening) {
        let pairs = ShellPairs::build(b);
        let s = Screening::from_pairs(b, &pairs);
        (pairs, s)
    }

    fn sharded(n_ranks: usize, mode: DdiMode) -> Box<dyn FockBuilder> {
        FockAlgorithm::Sharded { n_ranks, mode }.builder()
    }

    #[test]
    fn matches_serial_for_various_rank_counts_and_modes() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let (pairs, s) = pairs_and_screening(&b);
        let d = density(b.n_basis());
        let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
        let dens = DensitySet::Restricted(&d);
        let want = build_serial(&ctx, &dens).g;
        for n_ranks in [1, 2, 4] {
            for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
                let got = sharded(n_ranks, mode).build(&ctx, &dens);
                assert!(
                    got.g.max_abs_diff(&want) < 1e-12,
                    "{n_ranks} ranks {}: diff {}",
                    mode.label(),
                    got.g.max_abs_diff(&want)
                );
                assert!(got.stats.flushes > 0);
            }
        }
    }

    #[test]
    fn unrestricted_sharded_matches_serial() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let (pairs, s) = pairs_and_screening(&b);
        let n = b.n_basis();
        let d_a = density(n);
        let mut d_b = density(n);
        d_b.scale(0.6);
        let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
        let dens = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b };
        let want = build_serial(&ctx, &dens);
        let got = sharded(3, DdiMode::Mpi3OneSided).build(&ctx, &dens);
        let want_b = want.g_beta.expect("beta channel");
        let got_b = got.g_beta.expect("beta channel");
        assert!(got.g.max_abs_diff(&want.g) < 1e-12, "alpha {}", got.g.max_abs_diff(&want.g));
        assert!(got_b.max_abs_diff(&want_b) < 1e-12, "beta {}", got_b.max_abs_diff(&want_b));
    }

    #[test]
    fn d_shell_blocks_match_serial_for_one_to_three_ranks_restricted_and_uhf() {
        // 6-31G(d) water has a 6-function d shell, wider than every s/p
        // block, and its tasks cover every row-block case: i == j,
        // k == i, k == j and the transposed l rows of j < l < k. One to
        // three ranks change which rank digests which task.
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        assert_eq!(b.max_shell_functions(), 6);
        let (pairs, s) = pairs_and_screening(&b);
        let n = b.n_basis();
        let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
        let d_a = density(n);
        let mut d_b = density(n);
        d_b.scale(0.6);
        for dens in
            [DensitySet::Restricted(&d_a), DensitySet::Unrestricted { alpha: &d_a, beta: &d_b }]
        {
            let want = build_serial(&ctx, &dens);
            for n_ranks in 1..=3 {
                for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
                    let got = sharded(n_ranks, mode).build(&ctx, &dens);
                    let label = format!(
                        "{} channel(s), {n_ranks} ranks, {}",
                        dens.n_channels(),
                        mode.label()
                    );
                    let diff = got.g.max_abs_diff(&want.g);
                    assert!(diff <= 1e-12, "{label}: G diff {diff:e}");
                    if let (Some(w), Some(g)) = (&want.g_beta, &got.g_beta) {
                        let diff = g.max_abs_diff(w);
                        assert!(diff <= 1e-12, "{label}: beta G diff {diff:e}");
                    }
                    assert_eq!(got.g_beta.is_some(), want.g_beta.is_some(), "{label}");
                }
            }
        }
    }

    #[test]
    fn row_blocks_cut_acc_runs_at_least_fourfold() {
        // One rank, so task order and therefore the count are
        // deterministic. The per-integral sparse buffer that the row
        // blocks replaced issued 30,281 `acc` runs on this build; dense
        // row blocks flushed once per row must need at most a quarter.
        const SPARSE_BUFFER_ACC_RUNS: u64 = 30_281;
        let b = BasisSet::build(&small::h_chain(8, 1.8), BasisName::B631gdp);
        let (pairs, s) = pairs_and_screening(&b);
        let d = density(b.n_basis());
        let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
        let dens = DensitySet::Restricted(&d);
        let got = sharded(1, DdiMode::Mpi3OneSided).build(&ctx, &dens);
        let want = build_serial(&ctx, &dens).g;
        assert!(got.g.max_abs_diff(&want) < 1e-12, "diff {}", got.g.max_abs_diff(&want));
        assert!(
            got.stats.flushes * 4 <= SPARSE_BUFFER_ACC_RUNS,
            "{} acc runs, more than a quarter of {SPARSE_BUFFER_ACC_RUNS}",
            got.stats.flushes
        );
    }

    #[test]
    fn per_rank_memory_is_sharded_not_replicated() {
        // Big enough that the O(N) buffer floors (1024 elems / 512 entries)
        // lose to the N x N matrices a replicated rank holds; tiny systems
        // like water invert the comparison because the floors dominate.
        let b = BasisSet::build(&small::h_chain(50, 2.0), BasisName::Sto3g);
        let (pairs, s) = pairs_and_screening(&b);
        let n = b.n_basis();
        let d = density(n);
        let ranks = 4;
        let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
        let dens = DensitySet::Restricted(&d);
        let replicated = FockAlgorithm::MpiOnly { n_ranks: ranks }.builder().build(&ctx, &dens);
        let sharded = sharded(ranks, DdiMode::Mpi3OneSided).build(&ctx, &dens);
        let rep_peak = replicated.stats.max_rank_peak();
        let sh_peak = sharded.stats.max_rank_peak();
        assert!(sh_peak < rep_peak, "sharded {sh_peak} vs replicated {rep_peak}");
        // Per-rank matrix memory (peak minus the shared read-only pair
        // dataset) is exactly the budgeted stripes + buffers.
        let budget = ShardBudget::new(n, b.max_shell_functions(), ranks, 1).total();
        assert_eq!(sh_peak - pairs.bytes(), budget);
    }

    #[test]
    fn shard_budget_never_approaches_a_full_matrix_at_scale() {
        // The O(N) buffers have small-system floors; past those, per-rank
        // matrix memory is a vanishing fraction of one N x N matrix (the
        // measured version of this claim runs in benches/memory_wall.rs).
        // Six-function d shells size the row blocks, as in 6-31G(d).
        for (n, ranks) in [(500, 4), (2000, 8), (10000, 16)] {
            let budget = ShardBudget::new(n, 6, ranks, 1).total();
            assert!(
                budget < n * n * 8 / (ranks / 2),
                "n={n} ranks={ranks}: budget {budget} vs full matrix {}",
                n * n * 8
            );
        }
    }
}
