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
//!   direct-indexed FIFO row cache;
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

use super::engine::FockContext;
use super::matrix::{
    digest_quartet_shard, gather_tri, scatter_density, tri_len, RowShardFock, ShardBudget,
    ShardDensity,
};
use super::{kl_bounds, pair_decode, DensitySet};
use crate::stats::FockBuildStats;
use phi_chem::BasisSet;
use phi_dmpi::{DdiMode, DistributedArray, FaultPlan, LeaseMode, RetryPolicy, WorldConfig};
use phi_integrals::{Screening, ShellPairs};
use phi_linalg::Mat;
use std::time::Instant;

pub use super::GBuild;

/// Build the two-electron matrices for `dens` with DLB over `(i, j)`
/// pairs, sharded density reads and sharded Fock accumulation.
pub fn build_sharded(
    ctx: &FockContext<'_>,
    dens: &DensitySet<'_>,
    n_ranks: usize,
    mode: DdiMode,
    faults: Option<&FaultPlan>,
    retry: RetryPolicy,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let ns = basis.n_shells();
    let n_pair = ns * (ns + 1) / 2;
    let work = dens.prepare();
    let nch = work.n_channels();

    // All windows are created outside the world: the density scatter is
    // the driver's job (it already owns the full matrices), and the Fock
    // windows must survive rank deaths for the durable-lease contract.
    let reliable = |w: DistributedArray| match faults {
        Some(plan) => w.with_faults(plan, retry),
        None => w,
    };
    let d_wins: Vec<DistributedArray> =
        scatter_density(&work, n, n_ranks, mode).into_iter().map(reliable).collect();
    let f_wins: Vec<DistributedArray> = (0..nch)
        .map(|_| reliable(DistributedArray::new_with_mode(tri_len(n), n_ranks, mode)))
        .collect();
    // Per-rank resident bytes: this rank's owned stripe of every window
    // plus the O(N) buffers. Nothing here scales as a full N x N matrix.
    let budget = ShardBudget::new(n, basis.max_shell_functions(), n_ranks, nch);

    let cfg = WorldConfig { n_ranks, faults: faults.cloned(), retry };
    let world = phi_dmpi::run_world_with_config(cfg, |rank| {
        let _span = phi_trace::span("fock.build");
        let start = Instant::now();
        let mut reader = ShardDensity::new(&d_wins, n, rank.rank());
        let mut fock = RowShardFock::new(&f_wins, basis, rank.rank());
        debug_assert_eq!(budget.buffer_bytes, reader.resident_bytes() + fock.resident_bytes());
        rank.charge_bytes(budget.total());
        rank.charge_bytes(ctx.pairs.bytes());

        let mut engine = ctx.engine();
        let mut eri_buf: Vec<f64> = Vec::new();
        let mut computed = 0u64;
        let mut screened = 0u64;
        let mut tasks = 0usize;

        let fault_mode = rank.faults_enabled();
        let mut dead = rank.lease_reset(n_pair, LeaseMode::Durable).is_err();
        while !dead {
            let t = match rank.lease_next() {
                Ok(Some(t)) => t,
                Ok(None) => break,
                Err(_) => {
                    dead = true;
                    break;
                }
            };
            tasks += 1;
            let (i, j) = pair_decode(t);
            fock.begin_task(i, j);
            for k in 0..=i {
                fock.begin_k(k);
                for l in 0..=kl_bounds(i, j, k) {
                    if !ctx.survives(i, j, k, l) {
                        screened += 1;
                        continue;
                    }
                    let (bra, ket) = (ctx.pairs.pair(i, j), ctx.pairs.pair(k, l));
                    eri_buf.clear();
                    eri_buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
                    engine.shell_quartet_pairs(bra, ket, &mut eri_buf);
                    digest_quartet_shard(basis, i, j, k, l, &eri_buf, &mut reader, &mut fock);
                    computed += 1;
                }
            }
            fock.end_task();
            if fault_mode {
                // Flush-then-complete: this task's contributions are
                // durable in the windows before the lease completes.
                fock.flush();
            }
            rank.lease_complete(t);
        }
        if !dead {
            fock.flush();
            // Every live rank's accumulates must land before anyone
            // reads; dead ranks have deregistered.
            let _ = rank.ft_barrier();
        }
        let flushes = fock.flushes;
        rank.release_bytes(budget.total());
        rank.release_bytes(ctx.pairs.bytes());

        phi_trace::counter("quartets_computed", computed);
        phi_trace::counter("quartets_screened", screened);
        phi_trace::counter("flushes", flushes);
        phi_trace::counter("eri.spec_quartets", engine.spec_quartets_computed());
        FockBuildStats {
            seconds: start.elapsed().as_secs_f64(),
            quartets_computed: computed,
            quartets_screened: screened,
            prim_quartets: engine.prim_quartets_computed(),
            eri_class_quartets: engine.class_counts().to_vec(),
            dlb_tasks: tasks,
            flushes,
            ..Default::default()
        }
    });

    let failed = world.failed_ranks();
    let mut stats = FockBuildStats::default();
    for s in world.per_rank {
        stats = FockBuildStats::merge(stats, &s);
    }
    stats.memory_total_peak = world.memory.total_peak();
    stats.per_rank_peak = world.memory.per_rank_peak.clone();
    stats.dlb_calls = world.dlb_calls;
    stats.faults_injected = world.faults_injected;
    stats.tasks_reclaimed = world.tasks_reclaimed;
    stats.retries = world.lease_retries;
    stats.failed_ranks = failed;
    stats.retransmits = world.retransmits;
    stats.acks = world.acks;
    stats.corruptions_detected = world.corruptions_detected;
    stats.transient_recoveries = world.transient_recoveries;
    for w in d_wins.iter().chain(&f_wins) {
        let ls = w.link_stats();
        stats.retransmits += ls.retransmits;
        stats.acks += ls.acks;
        stats.corruptions_detected += ls.corruptions_detected;
        stats.transient_recoveries += ls.transient_recoveries;
        stats.faults_injected += ls.faults_injected as usize;
    }
    let mats: Vec<Mat> = f_wins.iter().map(|w| gather_tri(w, n)).collect();
    GBuild::from_channels(mats, stats)
}

/// Restricted convenience wrapper over [`build_sharded`].
pub fn build_g_sharded(
    basis: &BasisSet,
    pairs: &ShellPairs,
    screening: &Screening,
    tau: f64,
    d: &Mat,
    n_ranks: usize,
    mode: DdiMode,
) -> GBuild {
    build_sharded(
        &FockContext::new(basis, pairs, screening, tau),
        &DensitySet::Restricted(d),
        n_ranks,
        mode,
        None,
        RetryPolicy::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::mpi_only::build_g_mpi_only;
    use crate::fock::serial::{build_g_serial, build_serial};
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

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

    #[test]
    fn matches_serial_for_various_rank_counts_and_modes() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let (pairs, s) = pairs_and_screening(&b);
        let d = density(b.n_basis());
        let want = build_g_serial(&b, &pairs, &s, 1e-12, &d).g;
        for n_ranks in [1, 2, 4] {
            for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
                let got = build_g_sharded(&b, &pairs, &s, 1e-12, &d, n_ranks, mode);
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
        let got =
            build_sharded(&ctx, &dens, 3, DdiMode::Mpi3OneSided, None, RetryPolicy::default());
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
                    let got =
                        build_sharded(&ctx, &dens, n_ranks, mode, None, RetryPolicy::default());
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
        let got = build_g_sharded(&b, &pairs, &s, 1e-12, &d, 1, DdiMode::Mpi3OneSided);
        let want = build_g_serial(&b, &pairs, &s, 1e-12, &d).g;
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
        let replicated = build_g_mpi_only(&b, &pairs, &s, 1e-12, &d, ranks);
        let sharded = build_g_sharded(&b, &pairs, &s, 1e-12, &d, ranks, DdiMode::Mpi3OneSided);
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
