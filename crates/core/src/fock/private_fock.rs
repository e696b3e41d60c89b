//! Algorithm 2: hybrid MPI/OpenMP, shared density, thread-private Fock.
//!
//! Per rank, all read-only matrices (density, overlap, core Hamiltonian)
//! exist once and are shared by the team's threads; only the Fock
//! accumulation buffers are replicated per thread (the OpenMP
//! `reduction(+ : Fock)` clause of the paper's listing). The MPI DLB runs
//! over the `i` shell index; within a task the merged `(j, k)` loops are
//! workshared with `collapse(2) schedule(dynamic,1)`, which enlarges the
//! task pool from `i` iterations to `(i+1)^2` and fixes the load imbalance
//! the paper attributes to two-index MPI parallelization.

use super::digest::BlockDigest;
use super::engine::FockContext;
use super::matrix::ReplicatedFock;
use super::skeleton::{
    gsum_replicated, replicate_inputs, replicated_result, run_ranks, Charge, TeamLeases, Worker,
};
use super::{DensitySet, GBuild};
use crate::stats::FockBuildStats;
use phi_dmpi::WorldConfig;
use phi_omp::{Schedule, Team};

/// Build the two-electron matrices for `dens` with Algorithm 2 over the
/// ranks of `cfg` x `n_threads` threads.
pub(crate) fn build(
    ctx: &FockContext<'_>,
    dens: &DensitySet<'_>,
    cfg: WorldConfig,
    n_threads: usize,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let work = dens.prepare();
    let nch = work.n_channels();
    replicated_result(run_ranks(cfg, &[], |rank| {
        // One shared copy of the density and read-only matrices per rank
        // (threads read them concurrently; never replicated per thread).
        let _inputs = replicate_inputs(rank, ctx, dens);
        let leases = TeamLeases::new(rank, basis.n_shells());
        let threads = Team::new(n_threads).parallel(|tctx| {
            // Thread-private Fock matrices (one per spin channel) — the
            // replication this algorithm still pays for.
            let mut fock = ReplicatedFock::new(nch, n);
            rank.charge_bytes(fock.bytes());
            let mut w = Worker::new(ctx);
            let mut sinks = fock.sinks();
            let (mut dig, mut src) = (BlockDigest::default(), &work);
            // Master pulls the next i lease (Algorithm 2 lines 3-6); the
            // merged (j, k) loops are workshared dynamically (lines 7-20).
            leases.run(tctx, &mut w, |w, i| {
                tctx.collapse2(i + 1, i + 1, Schedule::dynamic1(), |j, k| {
                    w.l_row(i, j, k, &mut |k, l, eri| {
                        dig.quartet(basis, [i, j, k, l], eri, &mut src, &mut sinks[..])
                    });
                });
                true
            });
            drop(sinks);
            (fock, w.finish(0))
        });

        // OpenMP reduction(+ : Fock): sum the thread-private copies.
        let mut fock = ReplicatedFock::new(nch, n);
        let _fock = Charge::new(rank, fock.bytes());
        let mut stats = FockBuildStats::default();
        for (tf, ts) in &threads {
            fock.reduce_from(tf);
            stats = FockBuildStats::merge(stats, ts);
        }
        rank.release_bytes(n_threads * fock.bytes());
        // 2e-Fock matrix reduction over the surviving MPI ranks (line
        // 23). A killed rank's team unwound via the DEAD sentinel.
        (gsum_replicated(rank, rank.alive(), fock), stats)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::FockData;
    use crate::fock::FockAlgorithm;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;
    use phi_linalg::Mat;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.15 + ((i * 3 + j * 13) % 9) as f64 * 0.07
        })
    }

    fn private(n_ranks: usize, n_threads: usize) -> Box<dyn crate::fock::engine::FockBuilder> {
        FockAlgorithm::PrivateFock { n_ranks, n_threads }.builder()
    }

    #[test]
    fn matches_serial_across_rank_thread_grids() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens).g;
        for (r, t) in [(1, 1), (1, 4), (2, 2), (3, 2)] {
            let got = private(r, t).build(&ctx, &dens);
            assert!(
                got.g.max_abs_diff(&want) < 1e-10,
                "{r} ranks x {t} threads: diff {}",
                got.g.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn covers_every_quartet_exactly_once() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 0.0);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let serial = FockAlgorithm::Serial.builder().build(&ctx, &dens);
        let hybrid = private(2, 3).build(&ctx, &dens);
        assert_eq!(hybrid.stats.quartets_computed, serial.stats.quartets_computed);
    }

    #[test]
    fn rank_memory_smaller_than_mpi_only_at_same_core_count() {
        // 4 "cores": MPI-only = 4 ranks; private Fock = 1 rank x 4 threads.
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let mpi = FockAlgorithm::MpiOnly { n_ranks: 4 }.builder().build(&ctx, &dens);
        let hyb = private(1, 4).build(&ctx, &dens);
        assert!(
            hyb.stats.memory_total_peak < mpi.stats.memory_total_peak,
            "hybrid {} vs MPI {}",
            hyb.stats.memory_total_peak,
            mpi.stats.memory_total_peak
        );
    }
}
