//! Algorithm 1: the stock GAMESS MPI-only Fock build.
//!
//! Every rank replicates the density matrices, overlap matrix, MO
//! coefficients and its own Fock accumulation buffers. Work is distributed
//! by the global DLB counter over `(i, j)` shell-pair tasks; each task runs
//! the full canonical `(k, l)` loops. The final Fock matrices are summed
//! over ranks with `gsumf`.
//!
//! The memory pathology the paper attacks is visible here by construction:
//! the replicated matrices are *really allocated* per rank through the
//! tracker, so the returned report scales linearly with the rank count.

use super::digest::BlockDigest;
use super::engine::FockContext;
use super::matrix::ReplicatedFock;
use super::skeleton::{
    gsum_replicated, lease_loop, replicate_inputs, replicated_result, run_ranks, Charge, Worker,
};
use super::{pair_decode, DensitySet, GBuild};
use phi_dmpi::{LeaseMode, WorldConfig};

/// Build the two-electron matrices for `dens` with Algorithm 1 over the
/// ranks of `cfg`. Tasks leased to a rank that dies mid-build are
/// reclaimed and recomputed by survivors, so the result matches serial
/// regardless of how many (< all) ranks fail.
pub(crate) fn build(ctx: &FockContext<'_>, dens: &DensitySet<'_>, cfg: WorldConfig) -> GBuild {
    let basis = ctx.basis;
    let ns = basis.n_shells();
    let work = dens.prepare();
    replicated_result(run_ranks(cfg, &[], |rank| {
        // Replicated data structures, one full set per rank (the paper's
        // memory bottleneck), and the replicated write side.
        let _inputs = replicate_inputs(rank, ctx, dens);
        let mut fock = ReplicatedFock::new(work.n_channels(), basis.n_basis());
        let _fock = Charge::new(rank, fock.bytes());
        let mut w = Worker::new(ctx);
        let mut sinks = fock.sinks();
        let (mut dig, mut src) = (BlockDigest::default(), &work);
        // Fock accumulators are volatile: a dead rank's partial sums
        // never reach the reduction, so everything it ever computed is
        // reissued to survivors.
        let alive = lease_loop(rank, ns * (ns + 1) / 2, LeaseMode::Volatile, &mut w, |w, t| {
            let (i, j) = pair_decode(t);
            w.ij_task(i, j, |k, l, eri| {
                dig.quartet(basis, [i, j, k, l], eri, &mut src, &mut sinks[..])
            });
        });
        drop(sinks);
        // 2e-Fock matrix reduction (Algorithm 1 line 16): one collective
        // covering every spin channel.
        (gsum_replicated(rank, alive, fock), w.finish(0))
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
            0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
        })
    }

    fn mpi_only(n_ranks: usize) -> Box<dyn crate::fock::engine::FockBuilder> {
        FockAlgorithm::MpiOnly { n_ranks }.builder()
    }

    #[test]
    fn matches_serial_for_various_rank_counts() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens).g;
        for n_ranks in [1, 2, 3, 5] {
            let got = mpi_only(n_ranks).build(&ctx, &dens);
            assert!(
                got.g.max_abs_diff(&want) < 1e-10,
                "{n_ranks} ranks: diff {}",
                got.g.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn all_tasks_distributed_exactly_once() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let out = mpi_only(3).build(&ctx, &dens);
        let ns = b.n_shells();
        let p = ns * (ns + 1) / 2;
        assert_eq!(out.stats.dlb_tasks, p, "every ij pair is one task");
        // Each counter call hands out one task; every rank also makes one
        // final out-of-range call before leaving the loop.
        assert_eq!(out.stats.dlb_calls, p + 3);
        // Quartet totals match the serial enumeration.
        let serial = FockAlgorithm::Serial.builder().build(&ctx, &dens);
        assert_eq!(
            out.stats.quartets_computed + out.stats.quartets_screened,
            serial.stats.quartets_computed + serial.stats.quartets_screened
        );
    }

    #[test]
    fn memory_replication_scales_with_ranks() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let one = mpi_only(1).build(&ctx, &DensitySet::Restricted(&d));
        let four = mpi_only(4).build(&ctx, &DensitySet::Restricted(&d));
        // Four ranks replicate everything: total peak ~4x one rank's.
        let ratio = four.stats.memory_total_peak as f64 / one.stats.memory_total_peak as f64;
        assert!((ratio - 4.0).abs() < 0.2, "replication ratio {ratio}");
        assert_eq!(four.stats.per_rank_peak.len(), 4);
    }
}
