//! Distributed-data Fock build: the related-work baseline where the Fock
//! matrix is *distributed* across ranks instead of replicated.
//!
//! The paper's §2 surveys this lineage — Harrison et al.'s node-distributed
//! SCF over globally addressable arrays and the GAMESS "distributed data
//! SCF" of Alexeev et al. over DDI one-sided operations. It trades the
//! replication memory of Algorithm 1 for remote-accumulate traffic: each
//! rank digests its quartets into a local scatter buffer and flushes
//! batches into a [`phi_dmpi::DistributedArray`] with one-sided `acc`
//! operations; no `gsumf` reduction is needed at the end because the array
//! is the single authoritative copy.
//!
//! This is not one of the paper's three benchmarked codes — it is the
//! natural fourth point of the design space (distributed instead of
//! replicated-then-reduced) and lets the memory/traffic trade-off be
//! measured with the same instrumentation.

use super::digest::BlockDigest;
use super::engine::FockContext;
use super::matrix::RowBufferFock;
use super::skeleton::{lease_loop, replicate_density, run_ranks, window, Charge, Worker};
use super::{pair_decode, tri_to_full, DensitySet, GBuild};
use phi_dmpi::{DistributedArray, LeaseMode, WorldConfig};

/// Build the two-electron matrices for `dens` with DLB over `(i,j)` pairs
/// and a *distributed* Fock matrix per spin channel.
///
/// Each rank still shares a read-only density copy (as in the hybrid codes)
/// but owns only `N^2 / n_ranks` elements of each Fock matrix;
/// contributions to other ranks' rows travel as `acc` batches.
pub(crate) fn build(ctx: &FockContext<'_>, dens: &DensitySet<'_>, cfg: WorldConfig) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let ns = basis.n_shells();
    let work = dens.prepare();
    let nch = work.n_channels();
    // The distributed Fock matrices: N x N row-major, striped over ranks,
    // one array per spin channel. Created outside the world, so they
    // survive rank deaths — flushed contributions are durable.
    let focks: Vec<DistributedArray> =
        (0..nch).map(|_| window(DistributedArray::new(n * n, cfg.n_ranks), &cfg)).collect();

    let (_, stats) = run_ranks(cfg, &focks, |rank| {
        let _density = replicate_density(rank, dens);
        // Charged per rank and channel: its stripe of the distributed Fock
        // plus the full local scatter buffer. Versus Algorithm 1 this still
        // drops the replicated read-only matrices and the second full Fock
        // copy (5/2 N^2 -> ~2 N^2 words) — the distributed-data SCF trade.
        let fock_bytes = nch * n * n * std::mem::size_of::<f64>();
        let _charge = Charge::new(rank, fock_bytes / rank.size() + fock_bytes + ctx.pairs.bytes());
        // The write side of the distribution-aware matrix layer: a full
        // local row buffer flushed as whole rows (see fock::matrix).
        let mut sinks: Vec<RowBufferFock> = (0..nch).map(|_| RowBufferFock::new(n)).collect();
        let mut flushes = 0u64;
        let mut flush = |sinks: &mut [RowBufferFock]| {
            let _span = phi_trace::span("fock.flush_scatter");
            for (fock, sink) in focks.iter().zip(sinks) {
                flushes += sink.flush_rows(fock, rank.rank());
            }
        };

        // Leases are durable here: flushed contributions persist in the
        // distributed array, so a dead rank's already-completed tasks are
        // *not* reissued — only the lease it held at death. That contract
        // needs flush-then-complete per task, so it is only paid under
        // fault injection. In a clean run no rank can die, and flushes
        // batch every 32 tasks purely to amortize one-sided calls and keep
        // the scatter buffer from holding the whole matrix hot.
        let fault_mode = rank.faults_enabled();
        let mut w = Worker::new(ctx);
        let (mut dig, mut src) = (BlockDigest::default(), &work);
        let alive = lease_loop(rank, ns * (ns + 1) / 2, LeaseMode::Durable, &mut w, |w, t| {
            let (i, j) = pair_decode(t);
            w.ij_task(i, j, |k, l, eri| {
                dig.quartet(basis, [i, j, k, l], eri, &mut src, &mut sinks[..])
            });
            if fault_mode || w.tasks.is_multiple_of(32) {
                flush(&mut sinks);
            }
        });
        if alive {
            flush(&mut sinks);
            // Everyone alive must finish accumulating before anyone reads;
            // dead ranks have deregistered (their unflushed work was
            // recomputed by survivors) and must stay out.
            let _ = rank.ft_barrier();
        }
        (None::<()>, w.finish(flushes))
    });
    // Read the assembled lower triangles back out.
    let mats = focks
        .iter()
        .map(|fock| {
            let mut buf = vec![0.0; n * n];
            fock.get(0, 0, &mut buf);
            let mut g = tri_to_full(&buf, n);
            g.symmetrize();
            g
        })
        .collect();
    GBuild::from_channels(mats, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::{FockBuilder, FockData};
    use crate::fock::FockAlgorithm;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;
    use phi_linalg::Mat;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.3 + ((i * 11 + j * 3) % 6) as f64 * 0.09
        })
    }

    fn distributed(n_ranks: usize) -> Box<dyn FockBuilder> {
        FockAlgorithm::Distributed { n_ranks }.builder()
    }

    #[test]
    fn matches_serial_for_various_rank_counts() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens).g;
        for n_ranks in [1, 2, 4] {
            let got = distributed(n_ranks).build(&ctx, &dens);
            assert!(
                got.g.max_abs_diff(&want) < 1e-10,
                "{n_ranks} ranks: diff {}",
                got.g.max_abs_diff(&want)
            );
            // Every rank flushes its scatter rows at least once.
            assert!(got.stats.flushes > 0);
        }
    }

    #[test]
    fn matches_serial_on_sparse_systems() {
        let b = BasisSet::build(&small::h_chain(8, 5.0), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens).g;
        let got = distributed(3).build(&ctx, &dens);
        assert!(got.g.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fock_memory_is_distributed_not_replicated() {
        // Versus Algorithm 1 at the same rank count, the tracked footprint
        // must be smaller: the Fock matrix is striped, not copied.
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let ranks = 4;
        let replicated = FockAlgorithm::MpiOnly { n_ranks: ranks }.builder().build(&ctx, &dens);
        let distributed = distributed(ranks).build(&ctx, &dens);
        assert!(
            distributed.stats.memory_total_peak < replicated.stats.memory_total_peak,
            "distributed {} vs replicated {}",
            distributed.stats.memory_total_peak,
            replicated.stats.memory_total_peak
        );
    }
}
