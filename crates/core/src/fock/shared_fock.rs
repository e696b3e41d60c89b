//! Algorithm 3: hybrid MPI/OpenMP, shared density *and* shared Fock.
//!
//! The paper's unique contribution. Per rank, one Fock matrix per spin
//! channel is shared by all threads; the write-dependency problem of
//! eqs. (2a)–(2f) is solved by splitting each quartet's six digested
//! blocks across three destinations (Algorithm 3 lines 25–27), chosen
//! once per block:
//!
//! * blocks touching shell `i` -> thread-private `FI` buffer,
//! * blocks touching shell `j` -> thread-private `FJ` buffer,
//! * the `(k, l)` Coulomb block -> the shared Fock matrix directly, once
//!   per quartet (threads own distinct `kl` iterations, so element
//!   collisions cannot occur within a task; we still use atomic adds —
//!   see DESIGN.md on the safe-Rust substitution).
//!
//! `FJ` is flushed (padded chunked tree reduction, paper Figure 1) after
//! every `kl` loop; `FI` is flushed lazily, only when the task's `i`
//! changes (lines 15–18 and 33), which removes most of the synchronization
//! the naive scheme would pay.
//!
//! MPI tasks are combined `ij` pair indices pulled from the DLB counter,
//! prescreened at the task level (line 13) so whole iterations of the most
//! costly top loop vanish for sparse systems. The prescreen is
//! `Q_ij * Q_max >= tau` (density-weighted when the context carries a
//! density-max table): a lossless necessary condition of the quartet test
//! (see DESIGN.md).

use super::digest::BlockDigest;
use super::engine::FockContext;
use super::matrix::ReplicatedFock;
use super::skeleton::{
    gsum_replicated, replicate_inputs, replicated_result, run_ranks, Charge, TeamLeases, Worker,
};
use super::{pair_decode, pair_index, DensitySet, FockBlock, FockSink, GBuild};
use crate::stats::FockBuildStats;
use phi_dmpi::WorldConfig;
use phi_omp::{PaddedColumns, Schedule, SharedAccumulator, Team, ThreadCtx};

/// Routes digested blocks to FI / FJ / the shared matrix (one instance
/// per spin channel).
struct SharedFockSink<'a> {
    fi_col: &'a mut [f64],
    fj_col: &'a mut [f64],
    fock: &'a SharedAccumulator,
    n: usize,
    i_lo: usize,
    i_hi: usize,
    j_lo: usize,
    j_hi: usize,
}

impl FockSink for SharedFockSink<'_> {
    #[inline]
    fn add(&mut self, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        if mu >= self.i_lo && mu < self.i_hi {
            self.fi_col[(mu - self.i_lo) * self.n + nu] += v;
        } else if nu >= self.i_lo && nu < self.i_hi {
            self.fi_col[(nu - self.i_lo) * self.n + mu] += v;
        } else if mu >= self.j_lo && mu < self.j_hi {
            self.fj_col[(mu - self.j_lo) * self.n + nu] += v;
        } else if nu >= self.j_lo && nu < self.j_hi {
            self.fj_col[(nu - self.j_lo) * self.n + mu] += v;
        } else {
            // Pure (k, l) element: straight into the shared Fock matrix.
            self.fock.add(mu * self.n + nu, v);
        }
    }

    /// A block's rows and columns each lie in one shell, so the
    /// destination is chosen once per block. FI and FJ rows take either
    /// orientation (their flush canonicalizes); only a same-shell block
    /// needs the canonical fold.
    #[inline]
    fn add_block(&mut self, blk: &FockBlock<'_>, scale: f64) {
        let ((p0, np), (q0, nq)) = (blk.rows(), blk.cols());
        let n = self.n;
        let (buf, lo) = if p0 == self.i_lo || q0 == self.i_lo {
            (&mut *self.fi_col, self.i_lo)
        } else if p0 == self.j_lo || q0 == self.j_lo {
            (&mut *self.fj_col, self.j_lo)
        } else {
            // The (k, l) block: one atomic add per nonzero element.
            let fock = self.fock;
            blk.fold(scale, |p, q, v| {
                if v != 0.0 {
                    fock.add(p * n + q, v);
                }
            });
            return;
        };
        if p0 == q0 {
            blk.fold(scale, |p, q, v| buf[(p - lo) * n + q] += v);
        } else if p0 == lo {
            for x in 0..np {
                let dst = &mut buf[(p0 + x - lo) * n + q0..][..nq];
                for (d, &v) in dst.iter_mut().zip(&blk.values()[x * nq..(x + 1) * nq]) {
                    *d += scale * v;
                }
            }
        } else {
            for x in 0..np {
                for (y, &v) in blk.values()[x * nq..(x + 1) * nq].iter().enumerate() {
                    buf[(q0 + y - lo) * n + p0 + x] += scale * v;
                }
            }
        }
    }
}

/// Spin-generalized Algorithm 3 over the ranks of `cfg` x `n_threads`
/// threads: one shared Fock matrix and one FI/FJ buffer pair per spin
/// channel; every quartet is digested into all channels before the shared
/// kl element leaves the thread.
pub(crate) fn build(
    ctx: &FockContext<'_>,
    dens: &DensitySet<'_>,
    cfg: WorldConfig,
    n_threads: usize,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let ns = basis.n_shells();
    let max_width = basis.max_shell_functions();
    let work = dens.prepare();
    let nch = work.n_channels();

    replicated_result(run_ranks(cfg, &[], |rank| {
        let _inputs = replicate_inputs(rank, ctx, dens);
        // The rank's shared Fock matrices, one per channel (line 4:
        // shared(Fock)).
        let focks: Vec<SharedAccumulator> =
            (0..nch).map(|_| SharedAccumulator::new(n * n)).collect();
        let _focks = Charge::new(rank, nch * n * n * std::mem::size_of::<f64>());
        // FI / FJ: mxsize x nthreads padded column buffers (lines 1-3),
        // one pair per channel.
        let columns = || -> Vec<PaddedColumns> {
            (0..nch).map(|_| PaddedColumns::new(n * max_width, n_threads)).collect()
        };
        let (fis, fjs) = (columns(), columns());
        let _columns = Charge::new(rank, fis.iter().chain(&fjs).map(|p| p.bytes()).sum());
        // Reduce one buffer set's rows of `shell` into the shared Fock.
        let flush_rows = |tctx: &ThreadCtx<'_>, bufs: &[PaddedColumns], shell: usize, span| {
            let _span = phi_trace::span(span);
            let sh = &basis.shells[shell];
            let lo = sh.first_bf;
            for (buf, fock) in bufs.iter().zip(&focks) {
                buf.flush_prefix_with(tctx, sh.n_functions() * n, |row, sum| {
                    let g = lo + row / n;
                    let other = row % n;
                    let idx = if g >= other { g * n + other } else { other * n + g };
                    fock.add(idx, sum);
                });
            }
        };

        let leases = TeamLeases::new(rank, ns * (ns + 1) / 2);
        let threads = Team::new(n_threads).parallel(|tctx| {
            let mut w = Worker::new(ctx);
            // Counted on the master only, so the per-thread trace
            // counters sum to stats.flushes.
            let mut flushes = 0u64;
            let mut flush = |bufs: &[PaddedColumns], shell: usize, span: &'static str| {
                flush_rows(tctx, bufs, shell, span);
                if tctx.is_master() {
                    flushes += nch as u64;
                }
            };
            let (mut dig, mut src) = (BlockDigest::default(), &work);
            // The last task's i shell; identical across threads because
            // every thread follows the same task sequence.
            let mut iold: Option<usize> = None;
            // Master pulls the next combined ij lease (lines 7-10).
            leases.run(tctx, &mut w, |w, ij| {
                let (i, j) = pair_decode(ij);
                let klmax = pair_index(i, j) + 1;
                // Task-level prescreen (lines 13-14): every one of the
                // task's quartets would fail the quartet test.
                if !ctx.task_survives(i, j) {
                    if tctx.is_master() {
                        w.screened += klmax as u64;
                    }
                    return false;
                }
                // Flush FI when i changes (lines 15-18).
                if let Some(io) = iold.filter(|&io| io != i) {
                    flush(&fis, io, "fock.flush_fi");
                }

                let (sh_i, sh_j) = (&basis.shells[i], &basis.shells[j]);
                let mut sinks: Vec<SharedFockSink<'_>> = (0..nch)
                    .map(|ch| SharedFockSink {
                        fi_col: fis[ch].col_mut(tctx.thread_num()),
                        fj_col: fjs[ch].col_mut(tctx.thread_num()),
                        fock: &focks[ch],
                        n,
                        i_lo: sh_i.first_bf,
                        i_hi: sh_i.first_bf + sh_i.n_functions(),
                        j_lo: sh_j.first_bf,
                        j_hi: sh_j.first_bf + sh_j.n_functions(),
                    })
                    .collect();
                // Workshared kl loop (lines 19-30).
                tctx.for_each(klmax, Schedule::dynamic1(), |kl| {
                    let (k, l) = pair_decode(kl);
                    if let Some(eri) = w.quartet(i, j, k, l) {
                        dig.quartet(basis, [i, j, k, l], eri, &mut src, &mut sinks[..]);
                    }
                });

                // Flush FJ after every kl loop (lines 31-32).
                flush(&fjs, j, "fock.flush_fj");
                iold = Some(i);
                true
            });
            // Flush the FI remainder (line 36).
            if let Some(io) = iold {
                flush(&fis, io, "fock.flush_fi");
            }
            w.finish(flushes)
        });

        // 2e-Fock reduction over the surviving MPI ranks (line 38) — one
        // collective covering every spin channel. A killed rank's shared
        // Fock is abandoned here; its leases were reissued to survivors.
        let snapshot = focks.iter().flat_map(|f| f.snapshot()).collect();
        let fock = ReplicatedFock::from_raw(snapshot, nch, n);
        let stats = threads.iter().fold(FockBuildStats::default(), FockBuildStats::merge);
        (gsum_replicated(rank, rank.alive(), fock), stats)
    }))
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
            0.25 + ((i * 17 + j * 7) % 5) as f64 * 0.08 - 0.02 * i as f64 / (n as f64)
        })
    }

    fn shared(n_ranks: usize, n_threads: usize) -> Box<dyn FockBuilder> {
        FockAlgorithm::SharedFock { n_ranks, n_threads }.builder()
    }

    #[test]
    fn matches_serial_across_rank_thread_grids() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens).g;
        for (r, t) in [(1, 1), (1, 4), (2, 2), (2, 3)] {
            let got = shared(r, t).build(&ctx, &dens);
            assert!(
                got.g.max_abs_diff(&want) < 1e-10,
                "{r} ranks x {t} threads: diff {}",
                got.g.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn matches_serial_with_d_functions() {
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-11);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens).g;
        let got = shared(2, 2).build(&ctx, &dens);
        assert!(got.g.max_abs_diff(&want) < 1e-9, "diff {}", got.g.max_abs_diff(&want));
    }

    #[test]
    fn sparse_system_with_prescreened_tasks_is_race_free() {
        // Regression test: a spread-out H chain prescreens many ij tasks.
        // Before the prescreen-path barrier fix, a thread could miss the
        // master's current_ij update on the continue path, desynchronizing
        // the team's collective sequence (deadlock) or silently skipping a
        // surviving task (wrong Fock matrix). Dense molecules (water etc.)
        // never prescreen, which is why only sparse systems exposed it.
        let b = BasisSet::build(&small::h_chain(8, 5.0), BasisName::Sto3g);
        let data = FockData::build(&b);
        let tau = 1e-10;
        let ctx = data.context(&b, tau);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens).g;
        for (r, t) in [(1, 2), (1, 4), (2, 3)] {
            // Repeat several times: the race was timing-dependent.
            for round in 0..5 {
                let got = shared(r, t).build(&ctx, &dens);
                assert!(
                    got.g.max_abs_diff(&want) < 1e-10,
                    "{r}x{t} round {round}: diff {}",
                    got.g.max_abs_diff(&want)
                );
            }
        }
    }

    #[test]
    fn memory_hierarchy_matches_the_paper() {
        // At equal core counts: MPI-only > private Fock > shared Fock.
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let dens = DensitySet::Restricted(&d);
        let cores = 4;
        let mpi = FockAlgorithm::MpiOnly { n_ranks: cores }.builder().build(&ctx, &dens);
        let prv = FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: cores }
            .builder()
            .build(&ctx, &dens);
        let shr = shared(1, cores).build(&ctx, &dens);
        assert!(
            mpi.stats.memory_total_peak > prv.stats.memory_total_peak,
            "MPI {} <= private {}",
            mpi.stats.memory_total_peak,
            prv.stats.memory_total_peak
        );
        assert!(
            prv.stats.memory_total_peak > shr.stats.memory_total_peak,
            "private {} <= shared {}",
            prv.stats.memory_total_peak,
            shr.stats.memory_total_peak
        );
    }

    #[test]
    fn task_count_equals_surviving_pairs() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-14);
        let d = density(b.n_basis());
        let out = shared(2, 2).build(&ctx, &DensitySet::Restricted(&d));
        let ns = b.n_shells();
        // Water/STO-3G is compact: no pair is prescreened at 1e-14.
        assert_eq!(out.stats.dlb_tasks, ns * (ns + 1) / 2);
        // Every task pull plus each rank's final out-of-range claim.
        assert_eq!(out.stats.dlb_calls, ns * (ns + 1) / 2 + 2);
    }
}
