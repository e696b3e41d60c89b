//! The unified Fock-build engine: one context, one builder abstraction.
//!
//! The paper's framing (§3) is that Algorithms 1–3 differ *only* in how
//! shell quartets are distributed over ranks/threads and where the updates
//! land. This module makes that structural claim literal in the API:
//!
//! * [`FockContext`] — the per-(geometry, basis) invariants every build
//!   reads: the basis, the persistent [`ShellPairs`] dataset, the Schwarz
//!   [`Screening`] and the threshold `tau`. Drivers construct it once (via
//!   [`FockData`]) and hand the same context to every iteration.
//! * [`FockBuilder`] — the one-method trait each algorithm implements.
//!   Rank/thread topology lives in the builder (it is part of *how* the
//!   algorithm distributes work, not of the problem), mirroring how
//!   [`FockAlgorithm`] variants carry their own `n_ranks`/`n_threads`.
//! * [`DensitySet`] — the spin-generalized input (one matrix for RHF, an
//!   α/β pair for UHF), so every parallel algorithm serves both SCF
//!   drivers from a single code path.
//!
//! Every build returns the same [`GBuild`]: per-channel `G` matrices plus
//! [`crate::stats::FockBuildStats`] collected identically across
//! algorithms (quartets computed/screened, DLB counter calls, buffer
//! flushes, wall time, tracked memory). The lease loops, quartet worker
//! and stats epilogue behind those numbers are shared (`fock::skeleton`);
//! adding an algorithm is one file supplying its task split, density
//! reads and Fock accumulation, plus one arm in [`ParallelBuilder`].

use super::{DensitySet, FockAlgorithm, GBuild};
use phi_chem::BasisSet;
use phi_dmpi::{FaultPlan, RetryPolicy, WorldConfig};
use phi_integrals::{DensityMax, Screening, ShellPairs};

/// Borrowed view of everything a Fock build needs besides the density:
/// basis, shell-pair dataset, screening, and the Schwarz threshold.
///
/// Cheap to copy (a few references and a float); build one per SCF run
/// from a [`FockData`] and pass it to every [`FockBuilder::build`] call.
#[derive(Clone, Copy)]
pub struct FockContext<'a> {
    pub basis: &'a BasisSet,
    pub pairs: &'a ShellPairs,
    pub screening: &'a Screening,
    /// Schwarz screening threshold on `Q_ij * Q_kl`.
    pub tau: f64,
    /// Per-shell-pair density-max table for density-weighted screening.
    /// `None` (the default) keeps the static `Q_ij * Q_kl >= tau` test and
    /// bit-identical results with pre-incremental builds; incremental
    /// drivers refresh a table from ΔD each iteration and attach it with
    /// [`FockContext::with_dmax`].
    pub dmax: Option<&'a DensityMax>,
    /// Route ERI evaluation through the class-specialized kernels
    /// (default). Cleared by differential tests and ablations to force the
    /// generic recursion in every builder's engines.
    pub eri_kernels: bool,
}

impl<'a> FockContext<'a> {
    pub fn new(
        basis: &'a BasisSet,
        pairs: &'a ShellPairs,
        screening: &'a Screening,
        tau: f64,
    ) -> FockContext<'a> {
        FockContext { basis, pairs, screening, tau, dmax: None, eri_kernels: true }
    }

    /// The same context with a density-max table attached: every builder's
    /// quartet test and `ij`-task prescreen become density-weighted.
    pub fn with_dmax(mut self, dmax: &'a DensityMax) -> FockContext<'a> {
        self.dmax = Some(dmax);
        self
    }

    /// The same context with the class-specialized ERI kernels toggled —
    /// `with_eri_kernels(false)` is the generic-path side of end-to-end
    /// kernels-on-vs-off differential tests.
    pub fn with_eri_kernels(mut self, on: bool) -> FockContext<'a> {
        self.eri_kernels = on;
        self
    }

    /// A fresh ERI engine configured per this context's kernel policy.
    /// Every builder's per-thread engines come from here, so the one
    /// toggle covers all algorithms.
    pub fn engine(&self) -> phi_integrals::EriEngine {
        let mut e = phi_integrals::EriEngine::new();
        e.use_kernels = self.eri_kernels;
        e
    }

    /// The quartet-level screening test every builder applies: static
    /// Schwarz when no density table is attached, density-weighted
    /// otherwise.
    #[inline]
    pub fn survives(&self, i: usize, j: usize, k: usize, l: usize) -> bool {
        self.screening.survives_weighted(self.dmax, i, j, k, l, self.tau)
    }

    /// The `ij`-task-level prescreen (Algorithm 3, line 13), weighted by
    /// the attached density table when present.
    #[inline]
    pub fn task_survives(&self, i: usize, j: usize) -> bool {
        self.screening.task_survives_weighted(self.dmax, i, j, self.tau)
    }
}

/// Owned per-(geometry, basis) build data: the persistent shell-pair
/// dataset and the Schwarz screening derived from it. Built once per SCF
/// run and shared read-only by every iteration, rank and thread.
pub struct FockData {
    pub pairs: ShellPairs,
    pub screening: Screening,
}

impl FockData {
    /// Build the pair dataset and its Schwarz screening for `basis`.
    pub fn build(basis: &BasisSet) -> FockData {
        let pairs = ShellPairs::build(basis);
        let screening = Screening::from_pairs(basis, &pairs);
        FockData { pairs, screening }
    }

    /// Borrow a [`FockContext`] over this data.
    pub fn context<'a>(&'a self, basis: &'a BasisSet, tau: f64) -> FockContext<'a> {
        FockContext::new(basis, &self.pairs, &self.screening, tau)
    }
}

/// One Fock-build algorithm: consumes a spin-generalized density set and
/// produces the matching two-electron matrices with uniform statistics.
pub trait FockBuilder {
    /// Build `G` for every spin channel of `dens`.
    fn build(&self, ctx: &FockContext<'_>, dens: &DensitySet<'_>) -> GBuild;

    /// Human-readable algorithm name (for logs and bench tables).
    fn label(&self) -> &'static str;
}

/// Single-threaded reference build ([`super::serial`]).
pub struct SerialBuilder;

impl FockBuilder for SerialBuilder {
    fn build(&self, ctx: &FockContext<'_>, dens: &DensitySet<'_>) -> GBuild {
        super::serial::build_serial(ctx, dens)
    }

    fn label(&self) -> &'static str {
        "serial"
    }
}

/// Every rank-parallel algorithm ([`super::mpi_only`],
/// [`super::private_fock`], [`super::shared_fock`],
/// [`super::distributed`], [`super::sharded`]) under one fault plan and
/// reliable-delivery policy. Each algorithm supplies only its task split,
/// density reads and Fock accumulation; the lease loops, quartet worker
/// and stats epilogue are shared.
pub struct ParallelBuilder {
    pub algorithm: FockAlgorithm,
    /// Deterministic fault plan applied to every build; `None` runs clean.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery policy for the world and its DDI window links.
    pub retry: RetryPolicy,
}

impl FockBuilder for ParallelBuilder {
    fn build(&self, ctx: &FockContext<'_>, dens: &DensitySet<'_>) -> GBuild {
        let world =
            |n_ranks| WorldConfig { n_ranks, faults: self.faults.clone(), retry: self.retry };
        match self.algorithm {
            FockAlgorithm::Serial => super::serial::build_serial(ctx, dens),
            FockAlgorithm::MpiOnly { n_ranks } => super::mpi_only::build(ctx, dens, world(n_ranks)),
            FockAlgorithm::PrivateFock { n_ranks, n_threads } => {
                super::private_fock::build(ctx, dens, world(n_ranks), n_threads)
            }
            FockAlgorithm::SharedFock { n_ranks, n_threads } => {
                super::shared_fock::build(ctx, dens, world(n_ranks), n_threads)
            }
            FockAlgorithm::Distributed { n_ranks } => {
                super::distributed::build(ctx, dens, world(n_ranks))
            }
            FockAlgorithm::Sharded { n_ranks, mode } => {
                super::sharded::build(ctx, dens, world(n_ranks), mode)
            }
        }
    }

    fn label(&self) -> &'static str {
        self.algorithm.label()
    }
}

impl FockAlgorithm {
    /// The [`FockBuilder`] implementing this algorithm (no fault plan).
    pub fn builder(self) -> Box<dyn FockBuilder> {
        self.builder_with_faults(None)
    }

    /// The [`FockBuilder`] implementing this algorithm under `faults`,
    /// with the default [`RetryPolicy`].
    pub fn builder_with_faults(self, faults: Option<FaultPlan>) -> Box<dyn FockBuilder> {
        self.builder_with_comm(faults, RetryPolicy::default())
    }

    /// The [`FockBuilder`] implementing this algorithm under `faults`
    /// and the reliable-delivery policy `retry`.
    ///
    /// The serial reference build runs in-process with no ranks to kill
    /// and no messages to lose; it ignores both. Every parallel builder
    /// threads them into its world so rank kills, stragglers and message
    /// faults replay deterministically on each SCF iteration — and so
    /// transient message faults drain into acked retransmission instead
    /// of the kill path.
    pub fn builder_with_comm(
        self,
        faults: Option<FaultPlan>,
        retry: RetryPolicy,
    ) -> Box<dyn FockBuilder> {
        match self {
            FockAlgorithm::Serial => Box::new(SerialBuilder),
            algorithm => Box::new(ParallelBuilder { algorithm, faults, retry }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_linalg::Mat;

    fn density(n: usize, seed: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 5 + j * 11 + seed) % 7) as f64 * 0.1
        })
    }

    #[test]
    fn every_algorithm_builds_restricted_through_the_trait() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis(), 0);
        let want = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));
        for alg in [
            FockAlgorithm::MpiOnly { n_ranks: 2 },
            FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 3 },
            FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
            FockAlgorithm::Distributed { n_ranks: 3 },
            FockAlgorithm::Sharded { n_ranks: 3, mode: phi_dmpi::DdiMode::Mpi3OneSided },
        ] {
            let builder = alg.builder();
            let got = builder.build(&ctx, &DensitySet::Restricted(&d));
            assert!(
                got.g.max_abs_diff(&want.g) < 1e-10,
                "{}: diff {}",
                builder.label(),
                got.g.max_abs_diff(&want.g)
            );
            assert!(got.g_beta.is_none());
            assert!(got.stats.quartets_computed > 0);
        }
    }

    #[test]
    fn every_algorithm_builds_unrestricted_through_the_trait() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d_a = density(b.n_basis(), 1);
        let d_b = density(b.n_basis(), 4);
        let dens = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b };
        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens);
        let want_b = want.g_beta.as_ref().expect("serial UHF beta channel");
        for alg in [
            FockAlgorithm::MpiOnly { n_ranks: 2 },
            FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
            FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 3 },
            FockAlgorithm::Distributed { n_ranks: 2 },
            FockAlgorithm::Sharded { n_ranks: 2, mode: phi_dmpi::DdiMode::DataServer },
        ] {
            let builder = alg.builder();
            let got = builder.build(&ctx, &dens);
            let got_b = got.g_beta.as_ref().expect("UHF build returns a beta channel");
            assert!(
                got.g.max_abs_diff(&want.g) < 1e-10,
                "{} alpha: diff {}",
                builder.label(),
                got.g.max_abs_diff(&want.g)
            );
            assert!(
                got_b.max_abs_diff(want_b) < 1e-10,
                "{} beta: diff {}",
                builder.label(),
                got_b.max_abs_diff(want_b)
            );
        }
    }

    #[test]
    fn dlb_builders_report_counter_calls() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis(), 2);
        for alg in [
            FockAlgorithm::MpiOnly { n_ranks: 2 },
            FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
            FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
            FockAlgorithm::Distributed { n_ranks: 2 },
            FockAlgorithm::Sharded { n_ranks: 2, mode: phi_dmpi::DdiMode::Mpi3OneSided },
        ] {
            let got = alg.builder().build(&ctx, &DensitySet::Restricted(&d));
            // Every DLB-driven builder makes at least one counter call per
            // task plus each rank's final out-of-range claim.
            assert!(
                got.stats.dlb_calls > got.stats.dlb_tasks,
                "{}: dlb_calls {} vs tasks {}",
                alg.label(),
                got.stats.dlb_calls,
                got.stats.dlb_tasks
            );
        }
        // The serial path never touches the counter.
        let serial = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));
        assert_eq!(serial.stats.dlb_calls, 0);
    }
}
