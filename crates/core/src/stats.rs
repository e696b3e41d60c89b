//! Per-build statistics: timings, quartet counts, memory accounting.
//!
//! The paper's headline metrics are "TIME TO FORM FOCK" (wall seconds of
//! the two-electron build) and the per-node memory footprint; both are
//! collected here for every build.

/// Statistics of one two-electron Fock build.
#[derive(Clone, Debug, Default)]
pub struct FockBuildStats {
    /// Wall-clock seconds of the build (the paper's "TIME TO FORM FOCK",
    /// measured with a monotonic clock — the paper's artifact notes that
    /// CPU-time-based timers mislead for multithreaded code).
    pub seconds: f64,
    /// Shell quartets whose ERIs were computed.
    pub quartets_computed: u64,
    /// Shell quartets eliminated by Schwarz screening.
    pub quartets_screened: u64,
    /// Primitive quartets evaluated inside the ERI engine.
    pub prim_quartets: u64,
    /// Shell quartets evaluated per ERI class slot
    /// ([`phi_integrals::N_CLASS_SLOTS`] entries: the specialized kernel
    /// classes in [`phi_integrals::CLASS_LABELS`] order, then the generic
    /// fallback). Empty when the build recorded no class accounting.
    pub eri_class_quartets: Vec<u64>,
    /// DLB counter claims made (MPI task pulls).
    pub dlb_tasks: usize,
    /// Total calls to the global DLB counter, including the final
    /// out-of-range claim each rank makes before exiting its task loop
    /// (`Dlb::calls_made`). Zero for builders that do not use the counter
    /// (serial, in-core replay). Set once per build from the world's
    /// counter — [`FockBuildStats::merge`] deliberately ignores it.
    pub dlb_calls: usize,
    /// Buffer flushes performed: FI/FJ column-buffer flushes in the
    /// shared-Fock build, scatter-row flushes in the distributed build.
    pub flushes: u64,
    /// Sum of per-rank peak tracked bytes (the paper's footprint metric).
    pub memory_total_peak: usize,
    /// Peak tracked bytes per rank.
    pub per_rank_peak: Vec<usize>,
    /// Faults injected by the world's `FaultPlan` during this build
    /// (rank kills, stragglers, message faults). World-global, set once
    /// per build like `dlb_calls`; zero without fault injection.
    pub faults_injected: usize,
    /// Tasks reclaimed from dead ranks and reissued to survivors.
    /// World-global, set once per build.
    pub tasks_reclaimed: usize,
    /// Lease claims served from the reissue queue — recovery work
    /// re-executed by surviving ranks. World-global, set once per build.
    pub retries: usize,
    /// Ranks that died during this build, in order of death.
    pub failed_ranks: Vec<usize>,
    /// Reliable-delivery retransmissions (rank messages plus DDI window
    /// requests) during this build. World-global, set once per build.
    pub retransmits: u64,
    /// Acks sent by receivers, including re-acks of deduplicated
    /// duplicates. World-global, set once per build.
    pub acks: u64,
    /// Payloads that failed their checksum at a receiver and were
    /// discarded for retransmission. World-global, set once per build.
    pub corruptions_detected: u64,
    /// Reliable operations that succeeded after ≥1 transient fault —
    /// faults that drained into retry instead of the kill path.
    /// World-global, set once per build.
    pub transient_recoveries: u64,
    /// True when this build was an incremental (ΔD) build: the quartet
    /// counts describe the density-weighted ΔD pass, not a full build.
    /// Set by the driver (like `dlb_calls`, not merged).
    pub incremental: bool,
}

impl FockBuildStats {
    /// Fraction of canonical quartets screened out.
    pub fn screened_fraction(&self) -> f64 {
        let total = self.quartets_computed + self.quartets_screened;
        if total == 0 {
            0.0
        } else {
            self.quartets_screened as f64 / total as f64
        }
    }

    /// Shell quartets that ran a class-specialized ERI kernel (every class
    /// slot except the generic fallback).
    pub fn eri_spec_quartets(&self) -> u64 {
        let spec = self.eri_class_quartets.len().min(phi_integrals::GENERIC_SLOT);
        self.eri_class_quartets[..spec].iter().sum()
    }

    /// Per-rank peak (high-water) tracked bytes: the largest single-rank
    /// footprint the live tracker saw during this build — the number the
    /// memory-wall benches assert budget claims against. Zero for builds
    /// that run no tracked world (the serial reference).
    pub fn max_rank_peak(&self) -> usize {
        self.per_rank_peak.iter().copied().max().unwrap_or(0)
    }

    /// Merge the stats of parallel contributors (max time, summed counts).
    /// `dlb_calls` is world-global and therefore *not* merged — builders
    /// set it once from the world counter after merging.
    pub fn merge(mut acc: FockBuildStats, other: &FockBuildStats) -> FockBuildStats {
        acc.seconds = acc.seconds.max(other.seconds);
        acc.quartets_computed += other.quartets_computed;
        acc.quartets_screened += other.quartets_screened;
        acc.prim_quartets += other.prim_quartets;
        if acc.eri_class_quartets.len() < other.eri_class_quartets.len() {
            acc.eri_class_quartets.resize(other.eri_class_quartets.len(), 0);
        }
        for (a, o) in acc.eri_class_quartets.iter_mut().zip(&other.eri_class_quartets) {
            *a += o;
        }
        acc.dlb_tasks += other.dlb_tasks;
        acc.flushes += other.flushes;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screened_fraction_handles_empty() {
        assert_eq!(FockBuildStats::default().screened_fraction(), 0.0);
    }

    #[test]
    fn max_rank_peak_is_the_high_water_rank() {
        assert_eq!(FockBuildStats::default().max_rank_peak(), 0);
        let s = FockBuildStats { per_rank_peak: vec![100, 700, 300], ..Default::default() };
        assert_eq!(s.max_rank_peak(), 700);
    }

    #[test]
    fn merge_takes_max_time_and_sums_counts() {
        let a = FockBuildStats {
            seconds: 1.0,
            quartets_computed: 10,
            quartets_screened: 4,
            flushes: 2,
            dlb_calls: 7,
            ..Default::default()
        };
        let b = FockBuildStats {
            seconds: 2.0,
            quartets_computed: 5,
            quartets_screened: 6,
            flushes: 3,
            dlb_calls: 9,
            ..Default::default()
        };
        let m = FockBuildStats::merge(a, &b);
        assert_eq!(m.seconds, 2.0);
        assert_eq!(m.quartets_computed, 15);
        assert_eq!(m.quartets_screened, 10);
        assert_eq!(m.flushes, 5);
        // World-global: set once per build, never merged.
        assert_eq!(m.dlb_calls, 7);
    }

    #[test]
    fn merge_adds_class_counters_elementwise() {
        let a = FockBuildStats { eri_class_quartets: vec![1, 2], ..Default::default() };
        let b = FockBuildStats { eri_class_quartets: vec![10, 20, 30], ..Default::default() };
        let m = FockBuildStats::merge(a, &b);
        assert_eq!(m.eri_class_quartets, vec![11, 22, 30]);
        // Merging an empty contributor is a no-op.
        let m2 = FockBuildStats::merge(m, &FockBuildStats::default());
        assert_eq!(m2.eri_class_quartets, vec![11, 22, 30]);
    }

    #[test]
    fn spec_quartet_accessor_excludes_the_generic_slot() {
        assert_eq!(FockBuildStats::default().eri_spec_quartets(), 0);
        let mut v = vec![0u64; phi_integrals::N_CLASS_SLOTS];
        v[phi_integrals::class_index(0, 0)] = 3;
        v[phi_integrals::class_index(4, 4)] = 5;
        v[phi_integrals::GENERIC_SLOT] = 100;
        let s = FockBuildStats { eri_class_quartets: v, ..Default::default() };
        assert_eq!(s.eri_spec_quartets(), 8);
    }

    /// The counters the builders emit as trace events are accumulated in
    /// the same locals as these stats fields, so the two views must agree
    /// exactly — the deterministic replacement for asserting on wall
    /// times (see tests/trace_invariants.rs for the parallel builders).
    #[cfg(feature = "trace")]
    #[test]
    fn trace_counters_reconcile_with_serial_build_stats() {
        use phi_chem::basis::BasisName;
        use phi_chem::geom::small;
        use phi_chem::BasisSet;
        use phi_integrals::{Screening, ShellPairs};
        use phi_linalg::Mat;

        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let pairs = ShellPairs::build(&b);
        let s = Screening::from_pairs(&b, &pairs);
        let d = Mat::identity(b.n_basis());
        let session = phi_trace::TraceSession::begin();
        let ctx = crate::FockContext::new(&b, &pairs, &s, 1e-10);
        let out = crate::fock::serial::build_serial(&ctx, &crate::DensitySet::Restricted(&d));
        let report = session.finish();
        assert_eq!(report.counter_total("quartets_computed"), out.stats.quartets_computed);
        assert_eq!(report.counter_total("quartets_screened"), out.stats.quartets_screened);
        assert_eq!(report.counter_total("flushes"), out.stats.flushes);
    }
}
