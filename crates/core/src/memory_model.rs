//! Memory footprint model — the paper's equations (3a)–(3c) and Table 2.
//!
//! Asymptotic per-node footprints (N_BF basis functions, 8-byte reals):
//!
//! ```text
//! M_MPI  = 5/2           * N^2 * N_mpi_per_node        (eq. 3a)
//! M_PrF  = (2 + N_thr)   * N^2 * N_mpi_per_node        (eq. 3b)
//! M_ShF  = 7/2           * N^2 * N_mpi_per_node        (eq. 3c)
//! ```
//!
//! The paper runs 256 MPI ranks/node for the MPI-only code and
//! 4 ranks x 64 threads for the hybrids. The model also exposes the DDI
//! data-server variant (process count doubled, §6.2) and converts to the
//! paper's GB units for direct Table 2 comparison.

use crate::fock::matrix::ShardBudget;
use phi_chem::geom::graphene::PaperSystem;
use phi_dmpi::DdiMode;

/// Word size of the matrices (double precision).
const WORD: f64 = 8.0;

/// Node-level memory model for one algorithm configuration.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    pub n_basis: usize,
    pub mpi_per_node: usize,
    pub threads_per_rank: usize,
    pub ddi: DdiMode,
    /// Bytes of the persistent shell-pair dataset
    /// ([`phi_integrals::ShellPairs::bytes`]). Charged once per MPI rank —
    /// shared read-only by the rank's threads, never replicated per thread,
    /// and not doubled by DDI data servers (data servers hold distributed
    /// arrays, not integral data).
    pub pair_bytes: f64,
}

impl MemoryModel {
    /// The paper's MPI-only configuration (eq. 3a): up to 256 ranks/node.
    pub fn mpi_only(n_basis: usize, mpi_per_node: usize) -> MemoryModel {
        MemoryModel {
            n_basis,
            mpi_per_node,
            threads_per_rank: 1,
            ddi: DdiMode::Mpi3OneSided,
            pair_bytes: 0.0,
        }
    }

    /// The paper's hybrid configuration: 4 ranks x `threads` threads.
    pub fn hybrid(n_basis: usize, mpi_per_node: usize, threads_per_rank: usize) -> MemoryModel {
        MemoryModel {
            n_basis,
            mpi_per_node,
            threads_per_rank,
            ddi: DdiMode::Mpi3OneSided,
            pair_bytes: 0.0,
        }
    }

    pub fn with_ddi(mut self, ddi: DdiMode) -> MemoryModel {
        self.ddi = ddi;
        self
    }

    /// Account for the persistent shell-pair dataset (bytes per copy).
    pub fn with_shell_pairs(mut self, bytes: usize) -> MemoryModel {
        self.pair_bytes = bytes as f64;
        self
    }

    fn n2(&self) -> f64 {
        (self.n_basis as f64) * (self.n_basis as f64)
    }

    fn process_factor(&self) -> f64 {
        (self.mpi_per_node * self.ddi.processes_per_rank()) as f64
    }

    /// Per-node contribution of the shell-pair dataset: one copy per rank
    /// (NOT per compute thread, NOT per data server).
    fn pair_term(&self) -> f64 {
        self.pair_bytes * self.mpi_per_node as f64
    }

    /// Eq. (3a): MPI-only footprint per node, bytes.
    pub fn bytes_mpi_only(&self) -> f64 {
        2.5 * self.n2() * self.process_factor() * WORD + self.pair_term()
    }

    /// Eq. (3b): private-Fock footprint per node, bytes.
    pub fn bytes_private_fock(&self) -> f64 {
        (2.0 + self.threads_per_rank as f64) * self.n2() * self.process_factor() * WORD
            + self.pair_term()
    }

    /// Eq. (3c): shared-Fock footprint per node, bytes.
    pub fn bytes_shared_fock(&self) -> f64 {
        3.5 * self.n2() * self.process_factor() * WORD + self.pair_term()
    }

    /// Fully sharded build (restricted, [`crate::fock::sharded`]) per node,
    /// bytes: the tri-packed density + Fock window stripes (`N(N+1)/2`
    /// words each, divided over `total_ranks` world ranks, doubled per
    /// process by DDI data servers since the servers hold the array
    /// segments) plus the O(N) buffers each compute rank keeps — both
    /// priced by [`ShardBudget`], the formula the live build charges.
    /// `max_shell_fns` is the basis's largest shell; it sizes the Fock
    /// row blocks. The `N^2`-per-process term that eqs. (3a)-(3c) all
    /// share is gone — this is the variant that dodges the memory wall.
    pub fn bytes_sharded(&self, total_ranks: usize, max_shell_fns: usize) -> f64 {
        let b = ShardBudget::new(self.n_basis, max_shell_fns, total_ranks.max(1), 1);
        b.stripe_bytes as f64 * self.process_factor()
            + b.buffer_bytes as f64 * self.mpi_per_node as f64
            + self.pair_term()
    }

    pub fn gb_mpi_only(&self) -> f64 {
        self.bytes_mpi_only() / 1e9
    }

    pub fn gb_private_fock(&self) -> f64 {
        self.bytes_private_fock() / 1e9
    }

    pub fn gb_shared_fock(&self) -> f64 {
        self.bytes_shared_fock() / 1e9
    }

    pub fn gb_sharded(&self, total_ranks: usize, max_shell_fns: usize) -> f64 {
        self.bytes_sharded(total_ranks, max_shell_fns) / 1e9
    }
}

/// One row of the paper's Table 2 regenerated from the model with the
/// paper's configurations: 256 ranks (MPI-only) vs 4 ranks x 64 threads
/// (hybrids).
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub system: PaperSystem,
    pub gb_mpi: f64,
    pub gb_private: f64,
    pub gb_shared: f64,
}

impl Table2Row {
    pub fn compute(system: PaperSystem) -> Table2Row {
        let n = system.n_basis_functions();
        let mpi = MemoryModel::mpi_only(n, 256);
        let hyb = MemoryModel::hybrid(n, 4, 64);
        Table2Row {
            system,
            gb_mpi: mpi.gb_mpi_only(),
            gb_private: hyb.gb_private_fock(),
            gb_shared: hyb.gb_shared_fock(),
        }
    }

    /// Footprint ratio MPI-only : shared-Fock (the paper's "~200x").
    pub fn shared_ratio(&self) -> f64 {
        self.gb_mpi / self.gb_shared
    }

    /// Footprint ratio MPI-only : private-Fock (the paper's "~50x").
    pub fn private_ratio(&self) -> f64 {
        self.gb_mpi / self.gb_private
    }
}

/// The paper's printed Table 2 values (GB) for comparison output:
/// (system, MPI, private Fock, shared Fock).
pub const PAPER_TABLE2_GB: [(f64, f64, f64); 5] = [
    (7.0, 0.13, 0.03),
    (48.0, 1.0, 0.2),
    (160.0, 3.0, 0.8),
    (417.0, 8.0, 2.0),
    (9869.0, 257.0, 52.0),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_the_papers_headline_numbers() {
        // With the paper's configurations the model ratios are exact:
        // MPI : shared = 2.5*256 : 3.5*4 = 640 : 14 ~ 45.7x per eq. (3),
        // but the paper reports ~200x *measured*. The measured number also
        // folds in GAMESS's additional replicated structures; what must
        // hold from the equations alone:
        let row = Table2Row::compute(PaperSystem::Nm10);
        assert!(row.shared_ratio() > 40.0, "shared ratio {}", row.shared_ratio());
        assert!(row.private_ratio() > 2.0, "private ratio {}", row.private_ratio());
        // Shared Fock always beats private Fock at 64 threads.
        assert!(row.gb_shared < row.gb_private);
    }

    #[test]
    fn footprints_scale_quadratically_with_basis() {
        let small = Table2Row::compute(PaperSystem::Nm05);
        let large = Table2Row::compute(PaperSystem::Nm10);
        let n_ratio = (PaperSystem::Nm10.n_basis_functions() as f64
            / PaperSystem::Nm05.n_basis_functions() as f64)
            .powi(2);
        assert!((large.gb_mpi / small.gb_mpi - n_ratio).abs() < 1e-9);
    }

    #[test]
    fn data_servers_double_everything() {
        let base = MemoryModel::mpi_only(1800, 64);
        let with_servers = base.with_ddi(DdiMode::DataServer);
        assert!((with_servers.bytes_mpi_only() / base.bytes_mpi_only() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shell_pair_term_is_per_rank_not_per_thread_or_server() {
        let pair_bytes = 123_456_789usize;
        let base = MemoryModel::hybrid(1800, 4, 64);
        let with_pairs = base.with_shell_pairs(pair_bytes);
        let delta = with_pairs.bytes_shared_fock() - base.bytes_shared_fock();
        // One copy per rank: 4 ranks x pair_bytes, independent of the 64
        // threads.
        assert!((delta - 4.0 * pair_bytes as f64).abs() < 1e-6);
        assert!((with_pairs.bytes_private_fock() - base.bytes_private_fock() - delta).abs() < 1e-6);
        // Data servers double the matrix replication but NOT the pair data.
        let servers = with_pairs.with_ddi(DdiMode::DataServer);
        let base_servers = base.with_ddi(DdiMode::DataServer);
        let delta_servers = servers.bytes_shared_fock() - base_servers.bytes_shared_fock();
        assert!((delta_servers - delta).abs() < 1e-6);
    }

    #[test]
    fn hybrid_thread_count_drives_private_fock_linearly() {
        let m1 = MemoryModel::hybrid(1800, 4, 1);
        let m64 = MemoryModel::hybrid(1800, 4, 64);
        let ratio = m64.bytes_private_fock() / m1.bytes_private_fock();
        assert!((ratio - 66.0 / 3.0).abs() < 1e-9);
        // Shared Fock is thread-count independent.
        assert_eq!(m1.bytes_shared_fock(), m64.bytes_shared_fock());
    }

    #[test]
    fn sharded_model_escapes_the_quadratic_wall() {
        // At paper scale, every replicated algorithm's per-node footprint
        // grows as N^2 per process; the sharded stripes grow as N^2 only
        // in aggregate across the whole machine, so the per-node number
        // collapses as ranks are added.
        let n = PaperSystem::Nm20.n_basis_functions();
        let m = MemoryModel::hybrid(n, 4, 1);
        // 6-31G(d): the largest shell is a 6-function cartesian d.
        let sharded_64 = m.bytes_sharded(64, 6);
        assert!(
            sharded_64 < m.bytes_shared_fock() / 10.0,
            "sharded {} vs shared Fock {}",
            sharded_64,
            m.bytes_shared_fock()
        );
        // More world ranks -> thinner stripes, monotonically.
        assert!(m.bytes_sharded(256, 6) < m.bytes_sharded(64, 6));
        // Data servers double the stripe term but not the rank-local
        // caches: strictly less than a full doubling.
        let ds = m.with_ddi(DdiMode::DataServer);
        assert!(ds.bytes_sharded(64, 6) > sharded_64);
        assert!(ds.bytes_sharded(64, 6) < 2.0 * sharded_64);
    }

    #[test]
    fn model_tracks_paper_table2_within_an_order_of_magnitude() {
        // The paper's printed Table 2 does not follow its own eqs. (3a)-(3c)
        // exactly (e.g. its private-Fock column corresponds to ~(2+8) N^2
        // per rank rather than (2+64); see EXPERIMENTS.md). The model must
        // still land within 10x on every entry and preserve the ordering
        // MPI >> private > shared.
        for (sys, &(p_mpi, p_prf, p_shf)) in PaperSystem::ALL.iter().zip(&PAPER_TABLE2_GB) {
            let row = Table2Row::compute(*sys);
            for (model, paper) in
                [(row.gb_mpi, p_mpi), (row.gb_private, p_prf), (row.gb_shared, p_shf)]
            {
                let ratio = model / paper;
                assert!(
                    (0.1..10.0).contains(&ratio),
                    "{}: model {model} GB vs paper {paper} GB",
                    sys.label()
                );
            }
            assert!(row.gb_mpi > row.gb_private && row.gb_private > row.gb_shared);
        }
    }
}
