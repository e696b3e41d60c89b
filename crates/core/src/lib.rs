//! Hartree-Fock SCF with the paper's three parallel Fock-build algorithms.
//!
//! This crate is the reproduction of the paper's contribution: restricted
//! Hartree-Fock over the `phi-integrals` engine, with two-electron Fock
//! matrix construction parallelized three ways on the `phi-dmpi` +
//! `phi-omp` substrates:
//!
//! * [`fock::mpi_only`] — Algorithm 1, the stock GAMESS scheme: every rank
//!   replicates all matrices, DLB over `(i,j)` shell pairs, `gsumf`
//!   reduction;
//! * [`fock::private_fock`] — Algorithm 2 ("shared density, private Fock"):
//!   hybrid ranks x threads, density shared per rank, Fock replicated per
//!   thread, MPI DLB over `i`, collapsed `(j,k)` OpenMP loop;
//! * [`fock::shared_fock`] — Algorithm 3 ("shared density, shared Fock"):
//!   density and Fock both shared per rank, MPI DLB over combined `ij`
//!   pairs with task-level Schwarz prescreening, OpenMP over combined `kl`,
//!   thread-private `FI`/`FJ` column buffers with lazy `FI` flushing.
//!
//! A serial reference builder ([`fock::serial`]) defines ground truth (up
//! to floating-point summation order) for all three;
//! [`fock::distributed`] adds the related-work distributed-data baseline
//! and [`fock::sharded`] the fully sharded build. All of them share one
//! task skeleton (lease loops, quartet worker, stats epilogue), so each
//! builder states only its task split, density reads and Fock writes.
//!
//! All builders sit behind one engine layer ([`fock::engine`]): drivers
//! assemble a [`FockContext`] (basis + persistent shell pairs + screening)
//! once, pick a [`FockBuilder`] via [`FockAlgorithm::builder`], and hand it
//! a [`DensitySet`] — one matrix for RHF, an α/β pair for UHF. Every
//! builder returns the same [`GBuild`] (per-channel `G` matrices plus
//! uniformly collected [`FockBuildStats`]), so RHF ([`scf`]), UHF
//! ([`uhf`]), and the stored-integral replay ([`incore`]) compose with any
//! algorithm.
//!
//! The driver ([`scf`]) handles the rest of the method: core-Hamiltonian
//! guess, symmetric orthogonalization, (optional) DIIS acceleration,
//! convergence on the density RMS — and reports per-iteration Fock timings
//! and the per-rank memory accounting that reproduce the paper's tables.

pub mod checkpoint;
pub mod diis;
pub mod fock;
pub mod guess;
pub mod incore;
pub mod memory_model;
pub mod mp2;
pub mod properties;
pub mod purification;
pub mod scf;
pub mod stats;
pub mod uhf;

pub use checkpoint::ScfCheckpoint;
pub use fock::engine::{FockBuilder, FockContext, FockData};
pub use fock::incremental::IncrementalFock;
pub use fock::{DensitySet, FockAlgorithm, GBuild};
pub use incore::IncoreEris;
pub use memory_model::MemoryModel;
pub use mp2::{mp2_energy, Mp2Result};
pub use properties::{dipole_moment, mulliken_charges, Dipole};
pub use purification::{purify_density, purify_density_threaded, Purification};
pub use scf::{run_scf, ScfConfig, ScfResult, ScfStop};
pub use stats::FockBuildStats;
pub use uhf::{mulliken_spin_populations, run_uhf, UhfConfig, UhfResult};
