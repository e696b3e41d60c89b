//! The task skeleton every Fock builder shares.
//!
//! The paper's Algorithms 1–3, the distributed baseline and the sharded
//! build differ only in how shell-quartet tasks are split, where density
//! is read and where Fock is written. Everything else lives here, once:
//!
//! * [`Worker`] — one per rank or thread: the ERI engine and buffer, the
//!   screen-then-evaluate step, the canonical `(k, l)` loops of an `ij`
//!   task, and the work counters that become its [`FockBuildStats`];
//! * [`lease_loop`] and [`TeamLeases`] — a rank's DLB lease loop, run by
//!   one thread (MPI-only, distributed, sharded) or pulled by the master
//!   and broadcast through a barrier (private and shared Fock);
//! * [`replicate_inputs`] and [`Charge`] — per-rank density replication
//!   and the tracked-memory charges;
//! * [`run_ranks`] — the world plus the one epilogue that merges per-rank
//!   stats, world counters and DDI-window link stats.

use super::engine::FockContext;
use super::matrix::ReplicatedFock;
use super::{kl_bounds, DensitySet, GBuild};
use crate::stats::FockBuildStats;
use phi_dmpi::{DistributedArray, LeaseMode, Rank, TrackedBuf, WorldConfig};
use phi_integrals::EriEngine;
use phi_omp::ThreadCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Quartet evaluation and work accounting for one rank or thread.
pub(crate) struct Worker<'a> {
    ctx: FockContext<'a>,
    engine: EriEngine,
    buf: Vec<f64>,
    computed: u64,
    /// Quartets screened out, by the quartet test or by a task prescreen.
    pub(crate) screened: u64,
    /// DLB tasks this worker ran (counted on one thread per rank).
    pub(crate) tasks: usize,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(ctx: &FockContext<'a>) -> Worker<'a> {
        Worker {
            ctx: *ctx,
            engine: ctx.engine(),
            buf: Vec::new(),
            computed: 0,
            screened: 0,
            tasks: 0,
        }
    }

    /// Screen quartet `(ij|kl)` and, if it survives, evaluate its ERI
    /// block from the shared pair dataset.
    #[inline]
    pub(crate) fn quartet(&mut self, i: usize, j: usize, k: usize, l: usize) -> Option<&[f64]> {
        if !self.ctx.survives(i, j, k, l) {
            self.screened += 1;
            return None;
        }
        let (bra, ket) = (self.ctx.pairs.pair(i, j), self.ctx.pairs.pair(k, l));
        self.buf.clear();
        self.buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
        self.engine.shell_quartet_pairs(bra, ket, &mut self.buf);
        self.computed += 1;
        Some(&self.buf)
    }

    /// The canonical `l` loop of row `(i, j, k)`: `digest(k, l, eri)` for
    /// every surviving quartet.
    #[inline]
    pub(crate) fn l_row(
        &mut self,
        i: usize,
        j: usize,
        k: usize,
        digest: &mut impl FnMut(usize, usize, &[f64]),
    ) {
        for l in 0..=kl_bounds(i, j, k) {
            if let Some(eri) = self.quartet(i, j, k, l) {
                digest(k, l, eri);
            }
        }
    }

    /// Every canonical `(k, l)` quartet of the `ij` task.
    pub(crate) fn ij_task(
        &mut self,
        i: usize,
        j: usize,
        mut digest: impl FnMut(usize, usize, &[f64]),
    ) {
        for k in 0..=i {
            self.l_row(i, j, k, &mut digest);
        }
    }

    /// This worker's counters as build stats, also emitted as trace
    /// counters: once per worker and build, never per quartet, so their
    /// totals reconcile exactly with the merged stats.
    pub(crate) fn finish(self, flushes: u64) -> FockBuildStats {
        phi_trace::counter("quartets_computed", self.computed);
        phi_trace::counter("quartets_screened", self.screened);
        phi_trace::counter("flushes", flushes);
        phi_trace::counter("eri.spec_quartets", self.engine.spec_quartets_computed());
        FockBuildStats {
            quartets_computed: self.computed,
            quartets_screened: self.screened,
            prim_quartets: self.engine.prim_quartets_computed(),
            eri_class_quartets: self.engine.class_counts().to_vec(),
            dlb_tasks: self.tasks,
            flushes,
            ..Default::default()
        }
    }
}

/// The single-threaded rank loop: claim leases until none are left and
/// run `task` on each, including any flush its durability needs, before
/// the lease completes. Returns whether the rank is still alive.
pub(crate) fn lease_loop<'a>(
    rank: &Rank,
    n_tasks: usize,
    mode: LeaseMode,
    w: &mut Worker<'a>,
    mut task: impl FnMut(&mut Worker<'a>, usize),
) -> bool {
    if rank.lease_reset(n_tasks, mode).is_err() {
        return false;
    }
    loop {
        match rank.lease_next() {
            Ok(Some(t)) => {
                w.tasks += 1;
                task(w, t);
                rank.lease_complete(t);
            }
            Ok(None) => return true,
            Err(_) => return false,
        }
    }
}

/// Sentinel the master broadcasts when every task is complete.
const TASK_DONE: usize = usize::MAX;
/// Sentinel the master broadcasts when its rank has been killed: the
/// whole thread team unwinds cleanly at the next barrier.
const TASK_DEAD: usize = usize::MAX - 1;

/// The threaded rank loop: the master thread pulls each lease and
/// broadcasts it to the team through a barrier. Leases are volatile —
/// a dead rank's thread-held partial sums never reach the reduction.
pub(crate) struct TeamLeases<'r> {
    rank: &'r Rank,
    n_tasks: usize,
    current: AtomicUsize,
}

impl<'r> TeamLeases<'r> {
    pub(crate) fn new(rank: &'r Rank, n_tasks: usize) -> TeamLeases<'r> {
        // If this errors the rank is already doomed; the master's first
        // lease claim observes the same condition and unwinds the team.
        let _ = rank.lease_reset(n_tasks, LeaseMode::Volatile);
        TeamLeases { rank, n_tasks, current: AtomicUsize::new(0) }
    }

    /// Run on every thread of the team. `task` returns `true` when it ran
    /// a workshared loop, whose trailing barrier proves the team finished
    /// the task; `false` when it skipped the task (prescreened) without
    /// one.
    pub(crate) fn run<'a>(
        &self,
        tctx: &ThreadCtx<'_>,
        w: &mut Worker<'a>,
        mut task: impl FnMut(&mut Worker<'a>, usize) -> bool,
    ) {
        let mut prev_task: Option<usize> = None;
        loop {
            // The previous task only counts as complete here, after the
            // team finished it. A kill fires inside the claim; the master
            // then broadcasts the DEAD sentinel and the team unwinds.
            tctx.master(|| {
                if let Some(p) = prev_task.take() {
                    self.rank.lease_complete(p);
                }
                let next = match self.rank.lease_next() {
                    Ok(Some(t)) => {
                        prev_task = Some(t);
                        t
                    }
                    Ok(None) => TASK_DONE,
                    Err(_) => TASK_DEAD,
                };
                self.current.store(next, Ordering::SeqCst);
            });
            tctx.barrier();
            let t = self.current.load(Ordering::SeqCst);
            if t >= self.n_tasks {
                break;
            }
            if task(w, t) {
                if tctx.is_master() {
                    w.tasks += 1;
                }
            } else {
                // Every thread must have read `current` before the master
                // overwrites it with the next pull. Without this barrier a
                // slow thread can miss a task entirely and the team's
                // collective-call sequences diverge — deadlock.
                tctx.barrier();
            }
        }
    }
}

/// Tracked bytes charged to a rank for as long as the guard lives.
pub(crate) struct Charge<'r> {
    rank: &'r Rank,
    bytes: usize,
}

impl<'r> Charge<'r> {
    pub(crate) fn new(rank: &'r Rank, bytes: usize) -> Charge<'r> {
        rank.charge_bytes(bytes);
        Charge { rank, bytes }
    }
}

impl Drop for Charge<'_> {
    fn drop(&mut self) {
        self.rank.release_bytes(self.bytes);
    }
}

/// One rank's copy of every spin-channel density.
pub(crate) fn replicate_density(rank: &Rank, dens: &DensitySet<'_>) -> TrackedBuf {
    let (first, second) = match *dens {
        DensitySet::Restricted(d) => (d, None),
        DensitySet::Unrestricted { alpha, beta } => (alpha, Some(beta)),
    };
    let len = first.as_slice().len();
    let mut copy = rank.alloc_f64(dens.n_channels() * len);
    copy[..len].copy_from_slice(first.as_slice());
    if let Some(b) = second {
        copy[len..].copy_from_slice(b.as_slice());
    }
    copy
}

/// The replicated inputs of Algorithms 1–3 on one rank: the density copy,
/// the read-only overlap, core Hamiltonian and MO coefficient matrices a
/// GAMESS process also carries (charged, not allocated: the build reads
/// only D), and the shell-pair dataset (one copy per process).
pub(crate) fn replicate_inputs<'r>(
    rank: &'r Rank,
    ctx: &FockContext<'_>,
    dens: &DensitySet<'_>,
) -> (TrackedBuf, Charge<'r>) {
    let n = ctx.basis.n_basis();
    let readonly = 3 * n * n * std::mem::size_of::<f64>();
    (replicate_density(rank, dens), Charge::new(rank, readonly + ctx.pairs.bytes()))
}

/// A replicated builder's reduction (Algorithms 1–3): sum the rank's Fock
/// over the surviving ranks. A dead rank stays out and its partial sums
/// die with it; the lowest live rank keeps the result.
pub(crate) fn gsum_replicated(
    rank: &Rank,
    alive: bool,
    mut fock: ReplicatedFock,
) -> Option<ReplicatedFock> {
    let alive = alive && rank.try_gsumf(fock.as_mut_slice()).is_ok();
    (alive && rank.is_lowest_live()).then_some(fock)
}

/// Run `rank_build` on every rank of a world, inside the rank's
/// `fock.build` span and wall timer, then merge: per-rank stats, the
/// world's DLB, fault and delivery counters, and the link stats of the
/// DDI `windows` the build wrote through. Returns the payload of the rank
/// that returned one.
pub(crate) fn run_ranks<R: Send>(
    cfg: WorldConfig,
    windows: &[DistributedArray],
    rank_build: impl Fn(&Rank) -> (Option<R>, FockBuildStats) + Sync,
) -> (Option<R>, FockBuildStats) {
    let world = phi_dmpi::run_world_with_config(cfg, |rank| {
        let _span = phi_trace::span("fock.build");
        let start = Instant::now();
        let (out, mut stats) = rank_build(rank);
        stats.seconds = start.elapsed().as_secs_f64();
        (out, stats)
    });
    let mut stats = FockBuildStats { failed_ranks: world.failed_ranks(), ..Default::default() };
    let mut result = None;
    for (out, s) in world.per_rank {
        stats = FockBuildStats::merge(stats, &s);
        result = result.or(out);
    }
    stats.memory_total_peak = world.memory.total_peak();
    stats.per_rank_peak = world.memory.per_rank_peak;
    stats.dlb_calls = world.dlb_calls;
    stats.faults_injected = world.faults_injected;
    stats.tasks_reclaimed = world.tasks_reclaimed;
    stats.retries = world.lease_retries;
    stats.retransmits = world.retransmits;
    stats.acks = world.acks;
    stats.corruptions_detected = world.corruptions_detected;
    stats.transient_recoveries = world.transient_recoveries;
    for w in windows {
        let ls = w.link_stats();
        stats.retransmits += ls.retransmits;
        stats.acks += ls.acks;
        stats.corruptions_detected += ls.corruptions_detected;
        stats.transient_recoveries += ls.transient_recoveries;
        stats.faults_injected += ls.faults_injected as usize;
    }
    (result, stats)
}

/// The result of a replicated build: the reduced Fock of the lowest live
/// rank, mirrored into full matrices.
pub(crate) fn replicated_result(out: (Option<ReplicatedFock>, FockBuildStats)) -> GBuild {
    let (fock, stats) = out;
    let fock = fock.unwrap_or_else(|| {
        panic!(
            "no surviving rank returned the reduced Fock (failed ranks: {:?})",
            stats.failed_ranks
        )
    });
    GBuild::from_channels(fock.into_mats(), stats)
}

/// A DDI window that rides the reliable link under a fault plan, so drops
/// and corruptions drain into retransmission.
pub(crate) fn window(w: DistributedArray, cfg: &WorldConfig) -> DistributedArray {
    match &cfg.faults {
        Some(plan) => w.with_faults(plan, cfg.retry),
        None => w,
    }
}
