//! Distribution-aware matrix layer: where builders *read* density and
//! *write* Fock contributions.
//!
//! Two storage policies live here, each with its own concrete types and
//! no dispatch between them:
//!
//! * **Replicated** — the matrices exist in full on every rank.
//!   [`ReplicatedFock`] owns the per-channel lower-triangle accumulation
//!   buffers the replicated builders (serial, MPI-only, private-Fock)
//!   digest into.
//! * **RowShard** — the matrices live in tri-packed row shards inside
//!   [`phi_dmpi::DistributedArray`] windows, striped over ranks.
//!   [`ShardDensity`] reads rows on demand through `get` into a bounded,
//!   direct-indexed FIFO row cache and gathers a quartet's density blocks
//!   from it, one cached row per block row; [`RowShardFock`] accumulates
//!   a task's digested blocks in dense row blocks (the paper's `FI`/`FJ`
//!   buffers adapted to tri-packed windows) and flushes each block row as
//!   one `acc` run. Both plug into the same block digestion as the
//!   replicated builders. No rank ever materializes a full `N x N`
//!   matrix — per-rank memory is the owned window stripes plus the O(N)
//!   buffers priced by [`ShardBudget`].
//!
//! The tri-packed layout stores the lower triangle row-major:
//! element `(p, q)` with `p >= q` lives at `p (p + 1) / 2 + q`, so one
//! matrix costs `N (N + 1) / 2` words total across all ranks instead of
//! `N^2` words *per* rank.

use super::digest::{BlockView, ChannelSink, DensitySource, Quartet, QuartetDensity};
use super::{DensityWork, FockBlock, FockSink, TriSink};
use phi_chem::BasisSet;
use phi_dmpi::{DdiMode, DistributedArray};
use phi_linalg::Mat;
use std::collections::VecDeque;
use std::mem::size_of;

/// Length of a tri-packed lower triangle of an `n x n` symmetric matrix.
#[inline]
pub fn tri_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Tri-packed index of element `(p, q)`, `p >= q`.
#[inline]
pub fn tri_index(p: usize, q: usize) -> usize {
    debug_assert!(p >= q);
    p * (p + 1) / 2 + q
}

/// Row-cache capacity in *elements* for the sharded density reader.
/// O(N): big enough to keep the bra rows plus the sweeping ket rows of a
/// task hot, small enough that it never approaches a replicated matrix.
fn shard_cache_elems(n: usize) -> usize {
    (16 * n).max(1024)
}

/// Pending-entry capacity of the sharded sparse write buffer. Each entry
/// is 16 bytes (packed index + value); O(N) total.
fn shard_flush_entries(n: usize) -> usize {
    (8 * n).max(512)
}

/// Gathered-block slots of the sharded density reader: the Coulomb `ab`
/// and `cd` blocks plus `ac`, `ad`, `bc`, `bd` per exchange channel.
fn gathered_slots(nch: usize) -> usize {
    2 + 4 * nch
}

/// Per-rank resident bytes of one sharded build with `nch` spin channels
/// over `n_ranks` ranks — the single formula the live memory tracker, the
/// memory model and the tests all use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardBudget {
    /// This rank's stripe of every density and Fock window.
    pub stripe_bytes: usize,
    /// The O(N) per-rank buffers: the density row cache with its slot
    /// table and FIFO ring, the gathered density blocks of a quartet, the
    /// dense Fock row blocks, and the sparse write buffer.
    pub buffer_bytes: usize,
}

impl ShardBudget {
    /// `max_shell_fns` is the basis's largest shell
    /// ([`BasisSet::max_shell_functions`]): it sets the row count of
    /// each of the three Fock row blocks and the size of each gathered
    /// density block.
    pub fn new(n: usize, max_shell_fns: usize, n_ranks: usize, nch: usize) -> ShardBudget {
        // Density windows: `D` restricted; `D_total`, `D_alpha`, `D_beta` UHF.
        let n_dens = if nch == 1 { 1 } else { 3 };
        let stripe_bytes = (n_dens + nch) * tri_len(n).div_ceil(n_ranks) * size_of::<f64>();
        let cache = shard_cache_elems(n) * size_of::<f64>()
            + 2 * n_dens * n * size_of::<u32>()
            + gathered_slots(nch) * (max_shell_fns * max_shell_fns * size_of::<f64>() + HELD_BYTES);
        let blocks = 3 * nch * max_shell_fns * n * size_of::<f64>();
        let sparse = shard_flush_entries(n) * size_of::<(u64, f64)>();
        ShardBudget { stripe_bytes, buffer_bytes: cache + blocks + sparse }
    }

    pub fn total(&self) -> usize {
        self.stripe_bytes + self.buffer_bytes
    }
}

// ---------------------------------------------------------------------
// Replicated backend (write side)
// ---------------------------------------------------------------------

/// The replicated write-side backend: per-channel lower-triangle
/// accumulation buffers owned in full by one rank (or one thread).
///
/// Centralizes the `vec![0.0; nch * n * n]` + [`TriSink`] +
/// `tri_to_full` boilerplate the replicated builders all shared.
pub struct ReplicatedFock {
    bufs: Vec<f64>,
    nch: usize,
    n: usize,
}

impl ReplicatedFock {
    pub fn new(nch: usize, n: usize) -> ReplicatedFock {
        ReplicatedFock { bufs: vec![0.0; nch * n * n], nch, n }
    }

    /// Wrap an existing channel-major lower-triangle buffer (e.g. the
    /// snapshot a `gsumf` reduction produced) in the replicated backend.
    pub fn from_raw(bufs: Vec<f64>, nch: usize, n: usize) -> ReplicatedFock {
        debug_assert_eq!(bufs.len(), nch * n * n);
        ReplicatedFock { bufs, nch, n }
    }

    /// Bytes this backend holds resident (for the live memory tracker).
    pub fn bytes(&self) -> usize {
        self.bufs.len() * std::mem::size_of::<f64>()
    }

    /// One [`TriSink`] per spin channel, borrowing the buffers.
    pub fn sinks(&mut self) -> Vec<TriSink<'_>> {
        let n = self.n;
        self.bufs.chunks_mut(n * n).map(|buf| TriSink { buf, n }).collect()
    }

    /// The raw channel-major accumulation buffer (e.g. for `gsumf`).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.bufs
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.bufs
    }

    /// Sum another replica into this one (the OpenMP
    /// `reduction(+ : Fock)` step of Algorithm 2).
    pub fn reduce_from(&mut self, other: &ReplicatedFock) {
        debug_assert_eq!(self.bufs.len(), other.bufs.len());
        for (dst, src) in self.bufs.iter_mut().zip(&other.bufs) {
            *dst += src;
        }
    }

    /// Mirror each channel's lower triangle into a full symmetric matrix.
    pub fn into_mats(self) -> Vec<Mat> {
        let n = self.n;
        let _ = self.nch;
        self.bufs.chunks(n * n).map(|b| super::tri_to_full(b, n)).collect()
    }
}

// ---------------------------------------------------------------------
// RowShard backend (read side)
// ---------------------------------------------------------------------

/// Scatter a prepared density into tri-packed DDI windows, striped over
/// `n_ranks`. Restricted input yields one window (`D`); unrestricted
/// input yields three (`D_total`, `D_alpha`, `D_beta`) so Coulomb and
/// per-spin exchange reads each have a home. Runs on the driver before
/// the world starts; the windows outlive rank deaths.
pub fn scatter_density(
    work: &DensityWork<'_>,
    n: usize,
    n_ranks: usize,
    mode: DdiMode,
) -> Vec<DistributedArray> {
    let pack = |m: &Mat| {
        let mut buf = vec![0.0; tri_len(n)];
        for p in 0..n {
            for q in 0..=p {
                buf[tri_index(p, q)] = m[(p, q)];
            }
        }
        let win = DistributedArray::new_with_mode(tri_len(n), n_ranks, mode);
        win.put(0, 0, &buf);
        win
    };
    match work {
        DensityWork::Restricted(d) => vec![pack(d)],
        DensityWork::Unrestricted { total, alpha, beta } => {
            vec![pack(total), pack(alpha), pack(beta)]
        }
    }
}

/// Gather a tri-packed Fock window back into a full symmetric matrix
/// (driver side, after the world has finished accumulating).
pub fn gather_tri(win: &DistributedArray, n: usize) -> Mat {
    let mut buf = vec![0.0; tri_len(n)];
    win.get(0, 0, &mut buf);
    let mut m = Mat::zeros(n, n);
    for p in 0..n {
        for q in 0..=p {
            let v = buf[tri_index(p, q)];
            m[(p, q)] = v;
            m[(q, p)] = v;
        }
    }
    m
}

/// Slot value of a `(window, row)` the density cache does not hold.
const NOT_CACHED: u32 = u32::MAX;

/// First row and column of the block a gathered slot holds.
type Held = (usize, usize);
const HELD_BYTES: usize = size_of::<Held>();
/// A gathered slot that holds no block yet.
const NOTHING_HELD: Held = (usize::MAX, usize::MAX);

/// Read side of the RowShard backend: on-demand tri-packed row fetches
/// from the density windows into a bounded FIFO row cache.
///
/// The cache is a ring arena of `16N` elements (floor 1024) with one
/// slot per `(window, row)` holding the row's arena offset, so a hit is
/// two indexed loads — no hashing — and a miss `get`s the row straight
/// into the arena. Rows are placed back to back in fetch order, which is
/// also FIFO eviction order: a fetch evicts exactly the oldest rows whose
/// space it reuses, and nothing is allocated after construction.
///
/// Window 0 is the Coulomb source (`D` restricted, `D_total` UHF);
/// windows `1..` are the per-spin exchange densities of a UHF build.
///
/// Digestion reads a quartet's six density blocks as dense copies
/// gathered from the cache one row per block row. Each block keeps its
/// own slot and is gathered again only when its shells change: along a
/// task's `l` loop the `ab`, `ac` and `bc` blocks stay put.
pub struct ShardDensity<'a> {
    wins: &'a [DistributedArray],
    rank: usize,
    n: usize,
    /// Arena offset of the row `(window, row)` at `window * n + row`, or
    /// [`NOT_CACHED`].
    slot: Vec<u32>,
    /// Cached rows, row `r` occupying `r + 1` consecutive elements.
    arena: Vec<f64>,
    /// Slot keys of the cached rows, oldest first (= arena order).
    order: VecDeque<u32>,
    /// Arena offset of the next fetched row.
    head: usize,
    /// Gathered density blocks, one `max_fns^2` slot each
    /// ([`gathered_slots`]).
    gathered: Vec<f64>,
    /// The block each slot holds.
    held: Vec<Held>,
    max_fns: usize,
}

impl<'a> ShardDensity<'a> {
    /// `max_fns` is the basis's largest shell, the largest block side.
    pub fn new(
        wins: &'a [DistributedArray],
        n: usize,
        max_fns: usize,
        rank: usize,
    ) -> ShardDensity<'a> {
        let slots = wins.len() * n;
        let nch = if wins.len() == 1 { 1 } else { 2 };
        let arena_len = shard_cache_elems(n);
        assert!(
            slots.max(arena_len) < NOT_CACHED as usize,
            "row-cache keys and offsets must fit in u32 (n = {n})"
        );
        ShardDensity {
            wins,
            rank,
            n,
            slot: vec![NOT_CACHED; slots],
            arena: vec![0.0; arena_len],
            order: VecDeque::with_capacity(slots),
            head: 0,
            gathered: vec![0.0; gathered_slots(nch) * max_fns * max_fns],
            held: vec![NOTHING_HELD; gathered_slots(nch)],
            max_fns,
        }
    }

    /// Bytes this reader holds: the arena, the slot table and the FIFO
    /// ring (one `u32` each per `(window, row)`), and the gathered
    /// blocks.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.arena.len() * size_of::<f64>()
            + 2 * self.slot.len() * size_of::<u32>()
            + self.gathered.len() * size_of::<f64>()
            + self.held.len() * HELD_BYTES
    }

    /// Arena range of the cached row behind slot `key`.
    fn span_of(&self, key: u32) -> (usize, usize) {
        let start = self.slot[key as usize] as usize;
        (start, start + key as usize % self.n + 1)
    }

    fn evict_oldest(&mut self) {
        if let Some(old) = self.order.pop_front() {
            self.slot[old as usize] = NOT_CACHED;
        }
    }

    /// Fetch row `key % n` of window `key / n` into the arena; returns
    /// its offset.
    #[cold]
    #[inline(never)]
    fn fetch(&mut self, key: usize) -> usize {
        let r = key % self.n;
        let len = r + 1;
        debug_assert!(len <= self.arena.len());
        let mut pos = self.head;
        if pos + len > self.arena.len() {
            // Wrap: the rows between `head` and the arena's end are the
            // previous lap's oldest — evict them, then reuse from 0.
            while self.order.front().is_some_and(|&old| self.span_of(old).0 >= pos) {
                self.evict_oldest();
            }
            pos = 0;
        }
        while let Some(&old) = self.order.front() {
            let (start, end) = self.span_of(old);
            if start >= pos + len || end <= pos {
                break;
            }
            self.evict_oldest();
        }
        let win = key / self.n;
        self.wins[win].get(self.rank, tri_index(r, 0), &mut self.arena[pos..pos + len]);
        self.slot[key] = pos as u32;
        self.order.push_back(key as u32);
        self.head = pos + len;
        pos
    }

    /// Tri-packed row `r` of window `win` (columns `0..=r`), from the
    /// cache.
    #[inline]
    fn row(&mut self, win: usize, r: usize) -> &[f64] {
        let key = win * self.n + r;
        let off = match self.slot[key] {
            NOT_CACHED => self.fetch(key),
            off => off as usize,
        };
        &self.arena[off..=off + r]
    }

    /// Copy the `np x nq` block of window `win`'s symmetric matrix with
    /// rows from `p0` and columns from `q0` into `dst`, row-major: one
    /// cached row per block row (per block column when the block lies
    /// above the diagonal).
    fn gather(&mut self, win: usize, p0: usize, np: usize, q0: usize, nq: usize, dst: &mut [f64]) {
        if p0 > q0 {
            for x in 0..np {
                let row = &self.row(win, p0 + x)[q0..q0 + nq];
                dst[x * nq..(x + 1) * nq].copy_from_slice(row);
            }
        } else if p0 < q0 {
            for y in 0..nq {
                let row = &self.row(win, q0 + y)[p0..p0 + np];
                for (x, &v) in row.iter().enumerate() {
                    dst[x * nq + y] = v;
                }
            }
        } else {
            for x in 0..np {
                let row = &self.row(win, p0 + x)[p0..=p0 + x];
                for (y, &v) in row.iter().enumerate() {
                    dst[x * nq + y] = v;
                    dst[y * nq + x] = v;
                }
            }
        }
    }
}

/// Sharded density: window 0 feeds Coulomb, the exchange blocks come from
/// window 0 (RHF) or the spin channel's window (UHF).
impl DensitySource for ShardDensity<'_> {
    fn n_out(&self) -> usize {
        if self.wins.len() == 1 {
            1
        } else {
            2
        }
    }

    fn k_factor(&self) -> f64 {
        if self.wins.len() == 1 {
            -0.5
        } else {
            -1.0
        }
    }

    fn blocks(&mut self, q: &Quartet, ch: usize, coulomb: bool) -> QuartetDensity<'_> {
        let [fa, fb, fc, fd] = q.first;
        let [ni, nj, nk, nl] = q.n;
        let xw = if self.wins.len() == 1 { 0 } else { 1 + ch };
        // Slots: Coulomb ab, cd; then ac, ad, bc, bd of this channel.
        let x0 = 2 + 4 * ch;
        let wanted = [
            (0, 0, fa, ni, fb, nj),
            (1, 0, fc, nk, fd, nl),
            (x0, xw, fa, ni, fc, nk),
            (x0 + 1, xw, fa, ni, fd, nl),
            (x0 + 2, xw, fb, nj, fc, nk),
            (x0 + 3, xw, fb, nj, fd, nl),
        ];
        let size = self.max_fns * self.max_fns;
        let mut gathered = std::mem::take(&mut self.gathered);
        for &(slot, win, p0, np, q0, nq) in &wanted[if coulomb { 0 } else { 2 }..] {
            if self.held[slot] != (p0, q0) {
                self.gather(win, p0, np, q0, nq, &mut gathered[slot * size..]);
                self.held[slot] = (p0, q0);
            }
        }
        self.gathered = gathered;
        let view = |slot: usize, cols| BlockView::dense(&self.gathered[slot * size..], cols);
        QuartetDensity {
            ab: view(0, nj),
            cd: view(1, nl),
            ac: view(x0, nk),
            ad: view(x0 + 1, nl),
            bc: view(x0 + 2, nk),
            bd: view(x0 + 3, nl),
        }
    }
}

// ---------------------------------------------------------------------
// RowShard backend (write side)
// ---------------------------------------------------------------------

/// Row blocks of one `(i, j)` task: rows of shell i, shell j and the
/// current k shell.
const BLOCK_I: usize = 0;
const BLOCK_J: usize = 1;
const BLOCK_K: usize = 2;

/// Write side of the RowShard backend — Algorithm 3's `FI`/`FJ` buffers
/// adapted to tri-packed Fock windows.
///
/// Within an `(i, j)` task every canonical update `F[p, q]` (`p >= q`)
/// has `p <= last(i)`. Updates whose row lies in shell i, shell j or the
/// current k shell land in a dense row block `max_shell x width` with
/// `width = last(i) + 1`; a block whose shell coincides with one already
/// held (`i == j`, `k == i`, `k == j`) is skipped and its rows go to the
/// holder. The only other rows a task writes are those of an l shell with
/// `j < l < k`, and their column is always in shell j, so they are held
/// transposed in the j block. The k block is flushed when k advances
/// ([`begin_k`](Self::begin_k)), the i and j blocks at
/// [`end_task`](Self::end_task): each block row's lower-triangle part is
/// one `acc` over its nonzero span, and the transposed part goes to a
/// sparse `(channel, tri index, value)` buffer that sort-merges into
/// coalesced `acc` runs when it fills and on [`flush`](Self::flush).
///
/// Durability contract (the fault model of DESIGN.md §8): a kill can only fire
/// inside `lease_next`, i.e. *between* tasks — so as long as the builder
/// calls `end_task` and `flush` before `lease_complete` of each task
/// (flush-then-complete, like the distributed builder), a dead rank never
/// strands completed work, and the k-block and capacity-triggered
/// flushes mid-task are safe in every mode.
pub struct RowShardFock<'a> {
    wins: &'a [DistributedArray],
    basis: &'a BasisSet,
    rank: usize,
    /// Dense row blocks, `[channel][block][row][column]`, each block
    /// `max_fns` rows of `width` columns.
    blocks: Vec<f64>,
    max_fns: usize,
    /// Columns of every block row this task: last function of shell i + 1.
    width: usize,
    /// The current task's shells i and j.
    task: (usize, usize),
    /// First row (basis function) of each block.
    lo: [usize; 3],
    /// Rows each block holds this task; 0 when skipped.
    rows: [usize; 3],
    /// Whether a block holds updates not yet flushed.
    dirty: [bool; 3],
    /// Sparse buffer; packed key `channel << 48 | tri index`.
    pending: Vec<(u64, f64)>,
    cap: usize,
    /// One-sided `acc` runs issued so far.
    pub flushes: u64,
}

impl<'a> RowShardFock<'a> {
    pub fn new(wins: &'a [DistributedArray], basis: &'a BasisSet, rank: usize) -> RowShardFock<'a> {
        let n = basis.n_basis();
        let max_fns = basis.max_shell_functions();
        let cap = shard_flush_entries(n);
        RowShardFock {
            wins,
            basis,
            rank,
            blocks: vec![0.0; wins.len() * 3 * max_fns * n],
            max_fns,
            width: 0,
            task: (0, 0),
            lo: [0; 3],
            rows: [0; 3],
            dirty: [false; 3],
            pending: Vec::with_capacity(cap),
            cap,
            flushes: 0,
        }
    }

    /// Bytes this accumulator holds: the row blocks plus the sparse
    /// buffer at capacity.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.blocks.len() * size_of::<f64>() + self.cap * size_of::<(u64, f64)>()
    }

    /// Start task `(i, j)`, `i >= j`. The previous task must have ended.
    pub fn begin_task(&mut self, i: usize, j: usize) {
        debug_assert!(self.dirty == [false; 3], "begin_task before end_task");
        let (sh_i, sh_j) = (&self.basis.shells[i], &self.basis.shells[j]);
        self.task = (i, j);
        self.width = sh_i.first_bf + sh_i.n_functions();
        self.lo = [sh_i.first_bf, sh_j.first_bf, 0];
        self.rows = [sh_i.n_functions(), if j == i { 0 } else { sh_j.n_functions() }, 0];
    }

    /// Advance to ket shell `k` of the current task, flushing the
    /// previous k block.
    pub fn begin_k(&mut self, k: usize) {
        self.flush_block(BLOCK_K);
        let (i, j) = self.task;
        let sh_k = &self.basis.shells[k];
        self.lo[BLOCK_K] = sh_k.first_bf;
        self.rows[BLOCK_K] = if k == i || k == j { 0 } else { sh_k.n_functions() };
    }

    /// Flush every row block of the current task into the windows (the
    /// transposed part into the sparse buffer).
    pub fn end_task(&mut self) {
        for b in [BLOCK_K, BLOCK_I, BLOCK_J] {
            self.flush_block(b);
        }
        self.rows = [0; 3];
    }

    /// The row block holding canonical element `(p, q)` (`p >= q`) of the
    /// current task, that block's first row, and whether the element is
    /// held transposed. The answer depends only on the shells of `p` and
    /// `q`.
    #[inline]
    fn route(&self, p: usize, q: usize) -> (usize, usize, bool) {
        debug_assert!(p >= q && p < self.width, "({p},{q}) outside task width {}", self.width);
        let lo = self.lo;
        if p >= lo[BLOCK_I] {
            (BLOCK_I, lo[BLOCK_I], false)
        } else if p.wrapping_sub(lo[BLOCK_K]) < self.rows[BLOCK_K] {
            (BLOCK_K, lo[BLOCK_K], false)
        } else if p.wrapping_sub(lo[BLOCK_J]) < self.rows[BLOCK_J] {
            (BLOCK_J, lo[BLOCK_J], false)
        } else {
            // Row in an l shell with j < l < k: the column is in shell j.
            debug_assert!(q.wrapping_sub(lo[BLOCK_J]) < self.rows[BLOCK_J]);
            (BLOCK_J, lo[BLOCK_J], true)
        }
    }

    /// Canonical update `F_ch[p, q] += v` (`p >= q`) of the current task.
    #[inline]
    pub fn add(&mut self, ch: usize, p: usize, q: usize, v: f64) {
        let (b, lo, transposed) = self.route(p, q);
        let (r, c) = if transposed { (q - lo, p) } else { (p - lo, q) };
        self.dirty[b] = true;
        self.blocks[((ch * 3 + b) * self.max_fns + r) * self.width + c] += v;
    }

    /// Accumulate block `b` into the windows and zero it: per row, the
    /// lower-triangle nonzero span is one `acc`; the j block's
    /// transposed part goes to the sparse buffer.
    fn flush_block(&mut self, b: usize) {
        if !std::mem::take(&mut self.dirty[b]) {
            return;
        }
        let _span = phi_trace::span("fock.flush_scatter");
        let w = self.width;
        for ch in 0..self.wins.len() {
            for r in 0..self.rows[b] {
                let x = self.lo[b] + r;
                let base = ((ch * 3 + b) * self.max_fns + r) * w;
                let lower = &mut self.blocks[base..=base + x];
                if let Some(first) = lower.iter().position(|&v| v != 0.0) {
                    let last = lower.iter().rposition(|&v| v != 0.0).unwrap_or(first);
                    self.wins[ch].acc(self.rank, tri_index(x, first), &lower[first..=last]);
                    lower[first..=last].fill(0.0);
                    self.flushes += 1;
                }
                if b == BLOCK_J {
                    for c in x + 1..w {
                        let v = std::mem::take(&mut self.blocks[base + c]);
                        if v != 0.0 {
                            self.push_sparse(ch, c, x, v);
                        }
                    }
                }
            }
        }
    }

    /// Buffer `F_ch[p, q] += v` sparsely, flushing when the buffer fills.
    fn push_sparse(&mut self, ch: usize, p: usize, q: usize, v: f64) {
        self.pending.push((((ch as u64) << 48) | tri_index(p, q) as u64, v));
        if self.pending.len() >= self.cap {
            self.flush();
        }
    }

    /// Sort, merge and accumulate every sparse entry into the windows as
    /// contiguous runs, then clear the buffer. Row blocks are untouched:
    /// call [`end_task`](Self::end_task) first to drain a whole task.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let _span = phi_trace::span("fock.flush_scatter");
        self.pending.sort_unstable_by_key(|&(k, _)| k);
        let mut run_start_key = self.pending[0].0;
        let mut run: Vec<f64> = Vec::new();
        let mut last_key = run_start_key;
        let mut acc = 0.0;
        let flush_run = |this_flushes: &mut u64,
                         wins: &[DistributedArray],
                         rank: usize,
                         start_key: u64,
                         vals: &[f64]| {
            let ch = (start_key >> 48) as usize;
            let lo = (start_key & 0xFFFF_FFFF_FFFF) as usize;
            wins[ch].acc(rank, lo, vals);
            *this_flushes += 1;
        };
        for &(key, v) in &self.pending {
            if key == last_key {
                acc += v;
                continue;
            }
            run.push(acc);
            if key != last_key + 1 || (key >> 48) != (last_key >> 48) {
                flush_run(&mut self.flushes, self.wins, self.rank, run_start_key, &run);
                run.clear();
                run_start_key = key;
            }
            last_key = key;
            acc = v;
        }
        run.push(acc);
        flush_run(&mut self.flushes, self.wins, self.rank, run_start_key, &run);
        self.pending.clear();
    }
}

/// Every canonical element of a digested block shares the block's row
/// and column shells, so one routing decision covers the whole block.
///
/// Exact zeros are not written: symmetry zeros fill whole rows of a
/// linear molecule's blocks (two thirds of H24's integrals), and skipping
/// them cut the sharded H24 digestion time by 15–35% (interleaved timing
/// of the digestion alone, 2-vCPU host).
impl ChannelSink for RowShardFock<'_> {
    #[inline]
    fn add_block(&mut self, ch: usize, blk: &FockBlock<'_>, scale: f64) {
        let ((p0, _), (q0, _)) = (blk.rows(), blk.cols());
        let (b, lo, transposed) = self.route(p0.max(q0), p0.min(q0));
        self.dirty[b] = true;
        let (w, base) = (self.width, (ch * 3 + b) * self.max_fns);
        let blocks = &mut self.blocks;
        if transposed {
            blk.fold(scale, |p, q, v| {
                if v != 0.0 {
                    blocks[(base + q - lo) * w + p] += v;
                }
            });
        } else {
            blk.fold(scale, |p, q, v| {
                if v != 0.0 {
                    blocks[(base + p - lo) * w + q] += v;
                }
            });
        }
    }
}

/// Row-buffer write backend of the *distributed* builder (N x N Fock
/// striped over ranks, full local scatter buffer): canonical updates land
/// in a row-major lower-triangle buffer, flushed as whole touched rows.
/// Unlike [`RowShardFock`]'s per-task row blocks it holds a full local
/// buffer, the trade the distributed builder makes for fewer `acc` calls.
pub struct RowBufferFock {
    /// Lower-triangular accumulation for the rows this rank touched.
    pub buf: Vec<f64>,
    pub touched: Vec<bool>,
    pub n: usize,
}

impl RowBufferFock {
    pub fn new(n: usize) -> RowBufferFock {
        RowBufferFock { buf: vec![0.0; n * n], touched: vec![false; n], n }
    }

    /// Flush every touched row into the distributed array and clear it;
    /// returns the number of row segments accumulated.
    pub fn flush_rows(&mut self, fock: &DistributedArray, rank: usize) -> u64 {
        let n = self.n;
        let mut flushed = 0u64;
        for row in 0..n {
            if !self.touched[row] {
                continue;
            }
            self.touched[row] = false;
            // Lower-triangular row segment [row*n, row*n + row].
            let seg = &mut self.buf[row * n..row * n + row + 1];
            if seg.iter().any(|&v| v != 0.0) {
                fock.acc(rank, row * n, seg);
                seg.iter_mut().for_each(|v| *v = 0.0);
                flushed += 1;
            }
        }
        flushed
    }
}

impl FockSink for RowBufferFock {
    #[inline]
    fn add(&mut self, mu: usize, nu: usize, v: f64) {
        self.buf[mu * self.n + nu] += v;
        self.touched[mu] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::FockContext;
    use crate::fock::{kl_bounds, serial::build_serial, BlockDigest, DensitySet};
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_integrals::{EriEngine, Screening, ShellPairs};

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 5 + j * 7) % 8) as f64 * 0.05
        })
    }

    /// Full serial quartet sweep through the RowShard reader/accumulator
    /// pair, task by task as the sharded builder drives it.
    fn sweep(b: &BasisSet, dens: &mut ShardDensity<'_>, fock: &mut RowShardFock<'_>) {
        let pairs = ShellPairs::build(b);
        let s = Screening::from_pairs(b, &pairs);
        let ns = b.n_shells();
        let mut engine = EriEngine::new();
        let mut eri = Vec::new();
        let mut dig = BlockDigest::default();
        for i in 0..ns {
            for j in 0..=i {
                fock.begin_task(i, j);
                for k in 0..=i {
                    fock.begin_k(k);
                    for l in 0..=kl_bounds(i, j, k) {
                        if !s.survives(i, j, k, l, 1e-14) {
                            continue;
                        }
                        let (bra, ket) = (pairs.pair(i, j), pairs.pair(k, l));
                        eri.clear();
                        eri.resize(bra.n_fn() * ket.n_fn(), 0.0);
                        engine.shell_quartet_pairs(bra, ket, &mut eri);
                        dig.quartet(b, [i, j, k, l], &eri, dens, fock);
                    }
                }
                fock.end_task();
            }
        }
        fock.flush();
    }

    #[test]
    fn rowshard_backends_match_replicated_restricted_and_uhf() {
        // 6-31G(d) water: 6-function d blocks wider than any s/p shell,
        // and tasks hitting every block case (i == j, k == i, k == j and
        // the transposed l rows of j < l < k).
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let n = b.n_basis();
        let pairs = ShellPairs::build(&b);
        let s = Screening::from_pairs(&b, &pairs);
        let ctx = FockContext::new(&b, &pairs, &s, 1e-14);
        let d_a = density(n);
        let mut d_b = density(n);
        d_b.scale(0.7);
        for (label, dens) in [
            ("restricted", DensitySet::Restricted(&d_a)),
            ("unrestricted", DensitySet::Unrestricted { alpha: &d_a, beta: &d_b }),
        ] {
            let work = dens.prepare();
            let nch = dens.n_channels();
            let ref_build = build_serial(&ctx, &dens);
            let want: Vec<Mat> = std::iter::once(ref_build.g).chain(ref_build.g_beta).collect();
            for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
                let d_wins = scatter_density(&work, n, 3, mode);
                let f_wins: Vec<DistributedArray> = (0..nch)
                    .map(|_| DistributedArray::new_with_mode(tri_len(n), 3, mode))
                    .collect();
                let mut fock = RowShardFock::new(&f_wins, &b, 0);
                sweep(
                    &b,
                    &mut ShardDensity::new(&d_wins, n, b.max_shell_functions(), 0),
                    &mut fock,
                );
                assert!(fock.pending.is_empty() && fock.blocks.iter().all(|&v| v == 0.0));
                for (ch, want_ch) in want.iter().enumerate() {
                    let got = gather_tri(&f_wins[ch], n);
                    assert!(
                        got.max_abs_diff(want_ch) < 1e-12,
                        "{label} ch {ch} {:?}: diff {}",
                        mode,
                        got.max_abs_diff(want_ch)
                    );
                }
            }
        }
    }

    /// Every cached row lies inside the arena, no two overlap, and the
    /// slot table points exactly at the rows in the FIFO ring.
    fn assert_cache_consistent(reader: &ShardDensity<'_>) {
        let mut spans: Vec<(usize, usize)> =
            reader.order.iter().map(|&k| reader.span_of(k)).collect();
        assert_eq!(spans.len(), reader.slot.iter().filter(|&&s| s != NOT_CACHED).count());
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping cached rows {w:?}");
        }
        assert!(spans.last().is_none_or(|s| s.1 <= reader.arena.len()));
    }

    #[test]
    fn shard_density_cache_stays_bounded_and_reads_symmetric() {
        // 100 rows of up to 100 elements against a 1600-element arena:
        // the sweep wraps the ring many times and evicts in FIFO order.
        let n = 100;
        let d = density(n);
        let dens = DensitySet::Restricted(&d);
        let work = dens.prepare();
        let wins = scatter_density(&work, n, 4, DdiMode::Mpi3OneSided);
        let mut reader = ShardDensity::new(&wins, n, 1, 1);
        let arena_len = reader.arena.len();
        let mut v = [0.0];
        for sweep in 0..3 {
            for p in 0..n {
                let p = (p * 37 + sweep * 11) % n;
                for q in 0..n {
                    reader.gather(0, p, 1, q, 1, &mut v);
                    assert_eq!(v[0], d[(p, q)], "({p},{q})");
                }
                assert_cache_consistent(&reader);
            }
        }
        assert_eq!(reader.arena.len(), arena_len, "the arena never grows");
        assert!(reader.order.len() < n, "rows were evicted");
    }

    #[test]
    fn row_blocks_route_every_case_and_flush_one_run_per_row() {
        // Eight one-function s shells (6-31G hydrogens): shell s is basis
        // function s.
        let b = BasisSet::build(&small::h_chain(4, 1.4), BasisName::B631g);
        assert_eq!(b.max_shell_functions(), 1);
        let n = b.n_basis();
        let wins = vec![DistributedArray::new(tri_len(n), 2)];
        let mut fock = RowShardFock::new(&wins, &b, 0);
        // Task (i, j) = (6, 1) with k = 4 and l = 2: rows in shell i, the
        // k block, the j block and the transposed l row (j < l < k).
        fock.begin_task(6, 1);
        fock.begin_k(4);
        fock.add(0, 6, 1, 1.0); // i block
        fock.add(0, 6, 4, 2.0); // i block, same row: one run
        fock.add(0, 4, 2, 3.0); // k block
        fock.add(0, 1, 1, 4.0); // j block
        fock.add(0, 2, 1, 5.0); // l row, held transposed in the j block
        fock.add(0, 2, 1, 0.5); // merged before the acc
        fock.begin_k(6); // k == i: the k block is skipped
        fock.add(0, 6, 6, 6.0);
        fock.end_task();
        // k block (row 4), i block (row 6), j block (row 1); the l row
        // waits in the sparse buffer.
        assert_eq!(fock.flushes, 3);
        assert_eq!(fock.pending.len(), 1);
        fock.flush();
        assert_eq!(fock.flushes, 4);
        let m = gather_tri(&wins[0], n);
        for (p, q, want) in [(6, 1, 1.0), (6, 4, 2.0), (6, 6, 6.0), (4, 2, 3.0), (1, 1, 4.0)] {
            assert_eq!(m[(p, q)], want, "({p},{q})");
        }
        assert_eq!(m[(2, 1)], 5.5);
        assert_eq!(m.as_slice().iter().filter(|&&v| v != 0.0).count(), 2 * 4 + 2);
        assert!(fock.blocks.iter().all(|&v| v == 0.0), "flushed blocks are zeroed");
    }

    #[test]
    fn rowshard_flush_merges_duplicates_and_coalesces_runs() {
        let b = BasisSet::build(&small::h_chain(8, 1.4), BasisName::Sto3g);
        let n = b.n_basis();
        let wins = vec![DistributedArray::new(tri_len(n), 2)];
        let mut acc = RowShardFock::new(&wins, &b, 0);
        acc.push_sparse(0, 3, 1, 2.0);
        acc.push_sparse(0, 3, 1, 0.5); // duplicate key: merged before the acc
        acc.push_sparse(0, 3, 2, 1.0); // adjacent: same run
        acc.push_sparse(0, 6, 0, 4.0); // separate run
        acc.flush();
        assert_eq!(acc.flushes, 2, "two coalesced runs");
        let m = gather_tri(&wins[0], n);
        assert_eq!(m[(3, 1)], 2.5);
        assert_eq!(m[(3, 2)], 1.0);
        assert_eq!(m[(6, 0)], 4.0);
        assert_eq!(m[(5, 5)], 0.0);
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let n = 17;
        let d = density(n);
        let dens = DensitySet::Restricted(&d);
        let work = dens.prepare();
        for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
            let wins = scatter_density(&work, n, 5, mode);
            assert_eq!(gather_tri(&wins[0], n).max_abs_diff(&d), 0.0);
        }
    }
}
