//! Block digestion: one surviving shell quartet into six J/K blocks.
//!
//! A canonical quartet `(ij|kl)` stands for every ordered shell quartet of
//! its 8-fold orbit. Summing the whole ERI block `X[a][b][c][d]` over all
//! eight orderings, each weighted by the quartet's degeneracy factor
//! `f = 1 / ((i==j ? 2 : 1) (k==l ? 2 : 1) (ij==kl ? 2 : 1))`, counts every
//! distinct ordering exactly once. The eight orderings collapse into six
//! block contractions:
//!
//! ```text
//! J_ab = sum_cd D_cd X      J_cd = sum_ab D_ab X
//! K_ac = sum_bd D_bd X      K_ad = sum_bc D_bc X
//! K_bc = sum_ad D_ad X      K_bd = sum_ac D_ac X
//! ```
//!
//! The orderings that swap a pair's indices give each J block twice and
//! each K block's transpose once, so a block `B` of shells `(X, Y)` adds
//! `s (B + B^T)` to the symmetric Fock matrix with `s = 2f` for J and
//! `s = k f` for K (`k = -1/2` closed-shell, `-1` per UHF spin channel).
//! [`FockBlock::fold`] writes that into canonical `(max, min)` storage:
//! each element once, doubled on the diagonal of a same-shell block.
//!
//! The contraction is generic over where density is read
//! ([`DensitySource`]: replicated matrices read in place, or the sharded
//! row cache gathered one row per block row) and where blocks go
//! ([`ChannelSink`]: one [`FockSink`] per spin channel, or the sharded row
//! blocks), so every builder, the in-core replay and both spin cases share
//! it.

use super::{DensityWork, FockSink};
use phi_chem::BasisSet;
use phi_linalg::Mat;

/// One shell-pair block of a two-electron contribution: `vals` holds
/// `np x nq` values, row-major, for basis functions `p0..p0+np` by
/// `q0..q0+nq`.
pub struct FockBlock<'a> {
    p0: usize,
    np: usize,
    q0: usize,
    nq: usize,
    vals: &'a [f64],
}

impl<'a> FockBlock<'a> {
    #[inline]
    fn new(p0: usize, np: usize, q0: usize, nq: usize, vals: &'a [f64]) -> FockBlock<'a> {
        FockBlock { p0, np, q0, nq, vals }
    }

    /// Visit the canonical (`p >= q`) elements that `scale * (B + B^T)`
    /// adds to a symmetric matrix: once per block element for a block of
    /// two distinct shells, folded over the pair for a same-shell block
    /// (whose diagonal therefore doubles).
    #[inline(always)]
    pub fn fold(&self, scale: f64, mut add: impl FnMut(usize, usize, f64)) {
        let FockBlock { p0, np, q0, nq, vals } = *self;
        if p0 > q0 {
            for x in 0..np {
                for y in 0..nq {
                    add(p0 + x, q0 + y, scale * vals[x * nq + y]);
                }
            }
        } else if p0 < q0 {
            for x in 0..np {
                for y in 0..nq {
                    add(q0 + y, p0 + x, scale * vals[x * nq + y]);
                }
            }
        } else {
            for x in 0..np {
                for y in 0..=x {
                    add(p0 + x, p0 + y, scale * (vals[x * nq + y] + vals[y * nq + x]));
                }
            }
        }
    }

    /// First row function and row count.
    #[inline]
    pub(crate) fn rows(&self) -> (usize, usize) {
        (self.p0, self.np)
    }

    /// First column function and column count.
    #[inline]
    pub(crate) fn cols(&self) -> (usize, usize) {
        (self.q0, self.nq)
    }

    /// The block's values, row-major.
    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        self.vals
    }
}

/// Where digested blocks go: one Fock matrix per spin channel.
pub(crate) trait ChannelSink {
    /// `F_ch += scale * (B + B^T)`, in canonical storage.
    fn add_block(&mut self, ch: usize, blk: &FockBlock<'_>, scale: f64);
}

impl<S: FockSink> ChannelSink for [S] {
    #[inline(always)]
    fn add_block(&mut self, ch: usize, blk: &FockBlock<'_>, scale: f64) {
        self[ch].add_block(blk, scale);
    }
}

/// A read-only block of a symmetric matrix restricted to the functions of
/// two shells: row `x` starts at `data[x * stride]`.
#[derive(Clone, Copy)]
pub(crate) struct BlockView<'a> {
    data: &'a [f64],
    stride: usize,
}

impl<'a> BlockView<'a> {
    /// The block of `m` with rows from `p0` and columns from `q0`.
    #[inline]
    fn of_mat(m: &'a Mat, p0: usize, q0: usize) -> BlockView<'a> {
        BlockView { data: &m.as_slice()[p0 * m.cols() + q0..], stride: m.cols() }
    }

    /// A dense row-major block of `cols` columns.
    #[inline]
    pub(crate) fn dense(data: &'a [f64], cols: usize) -> BlockView<'a> {
        BlockView { data, stride: cols }
    }

    #[inline]
    fn row(&self, x: usize, len: usize) -> &'a [f64] {
        &self.data[x * self.stride..x * self.stride + len]
    }
}

/// The density blocks of one contraction pass: the Coulomb source's
/// `ab` and `cd` blocks (unused by an exchange-only pass) and one exchange
/// channel's `ac`, `ad`, `bc` and `bd` blocks.
pub(crate) struct QuartetDensity<'a> {
    pub(crate) ab: BlockView<'a>,
    pub(crate) cd: BlockView<'a>,
    pub(crate) ac: BlockView<'a>,
    pub(crate) ad: BlockView<'a>,
    pub(crate) bc: BlockView<'a>,
    pub(crate) bd: BlockView<'a>,
}

/// Where block digestion reads density.
pub(crate) trait DensitySource {
    /// Spin channels fed: 1 restricted, 2 unrestricted.
    fn n_out(&self) -> usize;

    /// Exchange scale: `-1/2` closed-shell, `-1` per UHF spin channel.
    fn k_factor(&self) -> f64;

    /// The density blocks of quartet `q` for exchange channel `ch`, with
    /// the Coulomb blocks only when `coulomb` is set.
    fn blocks(&mut self, q: &Quartet, ch: usize, coulomb: bool) -> QuartetDensity<'_>;
}

/// Replicated density: every block is read in place.
impl DensitySource for &DensityWork<'_> {
    fn n_out(&self) -> usize {
        self.n_channels()
    }

    fn k_factor(&self) -> f64 {
        match self {
            DensityWork::Restricted(_) => -0.5,
            DensityWork::Unrestricted { .. } => -1.0,
        }
    }

    #[inline]
    fn blocks(&mut self, q: &Quartet, ch: usize, _coulomb: bool) -> QuartetDensity<'_> {
        let (j, k): (&Mat, &Mat) = match **self {
            DensityWork::Restricted(d) => (d, d),
            DensityWork::Unrestricted { ref total, alpha, beta } => {
                (total, if ch == 0 { alpha } else { beta })
            }
        };
        let [fa, fb, fc, fd] = q.first;
        QuartetDensity {
            ab: BlockView::of_mat(j, fa, fb),
            cd: BlockView::of_mat(j, fc, fd),
            ac: BlockView::of_mat(k, fa, fc),
            ad: BlockView::of_mat(k, fa, fd),
            bc: BlockView::of_mat(k, fb, fc),
            bd: BlockView::of_mat(k, fb, fd),
        }
    }
}

/// The four shells of a canonical quartet: first functions, sizes and
/// degeneracy weight.
pub(crate) struct Quartet {
    pub(crate) first: [usize; 4],
    pub(crate) n: [usize; 4],
    weight: f64,
}

impl Quartet {
    #[inline]
    pub(crate) fn new(basis: &BasisSet, [si, sj, sk, sl]: [usize; 4]) -> Quartet {
        let sh = [si, sj, sk, sl].map(|s| &basis.shells[s]);
        let mut degeneracy = 1.0;
        if si == sj {
            degeneracy *= 2.0;
        }
        if sk == sl {
            degeneracy *= 2.0;
        }
        if si == sk && sj == sl {
            degeneracy *= 2.0;
        }
        Quartet {
            first: sh.map(|s| s.first_bf),
            n: sh.map(|s| s.n_functions()),
            weight: 1.0 / degeneracy,
        }
    }

    /// Total size of the six shell-pair blocks: `ab`, `cd`, `ac`, `ad`,
    /// `bc`, `bd`.
    #[inline]
    pub(crate) fn block_len(&self) -> usize {
        let [ni, nj, nk, nl] = self.n;
        ni * nj + nk * nl + ni * nk + ni * nl + nj * nk + nj * nl
    }
}

/// Per-worker scratch of block digestion: the six accumulated J/K
/// blocks. Grows to `6 * max_shell^2` values and is reused for every
/// quartet.
#[derive(Default)]
pub(crate) struct BlockDigest {
    buf: Vec<f64>,
}

impl BlockDigest {
    /// Digest canonical quartet `shells` (`i >= j`, `k >= l`,
    /// `pair(i, j) >= pair(k, l)`) with ERI block `eri`, laid out
    /// `[n_i][n_j][n_k][n_l]`, into every spin channel of `sink`.
    #[inline]
    pub(crate) fn quartet<D, W>(
        &mut self,
        basis: &BasisSet,
        shells: [usize; 4],
        eri: &[f64],
        dens: &mut D,
        sink: &mut W,
    ) where
        D: DensitySource + ?Sized,
        W: ChannelSink + ?Sized,
    {
        let q = Quartet::new(basis, shells);
        let len = q.block_len();
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        let acc = &mut self.buf[..len];
        let [ni, nj, nk, nl] = q.n;
        let [fa, fb, fc, fd] = q.first;
        let nch = dens.n_out();
        let jf = 2.0 * q.weight;
        let kf = dens.k_factor() * q.weight;
        for ch in 0..nch {
            let coulomb = ch == 0;
            let den = dens.blocks(&q, ch, coulomb);
            // -0.0 is the additive identity (`-0.0 + x == x` for every x)
            // and, not being a byte pattern, its fill compiles to a few
            // stores rather than a `memset` call, which would dominate the
            // cost of the many one-integral quartets.
            acc.fill(-0.0);
            let (jab, rest) = acc.split_at_mut(ni * nj);
            let (jcd, rest) = rest.split_at_mut(nk * nl);
            let (kac, rest) = rest.split_at_mut(ni * nk);
            let (kad, rest) = rest.split_at_mut(ni * nl);
            let (kbc, kbd) = rest.split_at_mut(nj * nk);
            let k = KBlocks { ac: &mut *kac, ad: &mut *kad, bc: &mut *kbc, bd: &mut *kbd };
            if coulomb {
                contract::<true>(&q, eri, &den, &mut *jab, &mut *jcd, k);
                for out in 0..nch {
                    sink.add_block(out, &FockBlock::new(fa, ni, fb, nj, &*jab), jf);
                    sink.add_block(out, &FockBlock::new(fc, nk, fd, nl, &*jcd), jf);
                }
            } else {
                contract::<false>(&q, eri, &den, &mut [], &mut [], k);
            }
            sink.add_block(ch, &FockBlock::new(fa, ni, fc, nk, &*kac), kf);
            sink.add_block(ch, &FockBlock::new(fa, ni, fd, nl, &*kad), kf);
            sink.add_block(ch, &FockBlock::new(fb, nj, fc, nk, &*kbc), kf);
            sink.add_block(ch, &FockBlock::new(fb, nj, fd, nl, &*kbd), kf);
        }
    }
}

/// The four exchange accumulators of one pass.
struct KBlocks<'a> {
    ac: &'a mut [f64],
    ad: &'a mut [f64],
    bc: &'a mut [f64],
    bd: &'a mut [f64],
}

/// One sweep over the ERI block: the exchange blocks of one channel, and
/// with `J` the two Coulomb blocks, added to the cleared accumulators.
///
/// Kept out of line: inlined, its code generation followed unrelated
/// edits to the caller, and one such edit made H24 digestion 1.4x slower.
#[inline(never)]
fn contract<const J: bool>(
    q: &Quartet,
    eri: &[f64],
    den: &QuartetDensity<'_>,
    jab: &mut [f64],
    jcd: &mut [f64],
    k: KBlocks<'_>,
) {
    let [ni, nj, nk, nl] = q.n;
    let ncd = nk * nl;
    let eri = &eri[..ni * nj * ncd];
    for a in 0..ni {
        let k_ac = &mut k.ac[a * nk..(a + 1) * nk];
        let k_ad = &mut k.ad[a * nl..(a + 1) * nl];
        let d_ac = den.ac.row(a, nk);
        let d_ad = den.ad.row(a, nl);
        for b in 0..nj {
            let x_ab = &eri[(a * nj + b) * ncd..(a * nj + b + 1) * ncd];
            // Symmetry zeros (two thirds of the integrals of a linear
            // chain) often fill whole rows.
            if x_ab.iter().all(|&v| v == 0.0) {
                continue;
            }
            let k_bc = &mut k.bc[b * nk..(b + 1) * nk];
            let k_bd = &mut k.bd[b * nl..(b + 1) * nl];
            let d_bc = den.bc.row(b, nk);
            let d_bd = den.bd.row(b, nl);
            let d_ab = if J { den.ab.row(a, nj)[b] } else { 0.0 };
            let mut j_ab = 0.0;
            for c in 0..nk {
                let x = &x_ab[c * nl..(c + 1) * nl];
                let (dac, dbc) = (d_ac[c], d_bc[c]);
                let (mut kac, mut kbc) = (0.0, 0.0);
                if J {
                    let d_cd = den.cd.row(c, nl);
                    let j_cd = &mut jcd[c * nl..(c + 1) * nl];
                    for d in 0..nl {
                        let v = x[d];
                        j_ab += d_cd[d] * v;
                        j_cd[d] += d_ab * v;
                        kac += d_bd[d] * v;
                        kbc += d_ad[d] * v;
                        k_ad[d] += dbc * v;
                        k_bd[d] += dac * v;
                    }
                } else {
                    for d in 0..nl {
                        let v = x[d];
                        kac += d_bd[d] * v;
                        kbc += d_ad[d] * v;
                        k_ad[d] += dbc * v;
                        k_bd[d] += dac * v;
                    }
                }
                k_ac[c] += kac;
                k_bc[c] += kbc;
            }
            if J {
                jab[a * nj + b] = j_ab;
            }
        }
    }
}
