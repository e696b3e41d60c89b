//! Bench: digestion alone, the element oracle against the block routine.
//!
//! For each system the surviving ERI blocks at tau = 1e-10 (Schwarz test
//! only) are computed once and kept in memory; every timed sweep then
//! digests all of them into a closed-shell `G`, with no ERI work:
//!
//! * `oracle` — the element-level orbit walk: every nonzero
//!   symmetry-unique integral through `digest_value_scaled(.., 1, -1/2)`;
//! * `block` — the production routine every builder runs, through the
//!   public `digest_quartet` (block digestion with a per-thread scratch);
//! * `control` — `block` timed a second time, to show what ratio pure
//!   timing noise reads.
//!
//! Each repetition times the three legs back to back in windows of about
//! 50 ms (repeated sweeps), rotating which goes first, and records `block / oracle` and `control / block`. The
//! reported numbers are the medians and interquartile ranges of those
//! per-repetition ratios (adjacent windows share the machine's drift
//! state). Both `G`s are checked against each other to 1e-13 relative to
//! the largest element before anything is timed.
//!
//! Full mode: C6 ring / 6-31G(d), linear H24 (1.8 bohr) / 6-31G(d,p) and
//! CH4 / 6-31G(d,p), 15 repetitions. `PHI_BENCH_SMOKE=1`: water /
//! 6-31G(d), 3 repetitions. `--json <path>` writes the results in the
//! microbench runner's format (`group` plus `results` of `name`,
//! `ns_per_iter`, `iters`: the median sweep); the `block` row also carries
//! the `block / oracle` ratio's median and quartiles, the `control` row
//! those of `control / block`.

use hf::fock::{digest_quartet, digest_value_scaled, kl_bounds, tri_to_full, TriSink};
use phi_bench::microbench::{black_box, smoke_mode};
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::small;
use phi_chem::Molecule;
use phi_integrals::{EriEngine, Screening, ShellPairs};
use phi_linalg::Mat;
use std::time::Instant;

const TAU: f64 = 1e-10;

fn json_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// The surviving canonical quartets of a system and their ERI blocks.
struct Stored {
    basis: BasisSet,
    quartets: Vec<[usize; 4]>,
    offsets: Vec<usize>,
    values: Vec<f64>,
}

impl Stored {
    fn compute(mol: &Molecule, name: BasisName) -> Stored {
        let basis = BasisSet::build(mol, name);
        let pairs = ShellPairs::build(&basis);
        let screening = Screening::from_pairs(&basis, &pairs);
        let mut engine = EriEngine::new();
        let (mut quartets, mut offsets, mut values) = (Vec::new(), vec![0], Vec::new());
        let ns = basis.n_shells();
        for i in 0..ns {
            for j in 0..=i {
                for k in 0..=i {
                    for l in 0..=kl_bounds(i, j, k) {
                        if !screening.survives(i, j, k, l, TAU) {
                            continue;
                        }
                        let (bra, ket) = (pairs.pair(i, j), pairs.pair(k, l));
                        let start = values.len();
                        values.resize(start + bra.n_fn() * ket.n_fn(), 0.0);
                        engine.shell_quartet_pairs(bra, ket, &mut values[start..]);
                        quartets.push([i, j, k, l]);
                        offsets.push(values.len());
                    }
                }
            }
        }
        Stored { basis, quartets, offsets, values }
    }

    fn eri(&self, q: usize) -> &[f64] {
        &self.values[self.offsets[q]..self.offsets[q + 1]]
    }

    /// One sweep of the production block digestion.
    fn block(&self, d: &Mat, g: &mut [f64]) {
        let n = self.basis.n_basis();
        let mut sink = TriSink { buf: g, n };
        for (q, &[i, j, k, l]) in self.quartets.iter().enumerate() {
            digest_quartet(&self.basis, i, j, k, l, self.eri(q), d, &mut sink);
        }
    }

    /// One sweep of the element oracle.
    fn oracle(&self, d: &Mat, g: &mut [f64]) {
        let n = self.basis.n_basis();
        let mut sink = TriSink { buf: g, n };
        for (q, &[i, j, k, l]) in self.quartets.iter().enumerate() {
            let eri = self.eri(q);
            let sh = [i, j, k, l].map(|s| &self.basis.shells[s]);
            let [ni, nj, nk, nl] = sh.map(|s| s.n_functions());
            for a in 0..ni {
                let mu = sh[0].first_bf + a;
                for b in 0..if i == j { a + 1 } else { nj } {
                    let nu = sh[1].first_bf + b;
                    let munu = mu * (mu + 1) / 2 + nu;
                    for c in 0..nk {
                        let lam = sh[2].first_bf + c;
                        for dd in 0..if k == l { c + 1 } else { nl } {
                            let sig = sh[3].first_bf + dd;
                            if i == k && j == l && lam * (lam + 1) / 2 + sig > munu {
                                continue;
                            }
                            let x = eri[((a * nj + b) * nk + c) * nl + dd];
                            if x != 0.0 {
                                digest_value_scaled(mu, nu, lam, sig, x, d, 1.0, -0.5, &mut sink);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Median and quartiles of a sample.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |f: f64| {
        let pos = f * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

struct Row {
    name: String,
    ns: f64,
    iters: usize,
    ratio: Option<(f64, f64, f64)>,
}

fn main() {
    let (systems, reps): (Vec<(&str, Molecule, BasisName)>, usize) = if smoke_mode() {
        (vec![("water", small::water(), BasisName::B631gd)], 3)
    } else {
        (
            vec![
                ("c6", small::c_ring(6, 1.39), BasisName::B631gd),
                ("h24", small::h_chain(24, 1.8), BasisName::B631gdp),
                ("ch4", small::methane(), BasisName::B631gdp),
            ],
            15,
        )
    };
    println!("# group: digest");
    println!("# reps: {reps}, tau {TAU:e}, host cores: {:?}", std::thread::available_parallelism());
    let mut rows = Vec::new();
    for (label, mol, basis_name) in systems {
        let stored = Stored::compute(&mol, basis_name);
        let n = stored.basis.n_basis();
        let d = Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.3 / (1.0 + (i - j) as f64) + 0.01 * ((i * 7 + j * 3) % 5) as f64
        });
        let mut g = vec![0.0; n * n];

        // Parity first: the two digestions must build the same G.
        stored.oracle(&d, &mut g);
        let want = tri_to_full(&g, n);
        g.fill(0.0);
        stored.block(&d, &mut g);
        let got = tri_to_full(&g, n);
        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let gap = got.max_abs_diff(&want);
        assert!(gap <= 1e-13 * scale, "{label}: block vs oracle gap {gap:e} (max |G| {scale:e})");

        // Each timed window repeats the sweep enough times to last about
        // 50 ms on the slower leg.
        let t0 = Instant::now();
        stored.oracle(&d, &mut g);
        let sweeps = (0.05 / t0.elapsed().as_secs_f64()).ceil().max(1.0) as usize;
        let mut time = |f: &dyn Fn(&Mat, &mut [f64])| {
            g.fill(0.0);
            let t = Instant::now();
            for _ in 0..sweeps {
                f(&d, &mut g);
            }
            black_box(&g);
            t.elapsed().as_secs_f64() / sweeps as f64
        };
        let oracle = |d: &Mat, g: &mut [f64]| stored.oracle(d, g);
        let block = |d: &Mat, g: &mut [f64]| stored.block(d, g);
        let (mut t_oracle, mut t_block, mut t_control) = (vec![], vec![], vec![]);
        for rep in 0..reps {
            let mut t = [0.0; 3];
            for slot in 0..3 {
                let leg = (slot + rep) % 3;
                t[leg] = time(if leg == 0 { &oracle } else { &block });
            }
            t_oracle.push(t[0]);
            t_block.push(t[1]);
            t_control.push(t[2]);
        }
        let ratio =
            |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x / y).collect() };
        let new_old = quartiles(&ratio(&t_block, &t_oracle));
        let control = quartiles(&ratio(&t_control, &t_block));
        let med = |t: &[f64]| quartiles(t).1 * 1e9;
        println!(
            "{label}: {} basis functions, {} quartets, {} integrals; oracle {:.2} ms, block {:.2} ms; \
             block/oracle median {:.3} [IQR {:.3}-{:.3}], control {:.3} [IQR {:.3}-{:.3}]",
            n,
            stored.quartets.len(),
            stored.values.len(),
            med(&t_oracle) * 1e-6,
            med(&t_block) * 1e-6,
            new_old.1,
            new_old.0,
            new_old.2,
            control.1,
            control.0,
            control.2
        );
        for (leg, t, ratio) in [
            ("oracle", &t_oracle, None),
            ("block", &t_block, Some(new_old)),
            ("control", &t_control, Some(control)),
        ] {
            rows.push(Row { name: format!("{label}/{leg}"), ns: med(t), iters: reps, ratio });
        }
    }
    if let Some(path) = json_path() {
        let mut out = String::from("{\n  \"group\": \"digest\",\n  \"results\": [\n");
        for (k, r) in rows.iter().enumerate() {
            let ratio = r
                .ratio
                .map(|(q1, m, q3)| {
                    format!(
                        ", \"ratio_median\": {m:.4}, \"ratio_q1\": {q1:.4}, \"ratio_q3\": {q3:.4}"
                    )
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"ns_per_iter\": {:.0}, \"iters\": {}{ratio}}}{}\n",
                r.name,
                r.ns,
                r.iters,
                if k + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json");
        println!("# wrote {}", path.display());
    }
}
