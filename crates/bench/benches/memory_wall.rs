//! Bench: the memory wall — replicated vs sharded per-rank footprint.
//!
//! Runs the RHF driver on a graphene flake three ways: a serial reference,
//! the replicated MPI-only build, and the sharded build (tri-packed
//! density/Fock window stripes, O(N) rank-local caches). A per-rank byte
//! budget is fixed *a priori* from the [`MemoryModel`] — the midpoint of
//! the eq. (3a) replicated estimate and the sharded-stripe estimate — and
//! the live tracker must then show the wall: every replicated rank's peak
//! exceeds the budget, every sharded rank's peak fits under it.
//!
//! Hard asserts (not timed):
//! - all runs converge, and both parallel RHF energies — plus a sharded
//!   UHF run against its serial UHF reference (on water/6-31G(d,p); the
//!   DIIS-free UHF driver needs a system whose plain Roothaan iteration
//!   settles) — match within 1e-10;
//! - replicated per-rank peak (live tracker) > budget > sharded per-rank
//!   peak, and sharded < replicated outright;
//! - the tracker peaks bracket their own model estimates' ordering (the
//!   model is a prediction; the tracker is the measurement).
//!
//! Pass `--json <path>` to write the numbers, e.g. `BENCH_pr7.json`.

use hf::{run_scf, run_uhf, FockAlgorithm, MemoryModel, ScfConfig, ScfResult, UhfConfig};
use phi_bench::microbench::smoke_mode;
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::graphene;
use phi_dmpi::DdiMode;
use phi_integrals::ShellPairs;

const RANKS: usize = 4;

fn json_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(std::path::PathBuf::from(
                args.next().unwrap_or_else(|| "bench_memory_wall.json".into()),
            ));
        }
    }
    None
}

fn rank_peak(r: &ScfResult) -> usize {
    r.fock_stats.iter().map(|s| s.max_rank_peak()).max().unwrap_or(0)
}

fn main() {
    let (label, mol) = if smoke_mode() {
        ("graphene flake, 8 C, STO-3G", graphene::graphene_flake(8))
    } else {
        ("graphene flake, 16 C, STO-3G", graphene::graphene_flake(16))
    };
    let basis = BasisSet::build(&mol, BasisName::Sto3g);
    let n = basis.n_basis();
    let pair_bytes = ShellPairs::build(&basis).bytes();

    // The a-priori budget: halfway between what eq. (3a) says a replicated
    // rank needs and what the sharded stripes + caches need. A budget the
    // *model* places between the two footprints must separate the *live
    // tracker* measurements the same way, or the model is lying.
    let model = MemoryModel::hybrid(n, 1, 1).with_shell_pairs(pair_bytes);
    let est_replicated = model.bytes_mpi_only();
    let est_sharded = model.bytes_sharded(RANKS, basis.max_shell_functions());
    assert!(
        est_sharded < est_replicated,
        "model: sharded {est_sharded:.0} B should undercut replicated {est_replicated:.0} B"
    );
    let budget = ((est_replicated + est_sharded) / 2.0) as usize;

    println!("# system: {label} (N = {n}, {RANKS} ranks)");
    println!("# model per-rank: replicated {est_replicated:.0} B, sharded {est_sharded:.0} B");
    println!("# a-priori budget: {budget} B per rank");

    let serial = run_scf(&mol, &basis, &ScfConfig::default());
    assert!(serial.converged, "serial reference did not converge");

    let replicated = run_scf(
        &mol,
        &basis,
        &ScfConfig { algorithm: FockAlgorithm::MpiOnly { n_ranks: RANKS }, ..Default::default() },
    );
    assert!(replicated.converged, "replicated SCF did not converge");

    let sharded = run_scf(
        &mol,
        &basis,
        &ScfConfig {
            algorithm: FockAlgorithm::Sharded { n_ranks: RANKS, mode: DdiMode::Mpi3OneSided },
            ..Default::default()
        },
    );
    assert!(sharded.converged, "sharded SCF did not converge");

    let de_rep = (replicated.energy - serial.energy).abs();
    let de_sh = (sharded.energy - serial.energy).abs();
    assert!(de_rep <= 1e-10, "replicated energy off serial by {de_rep:.3e}");
    assert!(de_sh <= 1e-10, "sharded energy off serial by {de_sh:.3e}");

    let rep_peak = rank_peak(&replicated);
    let sh_peak = rank_peak(&sharded);
    println!("# tracker per-rank peak: replicated {rep_peak} B, sharded {sh_peak} B");
    assert!(
        rep_peak > budget,
        "replicated rank peak {rep_peak} B should bust the {budget} B budget"
    );
    assert!(sh_peak < budget, "sharded rank peak {sh_peak} B should fit the {budget} B budget");
    assert!(sh_peak < rep_peak, "sharded {sh_peak} B must undercut replicated {rep_peak} B");

    // UHF parity through the same sharded windows (three density stripes,
    // two Fock channels). The UHF driver iterates plain Roothaan with no
    // DIIS, and the graphene flakes' fixed-point maps do not settle
    // within the iteration cap — so the parity leg runs on water in
    // 6-31G(d,p), which converges in ~35 iterations and exercises the
    // identical sharded window path. Equal spin counts on a closed-shell
    // molecule give a well-conditioned unrestricted reference.
    let uhf_label = "water, 6-31G(d,p)";
    let uhf_mol = phi_chem::geom::small::water();
    let uhf_basis = BasisSet::build(&uhf_mol, BasisName::B631gdp);
    let (na, nb) = (uhf_mol.n_electrons() / 2, uhf_mol.n_electrons() / 2);
    let uhf_serial = run_uhf(&uhf_mol, &uhf_basis, na, nb, &UhfConfig::default());
    assert!(uhf_serial.converged, "serial UHF reference did not converge");
    let uhf_sharded = run_uhf(
        &uhf_mol,
        &uhf_basis,
        na,
        nb,
        &UhfConfig {
            algorithm: FockAlgorithm::Sharded { n_ranks: RANKS, mode: DdiMode::Mpi3OneSided },
            ..Default::default()
        },
    );
    assert!(uhf_sharded.converged, "sharded UHF did not converge");
    let de_uhf = (uhf_sharded.energy - uhf_serial.energy).abs();
    assert!(de_uhf <= 1e-10, "sharded UHF off serial by {de_uhf:.3e}");

    let t_rep = replicated.time_to_form_fock();
    let t_sh = sharded.time_to_form_fock();
    let time_ratio = t_sh / t_rep.max(1e-12);
    println!(
        "# Fock build time: replicated {t_rep:.3} s, sharded {t_sh:.3} s \
         ({time_ratio:.2}x the replicated time; window traffic, not speed, \
         is what sharding trades for O(N) per-rank memory)"
    );
    println!(
        "# energy: serial {:.10}, replicated {:.10}, sharded {:.10}",
        serial.energy, replicated.energy, sharded.energy
    );

    if let Some(path) = json_path() {
        let json = format!(
            "{{\n  \"bench\": \"memory_wall\",\n  \"system\": \"{label}\",\n  \
             \"n_basis\": {n},\n  \"ranks\": {RANKS},\n  \
             \"pair_bytes\": {pair_bytes},\n  \
             \"model_replicated_bytes\": {est_replicated:.0},\n  \
             \"model_sharded_bytes\": {est_sharded:.0},\n  \
             \"budget_bytes\": {budget},\n  \
             \"tracker_replicated_rank_peak_bytes\": {rep_peak},\n  \
             \"tracker_sharded_rank_peak_bytes\": {sh_peak},\n  \
             \"replicated_over_budget\": {},\n  \"sharded_fits_budget\": {},\n  \
             \"energy_serial\": {:.10},\n  \"energy_replicated\": {:.10},\n  \
             \"energy_sharded\": {:.10},\n  \
             \"energy_abs_diff_sharded\": {de_sh:.3e},\n  \
             \"uhf_system\": \"{uhf_label}\",\n  \
             \"energy_uhf_serial\": {:.10},\n  \"energy_uhf_sharded\": {:.10},\n  \
             \"energy_abs_diff_uhf_sharded\": {de_uhf:.3e},\n  \
             \"fock_seconds_replicated\": {t_rep:.6},\n  \
             \"fock_seconds_sharded\": {t_sh:.6},\n  \
             \"build_time_ratio_sharded_over_replicated\": {time_ratio:.3}\n}}\n",
            rep_peak > budget,
            sh_peak < budget,
            serial.energy,
            replicated.energy,
            sharded.energy,
            uhf_serial.energy,
            uhf_sharded.energy,
        );
        std::fs::write(&path, json).expect("write json");
        println!("# wrote {}", path.display());
    }
}
