//! `phi-scf` command-line interface: run Hartree-Fock on built-in
//! geometries with any of the paper's Fock-build algorithms.
//!
//! ```sh
//! phi-scf --molecule water --basis 631gd --algorithm shared:2x2
//! phi-scf --molecule ring:8 --basis sto3g --algorithm private:1x4
//! phi-scf --molecule benzene --algorithm distributed:4
//! phi-scf --molecule h2:1.4 --uhf 1,1 --algorithm mpi:2
//! phi-scf --help
//! ```

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::{graphene, small};
use phi_scf::chem::Molecule;
use phi_scf::dmpi::{DdiMode, FaultPlan};
use phi_scf::hf::{
    mp2_energy, run_scf, run_uhf, FockAlgorithm, FockBuildStats, MemoryModel, ScfConfig, UhfConfig,
};

const HELP: &str = "\
phi-scf — Hartree-Fock with the SC'17 hybrid MPI/OpenMP Fock builders

USAGE:
    phi-scf [OPTIONS]

OPTIONS:
    --molecule <NAME>    water | methane | benzene | h2[:R_bohr] | hehp |
                         ring:<n_atoms> | chain:<n>:<spacing> |
                         graphene:<n_atoms>            [default: water]
    --xyz <FILE>         read the geometry from an XYZ file instead
                         (charge via charge=<int> on the comment line)
    --basis <NAME>       sto3g | 631g | 631gd | 631gdp [default: 631g]
    --algorithm <SPEC>   serial | mpi:<ranks> | private:<R>x<T> |
                         shared:<R>x<T> | distributed:<ranks> |
                         sharded:<ranks>[:os|:ds]
                         (applies to RHF and UHF)      [default: shared:2x2]
                         sharded keeps density and Fock in tri-packed
                         distributed windows — no rank ever holds a full
                         N x N matrix; :os = MPI-3 one-sided (default),
                         :ds = classic DDI data servers
    --tau <FLOAT>        Schwarz screening threshold   [default: 1e-10]
    --max-iter <N>       SCF iteration cap             [default: 100]
    --uhf <NA>,<NB>      run UHF with NA alpha / NB beta electrons
    --mp2                add the MP2 correlation energy after RHF
    --no-diis            disable DIIS acceleration
    --purify             build each iteration's density by canonical
                         purification instead of diagonalization (no
                         replicated O(N^3) eigensolve; pairs with
                         --algorithm sharded; RHF and UHF). Orbital
                         output (and so --mp2) is unavailable
    --memory-budget <MiB>
                         print the per-rank memory-model estimate for every
                         algorithm at the requested rank/thread shape and
                         refuse to run an algorithm whose estimate exceeds
                         the budget (the error names the sharded
                         alternative that fits)
    --incremental        incremental (ΔD) Fock builds: each iteration
                         builds G(ΔD) under density-weighted screening and
                         accumulates G_n = G_ref + G(ΔD); surviving-quartet
                         counts collapse as SCF converges (RHF and UHF)
    --full-rebuild-every <K>
                         with --incremental, perform a full rebuild every
                         K-th Fock build (K=1: all full)  [default: 8]
    --faults <SPEC>      deterministic fault injection, replayed on every
                         Fock build: <seed>:<fault>[,<fault>...] with
                         kill@<task> | kill@<rank>#<claim> | kill*<count> |
                         delay@<rank>#<claim>:<ms> |
                         drop@<from>-><to>#<nth> |
                         corrupt@<from>-><to>#<nth>
                         e.g. --faults 42:kill@3,delay@1#2:50
    --comm-timeout-ms <MS>
                         barrier/receive timeout for the failure-aware
                         collectives (replaces the old hard-coded 30-60 s
                         ceilings; ack timeouts scale to min(MS, 200) ms)
                         (parallel algorithms only; survivors reclaim the
                         dead ranks' tasks and finish the build)
    --trace <FILE>       record a span trace of the whole run and write it
                         as Chrome trace_event JSON (open in
                         chrome://tracing or https://ui.perfetto.dev);
                         also prints the phase breakdown and per-rank
                         thread imbalance. Needs a binary built with
                         `--features trace` — without it the run works
                         but the trace is empty and a warning is printed
    --help               print this text
";

fn parse_molecule(spec: &str) -> Result<Molecule, String> {
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    match name {
        "water" => Ok(small::water()),
        "methane" => Ok(small::methane()),
        "benzene" => Ok(small::benzene()),
        "hehp" => Ok(small::heh_cation()),
        "h2" => {
            let r = arg.map(|a| a.parse().map_err(|_| format!("bad bond length '{a}'")));
            Ok(small::hydrogen_molecule(r.transpose()?.unwrap_or(1.4)))
        }
        "ring" => {
            let n = arg.ok_or("ring needs an atom count, e.g. ring:8")?;
            Ok(small::c_ring(n.parse().map_err(|_| format!("bad count '{n}'"))?, 1.40))
        }
        "chain" => {
            let a = arg.ok_or("chain needs <n>:<spacing>, e.g. chain:8:1.8")?;
            let (n, sp) = a.split_once(':').ok_or("chain needs <n>:<spacing>")?;
            Ok(small::h_chain(
                n.parse().map_err(|_| format!("bad count '{n}'"))?,
                sp.parse().map_err(|_| format!("bad spacing '{sp}'"))?,
            ))
        }
        "graphene" => {
            let n = arg.ok_or("graphene needs an atom count, e.g. graphene:16")?;
            Ok(graphene::graphene_flake(n.parse().map_err(|_| format!("bad count '{n}'"))?))
        }
        other => Err(format!("unknown molecule '{other}'")),
    }
}

fn parse_basis(spec: &str) -> Result<BasisName, String> {
    match spec {
        "sto3g" | "sto-3g" => Ok(BasisName::Sto3g),
        "631g" | "6-31g" => Ok(BasisName::B631g),
        "631gd" | "6-31g(d)" | "6-31gd" => Ok(BasisName::B631gd),
        "631gdp" | "6-31g(d,p)" | "6-31gdp" => Ok(BasisName::B631gdp),
        other => Err(format!("unknown basis '{other}'")),
    }
}

fn parse_algorithm(spec: &str) -> Result<FockAlgorithm, String> {
    if spec == "serial" {
        return Ok(FockAlgorithm::Serial);
    }
    let (name, cfg) = spec.split_once(':').ok_or_else(|| format!("bad algorithm '{spec}'"))?;
    let parse_rt = |s: &str| -> Result<(usize, usize), String> {
        let (r, t) = s.split_once('x').ok_or_else(|| format!("need <R>x<T>, got '{s}'"))?;
        Ok((
            r.parse().map_err(|_| format!("bad rank count '{r}'"))?,
            t.parse().map_err(|_| format!("bad thread count '{t}'"))?,
        ))
    };
    match name {
        "mpi" => Ok(FockAlgorithm::MpiOnly {
            n_ranks: cfg.parse().map_err(|_| format!("bad rank count '{cfg}'"))?,
        }),
        "private" => {
            let (r, t) = parse_rt(cfg)?;
            Ok(FockAlgorithm::PrivateFock { n_ranks: r, n_threads: t })
        }
        "shared" => {
            let (r, t) = parse_rt(cfg)?;
            Ok(FockAlgorithm::SharedFock { n_ranks: r, n_threads: t })
        }
        "distributed" => Ok(FockAlgorithm::Distributed {
            n_ranks: cfg.parse().map_err(|_| format!("bad rank count '{cfg}'"))?,
        }),
        "sharded" => {
            let (ranks, mode) = match cfg.split_once(':') {
                Some((r, "os")) => (r, DdiMode::Mpi3OneSided),
                Some((r, "ds")) => (r, DdiMode::DataServer),
                Some((_, m)) => return Err(format!("unknown DDI mode '{m}' (os or ds)")),
                None => (cfg, DdiMode::Mpi3OneSided),
            };
            Ok(FockAlgorithm::Sharded {
                n_ranks: ranks.parse().map_err(|_| format!("bad rank count '{ranks}'"))?,
                mode,
            })
        }
        other => Err(format!("unknown algorithm '{other}'")),
    }
}

/// Per-rank memory-model estimate (bytes) for one algorithm, with the
/// shell-pair dataset included. `Serial` and `Distributed` replicate the
/// same density + full accumulation matrices as MPI-only, so they share
/// eq. (3a); the sharded build is the only sub-quadratic row.
fn per_rank_estimate(alg: FockAlgorithm, b: &BasisSet, pair_bytes: usize) -> f64 {
    let model =
        |threads: usize| MemoryModel::hybrid(b.n_basis(), 1, threads).with_shell_pairs(pair_bytes);
    match alg {
        FockAlgorithm::Serial => model(1).bytes_mpi_only(),
        FockAlgorithm::MpiOnly { .. } => model(1).bytes_mpi_only(),
        FockAlgorithm::PrivateFock { n_threads, .. } => model(n_threads).bytes_private_fock(),
        FockAlgorithm::SharedFock { n_threads, .. } => model(n_threads).bytes_shared_fock(),
        FockAlgorithm::Distributed { .. } => model(1).bytes_mpi_only(),
        FockAlgorithm::Sharded { n_ranks, mode } => {
            model(1).with_ddi(mode).bytes_sharded(n_ranks, b.max_shell_functions())
        }
    }
}

/// Apply `--memory-budget`: print the model table and refuse an
/// over-budget algorithm, pointing at the sharded configuration that fits.
fn check_memory_budget(
    budget_mib: f64,
    alg: FockAlgorithm,
    b: &BasisSet,
    pair_bytes: usize,
) -> Result<(), String> {
    let mib = |bytes: f64| bytes / (1024.0 * 1024.0);
    let (ranks, threads) = match alg {
        FockAlgorithm::Serial => (1, 1),
        FockAlgorithm::MpiOnly { n_ranks } | FockAlgorithm::Distributed { n_ranks } => (n_ranks, 1),
        FockAlgorithm::PrivateFock { n_ranks, n_threads }
        | FockAlgorithm::SharedFock { n_ranks, n_threads } => (n_ranks, n_threads),
        FockAlgorithm::Sharded { n_ranks, .. } => (n_ranks, 1),
    };
    let sharded = FockAlgorithm::Sharded { n_ranks: ranks, mode: DdiMode::Mpi3OneSided };
    println!("memory model (per rank, N = {}, budget {budget_mib:.1} MiB):", b.n_basis());
    for candidate in [
        FockAlgorithm::MpiOnly { n_ranks: ranks },
        FockAlgorithm::PrivateFock { n_ranks: ranks, n_threads: threads },
        FockAlgorithm::SharedFock { n_ranks: ranks, n_threads: threads },
        FockAlgorithm::Distributed { n_ranks: ranks },
        sharded,
    ] {
        let est = mib(per_rank_estimate(candidate, b, pair_bytes));
        let verdict = if est <= budget_mib { "fits" } else { "OVER BUDGET" };
        println!("  {:<12} {est:>10.2} MiB  {verdict}", candidate.label());
    }
    let est = mib(per_rank_estimate(alg, b, pair_bytes));
    if est > budget_mib {
        // Stripes thin as ranks are added; the O(N) caches and the
        // shell-pair dataset do not, so a fitting rank count may not exist.
        let fitting = (0..).map(|i| ranks.max(1) << i).take(13).find(|&r| {
            let s = FockAlgorithm::Sharded { n_ranks: r, mode: DdiMode::Mpi3OneSided };
            mib(per_rank_estimate(s, b, pair_bytes)) <= budget_mib
        });
        let hint = match fitting {
            Some(r) => {
                let s = FockAlgorithm::Sharded { n_ranks: r, mode: DdiMode::Mpi3OneSided };
                let sharded_est = mib(per_rank_estimate(s, b, pair_bytes));
                format!(
                    "the sharded build fits in ~{sharded_est:.2} MiB — \
                     try --algorithm sharded:{r}"
                )
            }
            None => "even the sharded build cannot fit (its per-rank floor is the \
                     O(N) caches plus the shell-pair dataset); raise the budget"
                .to_string(),
        };
        return Err(format!(
            "algorithm '{}' needs ~{est:.2} MiB per rank, over the {budget_mib:.1} MiB \
             budget; {hint}",
            alg.label()
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut molecule = "water".to_string();
    let mut xyz_path: Option<String> = None;
    let mut basis = "631g".to_string();
    let mut algorithm = "shared:2x2".to_string();
    let mut tau = 1e-10f64;
    let mut max_iter = 100usize;
    let mut uhf: Option<(usize, usize)> = None;
    let mut mp2 = false;
    let mut diis = true;
    let mut faults: Option<FaultPlan> = None;
    let mut retry = phi_scf::dmpi::RetryPolicy::default();
    let mut trace_path: Option<String> = None;
    let mut incremental = false;
    let mut full_rebuild_every = 8usize;
    let mut purify = false;
    let mut memory_budget: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("--{what} needs a value"));
        match a.as_str() {
            "--molecule" => molecule = value("molecule")?,
            "--xyz" => xyz_path = Some(value("xyz")?),
            "--basis" => basis = value("basis")?,
            "--algorithm" => algorithm = value("algorithm")?,
            "--tau" => tau = value("tau")?.parse().map_err(|e| format!("bad tau: {e}"))?,
            "--max-iter" => {
                max_iter = value("max-iter")?.parse().map_err(|e| format!("bad max-iter: {e}"))?
            }
            "--uhf" => {
                let v = value("uhf")?;
                let (na, nb) = v.split_once(',').ok_or("--uhf needs NA,NB")?;
                uhf = Some((
                    na.parse().map_err(|_| format!("bad alpha count '{na}'"))?,
                    nb.parse().map_err(|_| format!("bad beta count '{nb}'"))?,
                ));
            }
            "--mp2" => mp2 = true,
            "--no-diis" => diis = false,
            "--incremental" => incremental = true,
            "--full-rebuild-every" => {
                full_rebuild_every = value("full-rebuild-every")?
                    .parse()
                    .map_err(|e| format!("bad full-rebuild-every: {e}"))?;
                if full_rebuild_every == 0 {
                    return Err("--full-rebuild-every needs K >= 1".into());
                }
            }
            "--purify" => purify = true,
            "--memory-budget" => {
                let mib: f64 = value("memory-budget")?
                    .parse()
                    .map_err(|e| format!("bad memory-budget: {e}"))?;
                if !mib.is_finite() || mib <= 0.0 {
                    return Err("--memory-budget needs MiB > 0".into());
                }
                memory_budget = Some(mib);
            }
            "--faults" => faults = Some(FaultPlan::parse(&value("faults")?)?),
            "--comm-timeout-ms" => {
                let ms: u64 = value("comm-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad comm-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--comm-timeout-ms needs MS >= 1".into());
                }
                retry = retry.with_comm_timeout(std::time::Duration::from_millis(ms));
                // Ack timeouts longer than the receive ceiling would turn
                // every transient fault into a barrier timeout first.
                retry.ack_timeout = retry.ack_timeout.min(retry.ft_timeout);
            }
            "--trace" => trace_path = Some(value("trace")?),
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(());
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }

    let mol = match &xyz_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            molecule = path.clone();
            phi_scf::chem::parse_xyz(&text)?
        }
        None => parse_molecule(&molecule)?,
    };
    let basis_name = parse_basis(&basis)?;
    let b = BasisSet::build(&mol, basis_name);
    println!(
        "{molecule} / {}: {} atoms, {} shells, {} basis functions, {} electrons",
        basis_name.label(),
        mol.n_atoms(),
        b.n_shells(),
        b.n_basis(),
        mol.n_electrons()
    );

    let alg = parse_algorithm(&algorithm)?;
    if mp2 && purify {
        return Err("--mp2 needs MO coefficients and orbital energies; \
                    --purify produces neither (drop one of the two flags)"
            .into());
    }
    if let Some(mib) = memory_budget {
        let pair_bytes = phi_scf::integrals::ShellPairs::build(&b).bytes();
        check_memory_budget(mib, alg, &b, pair_bytes)?;
    }
    let trace_session = trace_path.as_deref().map(|_| {
        if !phi_scf::trace::enabled() {
            eprintln!(
                "warning: this binary was built without `--features trace`; \
                 the trace file will be empty"
            );
        }
        phi_scf::trace::TraceSession::begin()
    });
    if let Some((na, nb)) = uhf {
        let config = UhfConfig {
            algorithm: alg,
            screening_tau: tau,
            max_iterations: max_iter,
            faults: faults.clone(),
            retry,
            incremental,
            full_rebuild_every,
            purification: purify,
            ..Default::default()
        };
        let r = run_uhf(&mol, &b, na, nb, &config);
        println!(
            "UHF [{}] ({na} alpha, {nb} beta): E = {:.8} Eh  <S^2> = {:.4}  ({} iterations, converged: {})",
            alg.label(),
            r.energy,
            r.s_squared,
            r.iterations,
            r.converged
        );
        if let Some(s) = r.fock_stats.first() {
            let dlb = if tracked_world(&r.fock_stats) {
                format!(", {} DLB calls", s.dlb_calls)
            } else {
                String::new()
            };
            println!(
                "per build: {} quartets computed, {:.1}% screened{dlb}",
                s.quartets_computed,
                s.screened_fraction() * 100.0
            );
        }
        print_fault_summary(&r.fock_stats);
        if let (Some(session), Some(path)) = (trace_session, trace_path.as_deref()) {
            write_trace(session, path)?;
        }
        return Ok(());
    }

    let config = ScfConfig {
        algorithm: alg,
        screening_tau: tau,
        max_iterations: max_iter,
        diis,
        faults: faults.clone(),
        retry,
        incremental,
        full_rebuild_every,
        purification: purify,
        ..Default::default()
    };
    let r = run_scf(&mol, &b, &config);
    if let (Some(session), Some(path)) = (trace_session, trace_path.as_deref()) {
        write_trace(session, path)?;
    }
    println!(
        "RHF [{}]: E = {:.8} Eh  ({} iterations, converged: {})",
        alg.label(),
        r.energy,
        r.iterations,
        r.converged
    );
    print_fault_summary(&r.fock_stats);
    // Memory and DLB fields only mean something when a build ran a
    // tracked world; serial and in-core runs omit them.
    let tracked = tracked_world(&r.fock_stats);
    let memory = if tracked {
        let rank_peak = r.fock_stats.iter().map(|s| s.max_rank_peak()).max().unwrap_or(0);
        format!(
            "; peak tracked memory {} bytes ({rank_peak} bytes on the busiest rank)",
            r.peak_memory()
        )
    } else {
        String::new()
    };
    println!(
        "time to form Fock: {:.3} s over {} builds{memory}",
        r.time_to_form_fock(),
        r.fock_stats.len()
    );
    if let Some(s) = r.fock_stats.first() {
        let dlb = if tracked { format!(", {} DLB tasks", s.dlb_tasks) } else { String::new() };
        println!(
            "per build: {} quartets computed, {:.1}% screened{dlb}",
            s.quartets_computed,
            s.screened_fraction() * 100.0
        );
    }
    if incremental {
        if let (Some(first), Some(last)) = (r.fock_stats.first(), r.fock_stats.last()) {
            let ratio = first.quartets_computed as f64 / (last.quartets_computed.max(1)) as f64;
            println!(
                "incremental: final build computed {} quartets ({ratio:.1}x fewer than the \
                 first full build's {})",
                last.quartets_computed, first.quartets_computed
            );
        }
    }
    if mp2 {
        if !r.converged {
            return Err("MP2 needs a converged SCF".into());
        }
        let c = mp2_energy(&b, &r.orbitals, &r.orbital_energies, mol.n_occupied(), r.energy);
        println!("MP2: E_corr = {:.8} Eh, total = {:.8} Eh", c.correlation_energy, c.total_energy);
    }
    Ok(())
}

/// Whether any build ran a tracked world (every parallel builder does; the
/// serial and in-core builds do not).
fn tracked_world(stats: &[FockBuildStats]) -> bool {
    stats.iter().any(|s| !s.per_rank_peak.is_empty())
}

/// Finish the trace session, write the Chrome trace_event JSON, and print
/// the phase breakdown plus per-rank thread imbalance (paper Fig. 8).
fn write_trace(session: phi_scf::trace::TraceSession, path: &str) -> Result<(), String> {
    let report = session.finish();
    std::fs::write(path, report.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    if report.is_empty() {
        println!("trace: wrote {path} (empty)");
        return Ok(());
    }
    let s = report.summary();
    // Runs without a thread team (MPI-only, distributed, sharded) have no
    // busy fraction to report.
    let busy =
        report.busy_fraction().map(|b| format!(", busy fraction {b:.2}")).unwrap_or_default();
    println!(
        "trace: wrote {path}; fock {:.3} s, gsum {:.3} s, total {:.3} s{busy}, DLB wait {:.3} s",
        s.fock_seconds,
        s.reduction_seconds,
        s.total_seconds,
        report.dlb_wait_total_ns() as f64 * 1e-9
    );
    for (rank, ratio) in report.imbalance_ratios() {
        println!("trace: rank {rank} thread imbalance (max/mean busy) {ratio:.2}");
    }
    Ok(())
}

/// If any build injected faults, summarize the recovery across iterations.
fn print_fault_summary(stats: &[FockBuildStats]) {
    let injected: usize = stats.iter().map(|s| s.faults_injected).sum();
    if injected == 0 {
        return;
    }
    let reclaimed: usize = stats.iter().map(|s| s.tasks_reclaimed).sum();
    let retries: usize = stats.iter().map(|s| s.retries).sum();
    let failed = stats.iter().map(|s| s.failed_ranks.len()).max().unwrap_or(0);
    println!(
        "fault injection: {injected} faults fired, up to {failed} rank(s) lost per build, \
         {reclaimed} tasks reclaimed, {retries} recovery claims"
    );
    let retransmits: u64 = stats.iter().map(|s| s.retransmits).sum();
    let recovered: u64 = stats.iter().map(|s| s.transient_recoveries).sum();
    let corrupt: u64 = stats.iter().map(|s| s.corruptions_detected).sum();
    if retransmits + recovered + corrupt > 0 {
        println!(
            "reliable delivery: {retransmits} retransmissions, {corrupt} corruptions \
             detected, {recovered} transient faults recovered without losing a rank"
        );
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
