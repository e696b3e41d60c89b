//! `scfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, a provenance line, and as its last line
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Writes only below `.scfbench/` in the working directory.

use scfbench::bench::{end_to_end, traced, workers, Report};
use scfbench::driver::Case;
use scfbench::metrics::{self, result_line};
use scfbench::workload::{SplitMix64, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the benchmark keeps its spans and scratch files.
const OUT_DIR: &str = ".scfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&v)
                        .ok_or(format!("unknown workload '{v}' (one of {})", names.join(", ")))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; "unknown" elsewhere.
fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, case: &Case) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"workers\": {}, \"algorithm\": \"{:?}\", \"basis\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"profile\": \"{}\", \
         \"trace_feature\": {}, \"simulated\": false}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers(case.driver.algorithm()),
        case.driver.algorithm(),
        case.basis.label(),
        env!("SCFBENCH_RUSTC"),
        commit(),
        env!("SCFBENCH_PROFILE"),
        phi_trace::enabled(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: scfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let pid = std::process::id();
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{pid}"));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let input = |k: usize| Case {
        mol: w.molecule(args.seed, k),
        basis: w.basis(),
        driver: w.driver(&scratch),
        pinned: (args.seed == 0).then(|| w.pinned()),
    };
    let case = input(0);

    let (report, declared): (Report, _) = if args.trace {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let run_id = SplitMix64::new(nanos ^ (u64::from(pid) << 32)).next_u64();
        let trace_path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        println!("spans: {} (run {run_id:016x})", trace_path.display());
        (traced(&case, &scratch, run_id, &trace_path), metrics::per_layer())
    } else {
        (end_to_end(&input, args.seconds as f64, &scratch), metrics::end_to_end())
    };
    let _ = std::fs::remove_dir_all(&scratch);

    for note in &report.notes {
        println!("{note}");
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    let mut failed = report.failed;
    let withheld = report.metrics.iter().next().is_none();
    if !withheld {
        let mismatch = report.metrics.mismatch(&declared);
        if !mismatch.is_empty() {
            println!("FAILED metrics do not match the declared list: {mismatch:?}");
            failed = failed.max(1);
        }
    }
    for (name, value, unit) in report.metrics.iter() {
        println!("{name:32} {value:>16.6} {unit}");
    }
    println!("{}", provenance(&args, &case));
    println!(
        "{}",
        result_line(failed == 0 && !withheld, report.attempted, failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
