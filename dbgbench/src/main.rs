//! `dbgbench`: the repository benchmark. For one workload it generates
//! the inputs from a seed, times end-to-end builds through the public
//! `ParaHash` entry points, checks every graph against the
//! single-threaded reference, and (with `--trace 1`) runs one traced
//! build composed from each layer's public functions for per-layer
//! numbers. See `README.md` in this directory.
//!
//! Usage: `dbgbench --workload <name|all> [--seed <n|holdout>]
//! [--seconds <n>] [--trace <0|1>]`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer with `--trace 1`).

mod alloc;
mod measure;
mod report;
mod trace;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::GATED.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload `{value}` (expected one of {} or all)",
                        names.join(", ")
                    )
                })?;
                workloads = Some(vec![w]);
            }
            "--seed" if value == "holdout" => seed = workload::HOLDOUT_SEED,
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed `{value}`: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds `{value}`: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}`: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    // Shard workers are this binary re-executed with the parent's socket
    // in the environment: they must be routed before anything else runs.
    match parahash::worker_from_env() {
        Ok(true) => return ExitCode::SUCCESS,
        Ok(false) => {}
        Err(e) => {
            eprintln!("dbgbench worker: {e}");
            return ExitCode::FAILURE;
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dbgbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("dbgbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scratch = ScratchDir(
        root.join(".bench_work")
            .join(format!("run-{}", std::process::id())),
    );
    let tmp = scratch.0.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("dbgbench: creating {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Wire-mode shard workers stage in the temporary directory; keep
    // every byte the benchmark writes inside its own tree. Set before
    // any thread starts.
    std::env::set_var("TMPDIR", &tmp);

    for workload in args.workloads.iter().copied() {
        match run_workload(workload, &args, &root, &scratch.0) {
            Ok(result) => {
                result.print_human(&mut std::io::stdout().lock());
                match result.write_spans(&root.join(".bench_out")) {
                    Ok(Some(path)) => println!("spans: {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("dbgbench: writing spans: {e}"),
                }
                println!("{}", result.json(args.trace));
            }
            Err(e) => {
                eprintln!("dbgbench {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_workload(
    workload: Workload,
    args: &Args,
    root: &Path,
    scratch: &Path,
) -> Result<report::WorkloadResult, traced::Error> {
    let dir = scratch.join(workload.name());
    std::fs::create_dir_all(&dir)?;
    let result = report::measure(workload, args.seed, args.seconds, args.trace, root, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}
