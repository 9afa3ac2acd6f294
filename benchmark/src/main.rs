//! The EESMR benchmark: six named workloads, end-to-end metrics with
//! tracing off, and a traced pass for the per-layer numbers.
//!
//! ```text
//! eesmr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//! eesmr-benchmark [--seed n] [--seconds s] [--reps k] [--quick]
//!     every workload, each in a process of its own (so peak memory is
//!     per workload): an untraced run, then a traced one; writes
//!     out/results.json and out/trace.json
//! eesmr-benchmark --compare A.json B.json
//! eesmr-benchmark --emit-manifest
//! ```

mod catalog;
mod compare;
mod json;
mod layers;
mod procfs;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use runner::RunArgs;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    quick: bool,
    detail: Option<PathBuf>,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    emit_manifest: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        reps: None,
        quick: false,
        detail: None,
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
        emit_manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--reps" => {
                let reps: usize = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                cli.reps = Some(reps.clamp(1, 1000));
            }
            "--quick" => cli.quick = true,
            "--detail" => cli.detail = Some(PathBuf::from(value()?)),
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--emit-manifest" => cli.emit_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.quick && cli.reps.is_none() {
        cli.reps = Some(1);
    }
    Ok(cli)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent().map(Path::to_path_buf).ok_or_else(|| "executable has no directory".into())
}

/// `run_proc` leaves one `eesmr-proc-<pid>-<n>` socket directory per call
/// under the temp dir; removes this process's (best effort).
fn remove_socket_dirs() {
    let prefix = format!("eesmr-proc-{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else { return };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// One workload in this process.
fn run_one(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        reps: cli.reps,
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
        exe_dir: exe_dir()?,
    };
    let result = runner::run(&args)?;
    remove_socket_dirs();
    result.print_table();
    if let Some(path) = &cli.detail {
        std::fs::write(path, result.detail().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.contract_line());
    Ok(result.correct)
}

/// Every workload, untraced then traced, each in a child process.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    let mut all_correct = true;
    for w in &catalog::WORKLOADS {
        for trace in [false, true] {
            let detail = cli.out_dir.join(format!("detail.{}.{}.json", w.name, trace as u8));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &cli.seed.to_string(), "--seconds", &cli.seconds.to_string()])
                .arg("--detail")
                .arg(&detail)
                .arg("--out-dir")
                .arg(&cli.out_dir)
                .stdin(Stdio::null());
            if let Some(reps) = cli.reps {
                cmd.args(["--reps", &reps.to_string()]);
            }
            if cli.quick {
                cmd.arg("--quick");
            }
            // The child's tables go straight to our stdout.
            let status = cmd.status().map_err(|e| format!("spawning {}: {e}", w.name))?;
            all_correct &= status.success();
            match read_json(&detail) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    all_correct = false;
                    eprintln!("{} trace={}: no result ({e})", w.name, trace as u8);
                }
            }
            let _ = std::fs::remove_file(&detail);
        }
        if let Ok(t) = read_json(&cli.out_dir.join(format!("trace.{}.json", w.name))) {
            traces.push(t);
        }
    }
    let results = Json::obj([
        ("schema", Json::str("eesmr-benchmark/v1")),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("quick", Json::Bool(cli.quick)),
        ("nproc", Json::Num(workloads::nproc() as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    let write = |name: &str, body: String| {
        let path = cli.out_dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("results.json", results.pretty())?;
    write("trace.json", Json::obj([("workloads", Json::Arr(traces))]).pretty())?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    // The workspace's `EESMR_*` knobs (shards, trace, metrics, workers,
    // quick, profile) would silently change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EESMR_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        if cli.emit_manifest {
            print!("{}", catalog::manifest().pretty());
            Ok(true)
        } else if let Some((a, b)) = &cli.compare {
            let c = compare::compare(&read_json(a)?, &read_json(b)?)?;
            print!("{}", c.report);
            Ok(!c.regressed)
        } else if let Some(workload) = &cli.workload {
            run_one(&cli, workload)
        } else {
            run_all(&cli)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("eesmr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
