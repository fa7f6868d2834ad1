//! twocs benchmark: one seeded workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload proj_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing timed inside
//! the layers; `--trace 1` is a separate run that times each layer's
//! public calls from here. Metadata lines start with `#`; the last line
//! of stdout is the JSON result.

mod dist_sweep;
mod proj_stream;
mod serve_mix;
mod sim_grid;
mod sweeps;
mod util;

use std::process::{Command, ExitCode, Stdio};

use util::{median, note, nproc, Outcome};

pub const WORKLOADS: [&str; 4] = ["proj_stream", "sim_grid", "serve_mix", "dist_sweep"];

/// An untraced run splits `--seconds` over this many fresh child
/// processes, one after another, and reports each metric's median
/// across them. On a shared VM part of the run-to-run spread is per
/// process (allocator layout, hash seeds), which more sweeps inside one
/// process do not average out.
const PROCESSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the child processes of an untraced run.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut child = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--child" => child = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

/// Run the untraced workload in `PROCESSES` children and merge them:
/// attempts and failures add up, each metric is the children's median.
fn fan_out(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let seconds = (args.seconds / PROCESSES as f64).to_string();
    let mut children = Vec::new();
    for i in 0..PROCESSES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &seconds, "--trace", "0", "--child", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("child {i} failed: {}", out.status));
        }
        for line in stdout.lines() {
            if let Some(meta) = line.strip_prefix("# ") {
                println!("# child{i}.{meta}");
            }
        }
        let result = stdout.lines().last().unwrap_or_default();
        children
            .push(Outcome::parse(result).ok_or_else(|| format!("child {i} printed no result"))?);
    }
    let mut out = Outcome::default();
    for (i, child) in children.iter().enumerate() {
        out.attempted += child.attempted;
        out.failed += child.failed;
        out.check(child.problems.is_empty(), || {
            format!("child {i} was incorrect")
        });
    }
    for m in &children[0].metrics {
        let values: Option<Vec<f64>> = children
            .iter()
            .map(|c| c.metrics.iter().find(|n| n.name == m.name).map(|n| n.value))
            .collect();
        let values = values.ok_or_else(|| format!("a child did not report {}", m.name))?;
        out.metric(m.name.clone(), median(&values), &m.unit);
    }
    out.complete(false)?;
    Ok(out)
}

fn run(args: &Args) -> Result<Outcome, String> {
    if !args.trace && !args.child {
        return fan_out(args);
    }
    note("workload", &args.workload);
    note("seed", args.seed);
    note("trace", u8::from(args.trace));
    note("nproc", nproc());
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut outcome = match args.workload.as_str() {
        "proj_stream" => proj_stream::run(seed, seconds, trace),
        "sim_grid" => sim_grid::run(seed, seconds, trace),
        "serve_mix" => serve_mix::run(seed, seconds, trace),
        "dist_sweep" => dist_sweep::run(seed, seconds, trace),
        _ => unreachable!("workload names are validated"),
    }?;
    outcome.complete(trace)?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("check failed: {problem}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
