//! `busbench`: the layered benchmark of the buscode stack.
//!
//! Fixed-seed address streams are pushed through the stack from outside,
//! through each layer's public API: `core` codecs and kernels, the `core`
//! tier wrappers, `pipeline::Pipeline`, `link`, `serve::wire`,
//! `serve::transport` (memory) and `serve::Server`/`ClientSession`.
//!
//! ```text
//! busbench --workload <serve_closed|faulty_channel|paper_sweep|all>
//!          --seed <n> --seconds <s> --trace <0|1> [--corrupt]
//! ```
//!
//! `--trace 0` runs the workload and reports its end-to-end metrics;
//! `--trace 1` replays the workload's generated inputs through each layer
//! on its own and reports the per-layer waterfall. `--corrupt` flips bits
//! in a seeded sample of output words, to show the checks catch it. The
//! last line of standard output is the JSON result; the exit code is 0
//! when every check passed, 1 when one failed and 2 on bad arguments or a
//! run that could not complete. `all` runs each workload in a child
//! process of its own and prints every metric by name.

mod faulty;
mod layers;
mod report;
mod serve;
mod sweep;

use std::process::ExitCode;
use std::time::Duration;

use buscode_core::{CodeKind, Tier};

use report::Outcome;

/// The codes of the serve and fault workloads: the paper's reference,
/// its two classic codes and its headline code for muxed buses.
pub const CELL_CODES: [CodeKind; 4] = [
    CodeKind::Binary,
    CodeKind::T0,
    CodeKind::BusInvert,
    CodeKind::DualT0Bi,
];

/// The protection tiers each of those codes runs at.
pub const CELL_TIERS: [Tier; 3] = [Tier::Bare, Tier::Parity, Tier::Ecc];

/// Refresh interval of the parity and ECC tiers (the server's default).
pub const REFRESH: u64 = 64;

/// The 12 code × tier cells of `serve_closed` and `faulty_channel`.
pub fn cells() -> Vec<(CodeKind, Tier)> {
    CELL_CODES
        .iter()
        .flat_map(|&code| CELL_TIERS.iter().map(move |&tier| (code, tier)))
        .collect()
}

/// Derives an independent seed for one input from the run's seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const WORKLOADS: [&str; 3] = ["serve_closed", "faulty_channel", "paper_sweep"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub corrupt: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut corrupt = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        corrupt,
    })
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("serve_closed", false) => serve::run(args),
        ("faulty_channel", false) => faulty::run(args),
        ("paper_sweep", false) => sweep::run(args),
        ("serve_closed", true) => layers::run(args, serve::generate),
        ("faulty_channel", true) => layers::run(args, faulty::generate),
        ("paper_sweep", true) => layers::run(args, sweep::generate),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// Runs every workload in a child process of its own, so set-up time
/// and peak memory belong to one workload each, and prints every metric
/// by name with its unit.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        let mut child_args = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if arg == "--workload" {
                it.next();
            } else {
                child_args.push(arg.clone());
            }
        }
        let output = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(workload)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().unwrap_or_default().to_string();
        for line in stdout.lines() {
            if line != result {
                println!("{line}");
            }
        }
        if !output.status.success() || !result.starts_with('{') {
            all_correct = false;
            lines.push(format!("\"{workload}\":null"));
        } else {
            println!("# {workload}: {result}");
            lines.push(format!("\"{workload}\":{result}"));
        }
    }
    println!(
        "{{\"correct\":{all_correct},\"workloads\":{{{}}}}}",
        lines.join(",")
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("busbench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&raw) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(err) => {
                eprintln!("busbench: {err}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match run_workload(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("busbench: {} failed: {err}", args.workload);
            return ExitCode::from(2);
        }
    };
    let line = match outcome.render_json() {
        Ok(line) => line,
        Err(err) => {
            eprintln!("busbench: {err}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    outcome.check.report_problems();
    println!("{line}");
    if outcome.check.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
