//! End-to-end and per-layer benchmark of the CULZSS system.
//!
//! One command runs one workload (`bulk-codec` or `dedup-edits`) for a
//! set time from a seed, checks every output byte
//! for byte, and prints each metric with its unit and clock, then one
//! JSON line. An untraced run prints the end-to-end metrics; a traced
//! run prints the per-layer metrics and writes a Chrome trace of the
//! benchmark's own spans. See `README.md` for the metric definitions.

pub mod alloc;
pub mod cpuclock;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use metrics::{render, END_TO_END, PER_LAYER};
use workloads::{Ctx, RunResult, Workload};

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// Usage line printed on bad arguments.
pub const USAGE: &str =
    "usage: e2ebench --workload bulk-codec|dedup-edits --seed N --seconds S --trace 0|1";

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where a traced run writes its Chrome trace.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ))
}

/// Finishes a traced run: per-layer self times, and the Chrome trace
/// written and checked with `validate_chrome_trace`.
fn finish_trace(args: &Args, result: &mut RunResult) {
    let self_times = result.tracer.self_seconds();
    for layer in ["driver", "server", "culzss", "lzss", "dedup"] {
        let name = format!("{layer}.self_s");
        result.report.set(&name, self_times.get(layer).copied().unwrap_or(0.0));
    }
    let json = result.tracer.chrome_json();
    if let Err(e) = culzss_server::validate_chrome_trace(&json) {
        result.problem(format!("chrome trace invalid: {e}"));
    }
    let path = trace_path(args);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => eprintln!("trace: {} spans -> {}", result.tracer.spans().len(), path.display()),
        Err(e) => result.problem(format!("writing {}: {e}", path.display())),
    }
}

/// Completes a run's report: a traced run gains its self times and
/// writes its checked Chrome trace.
pub fn finish(args: &Args, mut result: RunResult) -> RunResult {
    if args.trace {
        finish_trace(args, &mut result);
    }
    result
}

/// Runs one workload and renders its report; the flag is the verdict.
fn execute(args: &Args, result: RunResult) -> (String, bool) {
    let mut result = finish(args, result);
    let (defs, e2e) = if args.trace { (PER_LAYER, false) } else { (END_TO_END, true) };
    let text = render(defs, &result.report, &mut result.out, e2e);
    (text, result.out.correct)
}

/// Runs `args` at full size.
pub fn run(args: &Args) -> (String, bool) {
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace };
    execute(args, args.workload.run(ctx))
}
