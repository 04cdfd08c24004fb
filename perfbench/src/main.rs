//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <audit-small|audit-paper|scale-stream> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

use ppfr_perfbench::{run, Size, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Set before any parallel call: the pool reads it on every dispatch.
    std::env::set_var("PPFR_NUM_THREADS", args.workload.threads().to_string());
    let result = run(
        args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.traced,
    );
    println!(
        "perfbench: workload {} seed {} threads {} iterations {} digest {} correct {}",
        args.workload.name(),
        args.seed,
        args.workload.threads(),
        result.iterations,
        result.digest,
        result.correct
    );
    for problem in &result.problems {
        println!("perfbench: problem: {problem}");
    }
    println!("{}", result.to_json_line());
    ExitCode::SUCCESS
}
