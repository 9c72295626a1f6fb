//! `perfbench` — the repository's end-to-end and per-layer benchmark of
//! the compressed page store and its TCP service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resident_zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One closed-loop client drives one workload for `--seconds`, checks
//! every GET against the bytes it put, and prints each metric with its
//! unit; the last line of standard output is the JSON result. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `README.md` beside this file for the workloads and the metric map.

mod alloc;
mod gen;
mod model;
mod phase;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ResidentZipf,
    SpillChurn,
    WirePipelined,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ResidentZipf,
        Workload::SpillChurn,
        Workload::WirePipelined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ResidentZipf => "resident_zipf",
            Workload::SpillChurn => "spill_churn",
            Workload::WirePipelined => "wire_pipelined",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <resident_zipf|spill_churn|wire_pipelined> --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark's own directory: scratch files and span dumps live
/// under it, inside the checkout.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = workloads::run(&args);
    print!("{}", report.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload spill_churn --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::SpillChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload resident_zipf --seconds 0",
            "--workload resident_zipf --trace 2",
            "--workload resident_zipf --seed",
            "--workload resident_zipf --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
