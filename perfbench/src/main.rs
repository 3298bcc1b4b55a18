//! End-to-end benchmark of the least-bn workspace, with a traced
//! per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_then_query --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the workload runs untraced and the last line of
//! standard output is a JSON object with its end-to-end metrics; with
//! `--trace 1` the layer suite runs instead and the object holds the
//! per-layer metrics. Correctness gates are checked in both modes; a
//! failed gate sets `"correct": false` and the exit code to 1. See
//! `perfbench/README.md` for the workloads and every metric.

mod inputs;
mod layers;
mod stack;
mod stats;
mod workloads;

use stats::Tally;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    gates: Vec<(String, bool, String)>,
    pub tally: Tally,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a correctness gate; `detail` says what was measured.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push((name.to_string(), ok, detail.into()));
    }

    fn correct(&self) -> bool {
        self.gates.iter().all(|(_, ok, _)| *ok)
            && self.tally.failed == 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Print the human-readable lines, then the JSON result line.
    fn print(&self) -> bool {
        for (name, ok, detail) in &self.gates {
            println!(
                "gate {:<28} {}  {detail}",
                name,
                if *ok { "ok  " } else { "FAIL" }
            );
        }
        println!(
            "error rate {:.6}: {} failed of {} attempted",
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        let correct = self.correct();
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            )
            .expect("write to string");
        }
        println!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.tally.attempted, self.tally.failed
        );
        correct
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Threads, cores and build flavour: results depend on the thread count,
/// so runs are comparable only when these agree.
pub struct Env {
    pub threads: usize,
    pub nproc: usize,
    pub parallel_feature: bool,
}

impl Env {
    fn detect() -> Self {
        use least_linalg::par;
        let threads = par::max_threads();
        // Without the `parallel` feature the pool ignores overrides.
        par::set_thread_override(Some(2));
        let parallel_feature = par::max_threads() == 2;
        par::set_thread_override(None);
        Self {
            threads,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            parallel_feature,
        }
    }

    /// Load threads (and connections) a workload may use: one process,
    /// at most one per core.
    pub fn check_load(&self, load_threads: usize) {
        assert!(
            load_threads <= self.nproc,
            "{load_threads} load threads exceed nproc = {}",
            self.nproc
        );
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restart the `VmHWM` peak from the current resident set, so input
/// synthesis does not count towards the program's peak.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    let env = Env::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={} nproc={} parallel_feature={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env.threads,
        env.nproc,
        env.parallel_feature
    );
    let dir = inputs::WorkDir::create().expect("create work directory");
    let report = if args.trace {
        layers::run(&args, &env, &dir)
    } else {
        workloads::run(&args, &env, &dir)
    };
    drop(dir);
    if report.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
