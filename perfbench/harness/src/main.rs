//! In-process workload runners for the benchmark in `perfbench/`.
//!
//! ```text
//! perfbench-harness <stream-churn|rs-converge|snapshot-layers>
//!     --seed N --seconds S --trace 0|1 [--conserve-only] [--work DIR]
//! ```
//!
//! Each runner builds its inputs from `--seed`, calls the program's crates
//! through their public functions, and prints one JSON object as its last
//! stdout line: raw samples per metric, the outcome of every correctness
//! check, and the operations attempted and failed. `perfbench/run.py`
//! turns the samples into the benchmark's metrics. With `--trace 1` the
//! runners also time and count the calls they make into each crate; the
//! timers live here, around the calls, and nothing inside the program
//! changes.

mod churn;
mod converge;
mod snapshot;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line options shared by every runner.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub conserve_only: bool,
    pub work: PathBuf,
}

/// What a runner measured and checked, printed as one JSON line.
#[derive(Default)]
pub struct Report {
    samples: BTreeMap<String, Vec<f64>>,
    checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record one sample of a metric.
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Record many samples of a metric.
    pub fn extend(&mut self, name: &str, values: &[f64]) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(values);
    }

    /// Record the outcome of a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"samples\": {");
        for (i, (name, values)) in self.samples.iter().enumerate() {
            let list: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: [{}]", json_string(name), list.join(", "));
        }
        out.push_str("}, \"checks\": [");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                json_string(name),
                json_string(detail)
            );
        }
        let _ = write!(
            out,
            "], \"attempted\": {}, \"failed\": {}}}",
            self.attempted, self.failed
        );
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seconds since `start`, as a float.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The process's peak resident memory so far, in MB (`VmHWM`); 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The process's resident memory now, in MB (`VmRSS`); 0 where `/proc` is
/// not available.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `f`, adding its wall time to `acc` when `on`.
pub fn timed<R>(on: bool, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *acc += secs(start);
    out
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or("missing runner name")?;
    let mut opts = Opts {
        seed: 0x1C0FFEE,
        seconds: 10.0,
        trace: false,
        conserve_only: false,
        work: PathBuf::from(".bench_build/perfbench"),
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? == "1",
            "--work" => opts.work = PathBuf::from(value()?),
            "--conserve-only" => opts.conserve_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((cmd, opts))
}

fn main() {
    let (cmd, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let report = match cmd.as_str() {
        "stream-churn" => churn::run(&opts),
        "rs-converge" => converge::run(&opts),
        "snapshot-layers" => snapshot::run(&opts),
        other => {
            eprintln!("perfbench-harness: unknown runner {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}
