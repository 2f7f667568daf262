//! The repo's benchmark (see `../BENCHMARK.json` and `README.md`):
//!
//! ```text
//! tcf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--scale full|smoke] [--spans-out <file>]
//! ```
//!
//! One process measures one workload. With `--trace 0` it repeats the pass
//! of `pass.rs` for `--seconds` seconds with tracing off and prints the
//! end-to-end metrics; with `--trace 1` it makes the separate traced run
//! that yields the per-layer metrics. Every metric is printed by name with
//! its unit, and the last line of standard output is the result as one
//! JSON object.

use std::process::ExitCode;
use std::time::Instant;

mod alloc;
mod layers;
mod metrics;
mod pass;
mod rng;
mod spans;
mod traced;
mod workloads;

use metrics::{median, END_TO_END};
use pass::{run_pass, PassOpts, Probe};
use spans::Tracer;
use workloads::{Job, Scale};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 15;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--spans-out" => args.spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// One measured run: what the last line of standard output reports.
pub struct Report {
    pub tally: Tally,
    /// `(name, value)`, in the order of the metric list printed.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Builds the workload `SETUPS` times; returns the jobs and the median
/// set-up time.
pub fn setup(args: &Args, times: usize) -> (Vec<Job>, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut jobs = Vec::new();
    for _ in 0..times {
        let start = Instant::now();
        jobs = workloads::build(&args.workload, args.seed, args.scale)
            .expect("workload name was checked");
        secs.push(start.elapsed().as_secs_f64());
    }
    (jobs, median(&secs))
}

/// Operations attempted and failed so far.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Counts one pass: a job fails on its own error, or on a
    /// simulated-statistics digest that differs from the reference pass's.
    pub fn add(&mut self, pass: &pass::PassResult, reference: &pass::PassResult) {
        self.attempted += pass.jobs.len();
        for (got, want) in pass.jobs.iter().zip(&reference.jobs) {
            match (got, want) {
                (Err(e), _) => eprintln!("operation failed: {e}"),
                (Ok(a), Ok(b)) if a != b => {
                    eprintln!("simulated statistics drifted between passes of one process")
                }
                // Equal digests; or the reference failed, counted on its own pass.
                _ => continue,
            }
            self.failed += 1;
        }
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The timed run: tracing off, one warm-up pass, then passes for
/// `--seconds`; timings are medians over the passes.
fn timed(args: &Args) -> Report {
    let (jobs, setup_s) = setup(args, SETUPS);
    let mut tr = Tracer::new(false);
    let reference = run_pass(&jobs, &mut tr, Probe::None, PassOpts::default());
    let mut tally = Tally::default();
    tally.add(&reference, &reference);

    let (mut wall, mut rate) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let p = run_pass(&jobs, &mut tr, Probe::None, PassOpts::default());
        tally.add(&p, &reference);
        wall.push(p.wall_s);
        rate.push(p.steps() as f64 / p.run_s);
    }
    let span = |xs: &[f64]| {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(0.0, f64::max);
        format!("min {lo:.6}, max {hi:.6}, n={}", xs.len())
    };
    println!(
        "# {} seed {} digest {:016x}",
        args.workload,
        args.seed,
        reference.counts.digest()
    );
    println!("# e2e_s: {}", span(&wall));
    println!("# sim_steps_per_s: {}", span(&rate));
    Report {
        tally,
        metrics: vec![
            ("setup_s", setup_s),
            ("e2e_s", median(&wall)),
            ("sim_steps_per_s", median(&rate)),
            ("sim_cycles", reference.cycles() as f64),
            ("peak_rss_mb", peak_rss_mib()),
        ],
    }
}

fn print_report(report: &Report, units: &[(&str, &str)]) {
    assert_eq!(
        report.metrics.len(),
        units.len(),
        "every listed metric is reported"
    );
    let mut json = String::new();
    for (&(name, value), &(listed, unit)) in report.metrics.iter().zip(units) {
        assert_eq!(name, listed, "metrics are reported in listed order");
        println!("{name:<34} {value:>20.6} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        // `{:?}` prints an f64 with every digit it holds.
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcf-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        print_report(&traced::run(&args), &metrics::PER_LAYER);
    } else {
        print_report(&timed(&args), &END_TO_END);
    }
    ExitCode::SUCCESS
}
