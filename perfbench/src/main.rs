//! End-to-end and per-layer benchmark of the spec → artifact pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` in this directory) for about
//! `--seconds`, checks every artifact it produces, prints a report to
//! stderr and, as the last line of stdout, one JSON object with the
//! metrics: the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. Exit code 0 when every check passed, 1 when one
//! failed, 2 on bad arguments or when the pipeline returned an error.

mod calib;
mod checks;
mod pipeline;
mod span;
mod stats;
mod timed;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use span::Recorder;
use stats::{median, minimum, quartiles, tail, Tally};
use workload::Workload;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let names = Workload::ALL.map(Workload::name).join(" | ");
                workload = Some(
                    Workload::parse(&value)
                        .ok_or(format!("unknown workload '{value}' ({names})"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => match number()? {
                s @ 1..=600 => seconds = Some(s),
                s => return Err(format!("--seconds {s} is outside 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
            },
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; a non-finite value fails the run's checks.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out + "}}"
}

/// Median, quartiles and tail of one repetition-level sample, for the
/// stderr report.
fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let mut line = format!(
        "  {name:<22} min {:>12.6} median {:>12.6} {unit}",
        minimum(xs),
        median(xs)
    );
    if let Some([q1, _, q3]) = quartiles(xs) {
        let _ = write!(line, "  q1 {q1:.6}  q3 {q3:.6}");
    }
    match tail(xs) {
        Some(t) => {
            let _ = write!(
                line,
                "  p{:.0} {:.6} of {} samples",
                t.percentile, t.value, t.samples
            );
        }
        None => {
            let _ = write!(
                line,
                "  ({} samples, too few for a tail percentile)",
                xs.len()
            );
        }
    }
    line
}

fn run(args: &Args, tmp: &std::path::Path, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let seconds = args.seconds as f64;
    if args.trace {
        let mut rec = Recorder::default();
        let result = traced::run(w, args.seed, seconds, tmp, &mut rec, tally);
        // Spans are kept in memory until the run ends, then written out.
        let path =
            PathBuf::from(".perfbench").join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        std::fs::write(&path, rec.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            rec.spans().len(),
            path.display()
        );
        let metrics = result?;
        for m in &metrics {
            eprintln!("  {:<46} {:>16.9} {}", m.name, m.value, m.unit);
        }
        return Ok(metrics);
    }
    let (metrics, specs) = timed::run(w, args.seed, seconds, tmp, tally)?;
    for (j, spec) in specs.iter().enumerate() {
        let samples = &spec.samples;
        eprintln!(
            "perfbench {} seed {}, spec {j}: {} repetitions",
            w.name(),
            args.seed,
            samples.raw_wall.len()
        );
        eprintln!("{}", describe("cold wall (unscaled)", "s", &samples.raw_wall));
        if w.shards() > 1 {
            for i in 0..w.shards() {
                let shard: Vec<f64> = samples.shards.iter().map(|s| s[i]).collect();
                eprintln!("{}", describe(&format!("shard {i} (unscaled)"), "s", &shard));
            }
            eprintln!("{}", describe("merge", "s", &samples.merge));
        }
        eprintln!("{}", describe("setup", "s", &samples.setup));
        eprintln!("{}", describe("warm", "s", &samples.warm));
    }
    for m in &metrics {
        eprintln!("  {:<22} {:>19.6} {}", m.name, m.value, m.unit);
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the working directory: cache directories
    // while running, span files after a traced run.
    let tmp = PathBuf::from(".perfbench").join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let mut tally = Tally::default();
    let result = run(&args, &tmp, &mut tally);
    let _ = std::fs::remove_dir_all(&tmp);
    let mut metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let not_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    tally.check(
        "every metric is a finite number",
        match not_finite.is_empty() {
            true => Ok(()),
            false => Err(format!("not finite: {not_finite:?}")),
        },
    );
    // A per-layer metric only: it is 0 on a passing run, and an
    // end-to-end metric's bound is a share of the parent's value.
    if args.trace {
        metrics.push(Metric::new("failed_frac", tally.failed_frac(), "ratio"));
    }
    eprintln!(
        "  failed_frac {} ({} of {} checked operations)",
        tally.failed_frac(),
        tally.failed(),
        tally.attempted()
    );
    for failure in tally.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", result_json(&tally, &metrics));
    if tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
