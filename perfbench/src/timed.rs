//! The untraced mode: end-to-end metrics.
//!
//! A run repeats its specs, so every repetition of a spec does the same
//! work and the fastest one is the best estimate of the program's time:
//! other tenants on the machine only ever add time to a repetition. The
//! times are then rescaled to the reference machine speed (see
//! [`crate::calib`]).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use core_protocol::{Gsu19, Params};
use ppexp::{config_grid, trial_plan, Cache, ExperimentSpec, ProtocolKind};
use ppsim::split_seed;

use crate::calib::Calibration;
use crate::checks::check_same;
use crate::pipeline::{self, scale_to_expected};
use crate::stats::{minimum, Tally};
use crate::workload::{reference_interactions, Workload};
use crate::Metric;

/// Calibration kernel calls per repetition.
const CALIB_PER_REP: usize = 5;
/// Set-up samples per repetition.
const SETUP_PER_REP: usize = 3;
/// Warm samples per repetition.
const WARM_PER_REP: usize = 5;
/// Shortest timed batch: set-ups and warm re-runs faster than this are
/// timed several at a time, so that each sample outlasts timer noise.
const MIN_BATCH_S: f64 = 0.02;

/// Per-repetition timings of one spec, before the minimum.
#[derive(Default)]
pub struct Samples {
    /// Seconds of each shard run, one vector per repetition.
    pub shards: Vec<Vec<f64>>,
    pub merge: Vec<f64>,
    /// Unscaled cold wall time of each repetition.
    pub raw_wall: Vec<f64>,
    pub warm: Vec<f64>,
    pub setup: Vec<f64>,
}

/// The spec text of repetition `rep` of a run with seed `seed`.
pub fn rep_text(w: Workload, seed: u64, rep: u64) -> String {
    w.spec_text(split_seed(seed, rep))
}

/// Everything paid before the first interaction: parse and validate the
/// spec, expand the trial plan, and build each config's compiled tables
/// when the spec asks for them.
pub fn setup_once(text: &str) -> Result<(), String> {
    let spec = ExperimentSpec::parse(text)?;
    spec.validate()?;
    black_box(trial_plan(&spec));
    if spec.compiled {
        for (protocol, n) in config_grid(&spec) {
            assert_eq!(
                protocol,
                ProtocolKind::Gsu19,
                "workloads compile gsu19 only"
            );
            black_box(Gsu19::new(Params::for_population(n)).compiled());
        }
    }
    Ok(())
}

/// How many calls of an operation that took `once` seconds one sample
/// of at least [`MIN_BATCH_S`] needs.
fn batch_for(once: f64) -> usize {
    ((MIN_BATCH_S / once).ceil() as usize).clamp(1, 100_000)
}

/// One set-up sample: the mean seconds of `batch` set-ups.
pub fn setup_sample(text: &str, batch: usize) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..batch {
        setup_once(text)?;
    }
    Ok(start.elapsed().as_secs_f64() / batch as f64)
}

/// One repetition: set-up samples, the cold run, then the warm re-runs
/// against a fresh cache directory under `tmp`, removed afterwards.
fn rep(
    w: Workload,
    text: &str,
    tmp: &Path,
    setup_batch: usize,
    warm_batch: &mut Option<usize>,
    samples: &mut Samples,
    calib: &mut Calibration,
    tally: &mut Tally,
) -> Result<pipeline::Cold, String> {
    calib.sample(CALIB_PER_REP);
    for _ in 0..SETUP_PER_REP {
        samples.setup.push(setup_sample(text, setup_batch)?);
    }
    let dir = tmp.join("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Cache::at(&dir);
    let cold = pipeline::cold(w, text, w.cold_run_is_cached().then_some(&cache), tally)?;
    if !w.cold_run_is_cached() {
        pipeline::fill(&cache, &cold)?;
    }
    let warm_batch = match *warm_batch {
        Some(batch) => batch,
        None => {
            let once = pipeline::warm(text, &cache, &cold, 1, tally)?;
            *warm_batch.insert(batch_for(once))
        }
    };
    for _ in 0..WARM_PER_REP {
        samples
            .warm
            .push(pipeline::warm(text, &cache, &cold, warm_batch, tally)?);
    }
    let _ = std::fs::remove_dir_all(&dir);

    samples.shards.push(cold.shard_times.clone());
    samples.merge.push(cold.merge);
    samples.raw_wall.push(cold.wall());
    Ok(cold)
}

/// One of a run's specs: its text, its first cold run and its samples.
pub struct SpecRun {
    pub text: String,
    pub first: Option<pipeline::Cold>,
    pub samples: Samples,
}

impl SpecRun {
    /// Scaled wall time, makespan and expected interactions, from the
    /// fastest run of each shard and the fastest merge. Every
    /// repetition ran the same spec, so these are the program's times.
    fn times(&self, setup: f64) -> (f64, f64, f64) {
        let first = self.first.as_ref().expect("every spec ran");
        let scaled: Vec<f64> = first
            .shard_work
            .iter()
            .enumerate()
            .map(|(i, &work)| {
                let shard: Vec<f64> = self.samples.shards.iter().map(|s| s[i]).collect();
                scale_to_expected(minimum(&shard), setup, work)
            })
            .collect();
        let merge = minimum(&self.samples.merge);
        (
            scaled.iter().sum::<f64>() + merge,
            scaled.iter().copied().fold(0.0, f64::max) + merge,
            reference_interactions(&first.spec),
        )
    }
}

/// Run repetitions for `seconds`, cycling through the workload's specs
/// (at least three repetitions and two of each spec), then the checks
/// that run once per invocation. Returns the metrics and each spec's
/// samples.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    tmp: &Path,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Vec<SpecRun>), String> {
    let mut specs: Vec<SpecRun> = (0..w.specs_per_run())
        .map(|j| SpecRun {
            text: rep_text(w, seed, j),
            first: None,
            samples: Samples::default(),
        })
        .collect();
    let start = Instant::now();
    setup_once(&specs[0].text)?;
    let setup_batch = batch_for(start.elapsed().as_secs_f64());
    let mut warm_batch = None;
    let mut calib = Calibration::default();
    let min_reps = (2 * specs.len()).max(3);
    let start = Instant::now();
    let mut r = 0;
    while (r < min_reps || start.elapsed().as_secs_f64() < seconds) && tally.failed() == 0 {
        let k = specs.len();
        let spec = &mut specs[r % k];
        let cold = rep(
            w,
            &spec.text,
            tmp,
            setup_batch,
            &mut warm_batch,
            &mut spec.samples,
            &mut calib,
            tally,
        )?;
        match &spec.first {
            None => spec.first = Some(cold),
            Some(first) => tally.check(
                "repetition bytes == first repetition bytes",
                check_same(&first.bytes, &cold.bytes),
            ),
        }
        r += 1;
    }
    let peak_rss = peak_rss_mib()?;

    // Sharded bytes must equal a single-process run of the same spec:
    // checked once, outside the timed region.
    if w.shards() > 1 {
        let first = specs[0].first.as_ref().expect("every spec ran");
        let single = ppexp::run_experiment(&first.spec)?.to_json_string();
        tally.check(
            "merged bytes == single-process bytes",
            check_same(&single, &first.bytes),
        );
    }

    // Set-up does the same work for every spec of the run.
    let setups: Vec<f64> = specs.iter().flat_map(|s| s.samples.setup.clone()).collect();
    let setup = minimum(&setups);
    let times: Vec<(f64, f64, f64)> = specs.iter().map(|s| s.times(setup)).collect();
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len() as f64;
    let wall = mean(times.iter().map(|t| t.0).collect());
    let makespan = mean(times.iter().map(|t| t.1).collect());
    let interactions = mean(times.iter().map(|t| t.2).collect());
    let warm = mean(specs.iter().map(|s| minimum(&s.samples.warm)).collect());
    eprintln!(
        "perfbench: calibration kernel {:.6} s at best, reference {:.6} s; \
         unscaled wall_s {wall:.6} s, setup_s {setup:.9} s, warm_s {warm:.9} s",
        calib.best(),
        crate::calib::REFERENCE_S
    );
    let wall = calib.to_reference(wall);
    let metrics = vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("minteractions_per_s", interactions / wall / 1e6, "Mint/s"),
        Metric::new("setup_s", calib.to_reference(setup), "s"),
        Metric::new("warm_s", calib.to_reference(warm), "s"),
        Metric::new("makespan_s", calib.to_reference(makespan), "s"),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
    ];
    Ok((metrics, specs))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
