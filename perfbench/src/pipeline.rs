//! One untraced repetition of a workload: the cold run from spec text to
//! verified artifact bytes, and the warm re-run against the cache it
//! filled. Both modes run this; the traced mode compares against it.

use std::time::Instant;

use ppexp::{
    merge_shards, run_experiment_cached, run_shard, Artifact, Cache, ExperimentSpec, ShardOutput,
};

use crate::checks::{check_artifact, check_warm};
use crate::stats::Tally;
use crate::workload::{work, Workload};

/// What one cold run produced and how long it took.
pub struct Cold {
    pub spec: ExperimentSpec,
    pub artifact: Artifact,
    pub bytes: String,
    /// Seconds of each shard run (one entry, the whole run, without
    /// shards).
    pub shard_times: Vec<f64>,
    /// Weighted work of each shard as `(measured, expected)`; see
    /// [`crate::workload::work`].
    pub shard_work: Vec<(f64, f64)>,
    /// Seconds of the merge (0 without shards).
    pub merge: f64,
}

impl Cold {
    /// Seconds from spec text to artifact bytes; with shards, the sum of
    /// the shard runs plus the merge.
    pub fn wall(&self) -> f64 {
        self.shard_times.iter().sum::<f64>() + self.merge
    }
}

/// A shard's `seconds` with its simulation share scaled to the shard's
/// expected work. How many interactions stabilisation takes depends on
/// the seed (a gsu19 trial at 2^16 needs anywhere from 31 M to 129 M),
/// and unscaled times would measure the seed more than the program.
/// `setup` seconds (spec, plan, compiled tables) do not grow with the
/// interactions and stay as measured.
pub fn scale_to_expected(seconds: f64, setup: f64, (measured, expected): (f64, f64)) -> f64 {
    setup + (seconds - setup) * expected / measured
}

/// Run the workload's cold pipeline on `text`, as `ppctl run` or as
/// `ppctl work` per shard plus `ppctl merge`: from spec text to
/// artifact bytes. With shards, each shard is a separate `run_shard`
/// call timed on its own, one after another, and its output goes
/// through the shard-file text format as between processes. The bytes
/// are verified after the timed region; check failures are counted in
/// `tally`. An error means no artifact came out.
pub fn cold(
    w: Workload,
    text: &str,
    cache: Option<&Cache>,
    tally: &mut Tally,
) -> Result<Cold, String> {
    let k = w.shards();
    let mut shard_times = Vec::with_capacity(k);
    let (spec, artifact, bytes, merge, stats, shard_work) = if k == 1 {
        let start = Instant::now();
        let spec = ExperimentSpec::parse(text)?;
        let (artifact, stats) = run_experiment_cached(&spec, cache)?;
        let bytes = artifact.to_json_string();
        shard_times.push(start.elapsed().as_secs_f64());
        let records = artifact
            .configs
            .iter()
            .enumerate()
            .flat_map(|(c, config)| config.trials.iter().map(move |t| (c, t)));
        let shard_work = vec![work(&spec, records)];
        (spec, artifact, bytes, 0.0, Some(stats), shard_work)
    } else {
        let mut files = Vec::with_capacity(k);
        for shard in 0..k {
            let start = Instant::now();
            let spec = ExperimentSpec::parse(text)?;
            let (output, _) = run_shard(&spec, shard, k, cache, None)?;
            files.push(output.to_json_string());
            shard_times.push(start.elapsed().as_secs_f64());
        }
        let start = Instant::now();
        let spec = ExperimentSpec::parse(text)?;
        let shards = files
            .iter()
            .enumerate()
            .map(|(i, file)| Ok((format!("shard-{i}"), ShardOutput::parse(file)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let artifact = merge_shards(&spec, &shards).map_err(|e| e.to_string())?;
        let bytes = artifact.to_json_string();
        let merge = start.elapsed().as_secs_f64();
        let shard_work = shards
            .iter()
            .map(|(_, output)| work(&spec, output.records.iter().map(|(c, t)| (*c, t))))
            .collect();
        (spec, artifact, bytes, merge, None, shard_work)
    };

    tally.check(
        "artifact stabilised with one leader per trial",
        check_artifact(&bytes).map(|_| ()),
    );
    if let (Some(stats), Some(_)) = (stats, cache) {
        let planned = spec.trials * ppexp::config_grid(&spec).len();
        tally.check(
            "cold run misses the cache",
            (stats.misses == planned)
                .then_some(())
                .ok_or(format!("{} of {planned} trials simulated", stats.misses)),
        );
    }
    Ok(Cold {
        spec,
        artifact,
        bytes,
        shard_times,
        shard_work,
        merge,
    })
}

/// Store every record of a cold artifact in `cache`, as a cached cold
/// run would have.
pub fn fill(cache: &Cache, cold: &Cold) -> Result<(), String> {
    for config in &cold.artifact.configs {
        let slot = cache.config(&Cache::config_identity(
            &cold.spec,
            config.protocol,
            config.n,
        ));
        for record in &config.trials {
            slot.store(record)?;
        }
    }
    Ok(())
}

/// Time `runs` warm re-runs of `text` against `cache` back to back and
/// return the mean seconds of one. Each re-run must reproduce the cold
/// bytes without simulating; the comparison (a `memcmp`) happens inside
/// the batch, so that the batch holds one artifact at a time and the
/// peak memory does not depend on the batch size.
pub fn warm(
    text: &str,
    cache: &Cache,
    cold: &Cold,
    runs: usize,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut results = Vec::with_capacity(runs);
    let start = Instant::now();
    for _ in 0..runs {
        let spec = ExperimentSpec::parse(text)?;
        let (artifact, stats) = run_experiment_cached(&spec, Some(cache))?;
        let bytes = artifact.to_json_string();
        // Only bytes that differ are kept, for the failure message.
        results.push(((bytes != cold.bytes).then_some(bytes), stats));
    }
    let seconds = start.elapsed().as_secs_f64() / runs as f64;
    for (differing, stats) in results {
        let found = differing.as_deref().unwrap_or(&cold.bytes);
        tally.check(
            "warm bytes == cold bytes",
            check_warm(&cold.bytes, found, stats),
        );
    }
    Ok(seconds)
}
