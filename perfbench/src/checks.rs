//! Correctness checks on the artifacts the pipeline emits.

use ppexp::{json, Artifact, CacheStats, Json};

/// Parse and validate artifact bytes, then check that every config ran
/// without failures and every trial stabilised on exactly one leader.
/// Returns the artifact's total interactions.
pub fn check_artifact(bytes: &str) -> Result<f64, String> {
    check_doc(&json::parse(bytes).map_err(|e| format!("artifact does not parse: {e}"))?)
}

/// [`check_artifact`] on an already parsed document.
pub fn check_doc(doc: &Json) -> Result<f64, String> {
    Artifact::validate_json(doc).map_err(|e| format!("artifact fails the schema: {e}"))?;
    let mut interactions = 0.0;
    for config in doc.get("configs").and_then(Json::as_arr).unwrap_or(&[]) {
        let label = format!(
            "{} n={}",
            config.get("protocol").and_then(Json::as_str).unwrap_or("?"),
            config.get("n").and_then(Json::as_u64).unwrap_or(0)
        );
        let failures = config.get("failures").and_then(Json::as_u64);
        if failures != Some(0) {
            return Err(format!("{label}: {failures:?} failed trials"));
        }
        for trial in config.get("trials").and_then(Json::as_arr).unwrap_or(&[]) {
            let metric = |name| {
                trial
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(Json::as_f64)
            };
            let index = trial
                .get("trial")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX);
            if trial.get("converged").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{label} trial {index} did not stabilise"));
            }
            if metric("leaders") != Some(1.0) {
                return Err(format!(
                    "{label} trial {index} ended with {:?} leaders",
                    metric("leaders")
                ));
            }
            interactions += metric("interactions").ok_or("trial without an interaction count")?;
        }
    }
    if interactions > 0.0 {
        Ok(interactions)
    } else {
        Err("artifact records no interactions".into())
    }
}

/// Two byte strings that must be identical, e.g. a cold and a warm
/// artifact, or a merged and a single-process one.
pub fn check_same(expected: &str, found: &str) -> Result<(), String> {
    if expected == found {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(found.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(found.len()));
    Err(format!(
        "bytes differ at offset {at} ({} vs {} bytes)",
        expected.len(),
        found.len()
    ))
}

/// A warm re-run must reproduce the cold bytes without simulating.
pub fn check_warm(cold: &str, warm: &str, stats: CacheStats) -> Result<(), String> {
    if stats.misses != 0 {
        return Err(format!(
            "{} trials missed the cache and re-ran",
            stats.misses
        ));
    }
    check_same(cold, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;
    use ppexp::{run_experiment_cached, Cache, ExperimentSpec};

    fn artifact(text: &str) -> String {
        let spec = ExperimentSpec::parse(text).unwrap();
        ppexp::run_experiment(&spec).unwrap().to_json_string()
    }

    const TINY: &str = "protocols = gsu19\nn = 64\ntrials = 2\nseed = 3\nthreads = 1\n\
                        stop = stabilize:20000\nobservables = core\n";

    #[test]
    fn stabilised_artifact_passes_and_counts_interactions() {
        let interactions = check_artifact(&artifact(TINY)).unwrap();
        assert!(interactions >= 2.0 * 64.0);
    }

    #[test]
    fn unstabilised_trial_registers_as_failure() {
        let bytes = artifact(&TINY.replace("stabilize:20000", "stabilize:1"));
        let mut tally = Tally::default();
        tally.check("cold artifact", check_artifact(&bytes).map(|_| ()));
        assert_eq!((tally.attempted(), tally.failed()), (1, 1));
        assert!(
            tally.failures()[0].contains("failed trials"),
            "{:?}",
            tally.failures()
        );
    }

    #[test]
    fn corrupted_warm_artifact_registers_as_failure() {
        let dir = std::env::temp_dir().join(format!("perfbench-checks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::at(&dir);
        let spec = ExperimentSpec::parse(TINY).unwrap();
        let (cold, _) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        let (warm, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        let (cold, warm) = (cold.to_json_string(), warm.to_json_string());
        std::fs::remove_dir_all(&dir).unwrap();

        let mut tally = Tally::default();
        tally.check("warm == cold", check_warm(&cold, &warm, stats));
        let corrupted = warm.replacen("\"leaders\": 1.0", "\"leaders\": 2.0", 1);
        assert_ne!(corrupted, warm);
        tally.check("warm == cold", check_warm(&cold, &corrupted, stats));
        let resimulated = CacheStats { hits: 0, misses: 2 };
        tally.check("warm == cold", check_warm(&cold, &warm, resimulated));
        assert_eq!((tally.attempted(), tally.failed()), (3, 2));
        assert!(check_artifact(&corrupted).is_err());
    }
}
