//! The four workloads: the spec each one generates from a seed, and the
//! reference work its timings are scaled to.

use ppexp::{ExperimentSpec, ProtocolKind, TrialRecord};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// gsu19 on the compiled agent engine at n = 2^16.
    Agent2e16,
    /// gsu19 on the exact batched urn engine at n = 2^16.
    Batched2e16,
    /// Many small gsu19 trials with the heavy observables, cold into an
    /// empty cache and then warm.
    RoundsCache,
    /// slow + gsu19 over three populations, as two shards and a merge.
    HeteroShards,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Agent2e16,
        Workload::Batched2e16,
        Workload::RoundsCache,
        Workload::HeteroShards,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Agent2e16 => "agent-2e16",
            Workload::Batched2e16 => "batched-2e16",
            Workload::RoundsCache => "rounds-cache",
            Workload::HeteroShards => "hetero-shards",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spec text of one repetition. `seed` is the only input that
    /// varies; the program sees nothing but this text.
    pub fn spec_text(self, seed: u64) -> String {
        let body = match self {
            Workload::Agent2e16 => {
                "protocols = gsu19\nengine = agent\ncompiled = true\nn = 65536\ntrials = 2\n\
                 stop = stabilize:100000\nobservables = core\n"
            }
            Workload::Batched2e16 => {
                "protocols = gsu19\nengine = urn-batched\nbatch_mode = exact\ncompiled = false\n\
                 n = 65536\ntrials = 1\nstop = stabilize:100000\nobservables = core\n"
            }
            Workload::RoundsCache => {
                "protocols = gsu19\nengine = agent\ncompiled = false\nn = 256\ntrials = 50\n\
                 stop = stabilize:100000\n\
                 observables = round_census, epoch_candidates, observed_states\n"
            }
            Workload::HeteroShards => {
                "protocols = slow, gsu19\nengine = agent\ncompiled = false\n\
                 n = 1024, 4096, 16384\ntrials = 1\nstop = stabilize:400000\nobservables = core\n"
            }
        };
        // One worker: the timed regions never run threads side by side.
        format!("{body}seed = {seed}\nthreads = 1\n")
    }

    /// Specs one timed run alternates between, each from its own seed.
    /// A batched trial's time per interaction depends on its trajectory
    /// (±12% over ten seeds at 2^16), so that workload averages four
    /// one-trial specs instead of timing one longer spec: the shorter a
    /// repetition, the likelier its fastest run missed every burst of
    /// the machine's other load.
    pub fn specs_per_run(self) -> u64 {
        match self {
            Workload::Batched2e16 => 4,
            _ => 1,
        }
    }

    /// Shard processes the workload runs as (1 = one `ppctl run`).
    pub fn shards(self) -> usize {
        match self {
            Workload::HeteroShards => 2,
            _ => 1,
        }
    }

    /// Whether the timed cold run writes the trial cache itself. The
    /// other workloads run uncached and fill the cache afterwards,
    /// outside the timed region, for the warm re-run.
    pub fn cold_run_is_cached(self) -> bool {
        self == Workload::RoundsCache
    }
}

/// Mean interactions to stabilisation of one trial, the scale that the
/// benchmark's time metrics are normalised to. slow's is exact:
/// candidates meet after independent geometric waits with success
/// probabilities k(k-1)/(n(n-1)), k = n..2, which sum to (n-1)^2.
/// gsu19's are sample means at the populations the workloads use
/// (2000, 400, 200, 64 and 112 trials, in order of n).
pub fn mean_interactions(protocol: ProtocolKind, n: u64) -> f64 {
    match (protocol, n) {
        (ProtocolKind::Slow, n) => ((n - 1) * (n - 1)) as f64,
        (ProtocolKind::Gsu19, 256) => 6.26e4,
        (ProtocolKind::Gsu19, 1024) => 5.03e5,
        (ProtocolKind::Gsu19, 4096) => 2.24e6,
        (ProtocolKind::Gsu19, 16384) => 1.16e7,
        (ProtocolKind::Gsu19, 65536) => 4.5e7,
        _ => unreachable!("no reference for {} at n = {n}", protocol.name()),
    }
}

/// Relative cost of one interaction of `protocol` on the uncompiled
/// agent engine: gsu19's state machine costs about 14 times slow's
/// two-state rule (traced replays at n = 1024..16384). Only the
/// hetero-shards workload mixes protocols, so only this ratio matters.
fn weight(protocol: ProtocolKind) -> f64 {
    match protocol {
        ProtocolKind::Slow => 1.0,
        _ => 14.0,
    }
}

/// Weighted work of a set of trial records, as `(measured, expected)`:
/// each record's interactions, and its config's mean, times the
/// protocol's weight. `records` pairs each record with its grid config.
pub fn work<'a>(
    spec: &ExperimentSpec,
    records: impl IntoIterator<Item = (usize, &'a TrialRecord)>,
) -> (f64, f64) {
    let grid = ppexp::config_grid(spec);
    records
        .into_iter()
        .fold((0.0, 0.0), |(measured, expected), (config, record)| {
            let (protocol, n) = grid[config];
            let interactions = record.outcome.metric("interactions").unwrap_or(f64::NAN);
            (
                measured + interactions * weight(protocol),
                expected + mean_interactions(protocol, n) * weight(protocol),
            )
        })
}

/// Interactions a spec needs on average: every config's trials at its
/// mean.
pub fn reference_interactions(spec: &ExperimentSpec) -> f64 {
    ppexp::config_grid(spec)
        .into_iter()
        .map(|(protocol, n)| spec.trials as f64 * mean_interactions(protocol, n))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_parses_validates_and_carries_its_seed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let spec = ExperimentSpec::parse(&w.spec_text(12345)).unwrap();
            spec.validate().unwrap();
            assert_eq!((spec.seed, spec.threads), (12345, 1));
            assert!(reference_interactions(&spec) > 0.0);
        }
    }

    #[test]
    fn slow_reference_is_exact() {
        assert_eq!(mean_interactions(ProtocolKind::Slow, 1024), 1023.0 * 1023.0);
    }
}
