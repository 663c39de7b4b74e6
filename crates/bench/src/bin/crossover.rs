//! One-off probe of the GSU19-vs-GS18 crossover region (n = 2^20), used
//! for the EXPERIMENTS.md discussion of Theorem 8.2: the expected-time gap
//! closes as n grows (extrapolated crossover ≈ 2^24).
//!
//! ```text
//! crossover [n] [trials] [engine] [--compiled] [--threads K]
//!     engine: agent (default) | urn-batched
//! ```
//!
//! The probe is a preset over the `ppexp` experiment engine: it expands to
//! an [`ExperimentSpec`] with both protocols at one population and prints
//! the engine's aggregates, so its trial scheduling, seed provenance and
//! statistics are exactly those of `ppctl run`.
//!
//! The `urn-batched` engine (see `ppsim::batch`) runs the same probe on the
//! count-based simulator with exact collision-resampling batches, which is
//! the only way to actually reach the extrapolated crossover (n ≳ 2^24) in
//! reasonable wall time. Its stopping times are **exact first hits**: the
//! engine probes the predicate at block boundaries but rewinds and replays
//! the recorded interaction trace to the first satisfying interaction, so
//! there is no batch-boundary quantisation.
//!
//! `--compiled` runs the chosen engine on compiled transition tables
//! (`ppsim::compiled`) for both protocols — the fast path for the agent
//! engine (compile once per protocol, clone per trial).

use ppexp::{run_experiment, EngineKind, ExperimentSpec, ProtocolKind, StopCondition};

fn main() {
    // Positional [n] [trials] [engine] in order, `--compiled` and
    // `--threads K` anywhere; anything else is a usage error (a
    // silently-dropped argument here can cost hours of probing the wrong
    // configuration).
    let mut positional: Vec<String> = Vec::new();
    let mut compiled = false;
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--compiled" {
            compiled = true;
        } else if arg == "--threads" {
            threads = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--threads needs a positive integer");
        } else {
            positional.push(arg);
        }
    }
    assert!(
        positional.len() <= 3,
        "usage: crossover [n] [trials] [engine] [--compiled] [--threads K]"
    );
    let n: u64 = positional
        .first()
        .map(|a| a.parse().expect("n must be an integer"))
        .unwrap_or(1 << 20);
    let trials: usize = positional
        .get(1)
        .map(|a| a.parse().expect("trials must be an integer"))
        .unwrap_or(6);
    let engine = positional.get(2).cloned().unwrap_or_else(|| "agent".into());
    assert!(
        engine == "agent" || engine == "urn-batched",
        "engine must be agent | urn-batched"
    );

    let spec = ExperimentSpec {
        protocols: vec![ProtocolKind::Gsu19, ProtocolKind::Gs18],
        engine: EngineKind::parse(&engine).expect("validated above"),
        compiled,
        ns: vec![n],
        trials,
        seed: 300,
        threads,
        stop: StopCondition::Stabilize {
            budget_pt: 30_000.0,
        },
        ..ExperimentSpec::default()
    };
    let artifact = run_experiment(&spec).expect("crossover spec is valid");

    for config in &artifact.configs {
        assert_eq!(config.failures, 0, "{}: trials missed the budget", config.n);
        let s = config.aggregate("time").expect("converged trials exist");
        let l = (n as f64).log2();
        let tag = if compiled { ", compiled" } else { "" };
        println!(
            "{} [{engine}{tag}] n=2^{:.0}: mean={:.1} ci95={:.1} med={:.1}  t/lg2={:.3} t/(lg*lglg)={:.3}",
            config.protocol.name(),
            l,
            s.mean,
            s.ci95,
            s.median,
            s.mean / (l * l),
            s.mean / (l * l.log2()),
        );
    }
}
