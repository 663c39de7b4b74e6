//! The traced mode: per-layer metrics.
//!
//! Each repetition runs the workload untraced (the same code as the
//! timed mode), then again through the layers' public functions with a
//! span around each call, then replays every trial. The difference
//! between the traced and the untraced run is the tracing overhead.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use core_protocol::{Gsu19, Params};
use ppexp::{
    merge_shards, replay_trial, run_shard, shard_slice, spec_hash, trial_plan, Cache,
    ExperimentSpec, PlannedTrial, ShardManifest, ShardOutput, TrialRecord,
};
use ppsim::{split_seed, BatchPolicy, Simulator, UrnSim};

use crate::checks::{check_doc, check_same};
use crate::pipeline;
use crate::span::{self_by_name, Recorder};
use crate::stats::{median, Tally};
use crate::timed::rep_text;
use crate::workload::Workload;
use crate::Metric;

/// Every per-layer metric with its unit. A layer the workload bypasses
/// reports 0.
pub const LAYER_METRICS: [(&str, &str); 32] = [
    ("plan.spec_s", "s"),
    ("plan.trial_plan_s", "s"),
    ("shard.assign_s", "s"),
    ("shard.io_s", "s"),
    ("shard.imbalance", "ratio"),
    ("simulate.run_s", "s"),
    ("simulate.trial_p50_s", "s"),
    ("simulate.trial_max_s", "s"),
    ("simulate.trials", "count"),
    ("compiled.build_s", "s"),
    ("compiled.table_entries", "count"),
    ("agent.ns_per_interaction", "ns"),
    ("batch.ns_per_interaction", "ns"),
    ("batch.trace_overhead", "ratio"),
    ("observe.extra_s", "s"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.bytes", "B"),
    ("cache.hit_ratio", "ratio"),
    ("aggregate.merge_s", "s"),
    ("emit.to_json_s", "s"),
    ("emit.parse_s", "s"),
    ("emit.validate_s", "s"),
    ("emit.bytes", "B"),
    ("cost.pred_over_measured.gsu19.agent", "ratio"),
    ("cost.pred_over_measured.gsu19.agent-compiled", "ratio"),
    ("cost.pred_over_measured.gsu19.urn-batched", "ratio"),
    ("cost.pred_over_measured.slow.agent", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// Span names whose self time in the cold tree is reported as a layer
/// metric, with the metric it feeds.
const SELF_TIMES: [(&str, &str); 8] = [
    ("plan.spec", "plan.spec_s"),
    ("plan.trial_plan", "plan.trial_plan_s"),
    ("shard.assign", "shard.assign_s"),
    ("shard.io", "shard.io_s"),
    ("simulate.run_shard", "simulate.run_s"),
    ("cache.store", "cache.store_s"),
    ("aggregate.merge", "aggregate.merge_s"),
    ("emit.to_json", "emit.to_json_s"),
];

/// One replayed trial.
struct Replay {
    key: String,
    seconds: f64,
    interactions: f64,
    predicted_us: u64,
}

/// The engine label a spec's trials are costed under.
fn engine_label(spec: &ExperimentSpec) -> String {
    let engine = spec.engine.name();
    if spec.compiled {
        format!("{engine}-compiled")
    } else {
        engine.to_string()
    }
}

/// Slices of `plan` that share a config, in plan order.
fn by_config(plan: &[PlannedTrial]) -> Vec<&[PlannedTrial]> {
    plan.chunk_by(|a, b| a.config == b.config).collect()
}

/// The traced cold run. Returns the artifact bytes.
fn traced_cold(
    w: Workload,
    text: &str,
    cache: &Cache,
    rec: &mut Recorder,
) -> Result<String, String> {
    rec.span("rep", |rec| {
        let spec = rec.span("plan.spec", |_| {
            let spec = ExperimentSpec::parse(text)?;
            spec.validate().map(|()| spec)
        })?;
        let plan = rec.span("plan.trial_plan", |_| trial_plan(&spec));
        let k = w.shards();
        let mut shards = Vec::with_capacity(k);
        for shard in 0..k {
            rec.span("shard.assign", |_| shard_slice(&spec, shard, k))?;
            let (output, _) = rec.span("simulate.run_shard", |_| {
                run_shard(&spec, shard, k, None, None)
            })?;
            // Between processes a shard travels as a file.
            let output = if k > 1 {
                rec.span("shard.io", |_| ShardOutput::parse(&output.to_json_string()))?
            } else {
                output
            };
            shards.push((format!("shard-{shard}"), output));
        }
        if w.cold_run_is_cached() {
            let records: Vec<&(usize, TrialRecord)> =
                shards.iter().flat_map(|(_, s)| &s.records).collect();
            for group in by_config(&plan) {
                let t = group[0];
                rec.span("cache.store", |_| {
                    let slot = cache.config(&Cache::config_identity(&spec, t.protocol, t.n));
                    for (_, record) in records.iter().filter(|(c, _)| *c == t.config) {
                        slot.store(record)?;
                    }
                    Ok::<_, String>(())
                })?;
            }
        }
        let artifact = rec
            .span("aggregate.merge", |_| merge_shards(&spec, &shards))
            .map_err(|e| e.to_string())?;
        Ok(rec.span("emit.to_json", |_| artifact.to_json_string()))
    })
}

/// The traced warm re-run: load every planned trial from the cache the
/// traced cold run filled, aggregate and emit. Returns the bytes and
/// the share of lookups that hit.
fn traced_warm(text: &str, cache: &Cache, rec: &mut Recorder) -> Result<(String, f64), String> {
    rec.span("warm", |rec| {
        let spec = rec.span("plan.spec", |_| {
            let spec = ExperimentSpec::parse(text)?;
            spec.validate().map(|()| spec)
        })?;
        let plan = rec.span("plan.trial_plan", |_| trial_plan(&spec));
        let mut records = Vec::with_capacity(plan.len());
        for group in by_config(&plan) {
            rec.span("cache.load", |_| {
                let slot = cache.config(&Cache::config_identity(
                    &spec,
                    group[0].protocol,
                    group[0].n,
                ));
                for t in group {
                    if let Some(mut record) = slot.load(t.seed) {
                        record.trial = t.trial;
                        records.push((t.config, record));
                    }
                }
            });
        }
        let hit_ratio = records.len() as f64 / plan.len() as f64;
        let manifest = ShardManifest {
            spec_hash: spec_hash(&spec),
            shard: 0,
            of: 1,
        };
        let output = ShardOutput { manifest, records };
        let artifact = rec
            .span("aggregate.merge", |_| {
                merge_shards(&spec, &[("cache".into(), output)])
            })
            .map_err(|e| e.to_string())?;
        Ok((
            rec.span("emit.to_json", |_| artifact.to_json_string()),
            hit_ratio,
        ))
    })
}

/// `Simulator::steps_until` with a predicate that never holds, divided
/// by `UrnSim::steps_batched`, both from the same gsu19 urn state at
/// n = 2^16 (after 50 parallel time units) over 200 parallel time units.
fn batch_trace_overhead(seed: u64, rec: &mut Recorder) -> f64 {
    let n = 1u64 << 16;
    let policy = BatchPolicy::adaptive();
    let protocol = Gsu19::new(Params::for_population(n));
    let ratios: Vec<f64> = (0..3)
        .map(|i| {
            let s = split_seed(seed, 1_000 + i);
            let mut plain = UrnSim::new(protocol, n, s);
            let mut traced = UrnSim::new(protocol, n, s);
            plain.steps_batched(50 * n, &policy);
            traced.steps_batched(50 * n, &policy);
            let plain_s = rec.span("batch.steps_batched", |_| {
                let start = Instant::now();
                plain.steps_batched(200 * n, &policy);
                start.elapsed().as_secs_f64()
            });
            let traced_s = rec.span("batch.steps_until", |_| {
                let start = Instant::now();
                traced.steps_until(200 * n, &policy, &mut |_: &UrnSim<Gsu19>| false);
                start.elapsed().as_secs_f64()
            });
            traced_s / plain_s
        })
        .collect();
    median(&ratios)
}

/// Total size of the files under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Run traced repetitions for `seconds` (at least two).
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    tmp: &Path,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut per_rep: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, value: f64| per_rep.entry(name).or_default().push(value);
    let mut replays: Vec<Replay> = Vec::new();
    let mut builds = Vec::new();
    let mut table_entries = 0.0;
    let start = Instant::now();
    let mut r = 0;
    while (r < 2 || start.elapsed().as_secs_f64() < seconds) && tally.failed() == 0 {
        let text = rep_text(w, seed, r);
        let (dir_u, dir_t) = (tmp.join("cache-untraced"), tmp.join("cache-traced"));
        for dir in [&dir_u, &dir_t] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let (cache_u, cache_t) = (Cache::at(&dir_u), Cache::at(&dir_t));

        let cold = pipeline::cold(w, &text, w.cold_run_is_cached().then_some(&cache_u), tally)?;
        let bytes = traced_cold(w, &text, &cache_t, rec)?;
        tally.check(
            "traced bytes == untraced bytes",
            check_same(&cold.bytes, &bytes),
        );
        let root = rec.last_root().expect("the cold run opened a root span");
        let selfs = self_by_name(rec.spans(), root);
        for (span, metric) in SELF_TIMES {
            push(metric, selfs.get(span).copied().unwrap_or(0.0));
        }
        let traced_wall = rec.spans()[root].end - rec.spans()[root].start;
        push("trace.traced_wall_s", traced_wall);
        push("trace.untraced_wall_s", cold.wall());
        push("trace.overhead_s", traced_wall - cold.wall());
        push(
            "trace.unattributed_s",
            selfs.get("rep").copied().unwrap_or(0.0),
        );
        push("emit.bytes", bytes.len() as f64);
        let mean = cold.shard_times.iter().sum::<f64>() / cold.shard_times.len() as f64;
        push(
            "shard.imbalance",
            cold.shard_times.iter().copied().fold(0.0, f64::max) / mean,
        );

        if w.cold_run_is_cached() {
            push("cache.bytes", dir_bytes(&dir_t) as f64);
            let (warm_bytes, hit_ratio) = traced_warm(&text, &cache_t, rec)?;
            tally.check(
                "traced warm bytes == cold bytes",
                check_same(&cold.bytes, &warm_bytes),
            );
            let warm_root = rec.last_root().expect("the warm run opened a root span");
            push(
                "cache.load_s",
                self_by_name(rec.spans(), warm_root)
                    .get("cache.load")
                    .copied()
                    .unwrap_or(0.0),
            );
            push("cache.hit_ratio", hit_ratio);

            // Same trials with the core observables only, through the
            // same call the traced run timed.
            let mut core = cold.spec.clone();
            core.apply("observables", "core")?;
            let begin = Instant::now();
            run_shard(&core, 0, 1, None, None)?;
            let core_s = begin.elapsed().as_secs_f64();
            push(
                "observe.extra_s",
                selfs.get("simulate.run_shard").copied().unwrap_or(0.0) - core_s,
            );
        }
        for dir in [&dir_u, &dir_t] {
            let _ = std::fs::remove_dir_all(dir);
        }

        if cold.spec.compiled {
            rec.span("setup", |rec| {
                for (_, n) in ppexp::config_grid(&cold.spec) {
                    let begin = Instant::now();
                    let table = rec.span("compiled.build", |_| {
                        Gsu19::new(Params::for_population(n)).compiled()
                    });
                    builds.push(begin.elapsed().as_secs_f64());
                    table_entries = table.table_entries() as f64;
                }
            });
        }

        // Outside the timed tree: parse and validate the artifact, then
        // every trial again through `replay_trial`, which must
        // reproduce the artifact's record.
        let plan = trial_plan(&cold.spec);
        rec.span("verify", |rec| {
            let doc = rec.span("emit.parse", |_| ppexp::json::parse(&bytes))?;
            let checked = rec.span("emit.validate", |_| check_doc(&doc));
            tally.check(
                "traced artifact stabilised with one leader per trial",
                checked.map(|_| ()),
            );
            for t in &plan {
                let begin = Instant::now();
                let replayed = rec.span("simulate.replay", |_| {
                    replay_trial(&cold.spec, t.config, t.trial)
                })?;
                let seconds = begin.elapsed().as_secs_f64();
                let recorded = &cold.artifact.configs[t.config].trials[t.trial];
                tally.check(
                    "replay_trial == artifact record",
                    (&replayed == recorded)
                        .then_some(())
                        .ok_or(format!("config {} trial {} differs", t.config, t.trial)),
                );
                replays.push(Replay {
                    key: format!("{}.{}", t.protocol.name(), engine_label(&cold.spec)),
                    seconds,
                    interactions: recorded.outcome.metric("interactions").unwrap_or(f64::NAN),
                    predicted_us: t.cost,
                });
            }
            Ok::<_, String>(())
        })?;
        let verify = self_by_name(rec.spans(), rec.last_root().expect("verify is a root span"));
        push(
            "emit.parse_s",
            verify.get("emit.parse").copied().unwrap_or(0.0),
        );
        push(
            "emit.validate_s",
            verify.get("emit.validate").copied().unwrap_or(0.0),
        );
        r += 1;
    }

    let mut values: BTreeMap<String, f64> = per_rep
        .into_iter()
        .map(|(name, xs)| (name.to_string(), median(&xs)))
        .collect();
    // `replay_trial` builds the compiled tables on every call; the
    // trial's own time excludes that build.
    let build = if builds.is_empty() {
        0.0
    } else {
        median(&builds)
    };
    values.insert("compiled.build_s".into(), build);
    values.insert("compiled.table_entries".into(), table_entries);
    let trial_s: Vec<f64> = replays.iter().map(|p| p.seconds - build).collect();
    values.insert("simulate.trial_p50_s".into(), median(&trial_s));
    values.insert(
        "simulate.trial_max_s".into(),
        trial_s.iter().copied().fold(0.0, f64::max),
    );
    values.insert("simulate.trials".into(), trial_s.len() as f64);
    let mut per_key: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut per_engine: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (p, s) in replays.iter().zip(&trial_s) {
        let e = per_key.entry(&p.key).or_default();
        *e = (e.0 + s, e.1 + p.predicted_us as f64);
        let engine = if p.key.contains("urn-batched") {
            "batch"
        } else {
            "agent"
        };
        let e = per_engine.entry(engine).or_default();
        *e = (e.0 + s, e.1 + p.interactions);
    }
    for (key, (s, predicted_us)) in per_key {
        values.insert(
            format!("cost.pred_over_measured.{key}"),
            predicted_us / (s * 1e6),
        );
    }
    for (engine, (s, interactions)) in per_engine {
        values.insert(
            format!("{engine}.ns_per_interaction"),
            s * 1e9 / interactions,
        );
    }
    if w == Workload::Batched2e16 {
        values.insert(
            "batch.trace_overhead".into(),
            batch_trace_overhead(seed, rec),
        );
    }

    Ok(LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}
