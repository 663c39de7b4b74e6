//! Usage errors through the `ppctl` binary: inputs that used to panic or
//! be silently ignored must exit 2 with a message naming the problem.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ppctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppctl"))
        .args(args)
        .output()
        .expect("ppctl spawns")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr.contains(needle), "stderr lacks '{needle}': {stderr}");
}

/// A cache directory path that does not exist; the commands under test
/// must refuse `--cache-dir` without ever creating it.
fn absent_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppctl-usage-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn run_rejects_cache_dir_without_cache() {
    let dir = absent_dir("run");
    let d = dir.to_str().unwrap();
    let out = ppctl(&["run", "--n", "64", "--trials", "1", "--cache-dir", d]);
    assert_usage_error(&out, "--cache-dir needs --cache");
    // --no-cache overrides --cache, so the directory is unused there too.
    let out = ppctl(&[
        "run",
        "--n",
        "64",
        "--cache",
        "--no-cache",
        "--cache-dir",
        d,
    ]);
    assert_usage_error(&out, "--cache-dir needs --cache");
    assert!(!dir.exists());
}

#[test]
fn work_rejects_cache_dir_without_cache() {
    let dir = absent_dir("work");
    let out = ppctl(&[
        "work",
        "--n",
        "64",
        "--trials",
        "1",
        "--shard",
        "0/1",
        "--out",
        "-",
        "--cache-dir",
        dir.to_str().unwrap(),
    ]);
    assert_usage_error(&out, "--cache-dir needs --cache");
    assert!(!dir.exists());
}

#[test]
fn merge_rejects_cache_dir_without_from_cache() {
    let dir = absent_dir("merge");
    let out = ppctl(&[
        "merge",
        "--n",
        "64",
        "shard.json",
        "--cache-dir",
        dir.to_str().unwrap(),
    ]);
    assert_usage_error(&out, "--cache-dir needs --from-cache");
    assert!(!dir.exists());
}

#[test]
fn population_below_the_protocol_minimum_exits_2() {
    for protocol in ["gsu19", "gs18", "gsu19-no-drag"] {
        let out = ppctl(&["run", "--protocol", protocol, "--n", "8", "--trials", "1"]);
        assert_usage_error(&out, "need n >= 16");
    }
    for command in ["params", "census"] {
        assert_usage_error(&ppctl(&[command, "--n", "8"]), "need n >= 16");
    }
    let out = ppctl(&["run", "--protocol", "slow", "--n", "8", "--trials", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
