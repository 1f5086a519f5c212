//! Checks the benchmark's definition against its implementation, and
//! runs every workload once on a tiny window.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use clustered_perfbench::bench::{END_TO_END, PER_LAYER};
use clustered_perfbench::{run, Kind, Options, Window, DEFAULT_SEED};
use clustered_stats::json::{parse, Json};
use std::collections::BTreeSet;
use std::path::Path;

fn load(relative: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

fn str_of<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}`"))
}

fn arr_of<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing array `{key}`"))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    arr_of(doc, key)
        .iter()
        .map(|e| str_of(e, "name").to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn definition_matches_implementation() {
    let bench = load("../BENCHMARK.json");
    let layers = load("layers.json");

    let workloads = names(&bench, "workloads");
    let expected: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, expected);
    for (list, key) in [
        (&END_TO_END[..], "end_to_end"),
        (&PER_LAYER[..], "per_layer"),
    ] {
        let declared: Vec<(String, String)> = arr_of(&bench, key)
            .iter()
            .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
            .collect();
        let implemented: Vec<(String, String)> = list
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, implemented, "`{key}` in BENCHMARK.json");
    }

    let end_to_end: BTreeSet<String> = names(&bench, "end_to_end").into_iter().collect();
    let printed: BTreeSet<String> = names(&layers, "printed").into_iter().collect();
    let per_layer: BTreeSet<String> = names(&bench, "per_layer").into_iter().collect();
    let workload_set: BTreeSet<String> = workloads.iter().cloned().collect();
    let every_name = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .chain(&printed);
    let mut seen = BTreeSet::new();
    for name in every_name {
        assert!(valid_name(name), "`{name}` is not made of [A-Za-z0-9_.-]");
        assert!(seen.insert(name.clone()), "`{name}` is used twice");
    }

    let mut mapped = BTreeSet::new();
    for entry in arr_of(&layers, "map") {
        for layer in arr_of(entry, "layers") {
            let layer = layer.as_str().expect("layer names are strings");
            assert!(
                per_layer.contains(layer),
                "map names unknown per-layer metric `{layer}`"
            );
            mapped.insert(layer.to_string());
        }
        for moved in arr_of(entry, "moves") {
            let moved = moved.as_str().expect("metric names are strings");
            assert!(
                end_to_end.contains(moved) || printed.contains(moved),
                "map names unknown end-to-end metric `{moved}`"
            );
        }
        for key in ["on", "unchanged_on"] {
            for w in arr_of(entry, key) {
                let w = w.as_str().expect("workload names are strings");
                assert!(workload_set.contains(w), "map names unknown workload `{w}`");
            }
        }
    }
    assert_eq!(
        mapped, per_layer,
        "every per-layer metric needs a map entry"
    );
    for p in arr_of(&layers, "printed") {
        for w in arr_of(p, "on") {
            assert!(workload_set.contains(w.as_str().expect("workload names are strings")));
        }
    }
    assert_eq!(
        layers.get("default_seed").and_then(Json::as_u64),
        Some(DEFAULT_SEED)
    );
    assert!(layers
        .get("held_out_seed")
        .and_then(Json::as_u64)
        .is_some_and(|s| s != DEFAULT_SEED));
}

#[test]
fn every_workload_emits_every_metric_on_a_tiny_window() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    for kind in Kind::ALL {
        for trace in [false, true] {
            let mut opts = Options::new(kind, DEFAULT_SEED, 0.0, trace);
            opts.window = Window::SMOKE;
            let trace_path = out.join(format!("{}.trace.json", kind.name()));
            if trace {
                opts.trace_out = Some(trace_path.clone());
            }
            let outcome = run(&opts);
            let label = format!("{} trace={trace}", kind.name());
            assert!(outcome.correct, "{label}: {:?}", outcome.errors);
            assert!(outcome.attempted > 0 && outcome.failed == 0, "{label}");
            let list = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(emitted, list, "{label}");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{label}"
            );
            if trace {
                let text = std::fs::read_to_string(&trace_path).expect("the trace was written");
                let doc = parse(&text).expect("the trace is JSON");
                assert!(!arr_of(&doc, "traceEvents").is_empty(), "{label}: no spans");
            }
        }
    }
}
