//! Self-tests of the benchmark: seeded inputs, the percentile helper,
//! and the metric names against `BENCHMARK.json`.

use std::collections::BTreeSet;

use culzss_dedup::{sha256, Sha256};
use culzss_e2ebench::metrics::{valid_name, END_TO_END, PER_LAYER};
use culzss_e2ebench::stats::{highest_supported, percentile, MIN_BEYOND};
use culzss_e2ebench::workloads::{bulk_codec, dedup_edits, Ctx, Workload};
use culzss_e2ebench::{finish, Args};

fn digest(parts: &[Vec<u8>]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finish()
}

fn all_inputs(seed: u64) -> Vec<[u8; 32]> {
    let dedup = dedup_edits::Config::small();
    vec![
        digest(&bulk_codec::inputs(seed, &bulk_codec::Config::small())),
        digest(&[
            dedup_edits::snapshot(seed, &dedup, 0, 0),
            dedup_edits::snapshot(seed, &dedup, 1, 3),
        ]),
    ]
}

#[test]
fn same_seed_gives_identical_inputs() {
    assert_eq!(all_inputs(7), all_inputs(7));
    let (a, b) = (all_inputs(7), all_inputs(8));
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(x, y, "another seed must give other inputs");
    }
    assert_ne!(sha256(b"a"), sha256(b"b"));
}

#[test]
fn percentile_reports_its_support_and_refuses_thin_tails() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&xs, 0.99).expect("1000 samples support p99");
    assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, MIN_BEYOND));
    let err = percentile(&xs[..999], 0.99).expect_err("999 samples leave 9 beyond p99");
    assert!(err.contains("999 samples"), "{err}");
    assert!(percentile(&xs[..19], 0.5).is_err(), "a median needs ten samples beyond it");
    let best = highest_supported(&xs[..500], 0.99).expect("500 samples support some tail");
    assert!(best.q < 0.99 && best.beyond >= MIN_BEYOND && best.samples == 500);
    assert!(highest_supported(&xs[..10], 0.99).is_err());
}

/// `"name": "…"` values of the objects in `section` of BENCHMARK.json,
/// with their units.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split('{')
        .skip(1)
        .map(|obj| {
            let field = |key: &str| {
                let at = obj.find(&format!("\"{key}\"")).expect("field present");
                let rest = &obj[at + key.len() + 2..];
                let open = rest.find('"').expect("string value") + 1;
                let close = rest[open..].find('"').expect("closed string") + open;
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let mut seen = BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert!(seen.insert(def.name), "duplicate metric name {}", def.name);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<(String, String)> =
            defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
        assert_eq!(declared(&json, section), ours, "{section} differs from the registry");
    }
    let workloads: Vec<String> = declared_workloads(&json);
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

fn declared_workloads(json: &str) -> Vec<String> {
    let start = json.find("\"workloads\"").expect("workloads present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("workloads is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("closed string") + open;
            rest[open..close].to_string()
        })
        .collect()
}

#[test]
fn every_declared_metric_is_produced_by_a_run() {
    let mut layer_names = BTreeSet::new();
    for workload in Workload::ALL {
        let seconds = 1.0;
        for trace in [false, true] {
            let args = Args { workload, seed: 3, seconds, trace };
            let ctx = Ctx { seed: 3, seconds, trace };
            let result = finish(&args, workload.run_small(ctx));
            assert!(
                result.out.problems.is_empty(),
                "{} trace={trace}: {:?}",
                workload.name(),
                result.out.problems
            );
            assert!(result.out.attempted > 0 && result.out.failed == 0);
            let names: BTreeSet<&str> = result.report.names().into_iter().collect();
            if trace {
                layer_names.extend(names.iter().filter(|n| n.contains('.')).copied());
            } else {
                for def in END_TO_END {
                    assert!(names.contains(def.name), "{} lacks {}", workload.name(), def.name);
                }
            }
        }
    }
    for def in PER_LAYER {
        assert!(layer_names.contains(def.name), "no traced run produced {}", def.name);
    }
}
