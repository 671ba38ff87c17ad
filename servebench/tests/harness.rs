//! Self-tests of the benchmark harness: the percentile rule, seeded
//! inputs, timing blocks, the answer oracle, tiny runs of each workload
//! that check the workload's stated character, and agreement with
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

use servebench::bench::{self, Outcome, Settings, END_TO_END};
use servebench::oracle::{self, Digest, Expected};
use servebench::plan::{self, Op, Plan, Shape, Workload, READS_PER_INGEST};
use servebench::stats::{percentile, MIN_BEYOND};
use servebench::system::Knobs;
use std::sync::Mutex;
use std::time::Duration;

fn knobs() -> Knobs {
    Knobs {
        engine_threads: 2,
        serve_workers: 2,
        queue_capacity: 64,
        tenant_fuel: 1_000_000_000_000_000,
        request_fuel: 1_000_000_000,
        request_deadline: Duration::from_secs(60),
    }
}

/// Runs read process-wide metric counters, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny_run(workload: Workload, trace: bool) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let settings = Settings {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        knobs: knobs(),
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("servebench-{}-{trace}", workload.name()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = bench::run(&settings, Shape::tiny(workload), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.correct, "{}: {:#?}", workload.name(), out.lines);
    assert_eq!(out.failed, 0);
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 99.0), Some(990.0));
    assert_eq!(percentile(&xs[..999], 99.0), None);
    assert_eq!(percentile(&xs[..100], 90.0), Some(90.0));
    assert_eq!(percentile(&xs[..99], 90.0), None);
    assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
    assert_eq!(percentile(&xs[..19], 50.0), None);
    assert_eq!(percentile(&[], 50.0), None);
    for n in [20usize, 100, 1000, 5000] {
        for p in [50.0, 90.0, 99.0] {
            if let Some(v) = percentile(&xs[..n.min(1000)], p) {
                let beyond = xs[..n.min(1000)].iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }
}

#[test]
fn plans_repeat_for_a_seed_and_change_with_it() {
    for w in Workload::ALL {
        let shape = Shape::full(w, 10);
        let a = Plan::new(w, 1, shape);
        assert_eq!(a, Plan::new(w, 1, shape), "{}", w.name());
        let b = Plan::new(w, 2, shape);
        assert_ne!(
            a.graph_text,
            b.graph_text,
            "{}: graph ignores the seed",
            w.name()
        );
        if w != Workload::BatchContainment {
            assert_ne!(
                a.streams,
                b.streams,
                "{}: stream ignores the seed",
                w.name()
            );
        }
    }
}

#[test]
fn plans_have_the_stated_shape() {
    let hot = Plan::new(Workload::HotHits, 3, Shape::full(Workload::HotHits, 10));
    assert_eq!(hot.queries.len(), 16);
    assert_eq!(hot.streams.len(), 2);

    let cold = Plan::new(Workload::ColdEval, 3, Shape::full(Workload::ColdEval, 10));
    let mut sent: Vec<usize> = cold
        .streams
        .iter()
        .flatten()
        .map(|op| match op {
            Op::Read(i) => *i,
            Op::Ingest { .. } => panic!("cold-eval only reads"),
        })
        .collect();
    sent.sort_unstable();
    assert_eq!(
        sent,
        (0..512).collect::<Vec<_>>(),
        "each chain once per run"
    );

    let ingest = Plan::new(
        Workload::IngestMixed,
        3,
        Shape::full(Workload::IngestMixed, 10),
    );
    for s in &ingest.streams {
        let ingests = s
            .iter()
            .filter(|op| matches!(op, Op::Ingest { .. }))
            .count();
        let reads = s.len() - ingests;
        assert_eq!(reads, ingests * READS_PER_INGEST);
        assert_eq!(ingests % 2, 0, "whole toggle pairs");
    }
}

#[test]
fn blocks_cut_each_stream_into_contiguous_runs() {
    for (len, block) in [(60_000, 250), (9_490, 130), (256, 128), (110, usize::MAX), (5, 250)] {
        let ranges: Vec<_> = plan::blocks(len, block).collect();
        assert_eq!(ranges.len(), (len / block).max(1), "{len}/{block}");
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[ranges.len() - 1].end, len);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(ranges.iter().all(|r| r.len() >= block.min(len)));
    }
}

/// Every timing block of a full run supports its own p90.
#[test]
fn full_blocks_hold_a_hundred_reads() {
    for w in [Workload::HotHits, Workload::ColdEval, Workload::IngestMixed] {
        let p = Plan::new(w, 1, Shape::full(w, 10));
        for s in &p.streams {
            for r in plan::blocks(s.len(), p.block) {
                let reads = s[r].iter().filter(|op| matches!(op, Op::Read(_))).count();
                assert!(reads >= 100, "{}: {reads} reads", w.name());
            }
        }
    }
}

#[test]
fn oracle_reads_bodies_and_rejects_wrong_answers() {
    let good = r#"{"id":3,"ok":true,"disposition":"exact","pairs":2,"sample":[[0,1],[2,5]],"truncated":false,"elapsed_us":17,"trace_id":"00ab"}"#;
    let expected = Expected {
        pairs: 2,
        sample: vec![(0, 1), (2, 5)],
    };
    let r = oracle::reply(good).unwrap();
    assert_eq!((r.pairs, r.elapsed_us, r.disposition), (2, 17, "exact"));
    assert!(oracle::body_matches(good, std::slice::from_ref(&expected)));
    let wrong_pair = good.replace("[2,5]", "[2,6]");
    assert!(!oracle::body_matches(
        &wrong_pair,
        std::slice::from_ref(&expected)
    ));
    let wrong_count = good.replace("\"pairs\":2", "\"pairs\":3");
    assert!(!oracle::body_matches(
        &wrong_count,
        std::slice::from_ref(&expected)
    ));
    let short = good.replace(",[2,5]", "");
    assert!(!oracle::body_matches(
        &short,
        std::slice::from_ref(&expected)
    ));
    let other = Expected {
        pairs: 3,
        sample: vec![],
    };
    let empty = r#"{"disposition":"miss","pairs":3,"sample":[],"elapsed_us":1}"#;
    assert!(oracle::body_matches(empty, &[expected, other]));
}

#[test]
fn digests_tell_full_answers_apart() {
    use rq_graph::NodeId;
    use std::collections::BTreeSet;
    let set = |pairs: &[(u32, u32)]| -> BTreeSet<(NodeId, NodeId)> {
        pairs.iter().map(|&(x, y)| (NodeId(x), NodeId(y))).collect()
    };
    let a = set(&[(0, 1), (2, 5), (7, 7)]);
    assert_eq!(Digest::of(&a), Digest::of(&a.clone()));
    for other in [
        set(&[(0, 1), (2, 5), (7, 8)]),
        set(&[(0, 1), (2, 5)]),
        set(&[(1, 0), (2, 5), (7, 7)]),
        set(&[]),
    ] {
        assert_ne!(Digest::of(&a), Digest::of(&other), "{other:?}");
    }
}

#[test]
fn batch_runs_leave_ten_samples_beyond_the_p90_after_a_failure() {
    let ops = Plan::new(
        Workload::BatchContainment,
        1,
        Shape::full(Workload::BatchContainment, 1),
    )
    .ops();
    let xs: Vec<f64> = (0..ops - 1).map(|i| i as f64).collect();
    assert!(percentile(&xs, 90.0).is_some(), "{ops} operations");
}

#[test]
fn hot_hits_times_only_exact_hits() {
    let out = tiny_run(Workload::HotHits, false);
    let c = &out.character;
    assert_eq!(c.dispositions.get("exact").copied(), Some(c.reads));
    assert_eq!(c.dispositions.len(), 1, "{:?}", c.dispositions);
    assert_eq!(c.ladder.iter().sum::<u64>(), 0, "no containment work");
}

/// No cold chain's word language contains another's, but 2RPQ
/// containment (folding) proves a few of them subsumed by a recently
/// cached chain, so "all misses" holds up to a handful of subsumed hits.
fn assert_nearly_all_misses(misses: u64, total: u64) {
    assert!(
        misses <= total && misses + 8 >= total,
        "{misses} misses of {total}"
    );
}

#[test]
fn cold_eval_is_all_misses() {
    let out = tiny_run(Workload::ColdEval, false);
    let c = &out.character;
    assert_eq!(c.reads, 512);
    let miss = c.dispositions.get("miss").copied().unwrap_or(0);
    let subsumed = c.dispositions.get("subsumed").copied().unwrap_or(0);
    assert_eq!(miss + subsumed, 512, "{:?}", c.dispositions);
    assert_nearly_all_misses(miss, 512);
}

#[test]
fn batch_containment_reaches_the_simple_and_full_rungs() {
    let out = tiny_run(Workload::BatchContainment, false);
    let c = &out.character;
    assert!(c.ladder[3] > 0, "simple rung: {:?}", c.ladder);
    assert!(c.ladder[4] > 0, "full_check rung: {:?}", c.ladder);
}

#[test]
fn ingest_mixed_invalidates_and_appends_once_per_ingest() {
    let out = tiny_run(Workload::IngestMixed, false);
    let c = &out.character;
    assert!(c.invalidated > 0, "ingests evict cached reads");
    assert!(c.ingests_acked > 0);
    assert_eq!(
        c.appends, c.ingests_acked,
        "one fsync'd append per acknowledged ingest"
    );
    assert!(
        c.dispositions.get("miss").copied().unwrap_or(0) > 0,
        "re-evaluations"
    );
    assert!(
        c.dispositions.get("exact").copied().unwrap_or(0) > 0,
        "hits between ingests"
    );
}

#[test]
fn traced_runs_report_every_layer_metric_with_the_workload_character() {
    let names: Vec<String> = bench::per_layer_names()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let hot = tiny_run(Workload::HotHits, true);
    let got: Vec<&str> = hot.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(got, names);
    assert_eq!(metric(&hot, "graph.bfs_us_per_query"), 0.0);
    assert_eq!(metric(&hot, "graph.answer_pairs"), 0.0);
    assert!(metric(&hot, "serve.execute_us.p50") > 0.0);

    let cold = tiny_run(Workload::ColdEval, true);
    assert_nearly_all_misses(metric(&cold, "engine.disposition.miss") as u64, 512);
    assert!(metric(&cold, "graph.answer_pairs") > 0.0);
    assert!(metric(&cold, "engine.eval_us.p50") > 0.0);

    let batch = tiny_run(Workload::BatchContainment, true);
    assert!(metric(&batch, "core.ladder_calls.full_check") > 0.0);
    assert!(metric(&batch, "engine.batch_plan_us") > 0.0);

    let ingest = tiny_run(Workload::IngestMixed, true);
    assert!(metric(&ingest, "engine.apply_deltas_us.p50") > 0.0);
    assert!(metric(&ingest, "storage.append_us.p50") > 0.0);
    assert!(metric(&ingest, "storage.open_us") > 0.0);
}

#[test]
fn answer_pairs_repeat_exactly_for_a_seed() {
    let a = tiny_run(Workload::IngestMixed, true);
    let b = tiny_run(Workload::IngestMixed, true);
    assert_eq!(
        metric(&a, "graph.answer_pairs"),
        metric(&b, "graph.answer_pairs")
    );
}

/// The metric lists in `BENCHMARK.json` are the ones the program prints.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let names_in = |section: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let get = |key: &str| {
                    let i = entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
                    let rest = &entry[i..];
                    let rest = &rest[rest.find('"').unwrap() + 1..];
                    rest[..rest.find('"').unwrap()].to_string()
                };
                (get("name"), get("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_in("end_to_end"), e2e);
    let layers: Vec<(String, String)> = bench::per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_in("per_layer"), layers);
    // `hot-hits` is left out of the list: see "Observations" in README.md.
    let body = &text[text.find("\"workloads\"").unwrap()..];
    let body = &body[..body.find(']').unwrap()];
    let workloads: Vec<&str> = body
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').unwrap()])
        .collect();
    assert_eq!(
        workloads,
        ["cold-eval", "batch-containment", "ingest-mixed"]
    );
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
}
