//! Differential tests: the parallel, semantically cached `rq-engine` must
//! answer exactly like the sequential `rq-core` evaluator — on cold
//! caches, on exact/equivalent hits, and on subsumption hits answered by
//! filtering a cached superset. Misses and subsumed hits evaluate the
//! compiled query's automaton (its trimmed minimal DFA when that is no
//! larger), while the sequential oracle runs the query's NFA.
//!
//! `compiled_automaton_answers_match_sequential` scales with
//! `PROPTEST_CASES` (default 32); a failure names its case.

use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::core::canonical::CompiledQuery;
use regular_queries::core::TwoRpq;
use regular_queries::engine::{Disposition, Engine, EngineConfig, QueryResult};
use regular_queries::graph::generate;
use regular_queries::prelude::*;

fn random_queries(seed: u64, count: usize) -> Vec<TwoRpq> {
    let mut rng = SplitMix64::new(seed);
    let cfg = RegexConfig {
        num_labels: 2,
        inverse_prob: 0.3,
        leaves: 5,
        ..RegexConfig::default()
    };
    (0..count)
        .map(|_| TwoRpq::new(random_regex(&mut rng, &cfg)))
        .collect()
}

#[test]
fn cold_and_warm_answers_match_sequential() {
    for seed in [3, 17, 91] {
        let db = generate::random_gnm(24, 72, &["a", "b"], seed);
        let engine = Engine::new(
            db.clone(),
            EngineConfig {
                threads: 3,
                ..EngineConfig::default()
            },
        );
        for q in &random_queries(seed ^ 0xD1FF, 8) {
            let expect = q.evaluate(&db);
            // Cold (or incidentally warmed by an earlier query) ...
            let first = engine.run(q).expect("unlimited budgets never trip");
            assert_eq!(*first.answer, expect, "seed {seed}");
            // ... and guaranteed warm: the second run must hit.
            let second = engine.run(q).expect("unlimited budgets never trip");
            assert_eq!(second.disposition, Disposition::Exact, "seed {seed}");
            assert_eq!(*second.answer, expect, "seed {seed}");
        }
    }
}

#[test]
fn subsumption_hits_match_sequential() {
    for seed in [5, 29] {
        let db = generate::random_gnm(20, 60, &["a", "b"], seed);
        let mut al = db.alphabet().clone();
        // Σ±* subsumes every 2RPQ over {a, b}, so after seeding it every
        // nonempty query is answerable by filtering the cached superset.
        let top = TwoRpq::parse("(a|b|a-|b-)*", &mut al).unwrap();
        let engine = Engine::new(
            db.clone(),
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        );
        assert_eq!(
            engine.run(&top).expect("top query").disposition,
            Disposition::Miss
        );
        let mut subsumed_hits = 0;
        for q in &random_queries(seed.wrapping_mul(977), 8) {
            let expect = q.evaluate(&db);
            let got = engine.run(q).expect("unlimited budgets never trip");
            assert_eq!(*got.answer, expect, "seed {seed}");
            if got.disposition == Disposition::Subsumed {
                subsumed_hits += 1;
            }
        }
        assert!(
            subsumed_hits > 0,
            "the Σ±* superset was never exploited (seed {seed})"
        );
    }
}

#[test]
fn batch_answers_match_sequential() {
    let db = generate::random_gnm(22, 66, &["a", "b"], 11);
    let engine = Engine::new(
        db.clone(),
        EngineConfig {
            threads: 3,
            ..EngineConfig::default()
        },
    );
    // Duplicates included: every item must still carry a correct answer.
    let mut queries = random_queries(1234, 6);
    queries.push(queries[0].clone());
    queries.push(queries[2].clone());
    let report = engine.run_batch(&queries);
    assert_eq!(report.items.len(), queries.len());
    for item in &report.items {
        let expect = queries[item.index].evaluate(&db);
        let answer = item.outcome.as_ref().expect("unlimited budgets");
        assert_eq!(**answer, expect, "batch item {}", item.index);
    }
    assert!(
        report.stats.misses < queries.len() as u64,
        "dedup/caching must absorb the duplicates: {}",
        report.stats
    );
}

#[test]
fn engine_honors_the_deadline() {
    let db = generate::random_gnm(400, 1200, &["a", "b"], 77);
    let engine = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            limits: Limits::unlimited().with_deadline(std::time::Duration::ZERO),
            ..EngineConfig::default()
        },
    );
    let mut al = engine.alphabet();
    let q = TwoRpq::parse("(a|b)*", &mut al).unwrap();
    match engine.run(&q) {
        Err(EngineError::Exhausted(e)) => assert_eq!(e.resource, Resource::Deadline),
        other => panic!("expected a deadline trip, got {other:?}"),
    }
}

#[test]
fn striped_answers_match_sequential_on_ragged_stripes() {
    // No stripe count (2–4 threads) divides these node counts evenly.
    for nodes in [7usize, 13, 61] {
        let db = generate::random_gnm(nodes, nodes / 2 + 1, &["a", "b"], nodes as u64);
        let mut al = db.alphabet().clone();
        let top = TwoRpq::parse("a (a|b|a-|b-)*", &mut al).unwrap();
        let subs: Vec<TwoRpq> = ["a", "a b", "a+ b-", "a (b|a-)*", "a a- a"]
            .iter()
            .map(|t| TwoRpq::parse(t, &mut al).unwrap())
            .collect();
        // The superset only has sources with an outgoing `a` edge, so
        // subsumed evaluation runs over a sparse source list.
        let top_answer = top.evaluate(&db);
        let mut top_sources: Vec<NodeId> = top_answer.iter().map(|&(x, _)| x).collect();
        top_sources.dedup();
        assert!(
            !top_sources.is_empty() && top_sources.len() < nodes,
            "{nodes} nodes: superset sources {top_sources:?}"
        );
        for threads in 1..=4 {
            let engine = Engine::new(
                db.clone(),
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
            );
            for q in random_queries(nodes as u64 * 31 + threads as u64, 6) {
                engine.clear_cache();
                let got = engine.run(&q).expect("unlimited budgets never trip");
                assert_eq!(got.disposition, Disposition::Miss);
                assert_eq!(
                    *got.answer,
                    q.evaluate(&db),
                    "{nodes} nodes, {threads} threads"
                );
            }
            engine.clear_cache();
            let seeded = engine.run(&top).expect("top query");
            assert_eq!(*seeded.answer, top_answer);
            let mut subsumed = 0;
            for q in &subs {
                let got = engine.run(q).expect("unlimited budgets never trip");
                assert_eq!(
                    *got.answer,
                    q.evaluate(&db),
                    "{nodes} nodes, {threads} threads"
                );
                subsumed += usize::from(got.disposition == Disposition::Subsumed);
            }
            assert!(
                subsumed > 0,
                "{nodes} nodes, {threads} threads: no subsumed hit"
            );
        }
    }
}

/// The largest `fuel` any `engine.stripe` span of one traced cold run of
/// `q` records.
fn max_stripe_fuel(engine: &Engine, q: &TwoRpq) -> u64 {
    use regular_queries::metrics::span::{self, TraceContext};
    engine.clear_cache();
    let ctx = TraceContext::start();
    {
        let _g = span::install(&ctx, 0);
        engine.run(q).expect("unlimited budgets never trip");
    }
    let trace = ctx.finish("ok", "");
    trace
        .spans
        .iter()
        .filter(|s| s.name == "engine.stripe")
        .map(|s| {
            let (_, fuel) = s.fields.iter().find(|(k, _)| *k == "fuel").expect("fuel");
            fuel.parse::<u64>().expect("numeric fuel")
        })
        .max()
        .expect("the run striped")
}

#[test]
fn budgets_at_the_stripe_fuel_edge_decide_deterministically() {
    let db = generate::random_gnm(61, 120, &["a", "b"], 8);
    let engine = Engine::new(
        db.clone(),
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    let q = engine.parse("a (b|a-)*").unwrap();
    let expect = q.evaluate(&db);
    let edge = max_stripe_fuel(&engine, &q);
    for (fuel, fits) in [(edge - 1, false), (edge, true)] {
        let limits = Limits::unlimited().with_fuel(fuel);
        for run in 0..20 {
            engine.clear_cache();
            match engine.run_with(&q, &limits, None) {
                Ok(r) => {
                    assert!(fits, "fuel {fuel} of {edge}, run {run}: answered");
                    assert_eq!(*r.answer, expect);
                }
                Err(EngineError::Exhausted(e)) => {
                    assert!(!fits, "fuel {fuel} of {edge}, run {run}: {e}");
                    assert_eq!((e.resource, e.limit), (Resource::Fuel, fuel), "run {run}");
                }
                Err(e) => panic!("fuel {fuel}, run {run}: {e}"),
            }
        }
    }
}

#[test]
fn an_unrepresentable_deadline_never_trips_and_caches_the_full_answer() {
    let db = generate::random_gnm(30, 90, &["a", "b"], 7);
    let engine = Engine::new(
        db.clone(),
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    let q = engine.parse("a+").unwrap();
    let expect = q.evaluate(&db);
    assert!(!expect.is_empty());
    // `Instant::now() + Duration::MAX` overflows: the deadline must act as
    // no deadline, not fail the stripes.
    let far = Limits::unlimited().with_deadline(std::time::Duration::MAX);
    let got = engine
        .run_with(&q, &far, None)
        .expect("a deadline past the end of time never trips");
    assert_eq!(got.disposition, Disposition::Miss);
    assert_eq!(*got.answer, expect);
    let again = engine.run(&q).expect("unlimited budgets never trip");
    assert_eq!(again.disposition, Disposition::Exact);
    assert_eq!(*again.answer, expect);
}

#[test]
fn concurrent_callers_match_sequential() {
    let db = generate::random_gnm(120, 480, &["a", "b"], 42);
    let engine = Engine::new(
        db.clone(),
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    // Every forward word of length 4 or 5: 48 queries, pairwise
    // incomparable, so no cached answer can serve another.
    let words: Vec<String> = (4..=5)
        .flat_map(|len| {
            (0..1u32 << len).map(move |bits| {
                let letters: Vec<&str> = (0..len)
                    .map(|i| if bits >> i & 1 == 0 { "a" } else { "b" })
                    .collect();
                letters.join(" ")
            })
        })
        .collect();
    // Four callers with six distinct words each: 24 keys, all of which fit
    // in the default cache.
    let callers: Vec<Vec<_>> = (0..4)
        .map(|t| {
            words
                .iter()
                .skip(t)
                .step_by(8)
                .map(|w| {
                    let q = engine.parse(w).unwrap();
                    let expect = q.evaluate(&db);
                    (q, expect)
                })
                .collect()
        })
        .collect();
    // The first pass evaluates cold, with every caller striping over the
    // same two workers at once; the second pass is served from the cache.
    let start = std::sync::Barrier::new(callers.len());
    for pass in [Disposition::Miss, Disposition::Exact] {
        std::thread::scope(|s| {
            for queries in &callers {
                let (engine, start) = (&engine, &start);
                s.spawn(move || {
                    start.wait();
                    for (q, expect) in queries {
                        let got = engine.run(q).expect("unlimited budgets never trip");
                        assert_eq!(got.disposition, pass);
                        assert_eq!(*got.answer, *expect);
                    }
                });
            }
        });
    }
}

/// Sample count: `PROPTEST_CASES` or 32.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// One traced run of `q`: its result and the `automaton` field of its
/// `engine.eval` span.
fn run_traced(engine: &Engine, q: &TwoRpq) -> (QueryResult, String) {
    use regular_queries::metrics::span::{self, TraceContext};
    let ctx = TraceContext::start();
    let result = {
        let _g = span::install(&ctx, 0);
        engine.run(q).expect("unlimited budgets never trip")
    };
    let trace = ctx.finish("ok", "");
    let eval = trace
        .spans
        .iter()
        .find(|s| s.name == "engine.eval")
        .expect("the run evaluated");
    let (_, kind) = eval
        .fields
        .iter()
        .find(|(k, _)| *k == "automaton")
        .expect("automaton field");
    (result, kind.clone())
}

#[test]
fn compiled_automaton_answers_match_sequential() {
    let (mut dfa_runs, mut subsumed_hits, mut starved_keys) = (0, 0, 0);
    for case in 0..cases() {
        let mut rng = SplitMix64::new(case ^ 0xC0DE);
        let nodes = rng.range(2, 40);
        let db = generate::random_gnm(nodes, rng.range(1, 3 * nodes), &["a", "b"], case);
        let cfg = RegexConfig {
            num_labels: 2,
            inverse_prob: 0.3,
            leaves: rng.range(1, 7),
            repeat_prob: 0.3,
        };
        let q = TwoRpq::new(random_regex(&mut rng, &cfg));
        let expect = q.evaluate(&db);
        let config = EngineConfig {
            threads: rng.range(1, 3),
            ..EngineConfig::default()
        };
        let engine = Engine::new(db.clone(), config.clone());
        // A cold miss.
        let (miss, kind) = run_traced(&engine, &q);
        assert_eq!(miss.disposition, Disposition::Miss, "case {case}");
        assert_eq!(*miss.answer, expect, "case {case}: miss");
        dfa_runs += usize::from(kind == "dfa");
        // A subsumed hit, filtered from the Σ±* superset.
        engine.clear_cache();
        engine.run(&engine.parse("(a|b|a-|b-)*").unwrap()).unwrap();
        let got = engine.run(&q).expect("unlimited budgets never trip");
        assert_eq!(*got.answer, expect, "case {case}: {}", got.disposition);
        subsumed_hits += usize::from(got.disposition == Disposition::Subsumed);
        // A key budget of 1 fuel: when keying runs out, the miss
        // evaluates the query's NFA. Without pre-flight the engine
        // compiles `q` itself.
        let mut starved = config;
        starved.preflight = false;
        starved.cache.key_limits = Limits::unlimited().with_fuel(1);
        let al = engine.alphabet();
        let compiled = CompiledQuery::new(&q, &al, &starved.cache.key_limits.governor());
        let (got, kind) = run_traced(&Engine::new(db, starved), &q);
        assert_eq!(*got.answer, expect, "case {case}: starved key");
        if compiled.cache_key().starts_with("re:") {
            assert_eq!(kind, "nfa", "case {case}");
            starved_keys += 1;
        }
    }
    let n = cases() as usize;
    assert!(dfa_runs > n / 2, "{dfa_runs} of {n} misses ran the DFA");
    assert!(subsumed_hits > n / 2, "{subsumed_hits} of {n} subsumed");
    assert!(starved_keys > n / 2, "{starved_keys} of {n} keys starved");
}
