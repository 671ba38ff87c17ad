//! End-to-end trace assertions: serving a cache-subsumed query under an
//! installed `TraceContext` must yield a span tree showing the whole
//! request anatomy — preflight verdict, cache disposition, the probe
//! ladder stage that decided the subsumption, and the superset
//! re-evaluation's frontier work — each stage annotated with its fuel
//! and duration. This is the profile `rqtool explain` and the serve
//! `explain: true` option render; the rendering itself is covered here
//! too, plus the exemplar link from the engine latency histogram back to
//! the request's trace id.

use regular_queries::core::TwoRpq;
use regular_queries::engine::{Disposition, Engine, EngineConfig};
use regular_queries::graph::generate;
use regular_queries::metrics::span::{self, FinishedTrace, SpanRecord, TraceContext};
use regular_queries::metrics::{global, Value};

fn field<'a>(s: &'a SpanRecord, key: &str) -> Option<&'a str> {
    s.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

fn span_named<'a>(t: &'a FinishedTrace, name: &str) -> &'a SpanRecord {
    t.spans.iter().find(|s| s.name == name).unwrap_or_else(|| {
        let names: Vec<_> = t.spans.iter().map(|s| s.name).collect();
        panic!("no span named {name}; got {names:?}")
    })
}

#[test]
fn subsumed_query_traces_every_stage() {
    let db = generate::random_gnm(16, 40, &["p", "q"], 7);
    let mut al = db.alphabet().clone();
    let superset = TwoRpq::parse("p*", &mut al).unwrap();
    let subset = TwoRpq::parse("p p", &mut al).unwrap();
    let engine = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    // Seed the cache with the superset's answer (a miss), untraced.
    assert_eq!(
        engine.run(&superset).unwrap().disposition,
        Disposition::Miss
    );

    // Serve the subsumed query under a trace.
    let ctx = TraceContext::start();
    let result = {
        let _g = span::install(&ctx, 0);
        engine.run(&subset).unwrap()
    };
    assert_eq!(result.disposition, Disposition::Subsumed);
    let trace = ctx.finish("ok", "p p");

    // The top-level engine span carries the disposition and answer size.
    let run = span_named(&trace, "engine.run");
    assert_eq!(run.parent, None);
    assert_eq!(field(run, "disposition"), Some("subsumed"));
    assert_eq!(
        field(run, "pairs"),
        Some(result.answer.len().to_string().as_str())
    );

    // Preflight ran under it and left the query alone.
    let preflight = span_named(&trace, "analyze.preflight");
    assert_eq!(field(preflight, "action"), Some("unchanged"));

    // The cache lookup decided "subsumed" via a contained probe…
    let lookup = span_named(&trace, "cache.lookup");
    assert_eq!(field(lookup, "disposition"), Some("subsumed"));
    let contained_probe = trace
        .spans
        .iter()
        .find(|s| s.name == "cache.probe" && field(s, "verdict") == Some("contained"))
        .expect("a probe proved p p ⊑ p*");
    assert_eq!(contained_probe.parent, Some(lookup.id));
    assert!(field(contained_probe, "fuel").is_some());

    // …whose deciding ladder rung (the Lemma 1 rung, span `ladder.simple`
    // — `p*` is one-way, so the probe never reaches the exact 2NFA
    // stage) is a child span annotated with verdict and explored state
    // count.
    let simple = trace
        .spans
        .iter()
        .find(|s| {
            s.name == "ladder.simple"
                && s.parent == Some(contained_probe.id)
                && field(s, "verdict") == Some("contained")
        })
        .expect("the simple rung decided the probe");
    assert!(
        field(simple, "states")
            .and_then(|f| f.parse::<u64>().ok())
            .is_some(),
        "deciding rung records its explored states"
    );
    assert!(
        !trace.spans.iter().any(|s| s.name == "ladder.full_check"),
        "a probe into a one-way query never escalates to the exact checker"
    );

    // The superset re-evaluation shows up as eval → stripe → BFS spans
    // with fuel attributed to the frontier work.
    let eval = span_named(&trace, "engine.eval");
    assert!(field(eval, "sources").is_some());
    let stripe = span_named(&trace, "engine.stripe");
    assert_eq!(stripe.parent, Some(eval.id));
    let bfs = trace
        .spans
        .iter()
        .find(|s| s.name == "frontier.bfs")
        .expect("superset re-evaluation ran a frontier BFS");
    assert_eq!(bfs.parent, Some(stripe.id));
    for key in ["expanded", "frontier_peak", "fuel"] {
        assert!(field(bfs, key).is_some(), "frontier span missing {key}");
    }

    // Every span is timed and the tree renders as a per-stage profile.
    let rendered = trace.render();
    for needle in [
        "engine.run",
        "analyze.preflight",
        "disposition=subsumed",
        "cache.probe",
        "ladder.simple",
        "frontier.bfs",
        "fuel by stage:",
        "µs",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }

    // The engine latency histogram links back to this trace id.
    let snap = global().snapshot();
    let Some(Value::Histogram(h)) = snap.get("rq_engine_query_latency_us", &[]) else {
        panic!("latency histogram not registered");
    };
    assert!(
        h.exemplars
            .iter()
            .flatten()
            .any(|(id, _)| *id == trace.trace_id),
        "no exemplar links the latency histogram to the traced request"
    );
}

#[test]
fn untraced_requests_record_no_spans() {
    let db = generate::random_gnm(8, 16, &["p"], 3);
    let mut al = db.alphabet().clone();
    let q = TwoRpq::parse("p+", &mut al).unwrap();
    let engine = Engine::new(db, EngineConfig::default());
    // No context installed: serving works identically, nothing to finish.
    assert!(engine.run(&q).is_ok());
    assert!(span::current_trace_id().is_none());
}
