//! Adversarial inputs that would run for seconds-to-hours ungoverned.
//!
//! Each family is driven under a 50ms wall-clock deadline and must
//! (a) come back as a structured `Exhaustion` / `Outcome::Unknown`, never a
//! panic, and (b) actually honor the deadline: the governor polls the clock
//! amortized (every 256 fuel ticks / 64 constructed states), so the
//! observed overshoot must stay under 2× the deadline.

use regular_queries::automata::complement2::vardi_complement_governed;
use regular_queries::automata::twonfa::TwoNfa;
use regular_queries::core::containment::two_rpq;
use regular_queries::datalog::{evaluate_governed, parse_program, FactDb, Query as DatalogQuery};
use regular_queries::prelude::*;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(50);

/// The run must stop promptly once the deadline fires: poll cadence is
/// fine-grained enough that even 2× the deadline is a generous ceiling.
fn assert_prompt(start: Instant, what: &str) {
    let elapsed = start.elapsed();
    assert!(
        elapsed < DEADLINE * 2,
        "{what} overshot the {DEADLINE:?} deadline: ran for {elapsed:?}"
    );
}

/// Nested-star 2RPQs whose containment needs the checker to track which of
/// the last 13 positions carried which letter — the product space is
/// exponential in the padding length, and containment fails only at full
/// depth, so BFS cannot exit early.
fn position_counting_pair() -> (TwoRpq, TwoRpq, Alphabet) {
    let mut al = Alphabet::new();
    let pad = " (a|b)".repeat(12);
    let q1 = TwoRpq::parse(&format!("((a|b)*)* a{pad}"), &mut al).expect("valid 2RPQ");
    let q2 = TwoRpq::parse(&format!("((a|b)*)* b{pad}"), &mut al).expect("valid 2RPQ");
    (q1, q2, al)
}

#[test]
fn nested_star_two_rpq_deadline_is_honored() {
    let (q1, q2, al) = position_counting_pair();
    let gov = Limits::unlimited().with_deadline(DEADLINE).governor();
    let start = Instant::now();
    let res = two_rpq::check_governed(&q1, &q2, &al, &gov);
    assert_prompt(start, "nested-star 2RPQ containment");
    let e = res.expect_err("position-counting instance cannot finish in 50ms");
    assert_eq!(e.resource, Resource::Deadline);
    assert!(
        e.counters.fuel_spent > 0,
        "some search happened before the cutoff"
    );

    // The same exhaustion surfaces as a structured Unknown outcome.
    let out = Outcome::exhausted(e);
    let report = out.report().expect("exhausted outcomes carry a report");
    assert_eq!(
        report.exhaustion.as_ref().map(|x| x.resource),
        Some(Resource::Deadline)
    );
}

#[test]
fn nested_star_two_rpq_fuel_cap_never_panics() {
    let (q1, q2, al) = position_counting_pair();
    for fuel in [1u64, 10, 100, 1_000, 10_000] {
        let gov = Limits::unlimited().with_fuel(fuel).governor();
        let e = two_rpq::check_governed(&q1, &q2, &al, &gov)
            .expect_err("the instance needs far more than 10k fuel");
        assert_eq!(e.resource, Resource::Fuel, "fuel cap {fuel}");
        assert!(e.counters.fuel_spent >= fuel, "fuel cap {fuel}");
    }
}

/// The chain 2NFA for `a^k` (k+1 states) — the Lemma 4 complement on it
/// enumerates subset *pairs* of its state set, a `2^O(k)` space.
fn chain_twonfa(k: usize) -> TwoNfa {
    let a = Letter::forward(LabelId(0));
    let mut n = Nfa::with_states(k + 1);
    n.set_initial(0);
    n.set_final(k);
    for i in 0..k {
        n.add_transition(i, a, i + 1);
    }
    TwoNfa::from_nfa(&n)
}

#[test]
fn exponential_complementation_deadline_is_honored() {
    let m = chain_twonfa(14); // 15 states → subset-pair space 2^30
    let a = Letter::forward(LabelId(0));
    let gov = Limits::unlimited().with_deadline(DEADLINE).governor();
    let start = Instant::now();
    let e = vardi_complement_governed(&m, &[a], &gov)
        .expect_err("the full subset-pair construction cannot finish in 50ms");
    assert_prompt(start, "Lemma 4 complementation");
    assert_eq!(e.resource, Resource::Deadline);
}

#[test]
fn exponential_complementation_state_cap_never_panics() {
    let m = chain_twonfa(14);
    let a = Letter::forward(LabelId(0));
    let gov = Limits::unlimited().with_states(1_000).governor();
    let e =
        vardi_complement_governed(&m, &[a], &gov).expect_err("2^30 pair states exceed a 1k cap");
    assert_eq!(e.resource, Resource::States);
    assert!(e.counters.states_constructed >= 1_000);
}

/// Transitive closure of an n-node chain derives Θ(n²) tuples; at n = 2000
/// that is ~2M tuples, far beyond what 50ms of semi-naive rounds can do.
fn long_chain_tc() -> (DatalogQuery, FactDb) {
    let program = parse_program(
        "T(X, Y) :- e(X, Y).\n\
         T(X, Z) :- T(X, Y), e(Y, Z).",
    )
    .expect("valid program");
    let mut db = FactDb::new();
    for i in 0..2000u32 {
        db.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    (DatalogQuery::new(program, "T"), db)
}

#[test]
fn quadratic_datalog_deadline_is_honored() {
    let (q, db) = long_chain_tc();
    let gov = Limits::unlimited().with_deadline(DEADLINE).governor();
    let start = Instant::now();
    let e = evaluate_governed(&q, &db, &gov).expect_err("quadratic closure cannot finish in 50ms");
    assert_prompt(start, "quadratic Datalog evaluation");
    assert_eq!(e.resource, Resource::Deadline);
    assert!(
        e.counters.tuples_derived > 0,
        "partial progress is reported even on abort"
    );
}

#[test]
fn quadratic_datalog_tuple_cap_never_panics() {
    let (q, db) = long_chain_tc();
    let gov = Limits::unlimited().with_tuples(10_000).governor();
    let e = evaluate_governed(&q, &db, &gov).expect_err("~2M tuples exceed a 10k cap");
    assert_eq!(e.resource, Resource::Tuples);
    assert!(e.counters.tuples_derived >= 10_000);
}

/// A deadline that fires *while a cached subsumption hit is re-evaluating*
/// (the `Lookup::Subsumed` path re-runs the product BFS restricted to the
/// superset's sources) must surface as a structured exhaustion — and must
/// not corrupt the cache entry it was filtering against.
#[test]
fn timeout_mid_subsumption_reevaluation_is_structured() {
    use regular_queries::graph::generate;
    let db = generate::random_gnm(800, 3200, &["a", "b"], 13);
    let eng = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    // Seed the cache with the superset query.
    let big = eng.parse("(a|b)+").expect("valid 2RPQ");
    assert_eq!(
        eng.run(&big).expect("seeding run").disposition,
        Disposition::Miss
    );
    // The subsumed query now answers by re-evaluation; a microsecond
    // deadline trips inside that re-evaluation at the first governor poll.
    let small = eng.parse("a+").expect("valid 2RPQ");
    let tiny = Limits::unlimited().with_deadline(Duration::from_micros(1));
    let start = Instant::now();
    let err = eng
        .run_with(&small, &tiny, None)
        .expect_err("1µs is not enough for an 800-node re-evaluation");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "exhaustion must be prompt, ran {:?}",
        start.elapsed()
    );
    match err {
        EngineError::Exhausted(e) => assert_eq!(e.resource, Resource::Deadline),
        other => panic!("expected a deadline exhaustion, got {other:?}"),
    }
    // The cached superset entry survived: the same query, ungoverned, is
    // still a subsumption hit with correct answers.
    let ok = eng.run(&small).expect("ungoverned re-run");
    assert_eq!(ok.disposition, Disposition::Subsumed);
    assert_eq!(*ok.answer, small.evaluate(&eng.db()));
}

/// `a (a|b)ⁿ | (a|b)* a (a|b)ⁿ` at n = 20, 252 bytes of text. Its second
/// branch needs 2ⁿ⁺¹ subset states, and its first branch is contained in
/// it, so any unmetered language-level rewrite of the union (branch
/// absorption, subset construction) runs for seconds to hours.
fn hostile_union() -> String {
    let pad = " (a|b)".repeat(20);
    let text = format!("a{pad} | (a|b)* a{pad}");
    assert_eq!(text.len(), 252);
    text
}

#[test]
fn hostile_union_is_served_within_its_deadline_without_blocking_hits() {
    use regular_queries::graph::generate;
    let db = generate::random_gnm(30, 90, &["a", "b"], 7);
    let eng = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    let hot = eng.parse("a b").expect("valid 2RPQ");
    assert_eq!(
        eng.run(&hot).expect("seeding run").disposition,
        Disposition::Miss
    );
    let hostile = eng.parse(&hostile_union()).expect("valid 2RPQ");
    let deadline = Limits::unlimited().with_deadline(Duration::from_millis(100));
    std::thread::scope(|s| {
        let served = s.spawn(|| {
            let start = Instant::now();
            let result = eng.run_with(&hostile, &deadline, None);
            (result, start.elapsed())
        });
        // An exact hit sent while the hostile query is being served must
        // not queue behind it.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let hit = eng.run(&hot).expect("exact hit");
        let waited = start.elapsed();
        assert_eq!(hit.disposition, Disposition::Exact);
        assert!(
            waited < Duration::from_secs(1),
            "the exact hit took {waited:?}"
        );
        let (result, elapsed) = served.join().expect("no panic");
        assert!(
            elapsed < Duration::from_secs(2),
            "the 100ms request ran for {elapsed:?}"
        );
        match result {
            Ok(r) => assert_eq!(*r.answer, hostile.evaluate(&eng.db())),
            Err(EngineError::Exhausted(_)) => {}
            Err(other) => panic!("expected an answer or an exhaustion, got {other:?}"),
        }
    });
}

#[test]
fn hostile_union_lints_within_the_probe_budget() {
    let mut al = Alphabet::new();
    let text = format!("({}) c | d", hostile_union());
    let q = TwoRpq::parse(&text, &mut al).expect("valid 2RPQ");
    let limits = regular_queries::engine::CacheConfig::default().probe_limits;
    let start = Instant::now();
    let report = regular_queries::analyze::lint_two_rpq(&q, &al, &limits);
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(2), "lint ran for {elapsed:?}");
    assert!(!report.diagnostics.is_empty(), "the info lints still fire");
}
