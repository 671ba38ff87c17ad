//! Differential suite pinning the `check_quick` ladder on the simple
//! fragment (SCRPQs) against the exact 2NFA checker.
//!
//! Simple-fragment queries are one-way by construction, so the ladder
//! decides every such pair at its Lemma 1 rung (the `ladder.simple`
//! span): one product of `Q1`'s NFA with `Q2`'s minimal DFA, polynomial
//! in their sizes. The rung's claim is strong — *exact in both
//! directions, never `Unknown`* — and rests on the forward-only word
//! semantics argument, not on machinery shared with the exact checker.
//! So we generate random simple-fragment regexes (concatenations of
//! letters, letter disjunctions, starred/plus'd disjunctions over up to
//! three labels), classify them, and compare [`check_quick`] against
//! [`two_rpq::check`] in both directions on every pair. The suite
//! scales with `PROPTEST_CASES` like the metamorphic suite; at the
//! default 32 cases it compares 32 × 32 = 1024 pairs (2048 directed
//! checks), which covers the acceptance floor of ≥1000 generated pairs
//! with zero disagreements. Failures reproduce from the printed trial
//! number. `tests/lemma1_differential.rs` also compares one-way pairs
//! outside the fragment and two-way left-hand sides.

use regular_queries::automata::random::SplitMix64;
use regular_queries::automata::simple::classify;
use regular_queries::automata::{Alphabet, LabelId, Letter, Limits, Regex};
use regular_queries::core::containment::facade::check_quick;
use regular_queries::core::containment::two_rpq;
use regular_queries::core::TwoRpq;
use regular_queries::metrics::span::{self, TraceContext};

/// Per-property sample count: `PROPTEST_CASES` or 32.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// A random regex built from simple-fragment atoms only: each atom is a
/// letter or a 2-letter disjunction, optionally starred or plus'd.
/// Zero atoms yields ε. Kept tiny (≤4 atoms, ≤3 labels) so the exact
/// 2NFA reference stays fast in debug builds while still exercising the
/// interesting overlaps (`a a* ⊑ a* a`, nullable suffixes, shared
/// letters between D and St atoms).
fn random_simple_regex(rng: &mut SplitMix64) -> Regex {
    let n_atoms = rng.below(5);
    let mut parts = Vec::new();
    for _ in 0..n_atoms {
        let first = rng.below(3) as u32;
        let base = if rng.chance(0.4) {
            let second = (first + 1 + rng.below(2) as u32) % 3;
            Regex::letter(Letter::forward(LabelId(first)))
                .or(Regex::letter(Letter::forward(LabelId(second))))
        } else {
            Regex::letter(Letter::forward(LabelId(first)))
        };
        parts.push(match rng.below(3) {
            0 => base,
            1 => base.star(),
            _ => base.plus(),
        });
    }
    Regex::concat(parts)
}

#[test]
fn polynomial_checker_agrees_with_the_exact_checker_on_generated_pairs() {
    let al = Alphabet::from_names(["a", "b", "c"]);
    let mut rng = SplitMix64::new(0x51AB_1E00);
    let mut compared = 0usize;
    let mut escalated = 0usize;
    let (mut contained, mut not_contained) = (0usize, 0usize);
    for trial in 0..cases() {
        for pair in 0..32 {
            let r1 = random_simple_regex(&mut rng);
            let r2 = random_simple_regex(&mut rng);
            classify(&r1).expect("generator stays in the fragment");
            classify(&r2).expect("generator stays in the fragment");
            let q1 = TwoRpq::new(r1);
            let q2 = TwoRpq::new(r2);
            compared += 1;
            for (dir, ql, qr) in [("⊑", &q1, &q2), ("⊒", &q2, &q1)] {
                let ctx = TraceContext::start();
                let fast = {
                    let _g = span::install(&ctx, 0);
                    check_quick(ql, qr, &al, &Limits::unlimited())
                };
                let trace = ctx.finish("ok", "");
                if trace.spans.iter().any(|s| s.name == "ladder.full_check") {
                    escalated += 1;
                }
                let exact = two_rpq::check(ql, qr, &al);
                assert_eq!(
                    fast.decided(),
                    exact.decided(),
                    "trial {trial} pair {pair} {dir}: fast says {fast}, exact says {exact} \
                     for {:?} vs {:?}",
                    ql.regex(),
                    qr.regex()
                );
                assert!(
                    fast.decided().is_some(),
                    "trial {trial} pair {pair} {dir}: the simple rung must never be Unknown"
                );
                match fast.decided() {
                    Some(true) => contained += 1,
                    Some(false) => not_contained += 1,
                    None => unreachable!(),
                }
                // Every refutation carries a witness the *queries* (not
                // just the word languages) re-verify by evaluation.
                if let Some(w) = fast.witness() {
                    assert!(
                        ql.contains_pair(&w.db, w.tuple[0], w.tuple[1]),
                        "trial {trial} pair {pair} {dir}: witness not in Q1"
                    );
                    assert!(
                        !qr.contains_pair(&w.db, w.tuple[0], w.tuple[1]),
                        "trial {trial} pair {pair} {dir}: witness in Q2"
                    );
                }
            }
        }
    }
    assert!(
        compared >= 1000,
        "acceptance floor: ≥1000 generated pairs, got {compared}"
    );
    assert_eq!(
        escalated, 0,
        "simple-fragment pairs must never reach the exact stage"
    );
    // The generator must exercise both verdicts, or agreement is vacuous.
    assert!(contained > 50, "only {contained} contained verdicts");
    assert!(
        not_contained > 50,
        "only {not_contained} not-contained verdicts"
    );
}

#[test]
fn quick_ladder_routes_simple_pairs_without_disagreement() {
    // End-to-end: the full ladder (which decides these pairs at the
    // simple rung) agrees with the exact checker too — the rung is a
    // drop-in, not a semantic change.
    let al = Alphabet::from_names(["a", "b", "c"]);
    let mut rng = SplitMix64::new(0x51AB_1E01);
    for trial in 0..cases() {
        let q1 = TwoRpq::new(random_simple_regex(&mut rng));
        let q2 = TwoRpq::new(random_simple_regex(&mut rng));
        let quick = check_quick(&q1, &q2, &al, &Limits::unlimited());
        let exact = two_rpq::check(&q1, &q2, &al);
        assert_eq!(
            quick.decided(),
            exact.decided(),
            "trial {trial}: ladder says {quick}, exact says {exact} for {:?} vs {:?}",
            q1.regex(),
            q2.regex()
        );
    }
}
