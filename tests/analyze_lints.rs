//! Golden and property tests for the `rq-analyze` lint subsystem.
//!
//! Golden: every rule id documented in [`RULES`] fires on a crafted
//! trigger with the severity the table promises, and reports survive a
//! JSON round-trip. Property: the engine pre-flight normalizer is
//! answer-preserving — for seeded-random queries the normalized query is
//! *equivalent* to the original, certified by the exact 2NFA containment
//! check in both directions, lint-clean queries are left untouched, and
//! RQA006/RQA007 split the same queries exactly on inverse letters.

use regular_queries::analyze::{
    lint_program, lint_two_rpq, lint_uc2rpq, preflight, PreflightAction, Report, Severity, RULES,
};
use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::automata::{Alphabet, Limits, Regex};
use regular_queries::core::containment::two_rpq;
use regular_queries::core::query_text::parse_uc2rpq;
use regular_queries::core::TwoRpq;
use regular_queries::datalog::parser::parse_program_spanned;
use std::collections::BTreeMap;

fn lint_rpq(text: &str) -> Report {
    let mut al = Alphabet::new();
    let q = TwoRpq::parse(text, &mut al).unwrap();
    lint_two_rpq(&q, &al, &Limits::default())
}

fn lint_cq(text: &str) -> Report {
    let mut al = Alphabet::new();
    let q = parse_uc2rpq(text, &mut al).unwrap();
    lint_uc2rpq(&q, &al, &Limits::default(), None)
}

fn lint_dl(text: &str, goal: Option<&str>) -> Report {
    let sp = parse_program_spanned(text).unwrap();
    lint_program(&sp.program, Some(&sp.spans), goal)
}

/// One crafted trigger per documented rule. The RQA002/RQA003 triggers
/// are raw-constructed: the text parser's smart constructors erase ∅
/// branches before the linter ever sees them.
fn golden_reports() -> Vec<(&'static str, Report)> {
    let raw_vacuous = {
        let mut al = Alphabet::new();
        let a = TwoRpq::parse("a", &mut al).unwrap().regex().clone();
        let b = TwoRpq::parse("b", &mut al).unwrap().regex().clone();
        let q = TwoRpq::new(Regex::Union(vec![a, Regex::Concat(vec![b, Regex::Empty])]));
        lint_two_rpq(&q, &al, &Limits::default())
    };
    vec![
        ("RQA001", lint_rpq("a ∅ b")),
        ("RQA002", raw_vacuous.clone()),
        ("RQA003", raw_vacuous),
        ("RQA004", lint_rpq("a a- a")),
        ("RQA005", lint_rpq("a | a?")),
        ("RQA006", lint_rpq("a (a|b)*")),
        ("RQA007", lint_rpq("a b-")),
        ("RQC001", lint_cq("Q(x, y) :- [a ∅](x, y).")),
        ("RQC002", lint_cq("Q(x, z) :- [a](x, y), [b](z, w).")),
        (
            "RQC003",
            lint_cq("Q(x, y) :- [a](x, y).\nQ(x, y) :- [a](x, y)."),
        ),
        (
            "RQC004",
            lint_cq("Q(x, y) :- [a](x, y).\nQ(x, y) :- [a|b](x, y)."),
        ),
        ("RQD001", lint_dl("P(X, Y) :- E(X, Z).", None)),
        (
            "RQD002",
            lint_dl("P(X, Y) :- E(X, Y).\nAns(X) :- P(X).", None),
        ),
        (
            "RQD003",
            lint_dl(
                "Ans(X, Y) :- E(X, Y).\nOrphan(X, Y) :- E(X, Y).",
                Some("Ans"),
            ),
        ),
        (
            "RQD004",
            lint_dl(
                "Ans(X, Y) :- E(X, Y).\nDead(X, Y) :- E(X, Y).\nDeader(X, Y) :- Dead(X, Y).",
                Some("Ans"),
            ),
        ),
        (
            "RQD005",
            lint_dl("Q(X) :- E(X, Y), P(Y).\nQ(X) :- E(X, Y), Q(Y).", Some("Q")),
        ),
        (
            "RQD006",
            lint_dl(
                "Tc(X, Y) :- E(X, Y).\nTc(X, Z) :- Tc(X, Y), E(Y, Z).",
                Some("Tc"),
            ),
        ),
        ("RQD007", lint_dl("P(X, Y) :- E(X, Y).", Some("Answer"))),
    ]
}

#[test]
fn every_documented_rule_fires_on_its_golden_trigger() {
    let mut fired: BTreeMap<String, Severity> = BTreeMap::new();
    for (id, report) in golden_reports() {
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == id)
            .unwrap_or_else(|| panic!("{id} did not fire: {:?}", report.diagnostics));
        fired.insert(d.rule.clone(), d.severity);
    }
    assert_eq!(fired.len(), RULES.len(), "one golden trigger per rule");
    for info in RULES {
        let severity = fired
            .get(info.id)
            .unwrap_or_else(|| panic!("no golden trigger fired {}", info.id));
        assert_eq!(
            *severity, info.severity,
            "{} fires with the severity the table documents",
            info.id
        );
    }
    // The acceptance floor for the CLI: well over 8 distinct rule ids.
    assert!(fired.len() >= 8);
}

#[test]
fn golden_reports_round_trip_through_json() {
    for (id, report) in golden_reports() {
        let text = report.to_json().emit();
        let back = Report::from_json_text(&text)
            .unwrap_or_else(|e| panic!("{id} report re-parses: {e}\n{text}"));
        assert_eq!(back, report, "{id} round-trips");
    }
}

/// Certify q1 ≡ q2 with the *exact* 2NFA check (not the quick ladder the
/// normalizer itself uses), in both directions.
fn assert_equivalent(q1: &TwoRpq, q2: &TwoRpq, al: &Alphabet, context: &str) {
    for (a, b, dir) in [(q1, q2, "⊑"), (q2, q1, "⊒")] {
        let out = two_rpq::check(a, b, al);
        assert!(
            out.is_contained(),
            "{context}: expected {} {dir} {} but got {out}",
            a.regex().display(al),
            b.regex().display(al),
        );
    }
}

#[test]
fn preflight_normalization_preserves_equivalence_on_random_queries() {
    let al = Alphabet::from_names(["a", "b", "c"]);
    let limits = Limits::default();
    let cfg = RegexConfig {
        num_labels: 3,
        inverse_prob: 0.3,
        leaves: 6,
        repeat_prob: 0.3,
    };
    let mut rng = SplitMix64::new(0x5eed_2026);
    let (mut rewritten, mut routes) = (0, [0; 2]);
    for i in 0..60 {
        let base = random_regex(&mut rng, &cfg);
        // Bias toward top-level unions (the only shape pre-flight
        // rewrites) by unioning two independent draws on odd iterations.
        let regex = if i % 2 == 1 {
            Regex::union([base, random_regex(&mut rng, &cfg)])
        } else {
            base
        };
        let q = TwoRpq::new(regex);
        // RQA006 fires on every one-way query and RQA007 on every query
        // that reads an inverse letter: the one bit the ladder routes on.
        let report = lint_two_rpq(&q, &al, &limits);
        let fired = |id: &str| report.diagnostics.iter().any(|d| d.rule == id);
        let one_way = q.is_forward_only();
        assert_eq!(
            (fired("RQA006"), fired("RQA007")),
            (one_way, !one_way),
            "iteration {i}: {}",
            q.regex().display(&al)
        );
        routes[one_way as usize] += 1;
        let p = preflight(&q, &al, &limits);
        assert_ne!(
            p.action,
            PreflightAction::Empty,
            "random_regex never generates ∅: {}",
            q.regex().display(&al)
        );
        assert_equivalent(&q, &p.query, &al, &format!("iteration {i}"));
        if p.action == PreflightAction::Rewritten {
            rewritten += 1;
            // The satellite contract: lint-clean queries are fixed points
            // of the normalizer, so anything rewritten must have lint
            // findings (at least the RQA005 that justified the drop).
            assert!(
                fired("RQA005"),
                "rewritten without RQA005: {}",
                q.regex().display(&al)
            );
        }
    }
    assert!(rewritten > 0, "the biased draws should hit some rewrites");
    assert!(
        routes.iter().all(|&n| n > 0),
        "both routes drawn: {routes:?}"
    );
}

#[test]
fn lint_clean_queries_are_normalizer_fixed_points() {
    // Hand-picked lint-clean queries, including paper shapes (§2.1–§2.2).
    // "Clean" means no warning-or-worse finding: the info-level
    // RQA006/RQA007 ladder-route note fires on every query by design and
    // never implies a rewrite.
    let mut al = Alphabet::from_names(["a", "b"]);
    for text in [
        "a",
        "(a|b)*",
        "a b- a*",
        "a+ (b | a b)",
        "a | b",
        "(a b)+ | b+",
    ] {
        let q = TwoRpq::parse(text, &mut al).unwrap();
        let report = lint_two_rpq(&q, &al, &Limits::default());
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.severity == Severity::Info),
            "{text}: {:?}",
            report.diagnostics
        );
        let p = preflight(&q, &al, &Limits::default());
        assert_eq!(p.action, PreflightAction::Unchanged, "{text}");
        assert_eq!(p.query.regex(), q.regex(), "{text}");
    }
}
