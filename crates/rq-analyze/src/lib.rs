//! # rq-analyze
//!
//! Static analysis and lint passes for the regular-query tower. The
//! paper's containment machinery (Lemmas 1–4, Theorems 5–8, the §4.1
//! RQ-in-Datalog classifier) is itself static analysis of queries; this
//! crate turns those decision procedures into developer-facing
//! diagnostics instead of only yes/no containment answers.
//!
//! Three pass families, one per query class:
//!
//! * [`rpq::lint_two_rpq`] — automata-level lints on (2)RPQs: empty
//!   language, vacuous union branches, dead letter occurrences (via a
//!   position automaton), fold-redundant inverse detours (Lemma 2), and
//!   union branches subsumed by siblings (decided with the containment
//!   facade's `check_quick`), plus an info note naming the ladder stage
//!   that decides probes into the query (one-way or not).
//! * [`cq::lint_uc2rpq`] — conjunctive-level lints on UC2RPQs:
//!   unsatisfiable atoms, disconnected body variables, duplicate and
//!   subsumed disjuncts.
//! * [`datalog::lint_program`] — Datalog lints over the dependency
//!   graph: unsafe rules, arity clashes, unused predicates, unreachable
//!   rules, and the §4.1 classifier reporting whether recursion is
//!   transitive-closure-only (decidable containment, Theorem 8) with the
//!   offending rule pinpointed when not.
//!
//! [`normalize::preflight`] is the engine-facing entry point: it
//! short-circuits provably-empty queries and drops union branches that a
//! sibling subsumes, so semantically equivalent requests collide on the
//! same canonical cache key more often. Every pass records into the
//! `rq_analyze_*` metric family.

pub mod cq;
pub mod datalog;
pub mod diag;
pub mod normalize;
pub mod rpq;

pub use cq::lint_uc2rpq;
pub use datalog::lint_program;
pub use diag::{Diagnostic, Report, Severity, Span};
pub use normalize::{preflight, Preflight, PreflightAction};
pub use rpq::{lint_two_rpq, lint_two_rpq_with_source};

/// Static description of one lint rule: identifier, slug, severity, the
/// query class it applies to, the paper result justifying it, and its
/// asymptotic cost (`n` = regex/program size, `c` = a containment call's
/// governed budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    pub id: &'static str,
    pub slug: &'static str,
    pub severity: Severity,
    /// Query class the rule inspects: `"automata"`, `"uc2rpq"`, or
    /// `"datalog"`.
    pub class: &'static str,
    /// The lemma/theorem (or classical fact) that justifies the finding.
    pub justification: &'static str,
    /// Asymptotic cost of the pass that checks the rule.
    pub complexity: &'static str,
}

/// The complete rule table, in rule-id order. `docs/ALGORITHMS.md`
/// mirrors this table.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "RQA001",
        slug: "empty-language",
        severity: Severity::Error,
        class: "automata",
        justification: "L(Q) = ∅ ⇒ Q(D) = ∅ on every database (§2.1); emptiness is syntactic for regex",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQA002",
        slug: "vacuous-union-branch",
        severity: Severity::Warning,
        class: "automata",
        justification: "L(r ∪ ∅) = L(r): the ∅ branch contributes nothing",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQA003",
        slug: "dead-occurrence",
        severity: Severity::Warning,
        class: "automata",
        justification: "position automaton: an occurrence no accepting run reads never matches an edge; compilation trims it, so it is noise in the query text that no automaton reads",
        complexity: "O(n²)",
    },
    RuleInfo {
        id: "RQA004",
        slug: "fold-redundant-inverse",
        severity: Severity::Warning,
        class: "automata",
        justification: "fold containment (Lemma 2): r ⊑ r r⁻ r strictly, so the detour admits extra zig-zag answers",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQA005",
        slug: "subsumed-union-branch",
        severity: Severity::Warning,
        class: "automata",
        justification: "if rᵢ ⊑ rⱼ the branch rᵢ is redundant; the quick ladder decides it by the Lemma 1 rung when rⱼ is one-way; when rⱼ reads an inverse letter, the sample rung refutes what it can and the exact fold/2NFA stage (Lemmas 2–4) decides the rest",
        complexity: "O(k²·c) for k branches",
    },
    RuleInfo {
        id: "RQA006",
        slug: "one-way-query",
        severity: Severity::Info,
        class: "automata",
        justification: "a one-way Q has fold(L(Q)) = L(Q) (Lemma 2), so the ladder's Lemma 1 rung decides probes into it over its minimal DFA",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQA007",
        slug: "inverse-letter",
        severity: Severity::Info,
        class: "automata",
        justification: "Q1 ⊑ Q iff L(Q1) ⊆ fold(L(Q)) (Lemma 2), and fold(L(Q)) = L(Q) is guaranteed only for a one-way Q, so probes into a query with an inverse letter meet the sample rung first (a short word of L(Q1) outside fold(L(Q)) refutes them in polynomial time) and only unrefuted ones reach the exact fold/2NFA stage; the span points at the first inverse letter",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQC001",
        slug: "unsatisfiable-atom",
        severity: Severity::Error,
        class: "uc2rpq",
        justification: "an atom with L(r) = ∅ can never be matched, so its whole disjunct is unsatisfiable (§2.2)",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQC002",
        slug: "disconnected-body",
        severity: Severity::Warning,
        class: "uc2rpq",
        justification: "a disjunct whose variable graph is disconnected is a Cartesian product of independent patterns — usually unintended",
        complexity: "O(n·α(n))",
    },
    RuleInfo {
        id: "RQC003",
        slug: "duplicate-disjunct",
        severity: Severity::Warning,
        class: "uc2rpq",
        justification: "union is idempotent: Q ∪ Q ≡ Q",
        complexity: "O(k²·n)",
    },
    RuleInfo {
        id: "RQC004",
        slug: "subsumed-disjunct",
        severity: Severity::Warning,
        class: "uc2rpq",
        justification: "if disjunct δᵢ ⊑ δⱼ (via chain collapse, then the Lemma 1 rung for a one-way δⱼ chain or the fold/2NFA stage for one with an inverse letter) then δᵢ never adds answers",
        complexity: "O(k²·c)",
    },
    RuleInfo {
        id: "RQD001",
        slug: "unsafe-rule",
        severity: Severity::Error,
        class: "datalog",
        justification: "safety (§2.3): every head variable must occur in the body, else the rule derives unbounded facts",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQD002",
        slug: "arity-mismatch",
        severity: Severity::Error,
        class: "datalog",
        justification: "predicates denote fixed-arity relations (§2.3)",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQD003",
        slug: "unused-predicate",
        severity: Severity::Warning,
        class: "datalog",
        justification: "an IDB predicate the goal never (transitively) depends on cannot affect the answer",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQD004",
        slug: "unreachable-rule",
        severity: Severity::Warning,
        class: "datalog",
        justification: "rules for predicates outside the goal's dependency cone are dead code",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQD005",
        slug: "non-regular-recursion",
        severity: Severity::Warning,
        class: "datalog",
        justification: "§4.1: recursion beyond transitive closure leaves the RQ fragment; containment of full recursive Datalog is undecidable (§2.3)",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQD006",
        slug: "regular-recursion",
        severity: Severity::Info,
        class: "datalog",
        justification: "§4.1 + Theorem 8: transitive-closure-only recursion is expressible as an RQ, so containment is decidable (EXPSPACE)",
        complexity: "O(n)",
    },
    RuleInfo {
        id: "RQD007",
        slug: "unknown-goal",
        severity: Severity::Error,
        class: "datalog",
        justification: "a goal predicate that never occurs in the program denotes the empty relation",
        complexity: "O(n)",
    },
];

/// Look up a rule's static description by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Build a [`Diagnostic`] for a rule id from the [`RULES`] table.
///
/// Panics if `id` is not in the table — rule ids are compile-time
/// constants in this crate, so an unknown id is a bug, not an input
/// error.
pub(crate) fn diag(id: &str, message: impl Into<String>) -> Diagnostic {
    let info = rule(id).unwrap_or_else(|| panic!("unknown lint rule id {id:?}"));
    Diagnostic {
        rule: info.id.to_owned(),
        slug: info.slug.to_owned(),
        severity: info.severity,
        message: message.into(),
        span: None,
        notes: Vec::new(),
    }
}

/// The `rq_analyze_*` metric family.
pub(crate) mod metrics {
    use crate::{PreflightAction, Severity};
    use rq_metrics::{global, Counter};
    use std::sync::{Arc, OnceLock};

    const SEVERITIES: [Severity; 3] = [Severity::Error, Severity::Warning, Severity::Info];

    /// Count one emitted diagnostic, labeled by severity.
    pub(crate) fn diagnostic(severity: Severity) {
        static CELLS: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            SEVERITIES.map(|s| {
                global().counter_with(
                    "rq_analyze_diagnostics_total",
                    &[("severity", s.name())],
                    "lint diagnostics emitted by rq-analyze, by severity",
                )
            })
        });
        let i = SEVERITIES
            .iter()
            .position(|s| *s == severity)
            .expect("every severity has a cell");
        cells[i].inc();
    }

    /// Count one engine pre-flight outcome, labeled by action.
    pub(crate) fn preflight(action: PreflightAction) {
        static CELLS: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
        const ACTIONS: [PreflightAction; 3] = [
            PreflightAction::Empty,
            PreflightAction::Rewritten,
            PreflightAction::Unchanged,
        ];
        let cells = CELLS.get_or_init(|| {
            ACTIONS.map(|a| {
                global().counter_with(
                    "rq_analyze_preflight_total",
                    &[("action", a.name())],
                    "engine pre-flight normalization outcomes",
                )
            })
        });
        let i = ACTIONS
            .iter()
            .position(|a| *a == action)
            .expect("every action has a cell");
        cells[i].inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_table_is_consistent() {
        assert!(RULES.len() >= 8, "acceptance needs ≥8 distinct rule ids");
        for (i, r) in RULES.iter().enumerate() {
            // Ids are unique, table is sorted, classes are known.
            assert!(
                RULES.iter().filter(|s| s.id == r.id).count() == 1,
                "{}",
                r.id
            );
            if i > 0 {
                assert!(RULES[i - 1].id < r.id, "table sorted by id");
            }
            assert!(matches!(r.class, "automata" | "uc2rpq" | "datalog"));
            assert!(!r.justification.is_empty() && !r.complexity.is_empty());
        }
        assert_eq!(rule("RQA001").unwrap().slug, "empty-language");
        assert_eq!(rule("nope"), None);
    }

    #[test]
    fn diag_builder_pulls_from_table() {
        let d = diag("RQD005", "mutual recursion through P and Q");
        assert_eq!(d.rule, "RQD005");
        assert_eq!(d.slug, "non-regular-recursion");
        assert_eq!(d.severity, Severity::Warning);
    }
}
