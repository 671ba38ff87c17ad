//! Engine pre-flight normalization.
//!
//! Two sound rewrites run before a query reaches the canonical cache:
//!
//! 1. **Empty short-circuit.** If `L(Q) = ∅` the answer is ∅ on every
//!    database (§2.1) — no evaluation, no cache traffic.
//! 2. **Subsumed-branch elimination.** For a top-level union, any branch
//!    `rᵢ` with `rᵢ ⊑ rⱼ` for a *kept* sibling `rⱼ` (decided by the
//!    containment facade's quick ladder: Lemma 1 for a one-way `rⱼ`,
//!    Lemmas 2–4 otherwise) is dropped: branch
//!    answers satisfy `Qᵢ(D) ⊆ Qⱼ(D)` on every `D`, so the union's
//!    answers are unchanged. Dropping *is* visible at the word-language
//!    level (e.g. `p | p p⁻ p` becomes `p p⁻ p`), which is exactly why it
//!    helps: syntactically different but answer-equivalent requests now
//!    collide on the same canonical cache key.
//!
//! Soundness of the kept-loop: containment is transitive, so a branch is
//! only ever dropped in favor of a sibling that itself survives (or is
//! later dropped in favor of something even larger).

use crate::metrics;
use rq_automata::{Alphabet, Limits, Regex};
use rq_core::canonical::CompiledQuery;
use rq_core::containment::facade::check_quick_governed;
use rq_core::TwoRpq;

/// What pre-flight did to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreflightAction {
    /// `L(Q) = ∅`: the engine should answer ∅ without evaluating.
    Empty,
    /// At least one subsumed union branch was dropped; evaluate the
    /// rewritten query instead.
    Rewritten,
    /// Nothing to do; evaluate the query as given.
    Unchanged,
}

impl PreflightAction {
    /// Stable name used as the `action` metric label.
    pub fn name(self) -> &'static str {
        match self {
            PreflightAction::Empty => "empty",
            PreflightAction::Rewritten => "rewritten",
            PreflightAction::Unchanged => "unchanged",
        }
    }
}

/// Result of [`preflight`]: the (possibly rewritten) query to evaluate
/// and what happened.
#[derive(Debug, Clone)]
pub struct Preflight {
    pub query: TwoRpq,
    pub action: PreflightAction,
}

/// For each union branch, the index of the kept sibling that subsumes it
/// (`None` for branches that survive). Each branch is compiled once;
/// `limits` governs each compile and each containment probe, and an
/// `Unknown` outcome keeps the branch (sound: we only drop on proof).
pub(crate) fn subsumed_branches(
    parts: &[Regex],
    alphabet: &Alphabet,
    limits: &Limits,
) -> Vec<Option<usize>> {
    let compiled: Vec<CompiledQuery> = parts
        .iter()
        .map(|p| CompiledQuery::new(&TwoRpq::new(p.clone()), alphabet, &limits.governor()))
        .collect();
    let mut dropped: Vec<Option<usize>> = vec![None; parts.len()];
    for i in 0..parts.len() {
        if dropped[i].is_some() {
            continue;
        }
        for j in 0..parts.len() {
            if i == j || dropped[j].is_some() {
                continue;
            }
            let gov = limits.governor();
            if check_quick_governed(&compiled[i], &compiled[j], alphabet, &gov).is_contained() {
                dropped[i] = Some(j);
                break;
            }
        }
    }
    dropped
}

/// Run the pre-flight analysis on a query. Records the outcome in the
/// `rq_analyze_preflight_total` metric family and opens an
/// `analyze.preflight` trace span annotated with the action taken and,
/// when a rewrite fired, a `rules` field naming the rule behind it with
/// its firing count (`RQA001:1` for the empty short-circuit,
/// `RQA005:<n>` for `n` dropped branches) — so `rqtool explain` shows
/// *which* rules rewrote a query. The ladder probes each dropped-branch
/// decision runs appear as its child `ladder.*` spans.
pub fn preflight(q: &TwoRpq, alphabet: &Alphabet, limits: &Limits) -> Preflight {
    let mut span = rq_metrics::span::start("analyze.preflight");
    let mut action = move |a: PreflightAction, rules: Option<String>, query: TwoRpq| {
        span.record("action", a.name());
        if let Some(rules) = rules {
            span.record("rules", rules);
        }
        metrics::preflight(a);
        Preflight { query, action: a }
    };
    if q.regex().is_empty_language() {
        return action(
            PreflightAction::Empty,
            Some("RQA001:1".to_owned()),
            q.clone(),
        );
    }
    let Regex::Union(parts) = q.regex() else {
        return action(PreflightAction::Unchanged, None, q.clone());
    };
    let dropped = subsumed_branches(parts, alphabet, limits);
    let n_dropped = dropped.iter().filter(|d| d.is_some()).count();
    if n_dropped == 0 {
        return action(PreflightAction::Unchanged, None, q.clone());
    }
    let kept = parts
        .iter()
        .zip(&dropped)
        .filter(|(_, d)| d.is_none())
        .map(|(p, _)| p.clone());
    action(
        PreflightAction::Rewritten,
        Some(format!("RQA005:{n_dropped}")),
        TwoRpq::new(Regex::union(kept)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Alphabet, Limits) {
        (Alphabet::from_names(["p", "q"]), Limits::default())
    }

    fn parse(alphabet: &mut Alphabet, text: &str) -> TwoRpq {
        TwoRpq::parse(text, alphabet).unwrap()
    }

    #[test]
    fn empty_short_circuits() {
        let (mut alphabet, limits) = setup();
        let q = parse(&mut alphabet, "∅");
        let p = preflight(&q, &alphabet, &limits);
        assert_eq!(p.action, PreflightAction::Empty);
    }

    #[test]
    fn fold_subsumed_branch_is_dropped() {
        let (mut alphabet, limits) = setup();
        // Lemma 2: p ⊑ p p⁻ p, so the `p` branch is redundant and the
        // normalized query collides with plain `p p- p` on cache keys.
        let q = parse(&mut alphabet, "p | p p- p");
        let target = parse(&mut alphabet, "p p- p");
        let p = preflight(&q, &alphabet, &limits);
        assert_eq!(p.action, PreflightAction::Rewritten);
        assert_eq!(p.query.regex(), target.regex());
    }

    #[test]
    fn incomparable_branches_survive() {
        let (mut alphabet, limits) = setup();
        let q = parse(&mut alphabet, "p | q");
        let p = preflight(&q, &alphabet, &limits);
        assert_eq!(p.action, PreflightAction::Unchanged);
        assert_eq!(p.query.regex(), q.regex());
    }

    #[test]
    fn preflight_span_names_the_firing_rules() {
        use rq_metrics::span;
        let rules_field = |text: &str| {
            let ctx = span::TraceContext::start();
            let (mut alphabet, limits) = setup();
            let q = parse(&mut alphabet, text);
            {
                let _g = span::install(&ctx, 0);
                preflight(&q, &alphabet, &limits);
            }
            let t = ctx.finish("ok", "");
            let s = t
                .spans
                .iter()
                .find(|s| s.name == "analyze.preflight")
                .expect("preflight span");
            s.fields
                .iter()
                .find(|(k, _)| *k == "rules")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(rules_field("p | p p- p").as_deref(), Some("RQA005:1"));
        assert_eq!(rules_field("∅").as_deref(), Some("RQA001:1"));
        assert_eq!(rules_field("p | q"), None, "no rewrite, no rules field");
    }

    #[test]
    fn mutually_equivalent_branches_collapse_to_one() {
        let (mut alphabet, limits) = setup();
        // Raw union with two equivalent-but-not-equal branches (the smart
        // constructor only dedups syntactic equality).
        let a = parse(&mut alphabet, "p p*").regex().clone();
        let b = parse(&mut alphabet, "p+").regex().clone();
        let q = TwoRpq::new(Regex::Union(vec![a, b]));
        let p = preflight(&q, &alphabet, &limits);
        assert_eq!(p.action, PreflightAction::Rewritten);
        assert!(
            !matches!(p.query.regex(), Regex::Union(_)),
            "one of the two equivalent branches must survive: {:?}",
            p.query.regex()
        );
    }
}
