//! Conjunctive-level lints on UC2RPQs (rule ids `RQC…`).

use crate::diag;
use crate::diag::{Report, Span};
use rq_automata::{Alphabet, Limits};
use rq_core::canonical::CompiledQuery;
use rq_core::containment::facade::check_quick_governed;
use rq_core::{C2Rpq, Uc2Rpq};

/// Lint a UC2RPQ. `spans` optionally locates each disjunct in the source
/// text (one entry per disjunct, as produced by re-scanning the
/// `query_text` rule lines); `limits` governs the containment probes
/// behind `RQC004`.
pub fn lint_uc2rpq(
    q: &Uc2Rpq,
    alphabet: &Alphabet,
    limits: &Limits,
    spans: Option<&[Span]>,
) -> Report {
    let mut report = Report::new();
    let span_of = |i: usize| spans.and_then(|s| s.get(i)).copied();

    unsatisfiable_atoms(q, alphabet, &span_of, &mut report);
    disconnected_bodies(q, &span_of, &mut report);
    let duplicate = duplicate_disjuncts(q, &span_of, &mut report);
    subsumed_disjuncts(q, alphabet, limits, &duplicate, &span_of, &mut report);
    report
}

/// RQC001 — an atom whose relation denotes ∅ can never match, making the
/// whole disjunct unsatisfiable.
fn unsatisfiable_atoms(
    q: &Uc2Rpq,
    alphabet: &Alphabet,
    span_of: &impl Fn(usize) -> Option<Span>,
    report: &mut Report,
) {
    for (i, d) in q.disjuncts.iter().enumerate() {
        for a in &d.atoms {
            if a.rel.regex().is_empty_language() {
                let mut diag = diag(
                    "RQC001",
                    format!(
                        "atom [{}]({}, {}) in disjunct #{i} is unsatisfiable: its language is ∅, \
                         so the whole disjunct returns no answers",
                        a.rel.regex().display(alphabet),
                        a.from,
                        a.to
                    ),
                );
                if let Some(span) = span_of(i) {
                    diag = diag.with_span(span);
                }
                report.push(diag);
            }
        }
    }
}

/// The connected components of a disjunct's variable graph (atoms are
/// edges `from — to`), each sorted, in order of first variable.
fn variable_components(d: &C2Rpq) -> Vec<Vec<String>> {
    let vars: Vec<&str> = d.variables();
    let index = |v: &str| vars.iter().position(|x| *x == v).expect("var interned");
    // Union-find over variable indices.
    let mut parent: Vec<usize> = (0..vars.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for a in &d.atoms {
        let (x, y) = (
            find(&mut parent, index(&a.from)),
            find(&mut parent, index(&a.to)),
        );
        parent[x] = y;
    }
    let mut components: Vec<Vec<String>> = Vec::new();
    let mut root_of: Vec<(usize, usize)> = Vec::new(); // (root, component idx)
    for (i, v) in vars.iter().enumerate() {
        let r = find(&mut parent, i);
        let c = match root_of.iter().find(|(root, _)| *root == r) {
            Some((_, c)) => *c,
            None => {
                root_of.push((r, components.len()));
                components.push(Vec::new());
                components.len() - 1
            }
        };
        components[c].push((*v).to_owned());
    }
    components
}

/// RQC002 — a disjunct whose variable graph falls into several connected
/// components computes a Cartesian product of independent patterns.
fn disconnected_bodies(q: &Uc2Rpq, span_of: &impl Fn(usize) -> Option<Span>, report: &mut Report) {
    for (i, d) in q.disjuncts.iter().enumerate() {
        let components = variable_components(d);
        if components.len() > 1 {
            let rendered: Vec<String> = components
                .iter()
                .map(|c| format!("{{{}}}", c.join(", ")))
                .collect();
            let mut diag = diag(
                "RQC002",
                format!(
                    "disjunct #{i}'s variables fall into {} disconnected components: {} — the \
                     disjunct is a Cartesian product of independent patterns",
                    components.len(),
                    rendered.join(", ")
                ),
            );
            if let Some(span) = span_of(i) {
                diag = diag.with_span(span);
            }
            report.push(diag);
        }
    }
}

/// RQC003 — syntactically identical disjuncts (union is idempotent).
/// Returns, per disjunct, whether it duplicates an earlier one, so
/// `RQC004` can skip those pairs.
fn duplicate_disjuncts(
    q: &Uc2Rpq,
    span_of: &impl Fn(usize) -> Option<Span>,
    report: &mut Report,
) -> Vec<bool> {
    let mut duplicate = vec![false; q.disjuncts.len()];
    for (i, dup) in duplicate.iter_mut().enumerate() {
        if let Some(j) = (0..i).find(|&j| q.disjuncts[i] == q.disjuncts[j]) {
            *dup = true;
            let mut diag = diag(
                "RQC003",
                format!("disjunct #{i} duplicates disjunct #{j} (union is idempotent)"),
            );
            if let Some(span) = span_of(i) {
                diag = diag.with_span(span);
            }
            report.push(diag);
        }
    }
    duplicate
}

/// RQC004 — a disjunct whose answers a sibling provably contains. Only
/// chain-shaped disjuncts (those [`C2Rpq::collapse_chain`] can turn into
/// a single 2RPQ) are probed, so this is a budgeted best-effort pass:
/// silence does not certify minimality.
fn subsumed_disjuncts(
    q: &Uc2Rpq,
    alphabet: &Alphabet,
    limits: &Limits,
    duplicate: &[bool],
    span_of: &impl Fn(usize) -> Option<Span>,
    report: &mut Report,
) {
    let compile = |d: &C2Rpq| {
        let chain = d.collapse_chain()?;
        Some(CompiledQuery::new(&chain, alphabet, &limits.governor()))
    };
    let chains: Vec<Option<CompiledQuery>> = q.disjuncts.iter().map(compile).collect();
    let n = q.disjuncts.len();
    let mut dropped: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        let Some(ci) = &chains[i] else { continue };
        if duplicate[i] || dropped[i].is_some() {
            continue;
        }
        for j in 0..n {
            if i == j || duplicate[j] || dropped[j].is_some() {
                continue;
            }
            let Some(cj) = &chains[j] else { continue };
            if q.disjuncts[i] == q.disjuncts[j] {
                continue; // RQC003's territory
            }
            if check_quick_governed(ci, cj, alphabet, &limits.governor()).is_contained() {
                dropped[i] = Some(j);
                break;
            }
        }
    }
    for (i, subsumer) in dropped.iter().enumerate() {
        let Some(j) = subsumer else { continue };
        let mut diag = diag(
            "RQC004",
            format!(
                "disjunct #{i} (chain `{}`) is subsumed by disjunct #{j} (chain `{}`): it never \
                 adds answers",
                chains[i]
                    .as_ref()
                    .expect("dropped disjuncts collapsed")
                    .query()
                    .regex()
                    .display(alphabet),
                chains[*j]
                    .as_ref()
                    .expect("subsumers collapsed")
                    .query()
                    .regex()
                    .display(alphabet)
            ),
        )
        .with_note(
            "containment proven via chain collapse + the quick ladder: the Lemma 1 rung when \
             the subsuming chain is one-way, the fold/2NFA stage (Lemmas 2–4) when it reads \
             an inverse letter",
        );
        if let Some(span) = span_of(i) {
            diag = diag.with_span(span);
        }
        report.push(diag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_core::query_text::parse_uc2rpq;

    fn lint_text(text: &str) -> Report {
        let mut alphabet = Alphabet::new();
        let q = parse_uc2rpq(text, &mut alphabet).unwrap();
        lint_uc2rpq(&q, &alphabet, &Limits::default(), None)
    }

    fn rules(r: &Report) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn clean_ucq_stays_clean() {
        let r = lint_text(
            "Q(x, y) :- [a+](x, m), [b c-](m, y).\n\
             Q(x, y) :- [d](x, y).\n",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unsatisfiable_atom_fires_rqc001() {
        let r = lint_text("Q(x, y) :- [a ∅](x, y).");
        assert_eq!(rules(&r), ["RQC001"]);
        assert!(r.has_errors());
    }

    #[test]
    fn disconnected_body_fires_rqc002() {
        let r = lint_text("Q(x, z) :- [a](x, y), [b](z, w).");
        assert_eq!(rules(&r), ["RQC002"]);
        assert!(r.diagnostics[0]
            .message
            .contains("2 disconnected components"));
    }

    #[test]
    fn duplicate_disjunct_fires_rqc003_once() {
        let r = lint_text(
            "Q(x, y) :- [a](x, y).\n\
             Q(x, y) :- [a](x, y).\n",
        );
        assert_eq!(rules(&r), ["RQC003"]);
    }

    #[test]
    fn subsumed_disjunct_fires_rqc004() {
        // Disjunct 0 (a) ⊑ disjunct 1 (a|b); both are chains.
        let r = lint_text(
            "Q(x, y) :- [a](x, y).\n\
             Q(x, y) :- [a|b](x, y).\n",
        );
        assert_eq!(rules(&r), ["RQC004"]);
        assert!(r.diagnostics[0].message.contains("disjunct #0"));
    }

    #[test]
    fn spans_attach_to_disjuncts() {
        let mut alphabet = Alphabet::new();
        let q = parse_uc2rpq(
            "Q(x, y) :- [a](x, y).\nQ(x, y) :- [a](x, y).",
            &mut alphabet,
        )
        .unwrap();
        let spans = [Span::new(1, 1), Span::new(2, 1)];
        let r = lint_uc2rpq(&q, &alphabet, &Limits::default(), Some(&spans));
        assert_eq!(r.diagnostics[0].span, Some(Span::new(2, 1)));
    }

    #[test]
    fn multi_atom_chain_subsumption() {
        // Chain collapse: [a](x,m),[b](m,y) ⊑ [a (a|b)* | a b](x,y)? The
        // chain a b is contained in a b | c.
        let r = lint_text(
            "Q(x, y) :- [a](x, m), [b](m, y).\n\
             Q(x, y) :- [a b | c](x, y).\n",
        );
        assert_eq!(rules(&r), ["RQC004"]);
    }
}
