//! Automata-level lints on RPQs and 2RPQs (rule ids `RQA…`).

use crate::diag;
use crate::diag::{Report, Span};
use crate::normalize::subsumed_branches;
use rq_automata::regex::parse_with_spans;
use rq_automata::{Alphabet, LabelId, Letter, Limits, Nfa, Regex};
use rq_core::TwoRpq;

/// Lint one (2)RPQ. `limits` governs the containment probes behind
/// `RQA005` (subsumed union branches).
pub fn lint_two_rpq(q: &TwoRpq, alphabet: &Alphabet, limits: &Limits) -> Report {
    lint_two_rpq_with_source(q, None, alphabet, limits)
}

/// [`lint_two_rpq`] with the query's source text, when the caller still
/// has it. The text is only used to attach source spans to diagnostics
/// whose witness is a subterm — currently `RQA007`, whose first inverse
/// letter is located by re-parsing `source` with a span trace.
pub fn lint_two_rpq_with_source(
    q: &TwoRpq,
    source: Option<&str>,
    alphabet: &Alphabet,
    limits: &Limits,
) -> Report {
    let mut report = Report::new();
    let regex = q.regex();

    // RQA001 — the whole query denotes ∅. Everything else would be noise
    // on top of that, so stop here.
    if regex.is_empty_language() {
        report.push(
            diag(
                "RQA001",
                format!(
                    "`{}` denotes the empty language: it returns no answers on any database",
                    regex.display(alphabet)
                ),
            )
            .with_note("every subexpression of a ∅-language query is unreachable (§2.1)"),
        );
        return report;
    }

    vacuous_union_branches(regex, alphabet, &mut report);
    dead_occurrences(regex, alphabet, &mut report);
    fold_redundant_inverses(regex, alphabet, &mut report);
    subsumed_union_branches(regex, alphabet, limits, &mut report);
    ladder_route(regex, source, alphabet, &mut report);
    report
}

/// RQA002 — a union branch that itself denotes ∅ (contributes nothing).
/// Only constructible programmatically: the text parser's smart
/// constructors erase ∅ branches on the way in.
fn vacuous_union_branches(e: &Regex, alphabet: &Alphabet, report: &mut Report) {
    if let Regex::Union(parts) = e {
        for (i, p) in parts.iter().enumerate() {
            if p.is_empty_language() {
                report.push(diag(
                    "RQA002",
                    format!(
                        "union branch #{i} (`{}`) denotes ∅ and contributes nothing",
                        p.display(alphabet)
                    ),
                ));
            }
        }
    }
    match e {
        Regex::Concat(v) | Regex::Union(v) => {
            for p in v {
                vacuous_union_branches(p, alphabet, report);
            }
        }
        Regex::Star(p) | Regex::Plus(p) | Regex::Optional(p) => {
            vacuous_union_branches(p, alphabet, report);
        }
        _ => {}
    }
}

/// RQA003 — letter occurrences no accepting run can read.
///
/// Naively diffing state counts before/after [`Nfa::trim`] is pure noise:
/// Thompson construction plus ε-elimination always leaves unreachable
/// states, even for pristine queries. Instead we mark every letter
/// *occurrence* with a fresh label ([`Regex::map_letters`] with a counter
/// closure — a position automaton), compile, trim, and read off which
/// marks survive: a mark that vanished is an occurrence outside every
/// accepting run.
fn dead_occurrences(e: &Regex, alphabet: &Alphabet, report: &mut Report) {
    let mut names: Vec<String> = Vec::new();
    let marked = e.map_letters(&mut |l| {
        let mark = Letter::forward(LabelId(names.len() as u32));
        names.push(alphabet.letter_name(l));
        mark
    });
    let trimmed = Nfa::from_regex(&marked).eliminate_epsilon().trim();
    let live: Vec<bool> = {
        let surviving = trimmed.letters();
        (0..names.len())
            .map(|i| surviving.contains(&Letter::forward(LabelId(i as u32))))
            .collect()
    };
    let dead: Vec<String> = names
        .iter()
        .zip(&live)
        .enumerate()
        .filter(|(_, (_, alive))| !**alive)
        .map(|(i, (name, _))| format!("#{i} (`{name}`)"))
        .collect();
    if !dead.is_empty() {
        report.push(
            diag(
                "RQA003",
                format!(
                    "{} of {} letter occurrence(s) are dead — no accepting run reads {}",
                    dead.len(),
                    names.len(),
                    dead.join(", ")
                ),
            )
            .with_note(
                "compilation trims dead occurrences away, so no evaluation or containment \
                 automaton ever reads them: they only make the query say more than it means",
            ),
        );
    }
}

/// RQA004 — a concatenation window `r r⁻ r` (a fold detour). Warning
/// only: by Lemma 2 the containment `r ⊑ r r⁻ r` is *strict*, so this is
/// not an equivalence-preserving rewrite — the detour admits extra
/// zig-zag answers, which is usually unintended but never rewritten
/// automatically.
fn fold_redundant_inverses(e: &Regex, alphabet: &Alphabet, report: &mut Report) {
    if let Regex::Concat(v) = e {
        for (i, w) in v.windows(3).enumerate() {
            if w[1] == w[0].inverse() && w[2] == w[0] {
                report.push(
                    diag(
                        "RQA004",
                        format!(
                            "concatenation steps #{}–#{} spell the fold detour `r r- r` with r = `{}`",
                            i,
                            i + 2,
                            w[0].display(alphabet)
                        ),
                    )
                    .with_note(
                        "by fold containment (Lemma 2) r ⊑ r r⁻ r strictly — the detour admits \
                         extra zig-zag answers; if the plain step was intended, write just r",
                    ),
                );
            }
        }
    }
    match e {
        Regex::Concat(v) | Regex::Union(v) => {
            for p in v {
                fold_redundant_inverses(p, alphabet, report);
            }
        }
        Regex::Star(p) | Regex::Plus(p) | Regex::Optional(p) => {
            fold_redundant_inverses(p, alphabet, report);
        }
        _ => {}
    }
}

/// RQA005 — a top-level union branch whose language a kept sibling
/// provably contains (the exact rewrite the engine's pre-flight applies).
fn subsumed_union_branches(e: &Regex, alphabet: &Alphabet, limits: &Limits, report: &mut Report) {
    let Regex::Union(parts) = e else {
        return;
    };
    for (i, subsumer) in subsumed_branches(parts, alphabet, limits)
        .iter()
        .enumerate()
    {
        let Some(j) = subsumer else { continue };
        report.push(
            diag(
                "RQA005",
                format!(
                    "union branch #{i} (`{}`) is subsumed by branch #{j} (`{}`)",
                    parts[i].display(alphabet),
                    parts[*j].display(alphabet)
                ),
            )
            .with_note(
                "containment proven by the quick ladder (Lemma 1 for a one-way subsumer, \
                 Lemmas 2–4 otherwise); the engine's pre-flight drops such branches before \
                 cache keying",
            ),
        );
    }
}

/// RQA006 / RQA007 — whether the query reads an inverse letter, the one
/// bit of its shape the containment ladder routes on. By Lemma 2,
/// `Q1 ⊑ Q` iff `L(Q1) ⊆ fold(L(Q))`, and `fold(L(Q)) = L(Q)` when `Q`
/// is one-way, so probes into a one-way query (RQA006) are decided by the
/// Lemma 1 rung over its minimal DFA, while probes into a query with an
/// inverse letter (RQA007) meet the sample rung first, and only the ones
/// no sampled word refutes reach the exact fold/2NFA stage. Info either
/// way. RQA007 points at the first inverse letter, located in `source`
/// when the caller still has the text.
fn ladder_route(e: &Regex, source: Option<&str>, alphabet: &Alphabet, report: &mut Report) {
    // `None` exactly when `e.is_forward_only()`.
    let Some(inverse) = first_inverse_letter(e) else {
        report.push(
            diag(
                "RQA006",
                "query is one-way: containment probes into it are decided by the ladder's \
                 Lemma 1 rung over its minimal DFA",
            )
            .with_note("fold(L(Q)) = L(Q) for a one-way Q (Lemma 2), so Q1 ⊑ Q iff L(Q1) ⊆ L(Q)"),
        );
        return;
    };
    let mut d = diag(
        "RQA007",
        format!(
            "query reads the inverse letter `{}`: containment probes into it meet the sample \
             rung first, and only unrefuted ones reach the exact fold/2NFA stage",
            alphabet.letter_name(inverse)
        ),
    )
    .with_note(
        "Q1 ⊑ Q iff L(Q1) ⊆ fold(L(Q)) (Lemma 2): a short word of L(Q1) outside fold(L(Q)) \
         refutes it in polynomial time, otherwise it is decided over the Lemma 3 fold 2NFA",
    );
    if let Some(span) =
        source.and_then(|src| locate_subterm(src, &Regex::Letter(inverse), alphabet))
    {
        d = d.with_span(span);
    }
    report.push(d);
}

/// The leftmost inverse letter of `e`, which is also its leftmost one in
/// the source text: the parser keeps operands in source order.
fn first_inverse_letter(e: &Regex) -> Option<Letter> {
    match e {
        Regex::Letter(l) if l.inverse => Some(*l),
        Regex::Concat(v) | Regex::Union(v) => v.iter().find_map(first_inverse_letter),
        Regex::Star(p) | Regex::Plus(p) | Regex::Optional(p) => first_inverse_letter(p),
        _ => None,
    }
}

/// Find the narrowest source span whose parse result equals `subterm`
/// (the leftmost on a tie), by re-parsing `source` with a span trace
/// against a scratch copy of the alphabet (existing labels keep their
/// ids, so structural equality is meaningful). Byte offsets become
/// 1-based columns on line 1; batch front-ends rebase the line.
fn locate_subterm(source: &str, subterm: &Regex, alphabet: &Alphabet) -> Option<Span> {
    let mut scratch = alphabet.clone();
    let (_, trace) = parse_with_spans(source, &mut scratch).ok()?;
    trace
        .iter()
        .filter(|(sub, _, _)| sub == subterm)
        .min_by_key(|(_, start, end)| end - start)
        .map(|(_, start, _)| Span::new(1, start + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Alphabet, Limits) {
        (Alphabet::from_names(["a", "b"]), Limits::default())
    }

    fn lint_text(text: &str) -> Report {
        let (mut alphabet, limits) = setup();
        let q = TwoRpq::parse(text, &mut alphabet).unwrap();
        lint_two_rpq(&q, &alphabet, &limits)
    }

    fn rules(r: &Report) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn clean_queries_draw_only_fragment_info() {
        // No warning-or-worse finding; the only diagnostics are the
        // always-on RQA006/RQA007 ladder-route notes (info).
        for text in ["a", "(a|b)*", "a b- a*", "a+ (b | a b)"] {
            let r = lint_text(text);
            assert!(
                r.diagnostics
                    .iter()
                    .all(|d| d.severity == crate::Severity::Info),
                "{text}: {:?}",
                r.diagnostics
            );
            assert!(
                r.diagnostics
                    .iter()
                    .all(|d| d.rule == "RQA006" || d.rule == "RQA007"),
                "{text}: {:?}",
                r.diagnostics
            );
        }
    }

    #[test]
    fn simple_fragment_fires_rqa006_with_the_atom_decomposition() {
        // Every one-way query draws RQA006, whatever its shape: letter
        // disjunctions, repeated words, optionals.
        for text in ["a (a|b)*", "(a b)*", "a? | b b"] {
            let r = lint_text(text);
            assert_eq!(rules(&r), ["RQA006"], "{text}");
            assert!(
                r.diagnostics[0].message.contains("Lemma 1 rung"),
                "{}",
                r.diagnostics[0].message
            );
        }
    }

    #[test]
    fn non_simple_query_fires_rqa007_with_a_witness_span() {
        let (mut alphabet, limits) = setup();
        let source = "a (b c-)* a";
        let q = TwoRpq::parse(source, &mut alphabet).unwrap();
        let r = lint_two_rpq_with_source(&q, Some(source), &alphabet, &limits);
        assert_eq!(rules(&r), ["RQA007"]);
        let d = &r.diagnostics[0];
        // The first inverse letter `c-` starts at byte 5 → column 6.
        assert_eq!(d.span, Some(Span::new(1, 6)), "{:?}", d);
        assert!(d.message.contains("`c-`"), "{}", d.message);
        // Without source text the diagnostic still fires, just span-less.
        let r = lint_two_rpq(&q, &alphabet, &limits);
        assert_eq!(r.diagnostics[0].span, None);
    }

    #[test]
    fn inverse_letters_exclude_the_simple_fragment() {
        // The leftmost inverse letter is the witness, even when a later
        // one sorts first.
        let (mut alphabet, limits) = setup();
        let source = "a b- a-";
        let q = TwoRpq::parse(source, &mut alphabet).unwrap();
        let r = lint_two_rpq_with_source(&q, Some(source), &alphabet, &limits);
        assert_eq!(rules(&r), ["RQA007"]);
        let d = &r.diagnostics[0];
        assert_eq!(d.span, Some(Span::new(1, 3)), "{:?}", d);
        assert!(d.message.contains("`b-`"), "{}", d.message);
        assert!(
            d.message
                .contains("meet the sample rung first, and only unrefuted ones reach"),
            "{}",
            d.message
        );
    }

    #[test]
    fn empty_language_is_an_error_and_short_circuits() {
        let r = lint_text("a ∅ b");
        assert_eq!(rules(&r), ["RQA001"]);
        assert!(r.has_errors());
    }

    #[test]
    fn raw_vacuous_branch_fires_rqa002_and_rqa003() {
        // The text parser erases ∅ branches; build the raw tree.
        let (mut alphabet, limits) = setup();
        let a = TwoRpq::parse("a", &mut alphabet).unwrap().regex().clone();
        let dead = Regex::Concat(vec![
            TwoRpq::parse("b", &mut alphabet).unwrap().regex().clone(),
            Regex::Empty,
        ]);
        let q = TwoRpq::new(Regex::Union(vec![a.clone(), dead]));
        let r = lint_two_rpq(&q, &alphabet, &limits);
        assert!(rules(&r).contains(&"RQA002"), "{:?}", r.diagnostics);
        // The `b` inside the dead branch is also a dead occurrence, and
        // RQA003's note holds: compilation trims it away.
        assert!(rules(&r).contains(&"RQA003"), "{:?}", r.diagnostics);
        assert_eq!(q.nfa().num_states(), TwoRpq::new(a).nfa().num_states());
    }

    #[test]
    fn fold_detour_fires_rqa004() {
        let r = lint_text("a a- a");
        assert_eq!(rules(&r), ["RQA004", "RQA007"]);
        assert!(r.diagnostics[0].notes[0].contains("Lemma 2"));
        // Nested occurrence is found too.
        let r = lint_text("b (a a- a)+");
        assert_eq!(rules(&r), ["RQA004", "RQA007"]);
    }

    #[test]
    fn subsumed_branch_fires_rqa005() {
        // a ⊑ a? — branch 0 is subsumed (a? also matches ε).
        let r = lint_text("a | a?");
        assert_eq!(rules(&r), ["RQA005", "RQA006"]);
        assert!(r.diagnostics[0].message.contains("branch #0"));
        // Fold subsumption through the ladder: a ⊑ a a- a. The detour
        // branch itself also (correctly) draws the RQA004 fold warning.
        let r = lint_text("a | a a- a");
        assert_eq!(rules(&r), ["RQA004", "RQA005", "RQA007"]);
    }

    #[test]
    fn dead_occurrence_position_marking_has_no_false_positives() {
        // Every occurrence in these is live even though Thompson
        // construction leaves unreachable *states* behind.
        for text in ["(a|b)* a", "a? b+", "((a b)+ | b)*"] {
            let r = lint_text(text);
            assert!(
                !rules(&r).contains(&"RQA003"),
                "{text}: {:?}",
                r.diagnostics
            );
        }
    }
}
