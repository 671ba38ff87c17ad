//! Automata-level lints on RPQs and 2RPQs (rule ids `RQA…`).

use crate::diag;
use crate::diag::{Report, Span};
use crate::normalize::subsumed_branches;
use rq_automata::regex::parse_with_spans;
use rq_automata::simple::classify;
use rq_automata::{Alphabet, LabelId, Letter, Limits, Nfa, Regex};
use rq_core::TwoRpq;

/// Lint one (2)RPQ. `limits` governs the containment probes behind
/// `RQA005` (subsumed union branches).
pub fn lint_two_rpq(q: &TwoRpq, alphabet: &Alphabet, limits: &Limits) -> Report {
    lint_two_rpq_with_source(q, None, alphabet, limits)
}

/// [`lint_two_rpq`] with the query's source text, when the caller still
/// has it. The text is only used to attach source spans to diagnostics
/// whose witness is a subterm — currently `RQA007`, whose offending
/// subterm is located by re-parsing `source` with a span trace.
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
    simple_fragment(regex, source, alphabet, &mut report);
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
            .with_note(format!(
                "dead occurrences bloat the compiled NFA, and the Lemma 3 fold 2NFA inflates \
                 every NFA state into |Σ±|+1 = {} states, so the containment checker pays \
                 {}-fold for each one",
                alphabet.sigma_pm_len() + 1,
                alphabet.sigma_pm_len() + 1,
            )),
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
                "containment proven by the quick ladder (Lemmas 2–4); the engine's pre-flight \
                 drops such branches before cache keying",
            ),
        );
    }
}

/// RQA006 / RQA007 — membership in the simple (SCRPQ) fragment. Info
/// either way: RQA006 announces that the fragment's polynomial
/// containment bounds apply; RQA007 pinpoints the first subterm outside
/// it, and notes whether containment probes into the query still stop at
/// the ladder's Lemma 1 rung (it is one-way) or reach the exact 2NFA
/// checker (it reads an inverse letter). Runs on the query as written,
/// which is also what lets the witness subterm be located in `source`
/// when the caller still has the text.
fn simple_fragment(e: &Regex, source: Option<&str>, alphabet: &Alphabet, report: &mut Report) {
    match classify(e) {
        Ok(s) => {
            report.push(diag(
                "RQA006",
                format!(
                    "query is in the simple fragment ({}) — containment/boundedness fast \
                     paths apply",
                    s.display(alphabet)
                ),
            ));
        }
        Err(v) => {
            let mut d = diag(
                "RQA007",
                format!(
                    "query is outside the simple fragment: {}",
                    v.display(alphabet)
                ),
            )
            .with_note(if e.is_forward_only() {
                "the query is one-way, so containment probes into it are still decided by \
                 the ladder's Lemma 1 rung over its minimal DFA"
            } else {
                "the query reads an inverse letter, so containment probes into it escalate \
                 past the ladder's Lemma 1 rung to the exact 2NFA checker"
            });
            if let Some(span) = source.and_then(|src| locate_subterm(src, &v.subterm, alphabet)) {
                d = d.with_span(span);
            }
            report.push(d);
        }
    }
}

/// Find the narrowest source span whose parse result equals `subterm`,
/// by re-parsing `source` with a span trace against a scratch copy of
/// the alphabet (existing labels keep their ids, so structural equality
/// is meaningful). Byte offsets become 1-based columns on line 1; batch
/// front-ends rebase the line.
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
        // always-on RQA006/RQA007 fragment classification (info).
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
        let r = lint_text("a (a|b)*");
        assert_eq!(rules(&r), ["RQA006"]);
        assert!(
            r.diagnostics[0].message.contains("D(a)·St(a+b)"),
            "{}",
            r.diagnostics[0].message
        );
    }

    #[test]
    fn non_simple_query_fires_rqa007_with_a_witness_span() {
        let (mut alphabet, limits) = setup();
        let source = "a (b c)* a";
        let q = TwoRpq::parse(source, &mut alphabet).unwrap();
        let r = lint_two_rpq_with_source(&q, Some(source), &alphabet, &limits);
        assert_eq!(rules(&r), ["RQA007"]);
        let d = &r.diagnostics[0];
        // The offending subterm is the star's body `b c`, which starts
        // at byte 3 → column 4.
        assert_eq!(d.span, Some(Span::new(1, 4)), "{:?}", d);
        assert!(d.message.contains("repetition"), "{}", d.message);
        // Without source text the diagnostic still fires, just span-less.
        let r = lint_two_rpq(&q, &alphabet, &limits);
        assert_eq!(r.diagnostics[0].span, None);
    }

    #[test]
    fn inverse_letters_exclude_the_simple_fragment() {
        let r = lint_text("a b- a*");
        assert_eq!(rules(&r), ["RQA007"]);
        assert!(
            r.diagnostics[0].message.contains("inverse"),
            "{}",
            r.diagnostics[0].message
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
        let q = TwoRpq::new(Regex::Union(vec![a, dead]));
        let r = lint_two_rpq(&q, &alphabet, &limits);
        assert!(rules(&r).contains(&"RQA002"), "{:?}", r.diagnostics);
        // The `b` inside the dead branch is also a dead occurrence.
        assert!(rules(&r).contains(&"RQA003"), "{:?}", r.diagnostics);
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
        assert_eq!(rules(&r), ["RQA005", "RQA007"]);
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
