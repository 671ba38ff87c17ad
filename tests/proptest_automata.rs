//! Randomized property tests over the automata substrate.
//!
//! Instances are generated with the in-repo seeded [`SplitMix64`] PRNG
//! (reproducible across platforms, no external dependencies); the
//! invariants cover parser/printer round-trips, the determinization
//! pipeline, complementation, folding, and the two-way machinery.

use regular_queries::automata::containment::{check_explicit, check_on_the_fly, equivalent};
use regular_queries::automata::dfa::Dfa;
use regular_queries::automata::fold::{fold_membership, fold_twonfa, folds_onto};
use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::automata::regex::parse;
use regular_queries::automata::shepherdson::ShepherdsonDfa;
use regular_queries::automata::twonfa::TwoNfa;
use regular_queries::automata::{Alphabet, LabelId, Letter, Nfa, Regex};

/// Cases per property (each case re-seeds the generator, so failures
/// reproduce from the printed seed alone).
const CASES: u64 = 64;

fn ab() -> Alphabet {
    Alphabet::from_names(["a", "b"])
}

/// A random regex over Σ± with 1–6 leaves, occasionally degenerate (ε).
fn gen_regex(rng: &mut SplitMix64) -> Regex {
    if rng.chance(0.1) {
        return Regex::Epsilon;
    }
    let cfg = RegexConfig {
        num_labels: 2,
        inverse_prob: 0.3,
        leaves: rng.range(1, 6),
        repeat_prob: 0.3,
    };
    random_regex(rng, &cfg)
}

/// A random word over Σ± of length 0–4.
fn gen_word(rng: &mut SplitMix64) -> Vec<Letter> {
    let len = rng.below(5);
    (0..len)
        .map(|_| {
            let l = LabelId(rng.below(2) as u32);
            if rng.chance(0.5) {
                Letter::backward(l)
            } else {
                Letter::forward(l)
            }
        })
        .collect()
}

/// print ∘ parse = id (up to smart-constructor normalization).
#[test]
fn regex_print_parse_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let al = ab();
        let printed = e.display(&al).to_string();
        let mut al2 = al.clone();
        let reparsed = parse(&printed, &mut al2).expect("printer output parses");
        assert_eq!(e, reparsed, "seed {seed}: {printed}");
    }
}

/// Membership is preserved by ε-elimination, trimming, and the subset
/// construction.
#[test]
fn nfa_pipeline_preserves_membership() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let w = gen_word(&mut rng);
        let n = Nfa::from_regex(&e);
        let expected = n.accepts(&w);
        assert_eq!(n.eliminate_epsilon().accepts(&w), expected, "seed {seed}");
        assert_eq!(n.trim().accepts(&w), expected, "seed {seed}");
        let sigma: Vec<Letter> = ab().sigma_pm().collect();
        let d = Dfa::determinize(&n, &sigma);
        assert_eq!(d.accepts(&w), expected, "seed {seed}");
        assert_eq!(d.minimize().accepts(&w), expected, "seed {seed}");
    }
}

/// Complementation flips membership for every word.
#[test]
fn dfa_complement_flips() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let w = gen_word(&mut rng);
        let sigma: Vec<Letter> = ab().sigma_pm().collect();
        let d = Dfa::determinize(&Nfa::from_regex(&e), &sigma);
        assert_ne!(d.accepts(&w), d.complement().accepts(&w), "seed {seed}");
    }
}

/// The two containment engines agree, and a counterexample word really
/// separates the languages.
#[test]
fn containment_engines_agree() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e1 = gen_regex(&mut rng);
        let e2 = gen_regex(&mut rng);
        let n1 = Nfa::from_regex(&e1);
        let n2 = Nfa::from_regex(&e2);
        let sigma: Vec<Letter> = ab().sigma_pm().collect();
        let fly = check_on_the_fly(&n1, &n2);
        let exp = check_explicit(&n1, &n2, &sigma);
        assert_eq!(fly.contained, exp.contained, "seed {seed}");
        if let Some(ce) = &fly.counterexample {
            assert!(n1.accepts(ce), "seed {seed}");
            assert!(!n2.accepts(ce), "seed {seed}");
        }
    }
}

/// L(e) = L(e) and trivial congruences hold through the engines.
#[test]
fn language_congruences() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let n = Nfa::from_regex(&e);
        assert!(equivalent(&n, &n), "seed {seed}");
        // e ⊆ e|x and e·ε = e.
        let ext = Nfa::from_regex(&e.clone().or(Regex::Letter(Letter::forward(LabelId(0)))));
        assert!(check_on_the_fly(&n, &ext).contained, "seed {seed}");
        let same = Nfa::from_regex(&e.clone().then(Regex::Epsilon));
        assert!(equivalent(&n, &same), "seed {seed}");
    }
}

/// Reversal is an involution on the language.
#[test]
fn reverse_involution() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let w = gen_word(&mut rng);
        let n = Nfa::from_regex(&e);
        let rr = n.reverse().reverse();
        assert_eq!(n.accepts(&w), rr.accepts(&w), "seed {seed}");
        let mut rev = w.clone();
        rev.reverse();
        assert_eq!(n.accepts(&w), n.reverse().accepts(&rev), "seed {seed}");
    }
}

/// Every word folds onto itself.
#[test]
fn fold_reflexive() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let w = gen_word(&mut rng);
        assert!(folds_onto(&w, &w), "seed {seed}");
    }
}

/// The Lemma 3 construction recognizes exactly fold(L), checked against
/// direct product membership on random words.
#[test]
fn fold_twonfa_correct() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let u = gen_word(&mut rng);
        let n = Nfa::from_regex(&e);
        let sigma: Vec<Letter> = ab().sigma_pm().collect();
        let m = fold_twonfa(&n, &sigma);
        assert_eq!(m.accepts(&u), fold_membership(&n, &u), "seed {seed}");
    }
}

/// L(A) ⊆ fold(L(A)) — v ⇝ v.
#[test]
fn language_inside_its_fold() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let n = Nfa::from_regex(&e);
        let sigma: Vec<Letter> = ab().sigma_pm().collect();
        let m = fold_twonfa(&n, &sigma);
        for w in n.enumerate_words(4, 50) {
            assert!(m.accepts(&w), "seed {seed}");
        }
    }
}

/// Shepherdson determinization agrees with configuration-graph membership
/// on arbitrary 2NFAs built from one-way embeddings and fold
/// constructions.
#[test]
fn shepherdson_agrees() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let w = gen_word(&mut rng);
        let n = Nfa::from_regex(&e);
        let one_way = TwoNfa::from_nfa(&n);
        let mut det = ShepherdsonDfa::new(&one_way);
        assert_eq!(det.accepts(&w), one_way.accepts(&w), "seed {seed}");

        let sigma: Vec<Letter> = ab().sigma_pm().collect();
        let m = fold_twonfa(&n, &sigma);
        let mut det = ShepherdsonDfa::new(&m);
        assert_eq!(det.accepts(&w), m.accepts(&w), "seed {seed}");
    }
}

/// `Regex::inverse` is a semantic inverse: w ∈ L(e) iff w⁻ ∈ L(e⁻).
#[test]
fn regex_inverse_language() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let w = gen_word(&mut rng);
        let n = Nfa::from_regex(&e);
        let ni = Nfa::from_regex(&e.inverse());
        let wi: Vec<Letter> = w.iter().rev().map(|l| l.inv()).collect();
        assert_eq!(n.accepts(&w), ni.accepts(&wi), "seed {seed}");
    }
}

/// `simplify` preserves the language and never grows the AST.
#[test]
fn simplify_preserves_language() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let out = regular_queries::automata::regex::simplify(&e);
        assert!(out.size() <= e.size(), "seed {seed}");
        assert!(
            equivalent(&Nfa::from_regex(&e), &Nfa::from_regex(&out)),
            "seed {seed}"
        );
    }
}

/// State elimination inverts Thompson: NFA → regex → NFA keeps the
/// language.
#[test]
fn to_regex_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let n = Nfa::from_regex(&e);
        let back = regular_queries::automata::to_regex::nfa_to_regex(&n);
        assert!(equivalent(&n, &Nfa::from_regex(&back)), "seed {seed}");
    }
}

/// NFA intersection is language intersection on sampled words.
#[test]
fn intersection_correct() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e1 = gen_regex(&mut rng);
        let e2 = gen_regex(&mut rng);
        let w = gen_word(&mut rng);
        let (n1, n2) = (Nfa::from_regex(&e1), Nfa::from_regex(&e2));
        let i = n1.intersect(&n2);
        assert_eq!(
            i.accepts(&w),
            n1.accepts(&w) && n2.accepts(&w),
            "seed {seed}"
        );
    }
}

/// Language counts are preserved across the pipeline (a strong
/// fingerprint equality).
#[test]
fn counts_preserved() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let n = Nfa::from_regex(&e);
        let counts = n.count_words_per_length(4);
        assert_eq!(
            n.eliminate_epsilon().count_words_per_length(4),
            counts,
            "seed {seed}"
        );
        assert_eq!(n.trim().count_words_per_length(4), counts, "seed {seed}");
    }
}

/// Governed determinization with headroom matches the ungoverned result;
/// a starvation budget yields a structured exhaustion instead of a panic.
#[test]
fn governed_determinize_matches() {
    use regular_queries::automata::{Limits, Resource};
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = gen_regex(&mut rng);
        let n = Nfa::from_regex(&e);
        let sigma: Vec<Letter> = ab().sigma_pm().collect();
        let plain = Dfa::determinize(&n, &sigma);
        let gov = Limits::unlimited().with_fuel(1_000_000).governor();
        let governed = Dfa::determinize_governed(&n, &sigma, &gov)
            .expect("ample budget never exhausts on small instances");
        assert_eq!(plain.num_states(), governed.num_states(), "seed {seed}");
        assert!(plain.equivalent(&governed), "seed {seed}");

        let starved = Limits::unlimited().with_states(1).governor();
        if let Err(err) = Dfa::determinize_governed(&n, &sigma, &starved) {
            assert_eq!(err.resource, Resource::States, "seed {seed}");
        }
    }
}
