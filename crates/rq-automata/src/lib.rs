//! # rq-automata
//!
//! Word-automata substrate for the `regular-queries` workspace.
//!
//! This crate implements, from scratch, every word-level construction used by
//! Vardi's *A Theory of Regular Queries* (PODS 2016):
//!
//! * regular expressions over an edge alphabet Σ and its two-way extension
//!   Σ± = Σ ∪ {r⁻ | r ∈ Σ} ([`regex`], [`alphabet`]);
//! * nondeterministic and deterministic finite automata with the standard
//!   toolbox — Thompson construction, ε-elimination, subset construction,
//!   Hopcroft minimization, products, complements ([`nfa`], [`dfa`]);
//! * exact regular-language containment, both *on the fly* (the paper's
//!   §3.2 steps 1–4, polynomial space) and via explicit construction
//!   ([`containment`]);
//! * two-way nondeterministic automata with endmarkers ([`twonfa`]);
//! * the *fold* relation on words over Σ± and the Lemma 3 construction of a
//!   2NFA for `fold(L(A))` with `n·(|Σ±|+1)` states ([`fold`]);
//! * Vardi's 1989 single-exponential 2NFA complementation (Lemma 4)
//!   ([`complement2`]);
//! * Shepherdson-table determinization of 2NFAs, the production engine for
//!   `NFA ⊆ 2NFA` containment ([`shepherdson`]);
//! * NFA → regex conversion by state elimination ([`to_regex`]), closing
//!   the definability loop;
//! * seeded random generators for regexes and automata ([`random`]).
//!
//! The crate has no graph-database knowledge; it is pure language theory.
//!
//! ## Example
//!
//! ```
//! use rq_automata::{Alphabet, Nfa};
//! use rq_automata::regex::parse;
//! use rq_automata::containment::check_on_the_fly;
//!
//! let mut alphabet = Alphabet::new();
//! let e1 = parse("a(b|c)*", &mut alphabet).unwrap();
//! let e2 = parse("a(b|c|d)*", &mut alphabet).unwrap();
//! let (n1, n2) = (Nfa::from_regex(&e1), Nfa::from_regex(&e2));
//! assert!(check_on_the_fly(&n1, &n2).contained);
//! let run = check_on_the_fly(&n2, &n1);
//! let witness = run.counterexample.unwrap();        // a shortest word
//! assert!(n2.accepts(&witness) && !n1.accepts(&witness));
//! ```

pub mod alphabet;
pub mod complement2;
pub mod containment;
pub mod dfa;
pub mod fold;
pub mod governor;
pub mod nfa;
pub mod random;
pub mod regex;
pub mod shepherdson;
pub mod to_regex;
pub mod twonfa;

pub use alphabet::{Alphabet, LabelId, Letter};
pub use dfa::Dfa;
pub use governor::{Counters, EngineError, Exhaustion, Governor, Limits, Resource};
pub use nfa::Nfa;
pub use regex::Regex;
pub use twonfa::TwoNfa;
