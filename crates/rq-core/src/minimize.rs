//! Containment-driven minimization of UC2RPQs.
//!
//! The practical payoff of a containment checker (§1: query optimization
//! "requires us to transform a query Q to an equivalent query Q′ that is
//! easier to evaluate"):
//!
//! * [`minimize_uc2rpq`] — drop disjuncts absorbed by the rest of the
//!   union, then drop redundant atoms inside each surviving conjunct
//!   (removing an atom only ever *relaxes* a conjunct, so the rewrite is
//!   an equivalence exactly when the relaxed query is still contained in
//!   the original — decided by the hybrid checker), then simplify the
//!   regex of every surviving atom.
//!
//! Because the UC2RPQ checker is budgeted, minimization is *conservative*:
//! a rewrite is applied only on a definite `Contained` verdict; `Unknown`
//! keeps the query unchanged. The result is therefore always equivalent
//! to the input (property-tested on random databases).

use crate::containment::{uc2rpq, Config};
use crate::crpq::{C2Rpq, Uc2Rpq};
use crate::rpq::TwoRpq;
use rq_automata::regex::simplify;
use rq_automata::Alphabet;

/// Statistics from a minimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimizeStats {
    pub disjuncts_removed: usize,
    pub atoms_removed: usize,
    pub atoms_simplified: usize,
}

/// Minimize `q` by disjunct absorption and redundant-atom elimination.
/// The result is equivalent to the input (conservative under `Unknown`).
pub fn minimize_uc2rpq(q: &Uc2Rpq, alphabet: &Alphabet, cfg: &Config) -> (Uc2Rpq, MinimizeStats) {
    let mut stats = MinimizeStats::default();

    // 1. Disjunct absorption: d is redundant if d ⊑ (union without d).
    let mut kept: Vec<C2Rpq> = Vec::new();
    let mut remaining: Vec<C2Rpq> = q.disjuncts.clone();
    let mut i = 0;
    while i < remaining.len() {
        if remaining.len() == 1 {
            break;
        }
        let candidate = remaining[i].clone();
        let others: Vec<C2Rpq> = remaining
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, d)| d.clone())
            .collect();
        let single = Uc2Rpq {
            disjuncts: vec![candidate.clone()],
        };
        let rest = Uc2Rpq {
            disjuncts: others.clone(),
        };
        if uc2rpq::check(&single, &rest, alphabet, cfg).is_contained() {
            stats.disjuncts_removed += 1;
            remaining.remove(i);
        } else {
            i += 1;
        }
    }
    kept.extend(remaining);

    // 2. Atom elimination inside each conjunct: removing an atom relaxes
    // the conjunct, so equivalence holds iff relaxed ⊑ original.
    let mut out: Vec<C2Rpq> = Vec::new();
    for d in kept {
        let mut cur = d;
        let mut k = 0;
        while cur.atoms.len() > 1 && k < cur.atoms.len() {
            let mut candidate = cur.clone();
            candidate.atoms.remove(k);
            // Head variables must survive.
            let vars = candidate.variables();
            if !cur.head.iter().all(|h| vars.contains(&h.as_str())) {
                k += 1;
                continue;
            }
            let relaxed = Uc2Rpq {
                disjuncts: vec![candidate.clone()],
            };
            let original = Uc2Rpq {
                disjuncts: vec![cur.clone()],
            };
            if uc2rpq::check(&relaxed, &original, alphabet, cfg).is_contained() {
                stats.atoms_removed += 1;
                cur = candidate;
            } else {
                k += 1;
            }
        }
        out.push(cur);
    }

    // 3. Regex simplification per atom (always an equivalence).
    let mut simplified = Vec::new();
    for mut d in out {
        for a in &mut d.atoms {
            let before = a.rel.regex().clone();
            let after = simplify(&before);
            if after != before {
                stats.atoms_simplified += 1;
                a.rel = TwoRpq::new(after);
            }
        }
        simplified.push(d);
    }

    (
        Uc2Rpq {
            disjuncts: simplified,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_text::parse_uc2rpq;
    use rq_graph::generate;

    fn assert_equivalent_on_random_dbs(a: &Uc2Rpq, b: &Uc2Rpq, labels: &[&str]) {
        for seed in 0..12u64 {
            let db = generate::random_gnm(5, 11, labels, seed);
            assert_eq!(a.evaluate(&db), b.evaluate(&db), "seed {seed}");
        }
    }

    #[test]
    fn absorbed_disjunct_is_dropped() {
        let mut al = Alphabet::new();
        let q = parse_uc2rpq("Q(x, y) :- [a a](x, y).\nQ(x, y) :- [a+](x, y).", &mut al).unwrap();
        let (m, stats) = minimize_uc2rpq(&q, &al, &Config::default());
        assert_eq!(stats.disjuncts_removed, 1);
        assert_eq!(m.disjuncts.len(), 1);
        assert_equivalent_on_random_dbs(&q, &m, &["a"]);
    }

    #[test]
    fn redundant_atom_is_dropped() {
        // The second atom a(x, z) is implied by the first (pick z = y's
        // witness): ∃y a(x,y) ∧ ∃z a(x,z) ≡ ∃y a(x,y).
        let mut al = Alphabet::new();
        let q = parse_uc2rpq("Q(x) :- [a](x, y), [a](x, z).", &mut al).unwrap();
        let (m, stats) = minimize_uc2rpq(&q, &al, &Config::default());
        assert_eq!(stats.atoms_removed, 1);
        assert_eq!(m.disjuncts[0].atoms.len(), 1);
        assert_equivalent_on_random_dbs(&q, &m, &["a"]);
    }

    #[test]
    fn necessary_atoms_are_kept() {
        let mut al = Alphabet::new();
        let q = parse_uc2rpq("Q(x) :- [a](x, y), [b](x, z).", &mut al).unwrap();
        let (m, stats) = minimize_uc2rpq(&q, &al, &Config::default());
        assert_eq!(stats.atoms_removed, 0);
        assert_eq!(m.disjuncts[0].atoms.len(), 2);
        assert_equivalent_on_random_dbs(&q, &m, &["a", "b"]);
    }

    #[test]
    fn atom_regexes_are_simplified() {
        let mut al = Alphabet::new();
        let q = parse_uc2rpq("Q(x, y) :- [a* a*](x, y).", &mut al).unwrap();
        let (m, stats) = minimize_uc2rpq(&q, &al, &Config::default());
        assert_eq!(stats.atoms_simplified, 1);
        let shown = m.disjuncts[0].atoms[0].rel.regex().display(&al).to_string();
        assert_eq!(shown, "a*");
        assert_equivalent_on_random_dbs(&q, &m, &["a"]);
    }

    #[test]
    fn minimization_is_idempotent() {
        let mut al = Alphabet::new();
        let q = parse_uc2rpq(
            "Q(x, y) :- [a a](x, y), [a](x, m).\nQ(x, y) :- [a+](x, y).\nQ(x, y) :- [b](x, y).",
            &mut al,
        )
        .unwrap();
        let (m1, _) = minimize_uc2rpq(&q, &al, &Config::default());
        let (m2, stats2) = minimize_uc2rpq(&m1, &al, &Config::default());
        assert_eq!(m1, m2);
        assert_eq!(stats2, MinimizeStats::default());
        assert_equivalent_on_random_dbs(&q, &m1, &["a", "b"]);
    }

    #[test]
    fn triangle_pattern_is_untouched() {
        // No atom of the triangle is redundant.
        let mut al = Alphabet::new();
        let q = parse_uc2rpq("Q(x, y) :- [r](x, y), [r](y, z), [r](z, x).", &mut al).unwrap();
        let (m, stats) = minimize_uc2rpq(&q, &al, &Config::default());
        assert_eq!(stats.atoms_removed, 0);
        assert_eq!(m.disjuncts[0].atoms.len(), 3);
    }
}
