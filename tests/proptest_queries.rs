//! Randomized property tests over query evaluation and the engines'
//! agreement: C2RPQ joins vs brute force, RQ evaluation vs exact
//! unfolding, Datalog naive vs semi-naive, and the RQ → Datalog
//! translation. Instances come from the in-repo seeded [`SplitMix64`]
//! PRNG — reproducible everywhere, no external dependencies.

use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::core::crpq::{C2Rpq, C2RpqAtom};
use regular_queries::core::rq::{RqExpr, RqQuery};
use regular_queries::core::translate::{graphdb_to_factdb, node_constant, rq_to_datalog};
use regular_queries::datalog::eval::{evaluate_program, evaluate_program_naive};
use regular_queries::datalog::Relation;
use regular_queries::graph::generate;
use regular_queries::prelude::*;
use std::collections::BTreeSet;

/// A small random graph database parameterized by a seed.
fn db_from_seed(seed: u64) -> GraphDb {
    generate::random_gnm(6, 14, &["a", "b"], seed)
}

/// A random RQ expression over variables x, y (binary head), built from a
/// seed so failures reproduce from the seed alone.
fn rq_from_seed(seed: u64) -> RqQuery {
    let mut rng = SplitMix64::new(seed);
    let a = LabelId(0);
    let b = LabelId(1);
    let leaf = |rng: &mut SplitMix64| -> RqExpr {
        match rng.below(3) {
            0 => RqExpr::edge(a, "x", "y"),
            1 => RqExpr::edge(b, "x", "y"),
            _ => {
                let cfg = RegexConfig {
                    num_labels: 2,
                    inverse_prob: 0.3,
                    leaves: 3,
                    repeat_prob: 0.3,
                };
                let re = random_regex(rng, &cfg);
                RqExpr::rel2(TwoRpq::new(re), "x", "y")
            }
        }
    };
    let mut expr = leaf(&mut rng);
    for step in 0..rng.below(3) {
        expr = match rng.below(4) {
            0 => expr.or(leaf(&mut rng)),
            1 => {
                // Composition through a unique middle variable: rename the
                // current query's `y` endpoint to `mid`, append one edge
                // `mid → y`, and project the junction away. The unique
                // name avoids capturing earlier projections.
                let mid = format!("mid{seed}_{step}");
                let renamed = expr.rename_all(&{
                    let mid = mid.clone();
                    move |v: &str| if v == "y" { mid.clone() } else { v.to_owned() }
                });
                let label = if rng.below(2) == 0 { a } else { b };
                renamed
                    .and(RqExpr::edge(label, mid.clone(), "y"))
                    .project(mid)
            }
            2 => expr.closure("x", "y"),
            _ => expr.and(leaf(&mut rng)),
        };
    }
    RqQuery::new(vec!["x".into(), "y".into()], expr).expect("constructed to be valid")
}

/// C2RPQ join evaluation equals brute-force variable enumeration.
#[test]
fn c2rpq_join_equals_bruteforce() {
    for case in 0..32u64 {
        let mut meta = SplitMix64::new(case);
        let seed = meta.next_u64() % 500;
        let db_seed = meta.next_u64() % 50;
        let db = db_from_seed(db_seed);
        let mut rng = SplitMix64::new(seed);
        let cfg = RegexConfig {
            num_labels: 2,
            inverse_prob: 0.3,
            leaves: 3,
            repeat_prob: 0.4,
        };
        // 2–3 atoms over variables {x, y, z, w}.
        let vars = ["x", "y", "z", "w"];
        let n_atoms = 2 + rng.below(2);
        let atoms: Vec<C2RpqAtom> = (0..n_atoms)
            .map(|_| {
                let re = random_regex(&mut rng, &cfg);
                let f = vars[rng.below(4)];
                let t = vars[rng.below(4)];
                C2RpqAtom::new(TwoRpq::new(re), f, t)
            })
            .collect();
        let used: Vec<&str> = {
            let mut u = Vec::new();
            for a in &atoms {
                for v in [a.from.as_str(), a.to.as_str()] {
                    if !u.contains(&v) {
                        u.push(v);
                    }
                }
            }
            u
        };
        let head: Vec<String> = used.iter().take(2).map(|s| (*s).to_string()).collect();
        let q = C2Rpq::new(head.clone(), atoms.clone()).expect("head vars occur");
        let fast = q.evaluate(&db);

        // Brute force: materialize atom relations, enumerate assignments.
        let rels: Vec<BTreeSet<(NodeId, NodeId)>> =
            atoms.iter().map(|a| a.rel.evaluate(&db)).collect();
        let nodes: Vec<NodeId> = db.nodes().collect();
        let mut slow = BTreeSet::new();
        let k = used.len();
        let mut idx = vec![0usize; k];
        loop {
            let assign = |v: &str| -> NodeId {
                nodes[idx[used.iter().position(|u| *u == v).expect("used")]]
            };
            if atoms
                .iter()
                .zip(&rels)
                .all(|(a, r)| r.contains(&(assign(&a.from), assign(&a.to))))
            {
                slow.insert(head.iter().map(|h| assign(h)).collect::<Vec<_>>());
            }
            // Odometer.
            let mut c = 0;
            loop {
                if c == k {
                    break;
                }
                idx[c] += 1;
                if idx[c] < nodes.len() {
                    break;
                }
                idx[c] = 0;
                c += 1;
            }
            if c == k {
                break;
            }
        }
        assert_eq!(fast, slow, "case {case} (seed {seed}, db {db_seed})");
    }
}

/// RQ semantic evaluation agrees with exact unfolding whenever the
/// unfolding reports exactness.
#[test]
fn rq_eval_matches_exact_unfold() {
    for case in 0..48u64 {
        let mut meta = SplitMix64::new(case);
        let seed = meta.next_u64() % 300;
        let db_seed = meta.next_u64() % 30;
        let q = rq_from_seed(seed);
        if let Ok((u, true)) = q.unfold_with_exactness(3, 20_000) {
            let db = db_from_seed(db_seed);
            assert_eq!(
                q.evaluate(&db),
                u.evaluate(&db),
                "case {case} (seed {seed})"
            );
        }
    }
}

/// Unfoldings are sound under-approximations even when inexact.
#[test]
fn rq_unfold_is_sound() {
    for case in 0..48u64 {
        let mut meta = SplitMix64::new(case);
        let seed = meta.next_u64() % 300;
        let db_seed = meta.next_u64() % 30;
        let q = rq_from_seed(seed);
        if let Ok(u) = q.unfold(2, 20_000) {
            let db = db_from_seed(db_seed);
            let full = q.evaluate(&db);
            for t in u.evaluate(&db) {
                assert!(full.contains(&t), "case {case} (seed {seed})");
            }
        }
    }
}

/// The §4.1 translation preserves semantics on random databases.
#[test]
fn rq_to_datalog_preserves_semantics() {
    for case in 0..48u64 {
        let mut meta = SplitMix64::new(case);
        let seed = meta.next_u64() % 200;
        let db_seed = meta.next_u64() % 20;
        let q = rq_from_seed(seed);
        let db = db_from_seed(db_seed);
        let al = db.alphabet().clone();
        let dq = rq_to_datalog(&q, &al);
        assert!(
            regular_queries::datalog::grq::is_grq(&dq.program),
            "case {case} (seed {seed})"
        );
        let facts = graphdb_to_factdb(&db);
        let rel = regular_queries::datalog::evaluate(&dq, &facts);
        let datalog: BTreeSet<Vec<String>> = rel
            .iter()
            .map(|t| t.iter().map(|&v| facts.value_name(v).to_owned()).collect())
            .collect();
        let direct: BTreeSet<Vec<String>> = q
            .evaluate(&db)
            .into_iter()
            .map(|t| t.into_iter().map(|n| node_constant(&db, n)).collect())
            .collect();
        assert_eq!(datalog, direct, "case {case} (seed {seed}, db {db_seed})");
    }
}

/// Naive and semi-naive Datalog evaluation always agree.
#[test]
fn datalog_engines_agree() {
    for seed in 0..48u64 {
        let q = rq_from_seed(seed);
        let db = db_from_seed(seed % 17);
        let al = db.alphabet().clone();
        let dq = rq_to_datalog(&q, &al);
        let facts = graphdb_to_factdb(&db);
        let (semi, _) = evaluate_program(&dq.program, &facts);
        let (naive, _) = evaluate_program_naive(&dq.program, &facts);
        let goal_semi = semi.relation(&dq.goal).cloned();
        let goal_naive = naive.relation(&dq.goal).cloned();
        assert_eq!(
            goal_semi.as_ref().map(Relation::len),
            goal_naive.as_ref().map(Relation::len),
            "seed {seed}"
        );
        if let (Some(a), Some(b)) = (goal_semi, goal_naive) {
            assert_eq!(a, b, "seed {seed}");
        }
    }
}

/// Evaluation is monotone under edge addition (RQ queries are positive).
#[test]
fn rq_eval_is_monotone() {
    for case in 0..48u64 {
        let mut meta = SplitMix64::new(case);
        let seed = meta.next_u64() % 200;
        let db_seed = meta.next_u64() % 20;
        let q = rq_from_seed(seed);
        let db = db_from_seed(db_seed);
        let before = q.evaluate(&db);
        let mut bigger = db.clone();
        let extra = generate::random_gnm(6, 5, &["a", "b"], db_seed + 1000);
        for label in extra.alphabet().labels() {
            let name = extra.alphabet().name(label).to_owned();
            for (s, d) in extra.edges(label) {
                let l = bigger.label(&name);
                let s2 = NodeId(s.0.min(bigger.num_nodes() as u32 - 1));
                let d2 = NodeId(d.0.min(bigger.num_nodes() as u32 - 1));
                bigger.add_edge(s2, l, d2);
            }
        }
        let after = q.evaluate(&bigger);
        for t in before {
            assert!(after.contains(&t), "case {case} (seed {seed})");
        }
    }
}

/// Governed semi-naive evaluation with ample budget matches ungoverned
/// evaluation exactly, over random GRQ-translated programs.
#[test]
fn governed_datalog_matches_ungoverned() {
    use regular_queries::automata::Limits;
    for seed in 0..24u64 {
        let q = rq_from_seed(seed);
        let db = db_from_seed(seed % 11);
        let al = db.alphabet().clone();
        let dq = rq_to_datalog(&q, &al);
        let facts = graphdb_to_factdb(&db);
        let plain = regular_queries::datalog::evaluate(&dq, &facts);
        let gov = Limits::unlimited().with_tuples(1_000_000).governor();
        let governed = regular_queries::datalog::evaluate_governed(&dq, &facts, &gov)
            .expect("ample budget never exhausts on small instances");
        assert_eq!(plain, governed, "seed {seed}");
        assert!(
            gov.counters().tuples_derived > 0 || plain.is_empty(),
            "seed {seed}"
        );
    }
}
