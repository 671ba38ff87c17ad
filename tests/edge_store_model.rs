//! Model-based test of `GraphDb`'s edge store against a naive reference.
//!
//! The differential suites compare evaluators that all read edges through
//! `GraphDb::step`, so a bug in the store itself would be shared by both
//! sides. Here an independent reference — a plain list of `(src, label,
//! dst)` triples in insertion order — is driven through the same seeded
//! operation sequence: node and label interning, adds, duplicate adds,
//! removes, removes of absent edges, and re-adds. After every operation
//! the two must agree on the exact `step` sequence for every (node,
//! letter), on `has_edge`, `num_edges` and `degree`, and on the set
//! `edges(label)` yields. At the end of each sequence the database is
//! written to a snapshot and reopened at 1 and 4 shards, and the reopened
//! copy is checked against the same reference; its backward rows are
//! compared as sets, since loading rebuilds them in source order.
//!
//! Scales with `PROPTEST_CASES` (default 32); a failure names its case.

use regular_queries::automata::random::SplitMix64;
use regular_queries::automata::{LabelId, Letter};
use regular_queries::graph::{GraphDb, NodeId};
use regular_queries::storage::{StorageConfig, StorageHandle};
use std::collections::BTreeSet;

/// Sample count: `PROPTEST_CASES` or 32.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const NODE_NAMES: [&str; 6] = ["u", "v", "w", "x", "y", "z"];
const LABEL_NAMES: [&str; 4] = ["a", "b", "c", "d"];
const OPS_PER_CASE: usize = 80;

type Edge = (NodeId, LabelId, NodeId);

/// The reference store: node names, a label count, and the live edges
/// in the order they were (last) added.
#[derive(Default)]
struct Model {
    names: Vec<Option<String>>,
    labels: Vec<&'static str>,
    edges: Vec<Edge>,
}

impl Model {
    fn add(&mut self, e: Edge) -> bool {
        if self.edges.contains(&e) {
            return false;
        }
        self.edges.push(e);
        true
    }

    fn remove(&mut self, e: Edge) -> bool {
        match self.edges.iter().position(|&x| x == e) {
            Some(i) => {
                self.edges.remove(i);
                true
            }
            None => false,
        }
    }

    fn step(&self, node: NodeId, letter: Letter) -> Vec<NodeId> {
        let from_to = |&(s, l, d): &Edge| match letter.inverse {
            false => (s, l, d),
            true => (d, l, s),
        };
        self.edges
            .iter()
            .map(from_to)
            .filter(|&(from, l, _)| from == node && l == letter.label)
            .map(|(_, _, to)| to)
            .collect()
    }

    fn degree(&self, node: NodeId) -> usize {
        let ends = self.edges.iter().flat_map(|&(s, _, d)| [s, d]);
        ends.filter(|&n| n == node).count()
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.names.len() as u32).map(NodeId)
    }

    fn label_ids(&self) -> impl Iterator<Item = LabelId> {
        (0..self.labels.len() as u32).map(LabelId)
    }

    fn random_edge(&self, rng: &mut SplitMix64) -> Option<Edge> {
        if self.names.is_empty() || self.labels.is_empty() {
            return None;
        }
        let node = |rng: &mut SplitMix64| NodeId(rng.below(self.names.len()) as u32);
        let s = node(rng);
        let l = LabelId(rng.below(self.labels.len()) as u32);
        Some((s, l, node(rng)))
    }
}

/// `db` agrees with `model` on every observable of the edge store.
/// `backward_in_order`: compare backward rows as sequences (a database
/// built edge by edge) or as sets (one reloaded from a snapshot).
fn check(db: &GraphDb, model: &Model, backward_in_order: bool, ctx: &str) {
    assert_eq!(db.num_nodes(), model.names.len(), "{ctx}: nodes");
    assert_eq!(db.num_edges(), model.edges.len(), "{ctx}: num_edges");
    assert_eq!(db.alphabet().len(), model.labels.len(), "{ctx}: labels");
    for (l, name) in model.label_ids().zip(&model.labels) {
        assert_eq!(db.alphabet().name(l), *name, "{ctx}: label {l:?}");
    }
    for n in model.nodes() {
        assert_eq!(
            db.node_name(n),
            model.names[n.index()].as_deref(),
            "{ctx}: name of {n:?}"
        );
        assert_eq!(db.degree(n), model.degree(n), "{ctx}: degree of {n:?}");
        for l in model.label_ids() {
            for letter in [Letter::forward(l), Letter::backward(l)] {
                let mut got: Vec<NodeId> = db.step(n, letter).collect();
                let mut want = model.step(n, letter);
                if letter.inverse && !backward_in_order {
                    got.sort();
                    want.sort();
                }
                assert_eq!(got, want, "{ctx}: step({n:?}, {letter:?})");
            }
            for m in model.nodes() {
                assert_eq!(
                    db.has_edge(n, l, m),
                    model.edges.contains(&(n, l, m)),
                    "{ctx}: has_edge({n:?}, {l:?}, {m:?})"
                );
            }
        }
    }
    for l in model.label_ids() {
        let got: Vec<(NodeId, NodeId)> = db.edges(l).collect();
        let set: BTreeSet<(NodeId, NodeId)> = got.iter().copied().collect();
        assert_eq!(set.len(), got.len(), "{ctx}: edges({l:?}) repeats a pair");
        let want: BTreeSet<(NodeId, NodeId)> = model
            .edges
            .iter()
            .filter(|e| e.1 == l)
            .map(|&(s, _, d)| (s, d))
            .collect();
        assert_eq!(set, want, "{ctx}: edges({l:?})");
    }
}

/// Apply one random operation to both stores, asserting they report
/// the same outcome. Returns a short description for failure messages.
fn random_op(
    rng: &mut SplitMix64,
    db: &mut GraphDb,
    model: &mut Model,
    removed: &mut Vec<Edge>,
) -> String {
    match rng.below(9) {
        0 => {
            let name = NODE_NAMES[rng.below(NODE_NAMES.len())];
            let known = model.names.iter().position(|n| n.as_deref() == Some(name));
            let want = known.unwrap_or_else(|| {
                model.names.push(Some(name.to_owned()));
                model.names.len() - 1
            });
            assert_eq!(db.node(name), NodeId(want as u32), "node({name})");
            format!("node({name})")
        }
        1 => {
            model.names.push(None);
            assert_eq!(db.add_node().index(), model.names.len() - 1);
            "add_node".to_owned()
        }
        2 => {
            let name = LABEL_NAMES[rng.below(LABEL_NAMES.len())];
            let known = model.labels.iter().position(|&l| l == name);
            let want = known.unwrap_or_else(|| {
                model.labels.push(name);
                model.labels.len() - 1
            });
            assert_eq!(db.label(name), LabelId(want as u32), "label({name})");
            format!("label({name})")
        }
        3 | 4 => match model.random_edge(rng) {
            Some(e) => {
                assert_eq!(db.add_edge(e.0, e.1, e.2), model.add(e), "add {e:?}");
                format!("add {e:?}")
            }
            None => "add (no nodes or labels)".to_owned(),
        },
        5 => match pick(rng, &model.edges) {
            Some(e) => {
                assert!(!db.add_edge(e.0, e.1, e.2), "duplicate add {e:?}");
                format!("duplicate add {e:?}")
            }
            None => "duplicate add (no edges)".to_owned(),
        },
        6 => match pick(rng, &model.edges) {
            Some(e) => {
                assert!(model.remove(e));
                assert!(db.remove_edge(e.0, e.1, e.2), "remove {e:?}");
                removed.push(e);
                format!("remove {e:?}")
            }
            None => "remove (no edges)".to_owned(),
        },
        7 => match model.random_edge(rng) {
            // Usually absent; when present this is an ordinary remove.
            Some(e) => {
                let present = model.remove(e);
                assert_eq!(db.remove_edge(e.0, e.1, e.2), present, "remove {e:?}");
                if present {
                    removed.push(e);
                }
                // A label no one interned names no edges.
                let (s, _, d) = e;
                let unknown = LabelId(model.labels.len() as u32 + 1);
                assert!(!db.remove_edge(s, unknown, d), "remove with unknown label");
                format!("remove maybe-absent {e:?}")
            }
            None => "remove maybe-absent (no nodes or labels)".to_owned(),
        },
        _ => match pick(rng, removed) {
            Some(e) => {
                assert_eq!(db.add_edge(e.0, e.1, e.2), model.add(e), "re-add {e:?}");
                format!("re-add {e:?}")
            }
            None => "re-add (nothing removed)".to_owned(),
        },
    }
}

/// A uniformly chosen element of `edges`, if any.
fn pick(rng: &mut SplitMix64, edges: &[Edge]) -> Option<Edge> {
    edges.get(rng.below(edges.len().max(1))).copied()
}

/// `db` written to a fresh store at `shards` shards and opened again.
fn reopen(db: &GraphDb, shards: u32, case: u64) -> GraphDb {
    let dir = std::env::temp_dir().join(format!(
        "rq-edge-model-{}-{case}-{shards}",
        std::process::id()
    ));
    let config = StorageConfig {
        shards,
        ..StorageConfig::default()
    };
    StorageHandle::create(&dir, db, config.clone()).unwrap();
    let (_, back, report) = StorageHandle::open(&dir, config).unwrap();
    assert_eq!(report.replayed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
    back
}

#[test]
fn edge_store_matches_a_naive_reference_through_random_edits_and_snapshots() {
    for case in 0..cases() {
        let mut rng = SplitMix64::new(0xED6E_5702 ^ case.wrapping_mul(0x9E37_79B9));
        let (mut db, mut model, mut removed) = (GraphDb::new(), Model::default(), Vec::new());
        for i in 0..OPS_PER_CASE {
            let op = random_op(&mut rng, &mut db, &mut model, &mut removed);
            check(&db, &model, true, &format!("case {case} op {i} ({op})"));
        }
        for shards in [1, 4] {
            let back = reopen(&db, shards, case);
            check(
                &back,
                &model,
                false,
                &format!("case {case} reopened at {shards} shards"),
            );
        }
    }
}
