//! Reusable frontier steps for product-automaton search.
//!
//! RPQ/2RPQ evaluation is BFS over the product of a database with the query
//! automaton (§3.1: `O(|V| · (|V| + |E|) · |Q|)` for all pairs). This module
//! factors the product BFS into a reusable, *governed* primitive so the same
//! frontier code backs the sequential evaluator (`rq-core`), the parallel
//! serving engine (`rq-engine`), and the cache-filtering membership
//! re-checks — all metered by one [`Governor`] protocol:
//!
//! * one **fuel** unit per product-edge expansion (deterministic and
//!   portable — the same search exhausts at the same point everywhere);
//! * the wall clock / cancellation flag polled on the masked fuel path.
//!
//! The ungoverned entry points in `rq-core` run these under
//! [`Governor::unlimited`], which never exhausts.

use crate::db::{GraphDb, NodeId};
use crate::semipath::Semipath;
use rq_automata::governor::{Exhaustion, Governor};
use rq_automata::{Letter, Nfa};
use rq_metrics::span;
use std::collections::{BTreeSet, VecDeque};

/// A product state: a database node paired with an automaton state.
pub type ProductState = (NodeId, usize);

/// An in-progress BFS over the product `db × nfa` from one source node.
///
/// The automaton must be ε-free (as produced by `TwoRpq::new`); ε-moves
/// would need closure handling the frontier deliberately omits.
pub struct ProductBfs<'a> {
    db: &'a GraphDb,
    nfa: &'a Nfa,
    seen: Vec<bool>,
    queue: VecDeque<ProductState>,
}

impl<'a> ProductBfs<'a> {
    /// Seed the frontier with `(source, q0)` for every initial state `q0`.
    pub fn new(db: &'a GraphDb, nfa: &'a Nfa, source: NodeId) -> Self {
        let mut bfs = ProductBfs {
            db,
            nfa,
            seen: vec![false; db.num_nodes() * nfa.num_states()],
            queue: VecDeque::new(),
        };
        for q in nfa.initial_states() {
            bfs.push(source, q);
        }
        bfs
    }

    #[inline]
    fn key(&self, node: NodeId, state: usize) -> usize {
        node.index() * self.nfa.num_states() + state
    }

    /// Seed `(node, state)` into the frontier if not yet visited. Returns
    /// whether the pair was new.
    pub fn push(&mut self, node: NodeId, state: usize) -> bool {
        let key = self.key(node, state);
        if self.seen[key] {
            return false;
        }
        self.seen[key] = true;
        self.queue.push_back((node, state));
        true
    }

    /// Pop one product state and expand its successors into the frontier.
    /// Each product-edge expansion spends one fuel unit on `gov`.
    ///
    /// Returns the popped state (check [`Nfa::is_final`] on its automaton
    /// component to harvest answers), or `None` when the search is done.
    pub fn step(&mut self, gov: &Governor) -> Result<Option<ProductState>, Exhaustion> {
        self.step_reporting(gov, |_, _, _| {})
    }

    /// [`step`](Self::step), also calling `reached(key, from, letter)` for
    /// every product state first reached by this expansion, where `key` is
    /// its dense index. The plain `step` passes a no-op, which the
    /// optimizer erases.
    fn step_reporting(
        &mut self,
        gov: &Governor,
        mut reached: impl FnMut(usize, ProductState, Letter),
    ) -> Result<Option<ProductState>, Exhaustion> {
        let Some((node, state)) = self.queue.pop_front() else {
            return Ok(None);
        };
        for &(l, t) in self.nfa.transitions_from(state) {
            for n2 in self.db.step(node, l) {
                gov.tick()?;
                if self.push(n2, t) {
                    reached(self.key(n2, t), (node, state), l);
                }
            }
        }
        Ok(Some((node, state)))
    }

    /// Drain the frontier, collecting every node reached in a final state.
    pub fn run(&mut self, gov: &Governor) -> Result<BTreeSet<NodeId>, Exhaustion> {
        let mut span = span::start("frontier.bfs");
        // The counter snapshot includes a clock read; skip it (like the
        // annotations below) on the untraced hot path.
        let fuel_before = if span.active() { gov.fuel_spent() } else { 0 };
        let mut out = BTreeSet::new();
        let mut expanded = 0u64;
        let mut peak = self.queue.len();
        let result = loop {
            match self.step(gov) {
                Ok(Some((node, state))) => {
                    expanded += 1;
                    peak = peak.max(self.queue.len());
                    if self.nfa.is_final(state) {
                        out.insert(node);
                    }
                }
                Ok(None) => break Ok(out),
                Err(e) => break Err(e),
            }
        };
        // One flush per search, never per expansion, keeps the atomics off
        // the BFS hot path (partial work is reported even on exhaustion).
        metrics::record_search(expanded);
        if span.active() {
            span.record("expanded", expanded);
            span.record("frontier_peak", peak);
            span.record("fuel", gov.fuel_spent() - fuel_before);
            if result.is_err() {
                span.record("exhausted", "true");
            }
        }
        result
    }
}

/// Frontier-level counters: searches run and product states expanded.
/// Accumulated locally during a BFS and flushed once at the end.
mod metrics {
    use rq_metrics::{global, Counter};
    use std::sync::{Arc, OnceLock};

    pub(super) fn record_search(expanded: u64) {
        static CELLS: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
        let (searches, expansions) = CELLS.get_or_init(|| {
            (
                global().counter(
                    "rq_frontier_searches_total",
                    "Product-automaton BFS searches run",
                ),
                global().counter(
                    "rq_frontier_expansions_total",
                    "Product states expanded across all BFS searches",
                ),
            )
        });
        searches.inc();
        expansions.add(expanded);
    }
}

/// Nodes reachable from `source` by a semipath conforming to `nfa`
/// (governed single-source evaluation).
pub fn reachable_governed(
    db: &GraphDb,
    nfa: &Nfa,
    source: NodeId,
    gov: &Governor,
) -> Result<BTreeSet<NodeId>, Exhaustion> {
    ProductBfs::new(db, nfa, source).run(gov)
}

/// Whether `(source, target)` is answered — a governed membership re-check
/// for one pair, with early exit on the first witnessing product state.
pub fn pair_reachable_governed(
    db: &GraphDb,
    nfa: &Nfa,
    source: NodeId,
    target: NodeId,
    gov: &Governor,
) -> Result<bool, Exhaustion> {
    let mut span = span::start("frontier.pair_check");
    let fuel_before = if span.active() { gov.fuel_spent() } else { 0 };
    let mut bfs = ProductBfs::new(db, nfa, source);
    let mut expanded = 0u64;
    let result = loop {
        match bfs.step(gov) {
            Ok(Some((node, state))) => {
                expanded += 1;
                if node == target && nfa.is_final(state) {
                    break Ok(true);
                }
            }
            Ok(None) => break Ok(false),
            Err(e) => break Err(e),
        }
    };
    metrics::record_search(expanded);
    if span.active() {
        span.record("expanded", expanded);
        span.record("fuel", gov.fuel_spent() - fuel_before);
        if let Ok(hit) = &result {
            span.record("verdict", if *hit { "reached" } else { "unreached" });
        }
    }
    result
}

/// A shortest semipath from `source` to `target` conforming to `nfa`, if
/// `(source, target)` is answered. The same search as
/// [`pair_reachable_governed`], plus a predecessor per product state —
/// allocated here only, so the answer-only searches never pay for it.
pub fn witness_governed(
    db: &GraphDb,
    nfa: &Nfa,
    source: NodeId,
    target: NodeId,
    gov: &Governor,
) -> Result<Option<Semipath>, Exhaustion> {
    let mut bfs = ProductBfs::new(db, nfa, source);
    // pred[key]: the product state, and the letter, that first reached `key`.
    let mut pred: Vec<Option<(ProductState, Letter)>> = vec![None; bfs.seen.len()];
    let hit = loop {
        match bfs.step_reporting(gov, |key, from, l| pred[key] = Some((from, l)))? {
            Some((node, state)) if node == target && nfa.is_final(state) => break (node, state),
            Some(_) => {}
            None => return Ok(None),
        }
    };
    let mut nodes = vec![hit.0];
    let mut word = Vec::new();
    let mut at = hit;
    while let Some((from, l)) = pred[bfs.key(at.0, at.1)] {
        word.push(l);
        nodes.push(from.0);
        at = from;
    }
    nodes.reverse();
    word.reverse();
    Ok(Some(Semipath::new(nodes, word)))
}

/// The full all-pairs answer (governed, sequential): one product BFS per
/// source node. The parallel engine runs the same per-source searches
/// partitioned across its worker pool.
pub fn all_pairs_governed(
    db: &GraphDb,
    nfa: &Nfa,
    gov: &Governor,
) -> Result<BTreeSet<(NodeId, NodeId)>, Exhaustion> {
    let mut out = BTreeSet::new();
    for x in db.nodes() {
        gov.check_wall()?;
        for y in reachable_governed(db, nfa, x, gov)? {
            out.insert((x, y));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_automata::regex::parse;
    use rq_automata::{Alphabet, Limits, Resource};

    fn chain3() -> (GraphDb, Vec<NodeId>) {
        let mut db = GraphDb::new();
        let ns: Vec<NodeId> = (0..4).map(|i| db.node(&format!("v{i}"))).collect();
        let r = db.label("r");
        for w in ns.windows(2) {
            db.add_edge(w[0], r, w[1]);
        }
        (db, ns)
    }

    fn nfa(s: &str, al: &mut Alphabet) -> Nfa {
        Nfa::from_regex(&parse(s, al).unwrap())
            .eliminate_epsilon()
            .trim()
    }

    #[test]
    fn reachable_matches_expectations() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let gov = Governor::unlimited();
        let reached = reachable_governed(&db, &n, ns[0], &gov).unwrap();
        assert_eq!(reached, ns[1..].iter().copied().collect());
        assert!(reachable_governed(&db, &n, ns[3], &gov).unwrap().is_empty());
    }

    #[test]
    fn pair_membership_early_exits() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r r", &mut al);
        let gov = Governor::unlimited();
        assert!(pair_reachable_governed(&db, &n, ns[0], ns[2], &gov).unwrap());
        assert!(!pair_reachable_governed(&db, &n, ns[0], ns[3], &gov).unwrap());
    }

    #[test]
    fn all_pairs_counts_chain_suffixes() {
        let (db, _) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let pairs = all_pairs_governed(&db, &n, &Governor::unlimited()).unwrap();
        assert_eq!(pairs.len(), 3 + 2 + 1);
    }

    #[test]
    fn witness_is_a_shortest_conforming_semipath() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+ r- r", &mut al);
        let gov = Governor::unlimited();
        let sp = witness_governed(&db, &n, ns[0], ns[2], &gov)
            .unwrap()
            .expect("v0 reaches v2");
        assert!(sp.is_valid_in(&db) && sp.conforms_to(&n));
        assert_eq!((sp.source(), sp.target(), sp.len()), (ns[0], ns[2], 4));
        assert_eq!(witness_governed(&db, &n, ns[3], ns[0], &gov).unwrap(), None);
        let starved = Limits::unlimited().with_fuel(1).governor();
        assert!(witness_governed(&db, &n, ns[0], ns[3], &starved).is_err());
    }

    #[test]
    fn fuel_budget_trips_the_search() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r*", &mut al);
        let gov = Limits::unlimited().with_fuel(1).governor();
        let e = reachable_governed(&db, &n, ns[0], &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
    }

    #[test]
    fn bfs_records_an_annotated_span() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let ctx = span::TraceContext::start();
        {
            let _g = span::install(&ctx, 0);
            let gov = Governor::unlimited();
            reachable_governed(&db, &n, ns[0], &gov).unwrap();
        }
        let t = ctx.finish("ok", "");
        let bfs_span = t
            .spans
            .iter()
            .find(|s| s.name == "frontier.bfs")
            .expect("BFS opened a span");
        let field = |k: &str| {
            bfs_span
                .fields
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
        };
        // 3 reachable nodes on the chain: expansions and fuel both > 0.
        assert!(field("expanded").unwrap().parse::<u64>().unwrap() > 0);
        assert!(field("fuel").unwrap().parse::<u64>().unwrap() > 0);
        assert!(field("frontier_peak").is_some());
        assert_eq!(field("exhausted"), None, "search completed");
    }

    #[test]
    fn backward_letters_follow_in_edges() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r-", &mut al);
        let gov = Governor::unlimited();
        let reached = reachable_governed(&db, &n, ns[2], &gov).unwrap();
        assert_eq!(reached, [ns[1]].into_iter().collect());
    }
}
