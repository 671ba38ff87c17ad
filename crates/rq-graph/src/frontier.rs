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
//!
//! The automaton is any ε-free [`Nfa`]. The engine's misses and subsumed
//! hits pass the one `CompiledQuery::automaton` chose when it compiled
//! the query: its trimmed minimal DFA in that form when it has no more
//! transitions than the query's NFA, that NFA otherwise; everything else
//! passes the NFA of `TwoRpq::new`. Fuel is one unit per product edge of
//! whichever automaton runs.
//!
//! Answers are harvested flat. One drain loop appends each source's final
//! nodes to a row `Vec`, deduplicated by epoch-stamped marks reused across
//! sources, and sorts the row; [`harvest_pairs`] lays rows out
//! source-major as `(x, y)` pairs. The `BTreeSet`-returning entry points
//! build their set once, from that sorted run.

use crate::db::{GraphDb, NodeId};
use crate::semipath::Semipath;
use rq_automata::governor::{Exhaustion, Governor};
use rq_automata::{Letter, Nfa};
use rq_metrics::span;
use std::collections::BTreeSet;

/// A product state: a database node paired with an automaton state.
pub type ProductState = (NodeId, usize);

/// An in-progress BFS over the product `db × nfa` from one source node.
///
/// The automaton must be ε-free (as `TwoRpq::new` and
/// `CompiledQuery::automaton` produce it); ε-moves would need closure
/// handling the frontier deliberately omits.
pub struct ProductBfs<'a> {
    db: &'a GraphDb,
    nfa: &'a Nfa,
    /// `finals[q]`: whether automaton state `q` is final, so a pop reads
    /// one flag instead of probing the automaton's final-state set.
    finals: Vec<bool>,
    seen: Vec<bool>,
    /// Every product state pushed so far; `queue[head..]` is the frontier.
    queue: Vec<ProductState>,
    head: usize,
    marks: Marks,
}

impl<'a> ProductBfs<'a> {
    /// Seed the frontier with `(source, q0)` for every initial state `q0`.
    pub fn new(db: &'a GraphDb, nfa: &'a Nfa, source: NodeId) -> Self {
        let mut bfs = ProductBfs::idle(db, nfa);
        bfs.seed(source);
        bfs
    }

    /// A search with an empty frontier, to be [`restart`](Self::restart)ed.
    fn idle(db: &'a GraphDb, nfa: &'a Nfa) -> Self {
        ProductBfs {
            db,
            nfa,
            finals: (0..nfa.num_states()).map(|q| nfa.is_final(q)).collect(),
            seen: vec![false; db.num_nodes() * nfa.num_states()],
            queue: Vec::new(),
            head: 0,
            marks: Marks::default(),
        }
    }

    /// Start over from `source`, keeping this search's buffers (and its
    /// harvest marks, which [`harvest`](Self::harvest) moves to a fresh
    /// epoch).
    fn restart(&mut self, source: NodeId) {
        self.seen.fill(false);
        self.queue.clear();
        self.head = 0;
        self.seed(source);
    }

    fn seed(&mut self, source: NodeId) {
        let nfa = self.nfa;
        for q in nfa.initial_states() {
            self.push(source, q);
        }
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
        self.queue.push((node, state));
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
        reached: impl FnMut(usize, ProductState, Letter),
    ) -> Result<Option<ProductState>, Exhaustion> {
        let Some(popped) = self.pop() else {
            return Ok(None);
        };
        self.expand(popped, gov, reached)?;
        Ok(Some(popped))
    }

    #[inline]
    fn pop(&mut self) -> Option<ProductState> {
        let popped = *self.queue.get(self.head)?;
        self.head += 1;
        Some(popped)
    }

    /// Push every successor of `from` not yet seen, spending one fuel unit
    /// per product edge.
    #[inline]
    fn expand(
        &mut self,
        from: ProductState,
        gov: &Governor,
        mut reached: impl FnMut(usize, ProductState, Letter),
    ) -> Result<(), Exhaustion> {
        let (node, state) = from;
        for &(l, t) in self.nfa.transitions_from(state) {
            for n2 in self.db.step(node, l) {
                gov.tick()?;
                if self.push(n2, t) {
                    reached(self.key(n2, t), from, l);
                }
            }
        }
        Ok(())
    }

    /// The drain loop every answer-harvesting search runs: pop product
    /// states until the frontier is empty, appending each node reached in
    /// a final state to `out` once (a node can be final in several
    /// automaton states; `marks` drops the repeats), then sort the
    /// appended row. On exhaustion `out` is truncated back to its length
    /// on entry, so a caller never sees a partial row.
    fn harvest(&mut self, gov: &Governor, out: &mut Vec<NodeId>) -> Result<(), Exhaustion> {
        let mut span = span::start("frontier.bfs");
        // The counter snapshot includes a clock read; skip it (like the
        // annotations below) on the untraced hot path.
        let fuel_before = if span.active() { gov.fuel_spent() } else { 0 };
        self.marks.next_epoch(self.db.num_nodes());
        let start = out.len();
        let mut expanded = 0u64;
        let mut peak = self.queue.len() - self.head;
        let result = loop {
            let Some((node, state)) = self.pop() else {
                break Ok(());
            };
            if let Err(e) = self.expand((node, state), gov, |_, _, _| {}) {
                break Err(e);
            }
            expanded += 1;
            peak = peak.max(self.queue.len() - self.head);
            if self.finals[state] && self.marks.mark(node) {
                out.push(node);
            }
        };
        match result {
            Ok(()) => out[start..].sort_unstable(),
            Err(_) => out.truncate(start),
        }
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

    /// Drain the frontier, collecting every node reached in a final state.
    pub fn run(&mut self, gov: &Governor) -> Result<BTreeSet<NodeId>, Exhaustion> {
        let mut row = Vec::new();
        self.harvest(gov, &mut row)?;
        Ok(row.into_iter().collect())
    }
}

/// Harvest dedup marks: one epoch stamp per database node. A node counts
/// as marked only when its stamp equals the current epoch, and each search
/// starts a fresh epoch, so one array serves every source of a run with
/// no clearing and no reallocation.
#[derive(Default)]
struct Marks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Marks {
    /// Start a new epoch over (at least) `num_nodes` nodes: every node
    /// reads as unmarked again.
    fn next_epoch(&mut self, num_nodes: usize) {
        if self.stamps.len() < num_nodes {
            self.stamps.resize(num_nodes, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: a stamp left from 2^32 epochs ago would read as
            // current, so clear them all once.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `node`; whether it was unmarked in this epoch.
    #[inline]
    fn mark(&mut self, node: NodeId) -> bool {
        let stamp = &mut self.stamps[node.index()];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
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
                if node == target && bfs.finals[state] {
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
            Some((node, state)) if node == target && bfs.finals[state] => break (node, state),
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

/// Append `(x, y)` to `out` for every source `x` of `sources` and every
/// `y` it answers, source-major: sources in the given order, each one's
/// targets ascending, so ascending sources append a sorted run. One
/// product BFS per source, all reusing one search's buffers, harvest marks
/// and row. On exhaustion `out` may hold the sources finished so far.
pub fn harvest_pairs(
    db: &GraphDb,
    nfa: &Nfa,
    sources: impl IntoIterator<Item = NodeId>,
    gov: &Governor,
    out: &mut Vec<(NodeId, NodeId)>,
) -> Result<(), Exhaustion> {
    let mut bfs = ProductBfs::idle(db, nfa);
    let mut row = Vec::new();
    for x in sources {
        gov.check_wall()?;
        bfs.restart(x);
        row.clear();
        bfs.harvest(gov, &mut row)?;
        out.extend(row.iter().map(|&y| (x, y)));
    }
    Ok(())
}

/// The full all-pairs answer (governed, sequential): one product BFS per
/// source node. The parallel engine runs the same per-source searches
/// over one contiguous slice of the sources per worker.
pub fn all_pairs_governed(
    db: &GraphDb,
    nfa: &Nfa,
    gov: &Governor,
) -> Result<BTreeSet<(NodeId, NodeId)>, Exhaustion> {
    let mut pairs = Vec::new();
    harvest_pairs(db, nfa, db.nodes(), gov, &mut pairs)?;
    Ok(pairs.into_iter().collect())
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
        let fields = bfs_span_fields(|| {
            reachable_governed(&db, &n, ns[0], &Governor::unlimited()).unwrap();
        });
        let field = |k: &str| fields.iter().find(|(key, _)| *key == k).map(|(_, v)| v);
        // 3 reachable nodes on the chain: expansions and fuel both > 0.
        assert!(field("expanded").unwrap().parse::<u64>().unwrap() > 0);
        assert!(field("fuel").unwrap().parse::<u64>().unwrap() > 0);
        assert!(field("frontier_peak").is_some());
        assert_eq!(field("exhausted"), None, "search completed");
    }

    /// The `(field, value)` annotations of the one `frontier.bfs` span that
    /// `search` opens.
    fn bfs_span_fields(search: impl FnOnce()) -> Vec<(&'static str, String)> {
        let ctx = span::TraceContext::start();
        {
            let _g = span::install(&ctx, 0);
            search();
        }
        let t = ctx.finish("ok", "");
        let mut bfs = t.spans.into_iter().filter(|s| s.name == "frontier.bfs");
        let fields = bfs.next().expect("BFS opened a span").fields;
        assert!(bfs.next().is_none(), "one search, one span");
        fields
    }

    #[test]
    fn a_node_final_in_two_states_is_harvested_once() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        // v0 reaches v1 both by `r` and by `r r- r`, ending in two
        // different final states.
        let n = nfa("r | r r- r", &mut al);
        let gov = Governor::unlimited();
        let mut bfs = ProductBfs::new(&db, &n, ns[0]);
        let mut final_pops = 0;
        while let Some((node, state)) = bfs.step(&gov).unwrap() {
            if node == ns[1] && n.is_final(state) {
                final_pops += 1;
            }
        }
        assert_eq!(final_pops, 2, "the fixture must reach v1 finally twice");
        let mut row = Vec::new();
        ProductBfs::new(&db, &n, ns[0])
            .harvest(&gov, &mut row)
            .unwrap();
        assert_eq!(row, [ns[1]]);
    }

    #[test]
    fn harvested_rows_are_sorted() {
        // v0 → v3 → v1 → v2: BFS pops v3 first, then v1, then v2.
        let mut db = GraphDb::new();
        let ns: Vec<NodeId> = (0..4).map(|i| db.node(&format!("v{i}"))).collect();
        let r = db.label("r");
        for (a, b) in [(0, 3), (3, 1), (1, 2)] {
            db.add_edge(ns[a], r, ns[b]);
        }
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let gov = Governor::unlimited();
        let mut pops = Vec::new();
        let mut bfs = ProductBfs::new(&db, &n, ns[0]);
        while let Some((node, state)) = bfs.step(&gov).unwrap() {
            if n.is_final(state) {
                pops.push(node);
            }
        }
        assert_eq!(pops, [ns[3], ns[1], ns[2]], "BFS order is not id order");
        // A row appended after existing content sorts only its own part.
        let mut row = vec![ns[3]];
        ProductBfs::new(&db, &n, ns[0])
            .harvest(&gov, &mut row)
            .unwrap();
        assert_eq!(row, [ns[3], ns[1], ns[2], ns[3]]);
    }

    #[test]
    fn a_restarted_search_gives_the_rows_of_fresh_runs() {
        let db = crate::generate::random_gnm(40, 80, &["a", "b"], 7);
        let mut al = db.alphabet().clone();
        let n = nfa("a (b | a-)* | b b-", &mut al);
        let gov = Governor::unlimited();
        let mut bfs = ProductBfs::idle(&db, &n);
        // Start the marks two epochs short of the wrap, so the sweep
        // crosses it.
        bfs.marks.epoch = u32::MAX - 2;
        let mut nonempty = 0;
        for x in db.nodes() {
            bfs.restart(x);
            let mut row = Vec::new();
            bfs.harvest(&gov, &mut row).unwrap();
            let fresh: Vec<NodeId> = ProductBfs::new(&db, &n, x)
                .run(&gov)
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(row, fresh, "source {x:?}");
            nonempty += usize::from(!row.is_empty());
        }
        assert!(nonempty > 1, "the fixture must answer several sources");
        assert!(bfs.marks.epoch < 64, "the epoch wrapped during the sweep");
    }

    #[test]
    fn a_fuel_trip_mid_harvest_is_an_error_on_the_span() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r*", &mut al);
        let mut row = vec![ns[3]];
        let mut result = None;
        let fields = bfs_span_fields(|| {
            let gov = Limits::unlimited().with_fuel(2).governor();
            result = Some(ProductBfs::new(&db, &n, ns[0]).harvest(&gov, &mut row));
        });
        let e = result.unwrap().unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        assert_eq!(row, [ns[3]], "no partial row is left behind");
        let field = |k: &str| fields.iter().find(|(key, _)| *key == k).map(|(_, v)| v);
        assert_eq!(field("exhausted").map(String::as_str), Some("true"));
        assert_eq!(field("fuel").map(String::as_str), Some("3"));
    }

    #[test]
    fn harvest_pairs_is_source_major() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let mut pairs = Vec::new();
        let sources = [ns[2], ns[0], ns[2]];
        harvest_pairs(&db, &n, sources, &Governor::unlimited(), &mut pairs).unwrap();
        let expect = [(2, 3), (0, 1), (0, 2), (0, 3), (2, 3)].map(|(x, y)| (ns[x], ns[y]));
        assert_eq!(pairs, expect);
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
