//! The edge-labeled graph database.

use rq_automata::{Alphabet, LabelId, Letter};
use std::collections::HashMap;

/// Identifier of an object (node) in a [`GraphDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index into per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Adjacency rows for one direction: `rows[label][node]` lists the
/// neighbours of `node` along `label` in insertion order. Both levels grow
/// lazily, so an index past the end reads as an empty row.
type Rows = Vec<Vec<Vec<NodeId>>>;

fn row(rows: &Rows, label: LabelId, node: NodeId) -> &[NodeId] {
    rows.get(label.index())
        .and_then(|per_node| per_node.get(node.index()))
        .map_or(&[], Vec::as_slice)
}

fn row_mut(rows: &mut Rows, label: LabelId, node: NodeId) -> &mut Vec<NodeId> {
    if rows.len() <= label.index() {
        rows.resize_with(label.index() + 1, Vec::new);
    }
    let per_node = &mut rows[label.index()];
    if per_node.len() <= node.index() {
        per_node.resize_with(node.index() + 1, Vec::new);
    }
    &mut per_node[node.index()]
}

/// A finite directed graph with edges labeled from a finite alphabet Σ.
///
/// "Each node represents an object and an edge from object x to object y
/// labeled by r, denoted r(x, y), represents the fact that relation r holds
/// between x and y" (§3.1). The only edge index is one forward row
/// (`r`-successors) and one backward row (`r`-predecessors) per label and
/// node, so one step of `r` or `r⁻` from a node costs its `r`-degree — the
/// assumption behind the §3.1 bound `O(|V|·(|V|+|E|)·|Q|)`. A label's
/// forward rows, read source by source, are the relation `r(D)`.
///
/// "The edge alphabet of a graph database is simply part of the data and
/// can be changed simply by updating the database" — labels (and nodes) are
/// interned on first use.
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    alphabet: Alphabet,
    node_names: Vec<Option<String>>,
    node_index: HashMap<String, NodeId>,
    fwd: Rows,
    bwd: Rows,
    num_edges: usize,
}

impl GraphDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database over a pre-built alphabet.
    pub fn with_alphabet(alphabet: Alphabet) -> Self {
        GraphDb {
            alphabet,
            ..Self::default()
        }
    }

    /// Intern a named node (idempotent).
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = self.add_node();
        self.node_names[id.index()] = Some(name.to_owned());
        self.node_index.insert(name.to_owned(), id);
        id
    }

    /// Add an anonymous node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(None);
        id
    }

    /// Intern an edge label (idempotent).
    pub fn label(&mut self, name: &str) -> LabelId {
        self.alphabet.intern(name)
    }

    /// Add the edge `label(src, dst)`. Duplicate edges are ignored — a
    /// label denotes a *relation*, i.e., a set of pairs. Returns whether
    /// the edge was new.
    pub fn add_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        assert!(src.index() < self.num_nodes() && dst.index() < self.num_nodes());
        assert!(label.index() < self.alphabet.len(), "label not interned");
        if self.has_edge(src, label, dst) {
            return false;
        }
        row_mut(&mut self.fwd, label, src).push(dst);
        row_mut(&mut self.bwd, label, dst).push(src);
        self.num_edges += 1;
        true
    }

    /// Remove the edge `label(src, dst)` from its two rows, in
    /// O(`r`-degree). Returns whether the edge was present — removing an
    /// absent edge is a no-op, so a delta log that re-removes an edge (or
    /// removes one that never committed) replays idempotently.
    pub fn remove_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        let Some(i) = row(&self.fwd, label, src).iter().position(|&d| d == dst) else {
            return false;
        };
        self.fwd[label.index()][src.index()].remove(i);
        let back = &mut self.bwd[label.index()][dst.index()];
        let j = back.iter().position(|&s| s == src);
        back.remove(j.expect("backward row mirrors the forward row"));
        self.num_edges -= 1;
        true
    }

    /// Build a database directly from its serialized columns: the label
    /// alphabet, the node-name table, and the forward rows
    /// (`forward[label][src]` = the `label`-successors of `src`). This is
    /// the bulk-load path the snapshot loader uses; the backward rows are
    /// one transpose of the forward ones.
    ///
    /// Duplicates within a row are collapsed (a label denotes a relation),
    /// keeping first occurrences in order. Panics if a row references a
    /// node out of range or if there are more labels than the alphabet
    /// holds.
    pub fn from_columns(
        alphabet: Alphabet,
        node_names: Vec<Option<String>>,
        mut forward: Vec<Vec<Vec<NodeId>>>,
    ) -> GraphDb {
        assert!(
            forward.len() <= alphabet.len(),
            "more edge rows than labels"
        );
        let n = node_names.len();
        let mut bwd = Rows::new();
        let mut num_edges = 0;
        // `kept_by[d]` = the last row that kept destination `d`.
        let mut kept_by = vec![usize::MAX; n];
        let mut row_id = 0;
        for (l, per_node) in forward.iter_mut().enumerate() {
            assert!(per_node.len() <= n, "edge row for a node out of range");
            for (s, dsts) in per_node.iter_mut().enumerate() {
                dsts.retain(|&d| {
                    assert!(d.index() < n, "edge references node out of range");
                    std::mem::replace(&mut kept_by[d.index()], row_id) != row_id
                });
                row_id += 1;
                for &d in dsts.iter() {
                    row_mut(&mut bwd, LabelId(l as u32), d).push(NodeId(s as u32));
                }
                num_edges += dsts.len();
            }
        }
        let node_index = node_names
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.clone().map(|n| (n, NodeId(i as u32))))
            .collect();
        GraphDb {
            alphabet,
            node_names,
            node_index,
            fwd: forward,
            bwd,
            num_edges,
        }
    }

    /// Extend this database's alphabet to match `superset`, which must
    /// agree with the current alphabet on every already-interned label (in
    /// both name and id order). The serving engine calls this before
    /// applying deltas so that labels interned by parsed queries and
    /// labels introduced by ingested edges share one id space.
    ///
    /// Panics if the alphabets disagree on a common prefix — that would
    /// mean edges are already stored under the wrong ids.
    pub fn align_alphabet(&mut self, superset: &Alphabet) {
        assert!(
            superset.len() >= self.alphabet.len(),
            "align_alphabet: superset has fewer labels than the database"
        );
        for id in self.alphabet.labels() {
            assert_eq!(
                self.alphabet.name(id),
                superset.name(id),
                "align_alphabet: label id {} names disagree",
                id.index()
            );
        }
        if superset.len() > self.alphabet.len() {
            self.alphabet = superset.clone();
        }
    }

    /// Whether the edge `label(src, dst)` is present: a scan of `src`'s
    /// forward `label` row.
    pub fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        row(&self.fwd, label, src).contains(&dst)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges (distinct labeled pairs).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// The relation `r(D)` for label `r`: all `(x, y)` with an `r`-edge,
    /// source-major (sources ascending, each source's targets in insertion
    /// order).
    pub fn edges(&self, label: LabelId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let per_node = self.fwd.get(label.index()).map_or(&[][..], Vec::as_slice);
        per_node.iter().enumerate().flat_map(|(s, dsts)| {
            let src = NodeId(s as u32);
            dsts.iter().map(move |&d| (src, d))
        })
    }

    /// Nodes reachable from `node` by one step of `letter`: along a
    /// forward `r`-edge for `r`, along a *backward* `r`-edge for `r⁻`.
    /// Reads one row, in the order its edges were added.
    pub fn step(&self, node: NodeId, letter: Letter) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let rows = if letter.inverse { &self.bwd } else { &self.fwd };
        row(rows, letter.label, node).iter().copied()
    }

    /// The database's alphabet (schema).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The name of `node`, if it was interned with one.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.node_names[node.index()].as_deref()
    }

    /// A display name: the interned name or `#<id>`.
    pub fn display_node(&self, node: NodeId) -> String {
        match self.node_name(node) {
            Some(n) => n.to_owned(),
            None => format!("#{}", node.0),
        }
    }

    /// Look up a named node.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(name).copied()
    }

    /// Total degree (in + out, over every label) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.fwd
            .iter()
            .chain(&self.bwd)
            .map(|per_node| per_node.get(node.index()).map_or(0, Vec::len))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (GraphDb, NodeId, NodeId, NodeId, LabelId, LabelId) {
        let mut db = GraphDb::new();
        let a = db.node("a");
        let b = db.node("b");
        let c = db.node("c");
        let r = db.label("r");
        let s = db.label("s");
        db.add_edge(a, r, b);
        db.add_edge(b, r, c);
        db.add_edge(a, s, c);
        (db, a, b, c, r, s)
    }

    #[test]
    fn nodes_and_labels_intern() {
        let (mut db, a, ..) = tiny();
        assert_eq!(db.node("a"), a);
        assert_eq!(db.num_nodes(), 3);
        assert_eq!(db.alphabet().len(), 2);
        assert!(db.find_node("b").is_some());
        assert_eq!(db.find_node("zz"), None);
    }

    #[test]
    fn duplicate_edges_are_a_set() {
        let (mut db, a, b, _, r, _) = tiny();
        assert!(!db.add_edge(a, r, b));
        assert_eq!(db.num_edges(), 3);
        assert_eq!(db.edges(r).count(), 2);
    }

    #[test]
    fn step_follows_both_directions() {
        let (db, a, b, c, r, s) = tiny();
        let fwd: Vec<_> = db.step(a, Letter::forward(r)).collect();
        assert_eq!(fwd, vec![b]);
        let bwd: Vec<_> = db.step(c, Letter::backward(r)).collect();
        assert_eq!(bwd, vec![b]);
        let bwd_s: Vec<_> = db.step(c, Letter::backward(s)).collect();
        assert_eq!(bwd_s, vec![a]);
        assert_eq!(db.step(a, Letter::backward(r)).count(), 0);
    }

    #[test]
    fn relations_are_materialized_per_label() {
        let (db, a, b, c, r, s) = tiny();
        assert_eq!(db.edges(r).collect::<Vec<_>>(), [(a, b), (b, c)]);
        assert_eq!(db.edges(s).collect::<Vec<_>>(), [(a, c)]);
    }

    #[test]
    fn anonymous_nodes() {
        let mut db = GraphDb::new();
        let x = db.add_node();
        let y = db.add_node();
        let r = db.label("r");
        db.add_edge(x, r, y);
        assert_eq!(db.node_name(x), None);
        assert_eq!(db.display_node(x), "#0");
        assert_eq!(db.num_edges(), 1);
    }

    #[test]
    fn remove_edge_updates_all_views() {
        let (mut db, a, b, c, r, _) = tiny();
        assert!(db.remove_edge(a, r, b));
        assert!(!db.has_edge(a, r, b));
        assert_eq!(db.num_edges(), 2);
        assert_eq!(db.edges(r).collect::<Vec<_>>(), [(b, c)]);
        assert_eq!(db.step(a, Letter::forward(r)).count(), 0);
        assert_eq!(db.step(b, Letter::backward(r)).count(), 0);
        // Removing again is an idempotent no-op.
        assert!(!db.remove_edge(a, r, b));
        assert_eq!(db.num_edges(), 2);
        // Re-adding after removal works.
        assert!(db.add_edge(a, r, b));
        assert!(db.has_edge(a, r, b));
    }

    #[test]
    fn from_columns_matches_incremental_construction() {
        let (db, a, b, c, r, s) = tiny();
        let bulk = GraphDb::from_columns(
            db.alphabet().clone(),
            vec![
                Some("a".to_owned()),
                Some("b".to_owned()),
                Some("c".to_owned()),
            ],
            vec![vec![vec![b, b], vec![c]], vec![vec![c]]],
        );
        assert_eq!(bulk.num_nodes(), 3);
        assert_eq!(bulk.num_edges(), 3, "duplicate pair collapses");
        assert!(bulk.edges(r).eq(db.edges(r)));
        assert!(bulk.edges(s).eq(db.edges(s)));
        assert_eq!(bulk.find_node("b"), Some(b));
        assert!(bulk.has_edge(a, s, c));
        let fwd: Vec<_> = bulk.step(a, Letter::forward(r)).collect();
        assert_eq!(fwd, vec![b]);
        let bwd: Vec<_> = bulk.step(c, Letter::backward(r)).collect();
        assert_eq!(bwd, vec![b]);
    }

    #[test]
    fn align_alphabet_extends_in_id_order() {
        let (mut db, a, b, _, r, _) = tiny();
        let mut superset = db.alphabet().clone();
        let t = superset.intern("t");
        db.align_alphabet(&superset);
        assert_eq!(db.alphabet().len(), 3);
        assert_eq!(db.alphabet().name(r), "r");
        assert_eq!(db.alphabet().name(t), "t");
        // The new label is usable immediately.
        db.add_edge(a, t, b);
        assert!(db.has_edge(a, t, b));
        // Aligning to an equal alphabet is a no-op.
        let same = db.alphabet().clone();
        db.align_alphabet(&same);
        assert_eq!(db.alphabet().len(), 3);
    }

    #[test]
    #[should_panic(expected = "names disagree")]
    fn align_alphabet_rejects_conflicting_ids() {
        let (mut db, ..) = tiny();
        let mut other = Alphabet::new();
        other.intern("s");
        other.intern("r");
        db.align_alphabet(&other);
    }

    #[test]
    fn degree_counts_both_sides() {
        let (db, a, b, ..) = tiny();
        assert_eq!(db.degree(a), 2);
        assert_eq!(db.degree(b), 2);
    }
}
