//! The edge-labeled graph database.

use rq_automata::{Alphabet, LabelId, Letter};
use std::collections::HashMap;
use std::collections::HashSet;

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

/// A finite directed graph with edges labeled from a finite alphabet Σ.
///
/// "Each node represents an object and an edge from object x to object y
/// labeled by r, denoted r(x, y), represents the fact that relation r holds
/// between x and y" (§3.1). The store keeps forward and backward adjacency
/// so two-way queries can traverse `r⁻` edges at the same cost as `r`, plus
/// a per-label edge list so a label can be instantiated as a binary
/// relation (`r(D)`).
///
/// "The edge alphabet of a graph database is simply part of the data and
/// can be changed simply by updating the database" — labels (and nodes) are
/// interned on first use.
#[derive(Debug, Clone)]
pub struct GraphDb {
    alphabet: Alphabet,
    node_names: Vec<Option<String>>,
    node_index: HashMap<String, NodeId>,
    out_edges: Vec<Vec<(LabelId, NodeId)>>,
    in_edges: Vec<Vec<(LabelId, NodeId)>>,
    edges_by_label: Vec<Vec<(NodeId, NodeId)>>,
    edge_set: HashSet<(NodeId, LabelId, NodeId)>,
}

impl Default for GraphDb {
    fn default() -> Self {
        GraphDb {
            alphabet: Alphabet::new(),
            node_names: Vec::new(),
            node_index: HashMap::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            edges_by_label: Vec::new(),
            edge_set: HashSet::new(),
        }
    }
}

impl GraphDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database over a pre-built alphabet.
    pub fn with_alphabet(alphabet: Alphabet) -> Self {
        let mut db = Self::new();
        let labels = alphabet.len();
        db.alphabet = alphabet;
        db.edges_by_label = vec![Vec::new(); labels];
        db
    }

    /// Intern a named node (idempotent).
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(Some(name.to_owned()));
        self.node_index.insert(name.to_owned(), id);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Add an anonymous node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(None);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Intern an edge label (idempotent).
    pub fn label(&mut self, name: &str) -> LabelId {
        let id = self.alphabet.intern(name);
        while self.edges_by_label.len() < self.alphabet.len() {
            self.edges_by_label.push(Vec::new());
        }
        id
    }

    /// Add the edge `label(src, dst)`. Duplicate edges are ignored — a
    /// label denotes a *relation*, i.e., a set of pairs. Returns whether
    /// the edge was new.
    pub fn add_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        assert!(src.index() < self.num_nodes() && dst.index() < self.num_nodes());
        assert!(
            label.index() < self.edges_by_label.len(),
            "label not interned"
        );
        if !self.edge_set.insert((src, label, dst)) {
            return false;
        }
        self.out_edges[src.index()].push((label, dst));
        self.in_edges[dst.index()].push((label, src));
        self.edges_by_label[label.index()].push((src, dst));
        true
    }

    /// Remove the edge `label(src, dst)`. Returns whether the edge was
    /// present — removing an absent edge is a no-op, so a delta log that
    /// re-removes an edge (or removes one that never committed) replays
    /// idempotently.
    pub fn remove_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        if !self.edge_set.remove(&(src, label, dst)) {
            return false;
        }
        let out = &mut self.out_edges[src.index()];
        if let Some(i) = out.iter().position(|&(l, d)| l == label && d == dst) {
            out.remove(i);
        }
        let inn = &mut self.in_edges[dst.index()];
        if let Some(i) = inn.iter().position(|&(l, s)| l == label && s == src) {
            inn.remove(i);
        }
        let rel = &mut self.edges_by_label[label.index()];
        if let Some(i) = rel.iter().position(|&(s, d)| s == src && d == dst) {
            rel.remove(i);
        }
        true
    }

    /// Build a database directly from its serialized columns: the label
    /// alphabet, the node-name table, and one `(src, dst)` pair list per
    /// label (indexed by `LabelId`). This is the bulk-load path the
    /// snapshot loader uses: adjacency and the hash indexes are assembled
    /// in one pass, instead of per-edge.
    ///
    /// Duplicate pairs within a label are collapsed (a label denotes a
    /// relation). Panics if a pair references a node out of range or if
    /// `edges_by_label` is longer than the alphabet.
    pub fn from_columns(
        alphabet: Alphabet,
        node_names: Vec<Option<String>>,
        mut edges_by_label: Vec<Vec<(NodeId, NodeId)>>,
    ) -> GraphDb {
        assert!(
            edges_by_label.len() <= alphabet.len(),
            "more edge lists than labels"
        );
        edges_by_label.resize(alphabet.len(), Vec::new());
        let n = node_names.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        let mut edge_set = HashSet::new();
        for (l, pairs) in edges_by_label.iter_mut().enumerate() {
            let label = LabelId(l as u32);
            pairs.retain(|&(s, d)| {
                assert!(
                    s.index() < n && d.index() < n,
                    "edge references node out of range"
                );
                edge_set.insert((s, label, d))
            });
            for &(s, d) in pairs.iter() {
                out_edges[s.index()].push((label, d));
                in_edges[d.index()].push((label, s));
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
            out_edges,
            in_edges,
            edges_by_label,
            edge_set,
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
            while self.edges_by_label.len() < self.alphabet.len() {
                self.edges_by_label.push(Vec::new());
            }
        }
    }

    /// Whether the edge `label(src, dst)` is present.
    pub fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        self.edge_set.contains(&(src, label, dst))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges (distinct labeled pairs).
    pub fn num_edges(&self) -> usize {
        self.edge_set.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// The relation `r(D)` for label `r`: all `(x, y)` with an `r`-edge.
    pub fn edges(&self, label: LabelId) -> &[(NodeId, NodeId)] {
        self.edges_by_label
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Nodes reachable from `node` by one step of `letter`: along a
    /// forward `r`-edge for `r`, along a *backward* `r`-edge for `r⁻`.
    pub fn step(&self, node: NodeId, letter: Letter) -> impl Iterator<Item = NodeId> + '_ {
        let adj = if letter.inverse {
            &self.in_edges[node.index()]
        } else {
            &self.out_edges[node.index()]
        };
        adj.iter()
            .filter(move |&&(l, _)| l == letter.label)
            .map(|&(_, n)| n)
    }

    /// Out-edges of `node` as `(label, target)` pairs.
    pub fn out_edges(&self, node: NodeId) -> &[(LabelId, NodeId)] {
        &self.out_edges[node.index()]
    }

    /// In-edges of `node` as `(label, source)` pairs.
    pub fn in_edges(&self, node: NodeId) -> &[(LabelId, NodeId)] {
        &self.in_edges[node.index()]
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

    /// Total degree (in + out) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_edges[node.index()].len() + self.in_edges[node.index()].len()
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
        assert_eq!(db.edges(r).len(), 2);
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
        assert_eq!(db.edges(r), &[(a, b), (b, c)]);
        assert_eq!(db.edges(s), &[(a, c)]);
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
        assert_eq!(db.edges(r), &[(b, c)]);
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
            vec![vec![(a, b), (b, c), (a, b)], vec![(a, c)]],
        );
        assert_eq!(bulk.num_nodes(), 3);
        assert_eq!(bulk.num_edges(), 3, "duplicate pair collapses");
        assert_eq!(bulk.edges(r), db.edges(r));
        assert_eq!(bulk.edges(s), db.edges(s));
        assert_eq!(bulk.find_node("b"), Some(b));
        assert!(bulk.has_edge(a, s, c));
        let fwd: Vec<_> = bulk.step(a, Letter::forward(r)).collect();
        assert_eq!(fwd, vec![b]);
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
