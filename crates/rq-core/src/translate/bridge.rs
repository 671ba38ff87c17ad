//! GraphDb ⇆ FactDb conversion.
//!
//! "A graph database can be seen as a (finite) relational structure over
//! the set Σ of binary relational symbols" (§3.1). The bridge also emits a
//! unary `node` relation listing every object, so that translated queries
//! whose regular expressions accept ε (which answer `(x, x)` for *every*
//! object, including isolated ones) keep exactly the same semantics.

use rq_datalog::FactDb;
use rq_graph::{GraphDb, NodeId};

/// The reserved unary predicate listing all objects.
pub const NODE_PREDICATE: &str = "node";

/// The constant name used for `node` in the relational view.
pub fn node_constant(db: &GraphDb, node: NodeId) -> String {
    match db.node_name(node) {
        Some(n) => n.to_owned(),
        None => format!("_n{}", node.0),
    }
}

/// View a graph database as a relational database: one binary relation per
/// edge label plus the unary [`NODE_PREDICATE`].
pub fn graphdb_to_factdb(db: &GraphDb) -> FactDb {
    let mut out = FactDb::new();
    for n in db.nodes() {
        let name = node_constant(db, n);
        out.add_fact(NODE_PREDICATE, &[&name]);
    }
    for label in db.alphabet().labels() {
        let lname = db.alphabet().name(label).to_owned();
        for (s, d) in db.edges(label) {
            out.add_fact(&lname, &[&node_constant(db, s), &node_constant(db, d)]);
        }
    }
    out
}

/// View a relational database with only unary/binary relations as a graph
/// database: binary relations become edge labels; the [`NODE_PREDICATE`]
/// relation (if present) and the endpoints of every edge become nodes.
/// Returns `None` if any relation has arity > 2.
pub fn factdb_to_graphdb(db: &FactDb) -> Option<GraphDb> {
    let mut out = GraphDb::new();
    for (pred, rel) in db.relations() {
        match rel.arity() {
            1 => {
                for t in rel.iter() {
                    out.node(db.value_name(t[0]));
                }
            }
            2 => {
                let label = out.label(pred);
                for t in rel.iter() {
                    let s = out.node(db.value_name(t[0]));
                    let d = out.node(db.value_name(t[1]));
                    out.add_edge(s, label, d);
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;

    #[test]
    fn graph_to_facts_roundtrip() {
        let mut db = generate::random_gnm(10, 20, &["r", "s"], 42);
        let iso = db.add_node(); // isolated node must survive
        let facts = graphdb_to_factdb(&db);
        assert_eq!(
            facts.relation(NODE_PREDICATE).unwrap().len(),
            db.num_nodes()
        );
        let back = factdb_to_graphdb(&facts).unwrap();
        assert_eq!(back.num_nodes(), db.num_nodes());
        assert_eq!(back.num_edges(), db.num_edges());
        let _ = iso;
    }

    #[test]
    fn ternary_relations_are_rejected() {
        let mut facts = FactDb::new();
        facts.add_fact("t", &["a", "b", "c"]);
        assert!(factdb_to_graphdb(&facts).is_none());
    }

    #[test]
    fn edge_multiplicity_is_set_semantics_both_ways() {
        let mut db = GraphDb::new();
        let x = db.node("x");
        let y = db.node("y");
        let r = db.label("r");
        db.add_edge(x, r, y);
        db.add_edge(x, r, y);
        let facts = graphdb_to_factdb(&db);
        assert_eq!(facts.relation("r").unwrap().len(), 1);
    }
}
