//! Graphviz DOT export for graph databases.
//!
//! Counterexample databases returned by the containment checkers are often
//! easiest to understand as pictures; `to_dot` renders any [`GraphDb`]
//! (optionally highlighting a distinguished tuple) for `dot -Tsvg`.

use crate::db::{GraphDb, NodeId};
use std::fmt::Write as _;

/// Options for [`to_dot`].
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Graph name (defaults to `G`).
    pub name: Option<String>,
    /// Nodes to highlight (drawn with a double circle), e.g. a witness
    /// tuple.
    pub highlight: Vec<NodeId>,
    /// Render left-to-right instead of top-down.
    pub horizontal: bool,
}

/// Render `db` as a Graphviz digraph.
pub fn to_dot(db: &GraphDb, options: &DotOptions) -> String {
    let mut out = String::new();
    let name = options.name.as_deref().unwrap_or("G");
    let _ = writeln!(out, "digraph {} {{", sanitize_id(name));
    if options.horizontal {
        let _ = writeln!(out, "  rankdir=LR;");
    }
    let _ = writeln!(out, "  node [shape=circle, fontname=\"Helvetica\"];");
    for n in db.nodes() {
        let label = db.display_node(n);
        let shape = if options.highlight.contains(&n) {
            ", shape=doublecircle, style=filled, fillcolor=\"#ffe680\""
        } else {
            ""
        };
        let _ = writeln!(out, "  n{} [label=\"{}\"{}];", n.0, escape(&label), shape);
    }
    for label in db.alphabet().labels() {
        let lname = db.alphabet().name(label).to_owned();
        for (s, d) in db.edges(label) {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}\"];",
                s.0,
                d.0,
                escape(&lname)
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn sanitize_id(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("_{cleaned}")
    } else if cleaned.is_empty() {
        "G".to_owned()
    } else {
        cleaned
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (GraphDb, NodeId, NodeId) {
        let mut db = GraphDb::new();
        let a = db.node("alice");
        let b = db.node("bo\"b");
        let r = db.label("knows");
        db.add_edge(a, r, b);
        (db, a, b)
    }

    #[test]
    fn renders_nodes_and_edges() {
        let (db, ..) = tiny();
        let dot = to_dot(&db, &DotOptions::default());
        assert!(dot.starts_with("digraph G {"));
        assert!(dot.contains("n0 [label=\"alice\"]"));
        assert!(dot.contains("n0 -> n1 [label=\"knows\"]"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn escapes_quotes() {
        let (db, ..) = tiny();
        let dot = to_dot(&db, &DotOptions::default());
        assert!(dot.contains("bo\\\"b"));
    }

    #[test]
    fn highlights_tuples() {
        let (db, a, _) = tiny();
        let dot = to_dot(
            &db,
            &DotOptions {
                highlight: vec![a],
                horizontal: true,
                ..Default::default()
            },
        );
        assert!(dot.contains("rankdir=LR"));
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn sanitizes_graph_names() {
        let (db, ..) = tiny();
        let dot = to_dot(
            &db,
            &DotOptions {
                name: Some("1 weird-name!".into()),
                ..Default::default()
            },
        );
        assert!(dot.starts_with("digraph _1_weird_name_ {"));
    }
}
