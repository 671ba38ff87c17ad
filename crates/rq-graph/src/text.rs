//! A line-oriented text format for graph databases.
//!
//! One edge per line, `source label target`, whitespace-separated; blank
//! lines and `#` comments are skipped. Isolated nodes can be declared with
//! a bare `node <name>` line.
//!
//! ```text
//! # a tiny social network
//! alice knows bob
//! bob knows carol
//! node dave
//! ```

use crate::db::GraphDb;
use std::fmt;

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph text error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TextError {}

/// Parse the text format into a fresh [`GraphDb`].
pub fn parse(input: &str) -> Result<GraphDb, TextError> {
    let mut db = GraphDb::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("node"), Some(name), None, _) => {
                db.node(name);
            }
            (Some(src), Some(label), Some(dst), None) => {
                let s = db.node(src);
                let l = db.label(label);
                let d = db.node(dst);
                db.add_edge(s, l, d);
            }
            _ => {
                return Err(TextError {
                    line: i + 1,
                    message: format!("expected `src label dst` or `node name`, got {line:?}"),
                })
            }
        }
    }
    Ok(db)
}

/// Serialize `db` back to the text format (named nodes keep their names;
/// anonymous nodes are written as `_<id>`).
pub fn to_text(db: &GraphDb) -> String {
    let mut out = String::new();
    let name = |n| match db.node_name(n) {
        Some(s) => s.to_owned(),
        None => format!("_{}", crate::db::NodeId::index(n)),
    };
    // Isolated nodes first so they round-trip.
    for n in db.nodes() {
        if db.degree(n) == 0 {
            out.push_str(&format!("node {}\n", name(n)));
        }
    }
    for label in db.alphabet().labels() {
        let lname = db.alphabet().name(label).to_owned();
        for (s, d) in db.edges(label) {
            out.push_str(&format!("{} {} {}\n", name(s), lname, name(d)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let db = parse("alice knows bob\nbob knows carol\n# comment\n\nnode dave\n").unwrap();
        assert_eq!(db.num_nodes(), 4);
        assert_eq!(db.num_edges(), 2);
        let alice = db.find_node("alice").unwrap();
        let bob = db.find_node("bob").unwrap();
        let knows = db.alphabet().get("knows").unwrap();
        assert!(db.has_edge(alice, knows, bob));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let err = parse("a b\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("ok r b\nx y z w\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn parse_errors_are_pinned() {
        // Tabs separate fields, comment lines (even indented) are skipped,
        // and line numbers count every line, skipped or not.
        let db = parse("a\tknows\tb\n  # indented comment\n\t\nnode\tc\n").unwrap();
        assert_eq!((db.num_nodes(), db.num_edges()), (3, 1));
        let err = parse("# header\na knows b\n\na knows b c\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(
            err.to_string(),
            "graph text error on line 4: expected `src label dst` or `node name`, got \"a knows b c\""
        );
        let err = parse("a knows b\n\tx  y \n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.message,
            "expected `src label dst` or `node name`, got \"x  y\""
        );
        // `node` is a keyword only in a two-field line.
        let db = parse("node knows b\n").unwrap();
        assert_eq!((db.num_nodes(), db.num_edges()), (2, 1));
        assert_eq!(parse("node\n").unwrap_err().line, 1);
    }

    #[test]
    fn roundtrip() {
        let text = "alice knows bob\nbob knows carol\nnode dave\n";
        let db = parse(text).unwrap();
        let back = to_text(&db);
        let db2 = parse(&back).unwrap();
        assert_eq!(db.num_nodes(), db2.num_nodes());
        assert_eq!(db.num_edges(), db2.num_edges());
        for label in db.alphabet().labels() {
            let lname = db.alphabet().name(label);
            let l2 = db2.alphabet().get(lname).unwrap();
            let mut e1: Vec<(String, String)> = db
                .edges(label)
                .map(|(s, d)| (db.display_node(s), db.display_node(d)))
                .collect();
            let mut e2: Vec<(String, String)> = db2
                .edges(l2)
                .map(|(s, d)| (db2.display_node(s), db2.display_node(d)))
                .collect();
            e1.sort();
            e2.sort();
            assert_eq!(e1, e2);
        }
    }
}
