//! Edge deltas: the unit of graph mutation shared by the storage log
//! (`rq-storage`), the serving engine's `apply_deltas` path, and the
//! `/ingest` endpoint.
//!
//! A delta names its endpoints and label by *string*, not by id: the same
//! record must apply identically whether it is replayed against a freshly
//! loaded snapshot (whose id space is fixed by the snapshot) or against a
//! live engine (whose alphabet may already contain query-interned labels).
//! Id resolution happens at apply time, through the target database's own
//! interner.
//!
//! ## Text format
//!
//! One delta per line, whitespace-separated; blank lines and `#` comments
//! are skipped:
//!
//! ```text
//! add alice knows bob
//! + bob knows carol
//! remove alice knows bob
//! - bob knows carol
//! ```

use crate::db::GraphDb;
use std::fmt;

/// A single edge mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// Assert `label(src, dst)`.
    AddEdge {
        src: String,
        label: String,
        dst: String,
    },
    /// Retract `label(src, dst)`.
    RemoveEdge {
        src: String,
        label: String,
        dst: String,
    },
}

impl Delta {
    /// Convenience constructor for an edge assertion.
    pub fn add(src: &str, label: &str, dst: &str) -> Delta {
        Delta::AddEdge {
            src: src.to_owned(),
            label: label.to_owned(),
            dst: dst.to_owned(),
        }
    }

    /// Convenience constructor for an edge retraction.
    pub fn remove(src: &str, label: &str, dst: &str) -> Delta {
        Delta::RemoveEdge {
            src: src.to_owned(),
            label: label.to_owned(),
            dst: dst.to_owned(),
        }
    }

    /// The label this delta touches.
    pub fn label_name(&self) -> &str {
        match self {
            Delta::AddEdge { label, .. } | Delta::RemoveEdge { label, .. } => label,
        }
    }

    /// Parse one text line (`add|+ src label dst` or `remove|- src label
    /// dst`). Returns `None` for blank lines and comments.
    pub fn parse_line(line: &str) -> Result<Option<Delta>, DeltaParseError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["add" | "+", src, label, dst] => Ok(Some(Delta::add(src, label, dst))),
            ["remove" | "-", src, label, dst] => Ok(Some(Delta::remove(src, label, dst))),
            _ => Err(DeltaParseError {
                line: line.to_owned(),
            }),
        }
    }

    /// Parse a whole text document of deltas, reporting the first bad line
    /// by number.
    pub fn parse_text(input: &str) -> Result<Vec<Delta>, (usize, DeltaParseError)> {
        let mut out = Vec::new();
        for (i, line) in input.lines().enumerate() {
            match Delta::parse_line(line) {
                Ok(Some(d)) => out.push(d),
                Ok(None) => {}
                Err(e) => return Err((i + 1, e)),
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delta::AddEdge { src, label, dst } => write!(f, "add {src} {label} {dst}"),
            Delta::RemoveEdge { src, label, dst } => write!(f, "remove {src} {label} {dst}"),
        }
    }
}

/// A delta line that did not match either form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaParseError {
    pub line: String,
}

impl fmt::Display for DeltaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expected `add|+ src label dst` or `remove|- src label dst`, got {:?}",
            self.line
        )
    }
}

impl std::error::Error for DeltaParseError {}

impl GraphDb {
    /// Apply one delta, interning nodes and labels as needed. Returns
    /// whether the database changed — `false` for a duplicate add or a
    /// removal of an absent edge, which makes replaying any prefix of a
    /// delta log (including one replayed twice) idempotent.
    pub fn apply_delta(&mut self, delta: &Delta) -> bool {
        match delta {
            Delta::AddEdge { src, label, dst } => {
                let s = self.node(src);
                let l = self.label(label);
                let d = self.node(dst);
                self.add_edge(s, l, d)
            }
            Delta::RemoveEdge { src, label, dst } => {
                let (Some(s), Some(l), Some(d)) = (
                    self.find_node(src),
                    self.alphabet().get(label),
                    self.find_node(dst),
                ) else {
                    return false;
                };
                self.remove_edge(s, l, d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_both_forms_and_comments() {
        let deltas = Delta::parse_text(
            "# header\nadd a knows b\n+ b knows c\n\nremove a knows b\n- b knows c\n",
        )
        .unwrap();
        assert_eq!(
            deltas,
            vec![
                Delta::add("a", "knows", "b"),
                Delta::add("b", "knows", "c"),
                Delta::remove("a", "knows", "b"),
                Delta::remove("b", "knows", "c"),
            ]
        );
    }

    #[test]
    fn parse_reports_bad_line_number() {
        let (line, err) = Delta::parse_text("add a r b\nnonsense\n").unwrap_err();
        assert_eq!(line, 2);
        assert!(err.to_string().contains("nonsense"));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for d in [Delta::add("x", "r", "y"), Delta::remove("x", "r", "y")] {
            let back = Delta::parse_line(&d.to_string()).unwrap().unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn apply_is_idempotent() {
        let mut db = GraphDb::new();
        let add = Delta::add("a", "r", "b");
        assert!(db.apply_delta(&add));
        assert!(!db.apply_delta(&add), "duplicate add is a no-op");
        assert_eq!(db.num_edges(), 1);
        let rm = Delta::remove("a", "r", "b");
        assert!(db.apply_delta(&rm));
        assert!(!db.apply_delta(&rm), "double remove is a no-op");
        assert_eq!(db.num_edges(), 0);
        // Re-add after remove works and the nodes were not duplicated.
        assert!(db.apply_delta(&add));
        assert_eq!(db.num_nodes(), 2);
    }

    #[test]
    fn remove_of_unknown_names_is_a_no_op() {
        let mut db = GraphDb::new();
        db.apply_delta(&Delta::add("a", "r", "b"));
        assert!(!db.apply_delta(&Delta::remove("ghost", "r", "b")));
        assert!(!db.apply_delta(&Delta::remove("a", "ghost", "b")));
        assert_eq!(db.num_nodes(), 2, "failed remove interns nothing");
        assert_eq!(db.alphabet().len(), 1);
    }

    #[test]
    fn replaying_a_log_twice_converges() {
        let log = [
            Delta::add("a", "r", "b"),
            Delta::add("b", "r", "c"),
            Delta::remove("a", "r", "b"),
            Delta::add("a", "r", "b"),
            Delta::add("a", "s", "c"),
        ];
        let mut once = GraphDb::new();
        for d in &log {
            once.apply_delta(d);
        }
        let mut twice = GraphDb::new();
        for d in log.iter().chain(log.iter()) {
            twice.apply_delta(d);
        }
        assert_eq!(once.num_nodes(), twice.num_nodes());
        assert_eq!(once.num_edges(), twice.num_edges());
        for l in once.alphabet().labels() {
            assert!(once.edges(l).eq(twice.edges(l)));
        }
    }
}
