//! Abstract syntax of Datalog programs.
//!
//! "A Datalog program consists of a set of Horn rules. A Horn rule consists
//! of a single atom in the head of the rule and a conjunction of atoms in
//! the body" (§2.2). Variables that appear in the body but not in the head
//! are implicitly existentially quantified. Predicates occurring in rule
//! heads are *intensional* (IDB); the rest are *extensional* (EDB).

use std::collections::BTreeSet;
use std::fmt;

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable (Prolog convention: names start with an uppercase letter
    /// or `_` in the concrete syntax).
    Var(String),
    /// A constant.
    Const(String),
}

impl Term {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "\"{c}\""),
        }
    }
}

/// An atom `p(t₁, …, tₗ)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    pub predicate: String,
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom over variables only (the common case).
    pub fn new(predicate: impl Into<String>, vars: &[&str]) -> Atom {
        Atom {
            predicate: predicate.into(),
            terms: vars.iter().map(|v| Term::Var((*v).to_owned())).collect(),
        }
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The set of variables in the atom.
    pub fn variables(&self) -> BTreeSet<&str> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A Horn rule `head :- body₁, …, bodyₖ.`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Atom>,
}

impl Rule {
    /// Build a rule.
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        Rule { head, body }
    }

    /// All variables in the rule.
    pub fn variables(&self) -> BTreeSet<&str> {
        let mut vars = self.head.variables();
        for a in &self.body {
            vars.extend(a.variables());
        }
        vars
    }

    /// Existential variables: in the body but not the head.
    pub fn existential_variables(&self) -> BTreeSet<&str> {
        let head: BTreeSet<&str> = self.head.variables();
        let mut out = BTreeSet::new();
        for a in &self.body {
            for v in a.variables() {
                if !head.contains(v) {
                    out.insert(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, a) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        write!(f, ".")
    }
}

/// A Datalog program: a set of rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    pub rules: Vec<Rule>,
}

impl Program {
    /// Build from rules.
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// The IDB predicates: those occurring in some rule head.
    pub fn idb_predicates(&self) -> BTreeSet<&str> {
        self.rules
            .iter()
            .map(|r| r.head.predicate.as_str())
            .collect()
    }

    /// The EDB predicates: those occurring only in rule bodies.
    pub fn edb_predicates(&self) -> BTreeSet<&str> {
        let idb = self.idb_predicates();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter())
            .map(|a| a.predicate.as_str())
            .filter(|p| !idb.contains(p))
            .collect()
    }

    /// All predicates with their observed arities (first occurrence wins;
    /// [`crate::validate`] checks consistency).
    pub fn predicate_arities(&self) -> std::collections::BTreeMap<&str, usize> {
        let mut out = std::collections::BTreeMap::new();
        for r in &self.rules {
            out.entry(r.head.predicate.as_str())
                .or_insert(r.head.arity());
            for a in &r.body {
                out.entry(a.predicate.as_str()).or_insert(a.arity());
            }
        }
        out
    }

    /// The rules whose head is `predicate`.
    pub fn rules_for<'a>(&'a self, predicate: &'a str) -> impl Iterator<Item = &'a Rule> + 'a {
        self.rules
            .iter()
            .filter(move |r| r.head.predicate == predicate)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// A Datalog query: a program plus a designated goal predicate.
///
/// `Q(D) = P^∞_Π(D)` for the goal predicate `P` (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub program: Program,
    pub goal: String,
}

impl Query {
    /// Build a query.
    pub fn new(program: Program, goal: impl Into<String>) -> Query {
        Query {
            program,
            goal: goal.into(),
        }
    }

    /// The goal predicate's arity.
    pub fn goal_arity(&self) -> Option<usize> {
        self.program
            .predicate_arities()
            .get(self.goal.as_str())
            .copied()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}?- {}.", self.program, self.goal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc_program() -> Program {
        // The paper's transitive-closure program (§2.3).
        Program::new(vec![
            Rule::new(
                Atom::new("Tc", &["X", "Y"]),
                vec![Atom::new("E", &["X", "Y"])],
            ),
            Rule::new(
                Atom::new("Tc", &["X", "Z"]),
                vec![Atom::new("Tc", &["X", "Y"]), Atom::new("E", &["Y", "Z"])],
            ),
        ])
    }

    #[test]
    fn idb_edb_split() {
        let p = tc_program();
        assert_eq!(p.idb_predicates(), ["Tc"].into_iter().collect());
        assert_eq!(p.edb_predicates(), ["E"].into_iter().collect());
    }

    #[test]
    fn arities() {
        let p = tc_program();
        let ar = p.predicate_arities();
        assert_eq!(ar["Tc"], 2);
        assert_eq!(ar["E"], 2);
    }

    #[test]
    fn existential_variables() {
        let p = tc_program();
        let step = &p.rules[1];
        assert_eq!(step.existential_variables(), ["Y"].into_iter().collect());
        assert_eq!(p.rules[0].existential_variables().len(), 0);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let p = tc_program();
        let text = p.to_string();
        let p2 = crate::parser::parse_program(&text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn rules_for_filters_by_head() {
        let p = tc_program();
        assert_eq!(p.rules_for("Tc").count(), 2);
        assert_eq!(p.rules_for("E").count(), 0);
    }
}
