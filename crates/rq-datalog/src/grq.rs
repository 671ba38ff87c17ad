//! GRQ: Generalized Regular Queries — the paper's answer (§4) to the
//! long-standing question of a Datalog fragment that is expressive enough
//! to capture connectivity properties yet has a decidable (indeed
//! elementary, 2EXPSPACE-complete — Theorem 8) containment problem.
//!
//! "Recursion can be used only to define transitive closure of binary
//! relations" (§4.1): every recursive SCC of the dependence graph must be a
//! single binary predicate `T` whose rules are exactly a transitive-closure
//! pair over some base predicate `B`:
//!
//! ```text
//! T(x, y) :- B(x, y).
//! T(x, z) :- T(x, y), B(y, z).      (or the left-/doubly-linear variants)
//! ```
//!
//! This module *recognizes* the fragment and extracts the TC structure;
//! the GRQ → RQ translation (which needs the RQ algebra) lives in
//! `rq-core::translate`.

use crate::ast::{Program, Rule, Term};
use crate::depgraph::DepGraph;
use std::fmt;

/// How the recursive step rule of a TC definition is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepShape {
    /// `T(x,z) :- B(x,y), T(y,z)`.
    LeftLinear,
    /// `T(x,z) :- T(x,y), B(y,z)`.
    RightLinear,
    /// `T(x,z) :- T(x,y), T(y,z)` (TC by squaring).
    Doubling,
}

/// A recognized transitive-closure definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcDef {
    /// The recursive predicate (`T`, the paper's `Q⁺`).
    pub tc_pred: String,
    /// The base predicate (`B`, the paper's `Q`).
    pub base_pred: String,
    /// Shape of the step rule.
    pub step: StepShape,
}

/// Why a program is not (syntactically) in GRQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrqViolation {
    /// A recursive SCC has more than one predicate (mutual recursion).
    MutualRecursion { predicates: Vec<String> },
    /// A recursive predicate is not binary.
    NotBinary { predicate: String, arity: usize },
    /// A recursive predicate's rules are not a transitive-closure pair.
    NotTransitiveClosure { predicate: String, reason: String },
}

impl fmt::Display for GrqViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrqViolation::MutualRecursion { predicates } => {
                write!(
                    f,
                    "mutually recursive predicates: {}",
                    predicates.join(", ")
                )
            }
            GrqViolation::NotBinary { predicate, arity } => {
                write!(
                    f,
                    "recursive predicate {predicate} has arity {arity}, not 2"
                )
            }
            GrqViolation::NotTransitiveClosure { predicate, reason } => {
                write!(
                    f,
                    "rules for {predicate} are not a transitive-closure pair: {reason}"
                )
            }
        }
    }
}

/// Analysis result: the TC definitions of a GRQ program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrqAnalysis {
    pub tc_defs: Vec<TcDef>,
}

/// Recognize whether `program` lies in the GRQ fragment; on success return
/// the transitive-closure structure, otherwise the first violation.
pub fn analyze_grq(program: &Program) -> Result<GrqAnalysis, GrqViolation> {
    let dg = DepGraph::new(program);
    let arities = program.predicate_arities();
    let mut tc_defs = Vec::new();
    for scc in dg.recursive_sccs() {
        if scc.len() > 1 {
            return Err(GrqViolation::MutualRecursion {
                predicates: scc.iter().map(|s| (*s).to_owned()).collect(),
            });
        }
        let t = scc[0];
        let arity = arities.get(t).copied().unwrap_or(0);
        if arity != 2 {
            return Err(GrqViolation::NotBinary {
                predicate: t.to_owned(),
                arity,
            });
        }
        tc_defs.push(recognize_tc(program, t)?);
    }
    Ok(GrqAnalysis { tc_defs })
}

/// Whether `program` is in the GRQ fragment.
pub fn is_grq(program: &Program) -> bool {
    analyze_grq(program).is_ok()
}

fn var_name(t: &Term) -> Option<&str> {
    match t {
        Term::Var(v) => Some(v),
        Term::Const(_) => None,
    }
}

/// A binary atom's variable pair `(x, y)`, provided both terms are
/// distinct variables.
fn binary_vars(atom: &crate::ast::Atom) -> Option<(&str, &str)> {
    if atom.arity() != 2 {
        return None;
    }
    let x = var_name(&atom.terms[0])?;
    let y = var_name(&atom.terms[1])?;
    if x == y {
        return None;
    }
    Some((x, y))
}

fn recognize_tc(program: &Program, t: &str) -> Result<TcDef, GrqViolation> {
    let err = |reason: &str| GrqViolation::NotTransitiveClosure {
        predicate: t.to_owned(),
        reason: reason.to_owned(),
    };
    let rules: Vec<&Rule> = program.rules_for(t).collect();
    if rules.len() != 2 {
        return Err(err(&format!(
            "expected exactly 2 rules, found {}",
            rules.len()
        )));
    }
    // Identify base rule: single body atom with predicate ≠ t.
    let (base_rule, step_rule) = {
        let is_base = |r: &Rule| r.body.len() == 1 && r.body[0].predicate != t;
        match (is_base(rules[0]), is_base(rules[1])) {
            (true, false) => (rules[0], rules[1]),
            (false, true) => (rules[1], rules[0]),
            (true, true) => return Err(err("two base rules, no recursive step")),
            (false, false) => return Err(err("no base rule T(x,y) :- B(x,y)")),
        }
    };
    // Base: T(x,y) :- B(x,y) with x ≠ y.
    let (hx, hy) = binary_vars(&base_rule.head)
        .ok_or_else(|| err("base head must be T(x,y) with distinct variables"))?;
    let (bx, by) = binary_vars(&base_rule.body[0])
        .ok_or_else(|| err("base body must be B(x,y) with distinct variables"))?;
    if (hx, hy) != (bx, by) {
        return Err(err("base rule must copy B(x,y) into T(x,y) verbatim"));
    }
    let base_pred = base_rule.body[0].predicate.clone();

    // Step: T(x,z) :- A1(x,y), A2(y,z) where {A1,A2} is one of
    // {T,B}, {B,T}, {T,T}.
    if step_rule.body.len() != 2 {
        return Err(err("step rule must have exactly two body atoms"));
    }
    let (sx, sz) = binary_vars(&step_rule.head)
        .ok_or_else(|| err("step head must be T(x,z) with distinct variables"))?;
    let (a, b) = (&step_rule.body[0], &step_rule.body[1]);
    let (ax, ay) = binary_vars(a)
        .ok_or_else(|| err("step body atoms must be binary over distinct variables"))?;
    let (bx2, bz) = binary_vars(b)
        .ok_or_else(|| err("step body atoms must be binary over distinct variables"))?;
    // Atoms may appear in either order; normalize so the chain is
    // (sx, m) then (m, sz).
    let chains = |p: (&str, &str), q: (&str, &str)| -> bool {
        p.0 == sx && q.1 == sz && p.1 == q.0 && p.1 != sx && p.1 != sz
    };
    let (first, second) = if chains((ax, ay), (bx2, bz)) {
        (a, b)
    } else if chains((bx2, bz), (ax, ay)) {
        (b, a)
    } else {
        return Err(err("step body must chain T/B atoms as (x,y),(y,z)"));
    };
    let shape = match (first.predicate == t, second.predicate == t) {
        (true, true) => StepShape::Doubling,
        (true, false) if second.predicate == base_pred => StepShape::RightLinear,
        (false, true) if first.predicate == base_pred => StepShape::LeftLinear,
        _ => {
            return Err(err(
                "step rule must combine the TC predicate with its own base predicate",
            ))
        }
    };
    Ok(TcDef {
        tc_pred: t.to_owned(),
        base_pred,
        step: shape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn paper_tc_is_grq() {
        // §2.3's transitive-closure program, right-linear as in §4.1.
        let p = parse_program("Ep(X, Y) :- E(X, Y).\nEp(X, Z) :- Ep(X, Y), E(Y, Z).").unwrap();
        let a = analyze_grq(&p).unwrap();
        assert_eq!(
            a.tc_defs,
            vec![TcDef {
                tc_pred: "Ep".into(),
                base_pred: "E".into(),
                step: StepShape::RightLinear,
            }]
        );
        assert!(is_grq(&p));
    }

    #[test]
    fn left_linear_and_doubling_variants() {
        let p = parse_program("T(X, Y) :- B(X, Y).\nT(X, Z) :- B(X, Y), T(Y, Z).").unwrap();
        assert_eq!(
            analyze_grq(&p).unwrap().tc_defs[0].step,
            StepShape::LeftLinear
        );
        let p = parse_program("T(X, Y) :- B(X, Y).\nT(X, Z) :- T(X, Y), T(Y, Z).").unwrap();
        assert_eq!(
            analyze_grq(&p).unwrap().tc_defs[0].step,
            StepShape::Doubling
        );
    }

    #[test]
    fn swapped_body_order_is_accepted() {
        let p = parse_program("T(X, Y) :- B(X, Y).\nT(X, Z) :- B(Y, Z), T(X, Y).").unwrap();
        assert_eq!(
            analyze_grq(&p).unwrap().tc_defs[0].step,
            StepShape::RightLinear
        );
    }

    #[test]
    fn monadic_recursion_is_not_grq() {
        let p = parse_program("Q(X) :- E(X, Y), P(Y).\nQ(X) :- E(X, Y), Q(Y).").unwrap();
        assert!(matches!(
            analyze_grq(&p),
            Err(GrqViolation::NotBinary { arity: 1, .. })
        ));
    }

    #[test]
    fn mutual_recursion_is_not_grq() {
        let p = parse_program(
            "A(X, Y) :- B2(X, Y).\nB2(X, Y) :- E(X, Y).\nB2(X, Z) :- A(X, Y), E(Y, Z).\nA(X, Z) :- B2(X, Y), E(Y, Z).",
        )
        .unwrap();
        assert!(matches!(
            analyze_grq(&p),
            Err(GrqViolation::MutualRecursion { .. })
        ));
    }

    #[test]
    fn wrong_chain_is_rejected() {
        // "Same-generation"-ish pattern is recursion but not TC.
        let p =
            parse_program("Sg(X, Y) :- E(X, Y).\nSg(X, Z) :- E(X, Y), Sg(Y, W), E(W, Z).").unwrap();
        assert!(matches!(
            analyze_grq(&p),
            Err(GrqViolation::NotTransitiveClosure { .. })
        ));
        // Inverted chain direction: T(x,z) :- T(y,x), B(y,z) is not TC.
        let p = parse_program("T(X, Y) :- B(X, Y).\nT(X, Z) :- T(Y, X), B(Y, Z).").unwrap();
        assert!(!is_grq(&p));
    }

    #[test]
    fn nonrecursive_programs_are_trivially_grq() {
        let p = parse_program("P2(X, Z) :- E(X, Y), E(Y, Z).\nAns(X) :- P2(X, Y).").unwrap();
        let a = analyze_grq(&p).unwrap();
        assert!(a.tc_defs.is_empty());
    }

    #[test]
    fn tc_over_defined_base_is_grq() {
        // The base of a TC may itself be an IDB (e.g. a join) — this is
        // what makes GRQ *generalized*: TC over arbitrary (non-recursive)
        // definable relations.
        let p = parse_program(
            "Hop2(X, Z) :- E(X, Y), F(Y, Z).\n\
             T(X, Y) :- Hop2(X, Y).\n\
             T(X, Z) :- T(X, Y), Hop2(Y, Z).\n\
             Ans(X, Y) :- T(X, Y).",
        )
        .unwrap();
        let a = analyze_grq(&p).unwrap();
        assert_eq!(a.tc_defs.len(), 1);
        assert_eq!(a.tc_defs[0].base_pred, "Hop2");
    }

    #[test]
    fn three_rules_for_tc_pred_rejected() {
        let p =
            parse_program("T(X, Y) :- B(X, Y).\nT(X, Y) :- C(X, Y).\nT(X, Z) :- T(X, Y), B(Y, Z).")
                .unwrap();
        assert!(!is_grq(&p));
    }
}
