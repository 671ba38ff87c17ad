//! The class RQ of Regular Queries (§3.4).
//!
//! "We define the class RQ of regular queries by simply closing UC2RPQ
//! under transitive closure. That is, RQ consists of the class of queries
//! one can form from atomic queries r(x, y) using the following operations:
//! selection, projection, disjunction, conjunction, and transitive
//! closure."
//!
//! [`RqExpr`] is that algebra (plus 2RPQ atoms, which RQ subsumes — any
//! regular expression is expressible with union/composition/TC, so
//! admitting κ(x, y) atoms changes nothing semantically and keeps queries
//! readable). [`RqQuery::evaluate`] computes answers directly, with
//! semi-naive iteration for transitive closures. [`RqQuery::unfold`]
//! produces UC2RPQ *under-approximations* by unrolling each TC to a depth,
//! and [`RqQuery::collapse_exact`] eliminates closures *exactly* when their
//! bodies are chain-shaped (the fragment where RQ collapses back to 2RPQs)
//! — both are the database-theoretic half of the containment checker.
//!
//! ## Example
//!
//! ```
//! use rq_core::rq::{RqExpr, RqQuery};
//! use rq_graph::GraphDb;
//!
//! let mut db = GraphDb::new();
//! let r = db.label("r");
//! let (a, b, c) = (db.node("a"), db.node("b"), db.node("c"));
//! db.add_edge(a, r, b);
//! db.add_edge(b, r, c);
//!
//! // TC(r)(x, y), built from the algebra's five operations.
//! let q = RqQuery::new(
//!     vec!["x".into(), "y".into()],
//!     RqExpr::edge(r, "x", "y").closure("x", "y"),
//! ).unwrap();
//! assert!(q.evaluate(&db).contains(&vec![a, c]));
//! ```

use crate::crpq::{C2Rpq, C2RpqAtom, Uc2Rpq};
use crate::rpq::TwoRpq;
use rq_automata::{Alphabet, LabelId, Letter, Regex};
use rq_graph::{GraphDb, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The RQ algebra over named variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RqExpr {
    /// An atomic query `r(from, to)`.
    Edge {
        label: LabelId,
        from: String,
        to: String,
    },
    /// A 2RPQ atom `κ(from, to)` (syntactic sugar; RQ subsumes UC2RPQ).
    Rel2 {
        rel: TwoRpq,
        from: String,
        to: String,
    },
    /// Selection `inner ∧ v1 = v2` (both variables stay free).
    Select {
        inner: Box<RqExpr>,
        v1: String,
        v2: String,
    },
    /// Projection `∃ var . inner`.
    Project { inner: Box<RqExpr>, var: String },
    /// Disjunction; both sides must have the same free variables.
    Union {
        left: Box<RqExpr>,
        right: Box<RqExpr>,
    },
    /// Conjunction (natural join on shared variables).
    And {
        left: Box<RqExpr>,
        right: Box<RqExpr>,
    },
    /// Transitive closure `inner⁺` of a binary query with free variables
    /// exactly `{from, to}`.
    Closure {
        inner: Box<RqExpr>,
        from: String,
        to: String,
    },
}

impl RqExpr {
    /// Atomic edge query.
    pub fn edge(label: LabelId, from: impl Into<String>, to: impl Into<String>) -> RqExpr {
        RqExpr::Edge {
            label,
            from: from.into(),
            to: to.into(),
        }
    }

    /// 2RPQ atom.
    pub fn rel2(rel: TwoRpq, from: impl Into<String>, to: impl Into<String>) -> RqExpr {
        RqExpr::Rel2 {
            rel,
            from: from.into(),
            to: to.into(),
        }
    }

    /// Selection `self ∧ v1 = v2`.
    pub fn select_eq(self, v1: impl Into<String>, v2: impl Into<String>) -> RqExpr {
        RqExpr::Select {
            inner: Box::new(self),
            v1: v1.into(),
            v2: v2.into(),
        }
    }

    /// Projection `∃ var . self`.
    pub fn project(self, var: impl Into<String>) -> RqExpr {
        RqExpr::Project {
            inner: Box::new(self),
            var: var.into(),
        }
    }

    /// Disjunction.
    pub fn or(self, other: RqExpr) -> RqExpr {
        RqExpr::Union {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Conjunction.
    pub fn and(self, other: RqExpr) -> RqExpr {
        RqExpr::And {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Transitive closure of a binary query with free variables
    /// `{from, to}`.
    pub fn closure(self, from: impl Into<String>, to: impl Into<String>) -> RqExpr {
        RqExpr::Closure {
            inner: Box::new(self),
            from: from.into(),
            to: to.into(),
        }
    }

    /// The free variables.
    pub fn free_vars(&self) -> BTreeSet<&str> {
        match self {
            RqExpr::Edge { from, to, .. } | RqExpr::Rel2 { from, to, .. } => {
                [from.as_str(), to.as_str()].into_iter().collect()
            }
            RqExpr::Select { inner, .. } => inner.free_vars(),
            RqExpr::Project { inner, var } => {
                let mut v = inner.free_vars();
                v.remove(var.as_str());
                v
            }
            RqExpr::Union { left, .. } => left.free_vars(),
            RqExpr::And { left, right } => {
                let mut v = left.free_vars();
                v.extend(right.free_vars());
                v
            }
            RqExpr::Closure { from, to, .. } => [from.as_str(), to.as_str()].into_iter().collect(),
        }
    }

    /// Number of `Closure` nodes.
    pub fn closure_count(&self) -> usize {
        match self {
            RqExpr::Edge { .. } | RqExpr::Rel2 { .. } => 0,
            RqExpr::Select { inner, .. } | RqExpr::Project { inner, .. } => inner.closure_count(),
            RqExpr::Union { left, right } | RqExpr::And { left, right } => {
                left.closure_count() + right.closure_count()
            }
            RqExpr::Closure { inner, .. } => 1 + inner.closure_count(),
        }
    }

    /// Uniformly rename every variable occurrence (free and bound) through
    /// `f`. With an injective `f` this is α-renaming plus head renaming;
    /// used by the containment machinery to put two queries in disjoint
    /// variable spaces before composing them.
    pub fn rename_all(&self, f: &dyn Fn(&str) -> String) -> RqExpr {
        match self {
            RqExpr::Edge { label, from, to } => RqExpr::Edge {
                label: *label,
                from: f(from),
                to: f(to),
            },
            RqExpr::Rel2 { rel, from, to } => RqExpr::Rel2 {
                rel: rel.clone(),
                from: f(from),
                to: f(to),
            },
            RqExpr::Select { inner, v1, v2 } => RqExpr::Select {
                inner: Box::new(inner.rename_all(f)),
                v1: f(v1),
                v2: f(v2),
            },
            RqExpr::Project { inner, var } => RqExpr::Project {
                inner: Box::new(inner.rename_all(f)),
                var: f(var),
            },
            RqExpr::Union { left, right } => RqExpr::Union {
                left: Box::new(left.rename_all(f)),
                right: Box::new(right.rename_all(f)),
            },
            RqExpr::And { left, right } => RqExpr::And {
                left: Box::new(left.rename_all(f)),
                right: Box::new(right.rename_all(f)),
            },
            RqExpr::Closure { inner, from, to } => RqExpr::Closure {
                inner: Box::new(inner.rename_all(f)),
                from: f(from),
                to: f(to),
            },
        }
    }

    /// Validate the algebraic constraints.
    fn validate(&self) -> Result<(), RqError> {
        match self {
            RqExpr::Edge { .. } | RqExpr::Rel2 { .. } => Ok(()),
            RqExpr::Select { inner, v1, v2 } => {
                inner.validate()?;
                let free = inner.free_vars();
                for v in [v1, v2] {
                    if !free.contains(v.as_str()) {
                        return Err(RqError::UnknownVariable {
                            variable: v.clone(),
                        });
                    }
                }
                Ok(())
            }
            RqExpr::Project { inner, var } => {
                inner.validate()?;
                if !inner.free_vars().contains(var.as_str()) {
                    return Err(RqError::UnknownVariable {
                        variable: var.clone(),
                    });
                }
                Ok(())
            }
            RqExpr::Union { left, right } => {
                left.validate()?;
                right.validate()?;
                if left.free_vars() != right.free_vars() {
                    return Err(RqError::UnionMismatch);
                }
                Ok(())
            }
            RqExpr::And { left, right } => {
                left.validate()?;
                right.validate()
            }
            RqExpr::Closure { inner, from, to } => {
                inner.validate()?;
                if from == to {
                    return Err(RqError::ClosureNotBinary);
                }
                let expected: BTreeSet<&str> = [from.as_str(), to.as_str()].into_iter().collect();
                if inner.free_vars() != expected {
                    return Err(RqError::ClosureNotBinary);
                }
                Ok(())
            }
        }
    }
}

/// Errors building or unfolding an [`RqQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RqError {
    /// A selection/projection variable is not free in the operand.
    UnknownVariable { variable: String },
    /// Union operands have different free-variable sets.
    UnionMismatch,
    /// A closure's operand is not binary over two distinct variables.
    ClosureNotBinary,
    /// Head variables must be exactly the free variables, without repeats.
    BadHead,
    /// The unfolding budget was exceeded.
    UnfoldBudget { budget: usize },
}

impl fmt::Display for RqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RqError::UnknownVariable { variable } => {
                write!(f, "variable {variable} is not free in the operand")
            }
            RqError::UnionMismatch => {
                write!(f, "union operands must have identical free variables")
            }
            RqError::ClosureNotBinary => write!(
                f,
                "transitive closure applies to binary queries over two distinct free variables"
            ),
            RqError::BadHead => write!(
                f,
                "the head must list exactly the free variables, each once"
            ),
            RqError::UnfoldBudget { budget } => {
                write!(f, "unfolding exceeded the budget of {budget} disjuncts")
            }
        }
    }
}

impl std::error::Error for RqError {}

/// A regular query: an [`RqExpr`] with an ordered output tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RqQuery {
    pub head: Vec<String>,
    pub expr: RqExpr,
}

impl RqQuery {
    /// Build and validate: `head` must list exactly the free variables of
    /// `expr`, each once.
    pub fn new(head: Vec<String>, expr: RqExpr) -> Result<RqQuery, RqError> {
        expr.validate()?;
        let free = expr.free_vars();
        let head_set: BTreeSet<&str> = head.iter().map(String::as_str).collect();
        if head_set.len() != head.len() || head_set != free {
            return Err(RqError::BadHead);
        }
        Ok(RqQuery { head, expr })
    }

    /// Evaluate directly on a graph database (TC by semi-naive iteration).
    pub fn evaluate(&self, db: &GraphDb) -> BTreeSet<Vec<NodeId>> {
        let (cols, rel) = eval_expr(&self.expr, db);
        let positions: Vec<usize> = self
            .head
            .iter()
            .map(|h| {
                cols.iter()
                    .position(|c| c == h)
                    .expect("head ⊆ free vars by validation")
            })
            .collect();
        rel.into_iter()
            .map(|t| positions.iter().map(|&p| t[p]).collect())
            .collect()
    }

    /// Unfold into a UC2RPQ that *under-approximates* the query: every
    /// transitive closure is unrolled to at most `depth` steps. If the
    /// expression has no closures the result is exactly equivalent.
    pub fn unfold(&self, depth: usize, budget: usize) -> Result<Uc2Rpq, RqError> {
        let mut ctx = UnfoldCtx {
            counter: 0,
            budget,
            exact: true,
            depth,
        };
        let disjuncts = ctx.unfold(&self.expr)?;
        Ok(finish_unfold(disjuncts, &self.head))
    }

    /// Like [`RqQuery::unfold`], also reporting whether the result is
    /// exact (true iff every closure collapsed exactly or no closure was
    /// unrolled approximately).
    pub fn unfold_with_exactness(
        &self,
        depth: usize,
        budget: usize,
    ) -> Result<(Uc2Rpq, bool), RqError> {
        let mut ctx = UnfoldCtx {
            counter: 0,
            budget,
            exact: true,
            depth,
        };
        let disjuncts = ctx.unfold(&self.expr)?;
        let exact = ctx.exact;
        Ok((finish_unfold(disjuncts, &self.head), exact))
    }

    /// Produce an *exactly* equivalent UC2RPQ by eliminating closures whose
    /// unfolded bodies are chain-shaped (`TC(κ(x,y)) = κ⁺(x,y)`). Returns
    /// `None` when some closure body is genuinely conjunctive (the RQ ∖
    /// UC2RPQ territory, like the paper's transitive closure of the
    /// triangle query).
    pub fn collapse_exact(&self) -> Option<Uc2Rpq> {
        let mut ctx = UnfoldCtx {
            counter: 0,
            budget: 200_000,
            exact: true,
            depth: 0,
        };
        let disjuncts = ctx.collapse(&self.expr)?;
        Some(finish_unfold(disjuncts, &self.head))
    }

    /// Closure count of the expression.
    pub fn closure_count(&self) -> usize {
        self.expr.closure_count()
    }
}

// ---------------------------------------------------------------------
// Direct evaluation
// ---------------------------------------------------------------------

type Cols = Vec<String>;
type Rel = BTreeSet<Vec<NodeId>>;

fn eval_expr(expr: &RqExpr, db: &GraphDb) -> (Cols, Rel) {
    match expr {
        RqExpr::Edge { label, from, to } => {
            if from == to {
                let rel = db
                    .edges(*label)
                    .filter(|(x, y)| x == y)
                    .map(|(x, _)| vec![x])
                    .collect();
                (vec![from.clone()], rel)
            } else {
                let rel = db.edges(*label).map(|(x, y)| vec![x, y]).collect();
                (vec![from.clone(), to.clone()], rel)
            }
        }
        RqExpr::Rel2 { rel, from, to } => {
            let pairs = rel.evaluate(db);
            if from == to {
                (
                    vec![from.clone()],
                    pairs
                        .into_iter()
                        .filter(|(x, y)| x == y)
                        .map(|(x, _)| vec![x])
                        .collect(),
                )
            } else {
                (
                    vec![from.clone(), to.clone()],
                    pairs.into_iter().map(|(x, y)| vec![x, y]).collect(),
                )
            }
        }
        RqExpr::Select { inner, v1, v2 } => {
            let (cols, rel) = eval_expr(inner, db);
            let p1 = cols.iter().position(|c| c == v1).expect("validated");
            let p2 = cols.iter().position(|c| c == v2).expect("validated");
            (cols, rel.into_iter().filter(|t| t[p1] == t[p2]).collect())
        }
        RqExpr::Project { inner, var } => {
            let (cols, rel) = eval_expr(inner, db);
            let p = cols.iter().position(|c| c == var).expect("validated");
            let new_cols: Cols = cols
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != p)
                .map(|(_, c)| c.clone())
                .collect();
            let new_rel = rel
                .into_iter()
                .map(|t| {
                    t.into_iter()
                        .enumerate()
                        .filter(|&(i, _)| i != p)
                        .map(|(_, v)| v)
                        .collect()
                })
                .collect();
            (new_cols, new_rel)
        }
        RqExpr::Union { left, right } => {
            let (lc, lr) = eval_expr(left, db);
            let (rc, rr) = eval_expr(right, db);
            // Align the right relation to the left's column order.
            let perm: Vec<usize> = lc
                .iter()
                .map(|c| rc.iter().position(|r| r == c).expect("validated"))
                .collect();
            let mut rel = lr;
            for t in rr {
                rel.insert(perm.iter().map(|&p| t[p]).collect());
            }
            (lc, rel)
        }
        RqExpr::And { left, right } => {
            let (lc, lr) = eval_expr(left, db);
            let (rc, rr) = eval_expr(right, db);
            natural_join(lc, lr, rc, rr)
        }
        RqExpr::Closure { inner, from, to } => {
            let (cols, rel) = eval_expr(inner, db);
            let pf = cols.iter().position(|c| c == from).expect("validated");
            let pt = cols.iter().position(|c| c == to).expect("validated");
            let base: BTreeSet<(NodeId, NodeId)> =
                rel.into_iter().map(|t| (t[pf], t[pt])).collect();
            let closed = transitive_closure(&base);
            (
                vec![from.clone(), to.clone()],
                closed.into_iter().map(|(x, y)| vec![x, y]).collect(),
            )
        }
    }
}

/// Natural join of two named relations.
fn natural_join(lc: Cols, lr: Rel, rc: Cols, rr: Rel) -> (Cols, Rel) {
    let shared: Vec<(usize, usize)> = lc
        .iter()
        .enumerate()
        .filter_map(|(i, c)| rc.iter().position(|r| r == c).map(|j| (i, j)))
        .collect();
    let right_extra: Vec<usize> = (0..rc.len())
        .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
        .collect();
    let mut cols = lc.clone();
    for &j in &right_extra {
        cols.push(rc[j].clone());
    }
    // Hash the right side by shared-key.
    let mut index: BTreeMap<Vec<NodeId>, Vec<&Vec<NodeId>>> = BTreeMap::new();
    for t in &rr {
        let key: Vec<NodeId> = shared.iter().map(|&(_, j)| t[j]).collect();
        index.entry(key).or_default().push(t);
    }
    let mut rel = BTreeSet::new();
    for lt in &lr {
        let key: Vec<NodeId> = shared.iter().map(|&(i, _)| lt[i]).collect();
        if let Some(matches) = index.get(&key) {
            for rt in matches {
                let mut t = lt.clone();
                for &j in &right_extra {
                    t.push(rt[j]);
                }
                rel.insert(t);
            }
        }
    }
    (cols, rel)
}

/// Semi-naive transitive closure of a binary relation.
pub fn transitive_closure(base: &BTreeSet<(NodeId, NodeId)>) -> BTreeSet<(NodeId, NodeId)> {
    let mut by_from: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &(x, y) in base {
        by_from.entry(x).or_default().push(y);
    }
    let mut total = base.clone();
    let mut delta: Vec<(NodeId, NodeId)> = base.iter().copied().collect();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for &(x, y) in &delta {
            if let Some(zs) = by_from.get(&y) {
                for &z in zs {
                    if total.insert((x, z)) {
                        next.push((x, z));
                    }
                }
            }
        }
        delta = next;
    }
    total
}

// ---------------------------------------------------------------------
// Unfolding to UC2RPQ
// ---------------------------------------------------------------------

/// A conjunct under construction: atoms plus the current name of every
/// free variable (selection may alias two frees to one name).
#[derive(Debug, Clone)]
struct Conj {
    atoms: Vec<C2RpqAtom>,
    /// free variable → current representative name.
    frees: BTreeMap<String, String>,
}

struct UnfoldCtx {
    counter: usize,
    budget: usize,
    exact: bool,
    depth: usize,
}

impl UnfoldCtx {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("_{prefix}{}", self.counter)
    }

    /// Unfold with closure unrolling to `self.depth` (collapsing exactly
    /// where possible). Sets `self.exact = false` whenever an unrolled
    /// closure was approximated.
    fn unfold(&mut self, expr: &RqExpr) -> Result<Vec<Conj>, RqError> {
        self.transform(expr, false)
    }

    /// Exact collapse; `None` if some closure body is not chain-shaped.
    fn collapse(&mut self, expr: &RqExpr) -> Option<Vec<Conj>> {
        self.transform(expr, true).ok().filter(|_| self.exact)
    }

    fn transform(&mut self, expr: &RqExpr, require_exact: bool) -> Result<Vec<Conj>, RqError> {
        let out = match expr {
            RqExpr::Edge { label, from, to } => {
                let rel = TwoRpq::new(Regex::Letter(Letter::forward(*label)));
                vec![Conj {
                    atoms: vec![C2RpqAtom::new(rel, from.clone(), to.clone())],
                    frees: identity_frees([from, to]),
                }]
            }
            RqExpr::Rel2 { rel, from, to } => vec![Conj {
                atoms: vec![C2RpqAtom::new(rel.clone(), from.clone(), to.clone())],
                frees: identity_frees([from, to]),
            }],
            RqExpr::Select { inner, v1, v2 } => {
                let disjuncts = self.transform(inner, require_exact)?;
                disjuncts
                    .into_iter()
                    .map(|mut c| {
                        let r1 = c.frees[v1.as_str()].clone();
                        let r2 = c.frees[v2.as_str()].clone();
                        if r1 != r2 {
                            // Substitute r2 := r1 everywhere.
                            for a in &mut c.atoms {
                                if a.from == r2 {
                                    a.from = r1.clone();
                                }
                                if a.to == r2 {
                                    a.to = r1.clone();
                                }
                            }
                            for rep in c.frees.values_mut() {
                                if *rep == r2 {
                                    *rep = r1.clone();
                                }
                            }
                        }
                        c
                    })
                    .collect()
            }
            RqExpr::Project { inner, var } => {
                let disjuncts = self.transform(inner, require_exact)?;
                disjuncts
                    .into_iter()
                    .map(|mut c| {
                        // The variable becomes existential; drop it from the
                        // free map. Its representative may still serve other
                        // frees (after selection), in which case it stays
                        // present through them.
                        c.frees.remove(var.as_str());
                        c
                    })
                    .collect()
            }
            RqExpr::Union { left, right } => {
                let mut l = self.transform(left, require_exact)?;
                let r = self.transform(right, require_exact)?;
                l.extend(r);
                l
            }
            RqExpr::And { left, right } => {
                let l = self.transform(left, require_exact)?;
                let r = self.transform(right, require_exact)?;
                let mut out = Vec::new();
                for cl in &l {
                    for cr in &r {
                        out.push(self.conjoin(cl, cr));
                        if out.len() > self.budget {
                            return Err(RqError::UnfoldBudget {
                                budget: self.budget,
                            });
                        }
                    }
                }
                out
            }
            RqExpr::Closure { inner, from, to } => {
                let body = self.transform(inner, require_exact)?;
                // Try the exact collapse first: every body disjunct
                // chain-shaped from `from` to `to`.
                if let Some(two) = collapse_body(&body, from, to) {
                    let rel = TwoRpq::new(two.regex().clone().plus());
                    vec![Conj {
                        atoms: vec![C2RpqAtom::new(rel, from.clone(), to.clone())],
                        frees: identity_frees([from, to]),
                    }]
                } else if require_exact {
                    self.exact = false;
                    return Err(RqError::UnfoldBudget {
                        budget: self.budget,
                    });
                } else {
                    // Approximate: unroll 1..=depth compositions.
                    self.exact = false;
                    let mut out = Vec::new();
                    // paths[j] = conjuncts for the j-step composition.
                    let mut current: Vec<Conj> = body
                        .iter()
                        .map(|c| self.instantiate(c, from, to, from, to))
                        .collect();
                    out.extend(current.iter().cloned());
                    for _ in 2..=self.depth {
                        let mut next = Vec::new();
                        for prefix in &current {
                            for step in &body {
                                let mid = self.fresh("z");
                                // prefix: from → mid', step: mid' → to.
                                let renamed_prefix = self.rename_free(prefix, to, &mid);
                                let renamed_step = self.instantiate(step, from, to, &mid, to);
                                let mut composed = self.conjoin(&renamed_prefix, &renamed_step);
                                // The composition's endpoints are the
                                // prefix's `from` and the step's `to`; the
                                // junction variable is existential.
                                composed.frees = BTreeMap::from([
                                    (from.clone(), renamed_prefix.frees[from.as_str()].clone()),
                                    (to.clone(), renamed_step.frees[to.as_str()].clone()),
                                ]);
                                next.push(composed);
                                if out.len() + next.len() > self.budget {
                                    return Err(RqError::UnfoldBudget {
                                        budget: self.budget,
                                    });
                                }
                            }
                        }
                        out.extend(next.iter().cloned());
                        current = next;
                    }
                    out
                }
            }
        };
        if out.len() > self.budget {
            return Err(RqError::UnfoldBudget {
                budget: self.budget,
            });
        }
        Ok(out)
    }

    /// Conjoin two conjuncts: rename the right side's non-free variables
    /// apart, join on shared free variables.
    fn conjoin(&mut self, l: &Conj, r: &Conj) -> Conj {
        // Free representatives visible on each side.
        let l_reps: BTreeSet<&str> = l.frees.values().map(String::as_str).collect();
        let r_reps: BTreeSet<&str> = r.frees.values().map(String::as_str).collect();
        // Map the right side's variables: free vars shared with the left
        // must keep identical representatives — they do if both sides used
        // the source names; existential (non-free) right variables that
        // collide with anything on the left are renamed fresh.
        let mut rename: BTreeMap<String, String> = BTreeMap::new();
        let l_all: BTreeSet<&str> = l
            .atoms
            .iter()
            .flat_map(|a| [a.from.as_str(), a.to.as_str()])
            .chain(l_reps.iter().copied())
            .collect();
        for a in &r.atoms {
            for v in [&a.from, &a.to] {
                if !r_reps.contains(v.as_str())
                    && l_all.contains(v.as_str())
                    && !rename.contains_key(v)
                {
                    let f = self.fresh("e");
                    rename.insert(v.clone(), f);
                }
            }
        }
        let mut atoms = l.atoms.clone();
        for a in &r.atoms {
            let map = |v: &String| rename.get(v).cloned().unwrap_or_else(|| v.clone());
            atoms.push(C2RpqAtom::new(a.rel.clone(), map(&a.from), map(&a.to)));
        }
        let mut frees = l.frees.clone();
        for (k, v) in &r.frees {
            frees.entry(k.clone()).or_insert_with(|| v.clone());
        }
        Conj { atoms, frees }
    }

    /// Instantiate a closure-body conjunct with its `from`/`to` free
    /// variables renamed to `nf`/`nt` and every other variable fresh.
    fn instantiate(&mut self, c: &Conj, from: &str, to: &str, nf: &str, nt: &str) -> Conj {
        let rep_from = c.frees[from].clone();
        let rep_to = c.frees[to].clone();
        let mut rename: BTreeMap<String, String> = BTreeMap::new();
        rename.insert(rep_from.clone(), nf.to_owned());
        // If selection aliased from==to, both map to nf; the caller's nt
        // then coincides semantically via the join below.
        rename
            .entry(rep_to.clone())
            .or_insert_with(|| nt.to_owned());
        let mut atoms = Vec::new();
        for a in &c.atoms {
            let mut map = |v: &String| {
                if let Some(r) = rename.get(v) {
                    return r.clone();
                }
                let f = self.fresh("t");
                rename.insert(v.clone(), f.clone());
                f
            };
            let from2 = map(&a.from);
            let to2 = map(&a.to);
            atoms.push(C2RpqAtom::new(a.rel.clone(), from2, to2));
        }
        let mut frees = BTreeMap::new();
        frees.insert(from.to_owned(), rename[&rep_from].clone());
        frees.insert(to.to_owned(), rename[&rep_to].clone());
        Conj { atoms, frees }
    }

    /// Rename one free representative in a conjunct (used to chain
    /// compositions).
    fn rename_free(&mut self, c: &Conj, free: &str, new_rep: &str) -> Conj {
        let old = c.frees[free].clone();
        let mut out = c.clone();
        if old == new_rep {
            return out;
        }
        for a in &mut out.atoms {
            if a.from == old {
                a.from = new_rep.to_owned();
            }
            if a.to == old {
                a.to = new_rep.to_owned();
            }
        }
        for rep in out.frees.values_mut() {
            if *rep == old {
                *rep = new_rep.to_owned();
            }
        }
        out
    }
}

fn identity_frees<'a>(vars: impl IntoIterator<Item = &'a String>) -> BTreeMap<String, String> {
    vars.into_iter().map(|v| (v.clone(), v.clone())).collect()
}

/// Try to collapse every body disjunct of a closure into a single 2RPQ
/// from `from` to `to`; union them.
fn collapse_body(body: &[Conj], from: &str, to: &str) -> Option<TwoRpq> {
    let mut parts = Vec::new();
    for c in body {
        let rep_from = c.frees.get(from)?.clone();
        let rep_to = c.frees.get(to)?.clone();
        if rep_from == rep_to {
            return None;
        }
        let as_c2rpq = C2Rpq::new(vec![rep_from, rep_to], c.atoms.clone()).ok()?;
        parts.push(as_c2rpq.collapse_chain()?.regex().clone());
    }
    Some(TwoRpq::new(Regex::union(parts)))
}

/// Convert finished conjuncts into a [`Uc2Rpq`] with the requested head.
fn finish_unfold(disjuncts: Vec<Conj>, head: &[String]) -> Uc2Rpq {
    let c2rpqs: Vec<C2Rpq> = disjuncts
        .into_iter()
        .map(|c| {
            let head_reps: Vec<String> = head
                .iter()
                .map(|h| c.frees.get(h).cloned().unwrap_or_else(|| h.clone()))
                .collect();
            let mut atoms = c.atoms;
            if atoms.is_empty() {
                // Cannot happen for validated queries (atoms are the only
                // leaves), but keep the invariant for C2Rpq::new.
                atoms.push(C2RpqAtom::new(
                    TwoRpq::new(Regex::Epsilon),
                    head_reps.first().cloned().unwrap_or_else(|| "x".into()),
                    head_reps.first().cloned().unwrap_or_else(|| "x".into()),
                ));
            }
            C2Rpq {
                head: head_reps,
                atoms,
            }
        })
        .collect();
    Uc2Rpq { disjuncts: c2rpqs }
}

/// Parse helper: build an RQ query whose expression is a single 2RPQ atom
/// (the embedding of 2RPQs into RQ).
pub fn rq_from_two_rpq(re: &str, alphabet: &mut Alphabet) -> Result<RqQuery, String> {
    let rel = TwoRpq::parse(re, alphabet).map_err(|e| e.to_string())?;
    RqQuery::new(vec!["x".into(), "y".into()], RqExpr::rel2(rel, "x", "y"))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;

    fn label(db: &mut GraphDb, name: &str) -> LabelId {
        db.label(name)
    }

    #[test]
    fn validation_rules() {
        let mut db = GraphDb::new();
        let r = label(&mut db, "r");
        // Union free-var mismatch.
        let bad = RqExpr::edge(r, "x", "y").or(RqExpr::edge(r, "x", "z"));
        assert_eq!(
            RqQuery::new(vec!["x".into(), "y".into()], bad).unwrap_err(),
            RqError::UnionMismatch
        );
        // Closure over a non-binary operand.
        let tri = RqExpr::edge(r, "x", "y").and(RqExpr::edge(r, "y", "z"));
        assert!(matches!(
            RqQuery::new(vec!["x".into(), "y".into()], tri.closure("x", "y")),
            Err(RqError::ClosureNotBinary)
        ));
        // Head must equal free vars.
        let e = RqExpr::edge(r, "x", "y");
        assert!(matches!(
            RqQuery::new(vec!["x".into()], e.clone()),
            Err(RqError::BadHead)
        ));
        assert!(RqQuery::new(vec!["y".into(), "x".into()], e).is_ok());
    }

    #[test]
    fn closure_of_edge_is_tc() {
        let db = generate::chain(5, "r");
        let mut db = db;
        let r = db.alphabet().get("r").unwrap();
        let q = RqQuery::new(
            vec!["x".into(), "y".into()],
            RqExpr::edge(r, "x", "y").closure("x", "y"),
        )
        .unwrap();
        let ans = q.evaluate(&db);
        assert_eq!(ans.len(), 10); // 4+3+2+1
        let _ = label(&mut db, "r");
    }

    #[test]
    fn paper_triangle_tc_is_evaluable() {
        // The paper's Q+ of the triangle query — not in UC2RPQ, but RQ
        // evaluates it fine.
        let mut db = GraphDb::new();
        let r = label(&mut db, "r");
        // Two triangles sharing a vertex chain: t1 = (a,b,c), t2 = (b,d,e)
        // arranged so Q(a,b) and Q(b,d) hold, hence Q+(a,d).
        let a = db.node("a");
        let b = db.node("b");
        let c = db.node("c");
        let d = db.node("d");
        let e = db.node("e");
        for (x, y) in [(a, b), (b, c), (c, a), (b, d), (d, e), (e, b)] {
            db.add_edge(x, r, y);
        }
        // Q(x,y) = r(x,y) & r(y,z) & r(z,x), projected to (x,y).
        let q_xy = RqExpr::edge(r, "x", "y")
            .and(RqExpr::edge(r, "y", "z"))
            .and(RqExpr::edge(r, "z", "x"))
            .project("z");
        let q = RqQuery::new(vec!["x".into(), "y".into()], q_xy.clone().closure("x", "y")).unwrap();
        let ans = q.evaluate(&db);
        assert!(ans.contains(&vec![a, b]));
        assert!(ans.contains(&vec![b, d]));
        assert!(ans.contains(&vec![a, d]), "composition through TC");
        // Base Q alone does not relate a to d.
        let base = RqQuery::new(vec!["x".into(), "y".into()], q_xy).unwrap();
        assert!(!base.evaluate(&db).contains(&vec![a, d]));
    }

    #[test]
    fn selection_and_projection() {
        let mut db = GraphDb::new();
        let r = label(&mut db, "r");
        let x = db.node("x");
        let y = db.node("y");
        db.add_edge(x, r, y);
        db.add_edge(y, r, y);
        // Select from = to over r(a,b) ≡ self-loops.
        let q = RqQuery::new(
            vec!["a".into(), "b".into()],
            RqExpr::edge(r, "a", "b").select_eq("a", "b"),
        )
        .unwrap();
        let ans = q.evaluate(&db);
        assert_eq!(ans, BTreeSet::from([vec![y, y]]));
        // Project out b: nodes with an outgoing edge.
        let q = RqQuery::new(vec!["a".into()], RqExpr::edge(r, "a", "b").project("b")).unwrap();
        assert_eq!(q.evaluate(&db), BTreeSet::from([vec![x], vec![y]]));
    }

    #[test]
    fn union_reorders_columns() {
        let mut db = GraphDb::new();
        let r = label(&mut db, "r");
        let s = label(&mut db, "s");
        let x = db.node("x");
        let y = db.node("y");
        db.add_edge(x, r, y);
        db.add_edge(y, s, x);
        // r(a,b) ∨ s(b,a): both have frees {a,b}.
        let q = RqQuery::new(
            vec!["a".into(), "b".into()],
            RqExpr::edge(r, "a", "b").or(RqExpr::edge(s, "b", "a")),
        )
        .unwrap();
        let ans = q.evaluate(&db);
        assert_eq!(ans, BTreeSet::from([vec![x, y]]));
    }

    #[test]
    fn unfold_without_closure_is_exact() {
        let db = generate::random_gnm(10, 25, &["r", "s"], 21);
        let al = db.alphabet().clone();
        let r = al.get("r").unwrap();
        let s = al.get("s").unwrap();
        let expr = RqExpr::edge(r, "x", "y")
            .and(RqExpr::edge(s, "y", "z").project("z"))
            .or(RqExpr::edge(s, "x", "y"));
        let q = RqQuery::new(vec!["x".into(), "y".into()], expr).unwrap();
        let (u, exact) = q.unfold_with_exactness(3, 1000).unwrap();
        assert!(exact);
        assert_eq!(q.evaluate(&db), u.evaluate(&db));
    }

    #[test]
    fn chain_shaped_closure_unfolds_exactly() {
        // TC of a 2-step hop collapses exactly to (r r)+ — no unrolling.
        let db = generate::chain(7, "r");
        let mut db = db;
        let r = db.alphabet().get("r").unwrap();
        let hop2 = RqExpr::edge(r, "x", "m")
            .and(RqExpr::edge(r, "m", "y"))
            .project("m");
        let q = RqQuery::new(vec!["x".into(), "y".into()], hop2.closure("x", "y")).unwrap();
        let full = q.evaluate(&db);
        let (u, exact) = q.unfold_with_exactness(2, 10_000).unwrap();
        assert!(exact, "chain bodies collapse without approximation");
        assert_eq!(full, u.evaluate(&db));
        // Distances {2,4,6}: 5+3+1 = 9 pairs on the 7-chain.
        assert_eq!(full.len(), 9);
        let _ = db.label("r");
    }

    #[test]
    fn unfold_closure_under_approximates() {
        // TC of the (genuinely conjunctive) triangle query: a chain of
        // triangles needs depth 3; depth-2 unrolling misses the far pair.
        let mut db = GraphDb::new();
        let r = db.label("r");
        let a: Vec<NodeId> = (0..4).map(|i| db.node(&format!("a{i}"))).collect();
        for i in 0..3 {
            let c = db.node(&format!("c{i}"));
            db.add_edge(a[i], r, a[i + 1]);
            db.add_edge(a[i + 1], r, c);
            db.add_edge(c, r, a[i]);
        }
        let body = RqExpr::edge(r, "x", "y")
            .and(RqExpr::edge(r, "y", "z"))
            .and(RqExpr::edge(r, "z", "x"))
            .project("z");
        let q = RqQuery::new(vec!["x".into(), "y".into()], body.closure("x", "y")).unwrap();
        let full = q.evaluate(&db);
        assert!(full.contains(&vec![a[0], a[3]]), "depth-3 composition");
        let (u, exact) = q.unfold_with_exactness(2, 100_000).unwrap();
        assert!(!exact);
        let approx = u.evaluate(&db);
        for t in &approx {
            assert!(full.contains(t), "under-approximation must be sound");
        }
        assert!(
            approx.contains(&vec![a[0], a[2]]),
            "depth-2 composition kept"
        );
        assert!(
            !approx.contains(&vec![a[0], a[3]]),
            "depth-3 composition missed"
        );
    }

    #[test]
    fn collapse_exact_on_chain_closure() {
        // TC(r(x,y)) collapses exactly to r+.
        let db = generate::random_gnm(10, 30, &["r"], 9);
        let mut al = db.alphabet().clone();
        let r = al.get("r").unwrap();
        let q = RqQuery::new(
            vec!["x".into(), "y".into()],
            RqExpr::edge(r, "x", "y").closure("x", "y"),
        )
        .unwrap();
        let u = q.collapse_exact().expect("edge closure collapses");
        assert_eq!(u.disjuncts.len(), 1);
        assert_eq!(q.evaluate(&db), u.evaluate(&db));
        // And it matches the RPQ r+.
        let rp = crate::rpq::Rpq::parse("r+", &mut al).unwrap();
        let via: BTreeSet<Vec<NodeId>> = rp
            .evaluate(&db)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect();
        assert_eq!(q.evaluate(&db), via);
    }

    #[test]
    fn collapse_exact_rejects_triangle_closure() {
        let mut db = GraphDb::new();
        let r = label(&mut db, "r");
        let q_xy = RqExpr::edge(r, "x", "y")
            .and(RqExpr::edge(r, "y", "z"))
            .and(RqExpr::edge(r, "z", "x"))
            .project("z");
        let q = RqQuery::new(vec!["x".into(), "y".into()], q_xy.closure("x", "y")).unwrap();
        assert!(q.collapse_exact().is_none());
    }

    #[test]
    fn nested_closures_collapse() {
        // TC(TC(r)) = r+ as well.
        let db = generate::random_gnm(8, 20, &["r"], 4);
        let mut db = db;
        let r = label(&mut db, "r");
        let inner = RqExpr::edge(r, "x", "y").closure("x", "y");
        let q = RqQuery::new(vec!["x".into(), "y".into()], inner.closure("x", "y")).unwrap();
        let u = q.collapse_exact().expect("nested chain closure collapses");
        assert_eq!(q.evaluate(&db), u.evaluate(&db));
    }

    #[test]
    fn unfold_matches_semantics_on_random_dbs() {
        // Exactness check with a closure that collapses: union body.
        for seed in [1u64, 2, 3] {
            let db = generate::random_gnm(9, 22, &["a", "b"], seed);
            let al = db.alphabet().clone();
            let a = al.get("a").unwrap();
            let b = al.get("b").unwrap();
            let body = RqExpr::edge(a, "x", "y").or(RqExpr::edge(b, "x", "y"));
            let q = RqQuery::new(vec!["x".into(), "y".into()], body.closure("x", "y")).unwrap();
            let (u, exact) = q.unfold_with_exactness(3, 10_000).unwrap();
            assert!(exact, "union-of-edges closure collapses to (a|b)+");
            assert_eq!(q.evaluate(&db), u.evaluate(&db), "seed={seed}");
        }
    }
}
