//! A rule-based textual syntax for full Regular Queries.
//!
//! RQ = UC2RPQ closed under transitive closure, so the natural concrete
//! syntax is a *nonrecursive* rule program over 2RPQ atoms in which
//! recursion is only available through an explicit `tc[...]` operator —
//! exactly the §4.1 shape, but with regex atoms:
//!
//! ```text
//! Step(a, b)  :- [r](a, m), [r](m, b).      # a conjunct over 2RPQ atoms
//! Step(a, b)  :- [s+](a, b).                # more rules = union
//! Ans(x, y)   :- tc[Step](x, y), [t?](y, w).
//! ```
//!
//! * atoms are `[regex](v1, v2)` (2RPQ), `Pred(v1, …, vk)` (a defined
//!   predicate), or `tc[Pred](v1, v2)` (transitive closure of a *binary*
//!   defined predicate);
//! * predicate definitions may not be recursive — all recursion goes
//!   through `tc[...]`, which is what keeps every program in RQ;
//! * the program's *last-defined* predicate is the query unless a goal is
//!   chosen explicitly.
//!
//! [`parse_rq`] elaborates a program into an [`RqQuery`] bottom-up,
//! reusing the same instantiation machinery as the GRQ → RQ translation.

use crate::crpq::Uc2Rpq;
use crate::query_text::{parse_uc2rpq, QueryTextError};
use crate::rpq::TwoRpq;
use crate::rq::{RqExpr, RqQuery};
use rq_automata::{Alphabet, Regex};
use std::collections::BTreeMap;
use std::fmt;

/// Error from [`parse_rq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RqTextError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for RqTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RQ parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RqTextError {}

/// One parsed body atom.
#[derive(Debug, Clone)]
enum BodyAtom {
    Rel(TwoRpq, String, String),
    Pred(String, Vec<String>),
    Tc(String, String, String),
}

#[derive(Debug, Clone)]
struct ParsedRule {
    line: usize,
    head_vars: Vec<String>,
    body: Vec<BodyAtom>,
}

/// Parse a full-RQ rule program into an [`RqQuery`] for `goal` (or the
/// last-defined predicate when `goal` is `None`).
pub fn parse_rq(
    input: &str,
    goal: Option<&str>,
    alphabet: &mut Alphabet,
) -> Result<RqQuery, RqTextError> {
    // ---- parse rules ----------------------------------------------------
    let mut rules: BTreeMap<String, Vec<ParsedRule>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let err = |message: String| RqTextError {
            line: lineno + 1,
            message,
        };
        let line = line
            .strip_suffix('.')
            .ok_or_else(|| err("rules must end with '.'".into()))?;
        let (head, body_src) = line
            .split_once(":-")
            .ok_or_else(|| err("expected `Head(vars) :- body`".into()))?;
        let (name, head_vars) = parse_head(head).map_err(&err)?;
        let body = parse_body(body_src, alphabet).map_err(err)?;
        if !rules.contains_key(&name) {
            order.push(name.clone());
        }
        rules.entry(name).or_default().push(ParsedRule {
            line: lineno + 1,
            head_vars,
            body,
        });
    }
    if order.is_empty() {
        return Err(RqTextError {
            line: 0,
            message: "no rules found".into(),
        });
    }

    // ---- elaborate bottom-up (definition order; no forward references
    // means no recursion outside tc[...]) --------------------------------
    let mut defs: BTreeMap<String, RqQuery> = BTreeMap::new();
    let mut counter = 0usize;
    for name in &order {
        let these = &rules[name];
        let arity = these[0].head_vars.len();
        let canon: Vec<String> = (0..arity).map(|i| format!("g{i}")).collect();
        let mut branches: Vec<RqExpr> = Vec::new();
        for rule in these {
            let err = |message: String| RqTextError {
                line: rule.line,
                message,
            };
            if rule.head_vars.len() != arity {
                return Err(err(format!("{name} used with inconsistent arities")));
            }
            branches.push(
                elaborate_rule(rule, name, &canon, &defs, &mut counter, alphabet).map_err(err)?,
            );
        }
        let expr = branches
            .into_iter()
            .reduce(RqExpr::or)
            .expect("each predicate has ≥1 rule");
        let def = RqQuery::new(canon.clone(), expr).map_err(|e| RqTextError {
            line: these[0].line,
            message: format!("definition of {name} is not well-formed: {e}"),
        })?;
        defs.insert(name.clone(), def);
    }

    let goal_name = match goal {
        Some(g) => g.to_owned(),
        None => order.last().expect("nonempty").clone(),
    };
    defs.remove(&goal_name).ok_or_else(|| RqTextError {
        line: 0,
        message: format!("goal predicate {goal_name} is not defined"),
    })
}

fn parse_head(head: &str) -> Result<(String, Vec<String>), String> {
    let head = head.trim();
    let (name, rest) = head
        .split_once('(')
        .ok_or_else(|| "head must be `Name(vars)`".to_owned())?;
    let vars_str = rest
        .strip_suffix(')')
        .ok_or_else(|| "unclosed head variable list".to_owned())?;
    let vars: Vec<String> = vars_str
        .split(',')
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .collect();
    Ok((name.trim().to_owned(), vars))
}

fn parse_body(src: &str, alphabet: &mut Alphabet) -> Result<Vec<BodyAtom>, String> {
    let mut atoms = Vec::new();
    let mut rest = src.trim();
    while !rest.is_empty() {
        rest = rest.trim_start_matches(',').trim();
        if rest.is_empty() {
            break;
        }
        if let Some(r) = rest.strip_prefix("tc[") {
            let close = r.find(']').ok_or("unclosed tc[...]")?;
            let pred = r[..close].trim().to_owned();
            let after = r[close + 1..].trim_start();
            let (vars, remaining) = parse_var_list(after)?;
            let [x, y] = vars.as_slice() else {
                return Err("tc[...] takes exactly two variables".into());
            };
            atoms.push(BodyAtom::Tc(pred, x.clone(), y.clone()));
            rest = remaining;
        } else if let Some(r) = rest.strip_prefix('[') {
            let close = r.find(']').ok_or("unclosed regex bracket")?;
            let regex_src = &r[..close];
            let rel = TwoRpq::parse(regex_src, alphabet)
                .map_err(|e| format!("bad regex {regex_src:?}: {e}"))?;
            let after = r[close + 1..].trim_start();
            let (vars, remaining) = parse_var_list(after)?;
            let [x, y] = vars.as_slice() else {
                return Err("2RPQ atoms take exactly two variables".into());
            };
            atoms.push(BodyAtom::Rel(rel, x.clone(), y.clone()));
            rest = remaining;
        } else {
            // Pred(args)
            let open = rest.find('(').ok_or("expected an atom")?;
            let name = rest[..open].trim().to_owned();
            if name.is_empty() || !name.chars().next().is_some_and(char::is_alphabetic) {
                return Err(format!("bad atom at: {rest}"));
            }
            let (vars, remaining) = parse_var_list(&rest[open..])?;
            atoms.push(BodyAtom::Pred(name, vars));
            rest = remaining;
        }
    }
    if atoms.is_empty() {
        return Err("empty rule body".into());
    }
    Ok(atoms)
}

/// Parse `(v1, v2, …)` and return the variables plus the remaining input.
fn parse_var_list(src: &str) -> Result<(Vec<String>, &str), String> {
    let src = src.trim_start();
    let inner = src
        .strip_prefix('(')
        .ok_or("expected a variable list `( … )`")?;
    let close = inner.find(')').ok_or("unclosed variable list")?;
    let vars: Vec<String> = inner[..close]
        .split(',')
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .collect();
    Ok((vars, &inner[close + 1..]))
}

fn elaborate_rule(
    rule: &ParsedRule,
    defining: &str,
    canon: &[String],
    defs: &BTreeMap<String, RqQuery>,
    counter: &mut usize,
    _alphabet: &Alphabet,
) -> Result<RqExpr, String> {
    *counter += 1;
    let tag = format!("_r{counter}");
    let rv = |v: &str| format!("{tag}_{v}");
    let mut conj: Option<RqExpr> = None;
    let mut body_vars: Vec<String> = Vec::new();
    let push_var = |v: &String, body_vars: &mut Vec<String>| {
        if !body_vars.contains(v) {
            body_vars.push(v.clone());
        }
    };
    for atom in &rule.body {
        let expr = match atom {
            BodyAtom::Rel(rel, x, y) => {
                let (x, y) = (rv(x), rv(y));
                push_var(&x, &mut body_vars);
                push_var(&y, &mut body_vars);
                RqExpr::rel2(rel.clone(), x, y)
            }
            BodyAtom::Pred(name, args) => {
                if name == defining {
                    return Err(format!(
                        "predicate {name} refers to itself; recursion is only \
                         available through tc[{name}]"
                    ));
                }
                let def = defs.get(name).ok_or_else(|| {
                    format!("predicate {name} is not defined yet (no forward references)")
                })?;
                if def.head.len() != args.len() {
                    return Err(format!(
                        "{name} has arity {}, used with {} arguments",
                        def.head.len(),
                        args.len()
                    ));
                }
                let args: Vec<String> = args.iter().map(|a| rv(a)).collect();
                for a in &args {
                    push_var(a, &mut body_vars);
                }
                instantiate(def, &args, counter)
            }
            BodyAtom::Tc(name, x, y) => {
                if name == defining {
                    return Err(format!(
                        "tc[{name}] inside the definition of {name} would be recursive"
                    ));
                }
                let def = defs.get(name).ok_or_else(|| {
                    format!("predicate {name} is not defined yet (no forward references)")
                })?;
                if def.head.len() != 2 {
                    return Err(format!(
                        "tc[{name}] needs a binary predicate; {name} has arity {}",
                        def.head.len()
                    ));
                }
                *counter += 1;
                let (f, t) = (format!("_tcx{counter}"), format!("_tcy{counter}"));
                let inner = instantiate(def, &[f.clone(), t.clone()], counter);
                let closed = inner.closure(f.clone(), t.clone());
                // Rename the closure's endpoints to the rule variables.
                let (x, y) = (rv(x), rv(y));
                push_var(&x, &mut body_vars);
                push_var(&y, &mut body_vars);
                let (xc, yc) = (x.clone(), y.clone());
                closed.rename_all(&move |v: &str| {
                    if v == f {
                        xc.clone()
                    } else if v == t {
                        yc.clone()
                    } else {
                        v.to_owned()
                    }
                })
            }
        };
        conj = Some(match conj {
            None => expr,
            Some(prev) => prev.and(expr),
        });
    }
    let mut expr = conj.expect("nonempty body");
    // Project out existentials, then rename head variables to canon
    // (duplicates equated through an ε-atom, as in the GRQ translation).
    let head_rv: Vec<String> = rule.head_vars.iter().map(|v| rv(v)).collect();
    for v in &body_vars {
        if !head_rv.contains(v) {
            expr = expr.project(v.clone());
        }
    }
    for hv in &head_rv {
        if !body_vars.contains(hv) {
            return Err(format!("head variable {} does not occur in the body", hv));
        }
    }
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    for (i, hv) in head_rv.iter().enumerate() {
        if let Some(first) = named.get(hv) {
            let eps = TwoRpq::new(Regex::Epsilon);
            expr = expr.and(RqExpr::rel2(eps, first.clone(), canon[i].clone()));
        } else {
            let (from, to) = (hv.clone(), canon[i].clone());
            expr = expr.rename_all(&move |v: &str| {
                if v == from {
                    to.clone()
                } else {
                    v.to_owned()
                }
            });
            named.insert(hv.clone(), canon[i].clone());
        }
    }
    Ok(expr)
}

/// α-rename `def` apart and substitute its head variables by `args`
/// (duplicates equated by selection + projection).
fn instantiate(def: &RqQuery, args: &[String], counter: &mut usize) -> RqExpr {
    *counter += 1;
    let tag = *counter;
    let prefixed = |v: &str| format!("_i{tag}_{v}");
    let mut expr = def.expr.rename_all(&prefixed);
    let heads: Vec<String> = def.head.iter().map(|h| prefixed(h)).collect();
    let mut assigned: BTreeMap<&str, usize> = BTreeMap::new();
    let mut dup_cols: Vec<String> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if assigned.contains_key(arg.as_str()) {
            dup_cols.push(heads[i].clone());
        } else {
            assigned.insert(arg, i);
            let (from, to) = (heads[i].clone(), arg.clone());
            expr = expr.rename_all(&move |v: &str| {
                if v == from {
                    to.clone()
                } else {
                    v.to_owned()
                }
            });
        }
    }
    for (i, arg) in args.iter().enumerate() {
        if dup_cols.contains(&heads[i]) {
            expr = expr
                .select_eq(arg.clone(), heads[i].clone())
                .project(heads[i].clone());
        }
    }
    expr
}

/// Convenience: when a program has no `tc[...]` and a single predicate, it
/// is a plain UC2RPQ; parse it as such (shares the grammar with
/// [`parse_uc2rpq`]).
pub fn parse_rq_or_uc2rpq(
    input: &str,
    alphabet: &mut Alphabet,
) -> Result<Result<RqQuery, Uc2Rpq>, RqTextError> {
    if input.contains("tc[") {
        return parse_rq(input, None, alphabet).map(Ok);
    }
    match parse_uc2rpq(input, alphabet) {
        Ok(u) => Ok(Err(u)),
        Err(QueryTextError { line, message }) => Err(RqTextError { line, message }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;
    use std::collections::BTreeSet;

    #[test]
    fn parses_the_module_example() {
        let mut al = Alphabet::new();
        let q = parse_rq(
            "Step(a, b)  :- [r](a, m), [r](m, b).\n\
             Step(a, b)  :- [s+](a, b).\n\
             Ans(x, y)   :- tc[Step](x, y), [t?](y, w).",
            None,
            &mut al,
        )
        .unwrap();
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.closure_count(), 1);
    }

    #[test]
    fn tc_of_edge_equals_plus() {
        let mut al = Alphabet::new();
        let q = parse_rq(
            "E2(a, b) :- [r](a, b).\nAns(x, y) :- tc[E2](x, y).",
            None,
            &mut al,
        )
        .unwrap();
        let db = generate::random_gnm(8, 20, &["r"], 5);
        let mut al2 = db.alphabet().clone();
        let rp = crate::rpq::Rpq::parse("r+", &mut al2).unwrap();
        let expect: BTreeSet<Vec<_>> = rp
            .evaluate(&db)
            .into_iter()
            .map(|(x, y)| vec![x, y])
            .collect();
        assert_eq!(q.evaluate(&db), expect);
    }

    #[test]
    fn triangle_closure_program() {
        // The paper's flagship RQ ∖ UC2RPQ example, now in concrete syntax.
        let mut al = Alphabet::new();
        let q = parse_rq(
            "Tri(x, y) :- [r](x, y), [r](y, z), [r](z, x).\n\
             Ans(x, y) :- tc[Tri](x, y).",
            None,
            &mut al,
        )
        .unwrap();
        assert!(
            q.collapse_exact().is_none(),
            "genuinely conjunctive closure"
        );
        // Semantics: two triangles sharing a vertex compose.
        let mut db = rq_graph::GraphDb::new();
        let r = db.label("r");
        let names = ["a", "b", "c", "d", "e"];
        let n: Vec<_> = names.iter().map(|s| db.node(s)).collect();
        for (x, y) in [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)] {
            db.add_edge(n[x], r, n[y]);
        }
        let ans = q.evaluate(&db);
        assert!(ans.contains(&vec![n[0], n[3]]), "a →tri b →tri d");
    }

    #[test]
    fn predicate_reuse_and_projection() {
        let mut al = Alphabet::new();
        let q = parse_rq(
            "Hop(a, b) :- [r](a, b).\n\
             Two(a, c) :- Hop(a, b), Hop(b, c).\n\
             Ans(x)    :- Two(x, y).",
            None,
            &mut al,
        )
        .unwrap();
        assert_eq!(q.head.len(), 1);
        let db = generate::chain(4, "r");
        assert_eq!(q.evaluate(&db).len(), 2); // v0 and v1 start 2-hops
    }

    #[test]
    fn recursion_outside_tc_is_rejected() {
        let mut al = Alphabet::new();
        let err = parse_rq("P(a, b) :- [r](a, m), P(m, b).", None, &mut al).unwrap_err();
        assert!(err.message.contains("tc["), "{err}");
        let err =
            parse_rq("P(a, b) :- [r](a, b).\nQ(a, b) :- R(a, b).", None, &mut al).unwrap_err();
        assert!(err.message.contains("not defined"), "{err}");
    }

    #[test]
    fn goal_selection() {
        let mut al = Alphabet::new();
        let text = "A(x, y) :- [r](x, y).\nB(x, y) :- [s](x, y).";
        let qa = parse_rq(text, Some("A"), &mut al).unwrap();
        let qb = parse_rq(text, Some("B"), &mut al).unwrap();
        let db = generate::random_gnm(6, 12, &["r", "s"], 2);
        assert_ne!(qa.evaluate(&db), qb.evaluate(&db));
        assert!(parse_rq(text, Some("C"), &mut al).is_err());
    }

    #[test]
    fn duplicate_arguments_and_head_vars() {
        let mut al = Alphabet::new();
        // Self-loop detection through predicate instantiation P(v, v).
        let q = parse_rq("P(a, b) :- [r](a, b).\nLoopy(v) :- P(v, v).", None, &mut al).unwrap();
        let mut db = rq_graph::GraphDb::new();
        let r = db.label("r");
        let x = db.node("x");
        let y = db.node("y");
        db.add_edge(x, r, x);
        db.add_edge(x, r, y);
        assert_eq!(q.evaluate(&db), BTreeSet::from([vec![x]]));

        // Duplicate head variables: Diag(v, v).
        let q = parse_rq("Diag(v, v) :- [r](v, w).", None, &mut al).unwrap();
        assert_eq!(q.evaluate(&db), BTreeSet::from([vec![x, x]]));
    }

    #[test]
    fn dispatch_helper() {
        let mut al = Alphabet::new();
        assert!(matches!(
            parse_rq_or_uc2rpq("Q(x, y) :- [a](x, y).", &mut al),
            Ok(Err(_))
        ));
        assert!(matches!(
            parse_rq_or_uc2rpq("P(a, b) :- [r](a, b).\nQ(x, y) :- tc[P](x, y).", &mut al),
            Ok(Ok(_))
        ));
    }
}
