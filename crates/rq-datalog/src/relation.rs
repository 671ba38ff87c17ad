//! Relations and fact databases for bottom-up evaluation.

use std::collections::{BTreeMap, HashMap, HashSet};

/// An interned constant of the active domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u32);

/// A relation: a set of fixed-arity tuples with lazily built per-column
/// hash indexes (used by the join in [`crate::eval`]).
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    tuples: Vec<Vec<Value>>,
    set: HashSet<Vec<Value>>,
    /// `indexes[col]`: value → row ids. Built on first use of that column.
    indexes: Vec<Option<HashMap<Value, Vec<usize>>>>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            tuples: Vec::new(),
            set: HashSet::new(),
            indexes: vec![None; arity],
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple; returns whether it was new.
    pub fn insert(&mut self, tuple: Vec<Value>) -> bool {
        assert_eq!(tuple.len(), self.arity, "arity mismatch");
        if !self.set.insert(tuple.clone()) {
            return false;
        }
        let row = self.tuples.len();
        for (col, idx) in self.indexes.iter_mut().enumerate() {
            if let Some(map) = idx {
                map.entry(tuple[col]).or_default().push(row);
            }
        }
        self.tuples.push(tuple);
        true
    }

    /// Whether `tuple` is present.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.set.contains(tuple)
    }

    /// All tuples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.tuples.iter().map(Vec::as_slice)
    }

    /// The tuple at `row`.
    pub fn tuple(&self, row: usize) -> &[Value] {
        &self.tuples[row]
    }

    /// Row ids whose column `col` equals `v`, via the (lazily built) index.
    pub fn rows_with(&mut self, col: usize, v: Value) -> &[usize] {
        if self.indexes[col].is_none() {
            let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
            for (row, t) in self.tuples.iter().enumerate() {
                map.entry(t[col]).or_default().push(row);
            }
            self.indexes[col] = Some(map);
        }
        self.indexes[col]
            .as_ref()
            .expect("just built")
            .get(&v)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Merge all tuples of `other` into `self`; returns the newly added
    /// tuples (the semi-naive delta).
    pub fn merge(&mut self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity);
        let mut delta = Relation::new(self.arity);
        for t in other.iter() {
            if self.insert(t.to_vec()) {
                delta.insert(t.to_vec());
            }
        }
        delta
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.set == other.set
    }
}

impl Eq for Relation {}

/// A database of facts: named relations over an interned constant domain.
#[derive(Debug, Clone, Default)]
pub struct FactDb {
    constants: Vec<String>,
    constant_index: HashMap<String, Value>,
    relations: BTreeMap<String, Relation>,
}

impl FactDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a constant.
    pub fn value(&mut self, name: &str) -> Value {
        if let Some(&v) = self.constant_index.get(name) {
            return v;
        }
        let v = Value(self.constants.len() as u32);
        self.constants.push(name.to_owned());
        self.constant_index.insert(name.to_owned(), v);
        v
    }

    /// Look up an interned constant.
    pub fn find_value(&self, name: &str) -> Option<Value> {
        self.constant_index.get(name).copied()
    }

    /// The name of `v`.
    pub fn value_name(&self, v: Value) -> &str {
        &self.constants[v.0 as usize]
    }

    /// Number of interned constants (the active domain size).
    pub fn domain_size(&self) -> usize {
        self.constants.len()
    }

    /// Add a fact by constant names; the relation's arity is fixed on
    /// first use.
    pub fn add_fact(&mut self, predicate: &str, tuple: &[&str]) -> bool {
        let vals: Vec<Value> = tuple.iter().map(|t| self.value(t)).collect();
        self.add_fact_values(predicate, vals)
    }

    /// Add a fact by interned values.
    pub fn add_fact_values(&mut self, predicate: &str, tuple: Vec<Value>) -> bool {
        let arity = tuple.len();
        let rel = self
            .relations
            .entry(predicate.to_owned())
            .or_insert_with(|| Relation::new(arity));
        assert_eq!(rel.arity(), arity, "inconsistent arity for {predicate}");
        rel.insert(tuple)
    }

    /// The relation for `predicate`, if any facts exist.
    pub fn relation(&self, predicate: &str) -> Option<&Relation> {
        self.relations.get(predicate)
    }

    /// Mutable access (used by the evaluator for IDB predicates).
    pub fn relation_mut(&mut self, predicate: &str) -> Option<&mut Relation> {
        self.relations.get_mut(predicate)
    }

    /// Ensure a (possibly empty) relation of the given arity exists.
    pub fn ensure_relation(&mut self, predicate: &str, arity: usize) -> &mut Relation {
        self.relations
            .entry(predicate.to_owned())
            .or_insert_with(|| Relation::new(arity))
    }

    /// Iterate all `(predicate, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All values of the active domain.
    pub fn domain(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.constants.len() as u32).map(Value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert(vec![Value(0), Value(1)]));
        assert!(!r.insert(vec![Value(0), Value(1)]));
        assert!(r.insert(vec![Value(1), Value(0)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value(0), Value(1)]));
    }

    #[test]
    fn index_finds_rows() {
        let mut r = Relation::new(2);
        r.insert(vec![Value(0), Value(1)]);
        r.insert(vec![Value(0), Value(2)]);
        r.insert(vec![Value(1), Value(2)]);
        assert_eq!(r.rows_with(0, Value(0)).len(), 2);
        assert_eq!(r.rows_with(1, Value(2)).len(), 2);
        assert_eq!(r.rows_with(0, Value(9)).len(), 0);
        // Index stays consistent across later inserts.
        r.insert(vec![Value(0), Value(3)]);
        assert_eq!(r.rows_with(0, Value(0)).len(), 3);
    }

    #[test]
    fn merge_returns_delta() {
        let mut a = Relation::new(1);
        a.insert(vec![Value(0)]);
        let mut b = Relation::new(1);
        b.insert(vec![Value(0)]);
        b.insert(vec![Value(1)]);
        let delta = a.merge(&b);
        assert_eq!(delta.len(), 1);
        assert!(delta.contains(&[Value(1)]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn factdb_interning_and_facts() {
        let mut db = FactDb::new();
        assert!(db.add_fact("E", &["a", "b"]));
        assert!(db.add_fact("E", &["b", "c"]));
        assert!(!db.add_fact("E", &["a", "b"]));
        assert_eq!(db.domain_size(), 3);
        assert_eq!(db.relation("E").unwrap().len(), 2);
        let a = db.find_value("a").unwrap();
        assert_eq!(db.value_name(a), "a");
    }

    #[test]
    #[should_panic(expected = "inconsistent arity")]
    fn arity_mismatch_panics() {
        let mut db = FactDb::new();
        db.add_fact("E", &["a", "b"]);
        db.add_fact("E", &["a"]);
    }
}
