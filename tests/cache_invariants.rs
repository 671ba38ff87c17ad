//! Invariants of the containment-based semantic cache that must hold no
//! matter how lookups, probes, and evictions interleave:
//!
//! * the LRU policy never evicts an entry inside the probe window (the
//!   `probe_candidates` most recently used entries) — those are exactly
//!   the entries the next lookup will probe, so dropping one would make
//!   the probe budget pay for entries that cannot be hit;
//! * answers served through the *subsumed* path (filtering a superset)
//!   are byte-identical to a cold evaluation of the same query;
//! * canonical keys depend only on the query's language — not on the
//!   alphabet's interning order or the argument order of a union — and
//!   determinizing a query's own NFA keys it exactly as its simplified
//!   regex would;
//! * probes that exhaust their budget are counted as `probe_exhausted`,
//!   never as proven non-containment.

use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::automata::regex::simplify;
use regular_queries::core::canonical::CompiledQuery;
use regular_queries::engine::{CacheConfig, Lookup, SemanticCache};
use regular_queries::graph::generate;
use regular_queries::prelude::*;
use std::sync::Arc;

fn random_two_rpq(rng: &mut SplitMix64, leaves: usize) -> TwoRpq {
    let cfg = RegexConfig {
        num_labels: 2,
        inverse_prob: 0.3,
        leaves,
        repeat_prob: 0.35,
    };
    TwoRpq::new(random_regex(rng, &cfg))
}

#[test]
fn eviction_never_drops_the_probe_window() {
    // Distinct languages ⇒ distinct canonical keys, so every insert is a
    // new entry.
    let texts = [
        "a", "b", "a a", "b b", "a b", "b a", "a a a", "b b b", "a b a", "b a b", "a a b", "b b a",
        "a b b", "b a a",
    ];
    let db = generate::random_gnm(8, 16, &["a", "b"], 5);
    let mut al = db.alphabet().clone();
    let queries: Vec<TwoRpq> = texts
        .iter()
        .map(|t| TwoRpq::parse(t, &mut al).unwrap())
        .collect();
    let config = CacheConfig {
        capacity: 6,
        probe_candidates: 3,
        ..CacheConfig::default()
    };
    let window = config.probe_candidates;
    let mut cache = SemanticCache::new(config);
    // Externally tracked recency order, most recent last. Both lookups and
    // inserts refresh recency in the cache, and this mirror only appends
    // through the same operations, so its suffix is the cache's MRU set.
    let mut recency: Vec<String> = Vec::new();
    let touch = |recency: &mut Vec<String>, key: &str| {
        recency.retain(|k| k != key);
        recency.push(key.to_string());
    };
    let mut rng = SplitMix64::new(99);
    for step in 0..200 {
        let q = &queries[rng.below(queries.len())];
        let compiled = cache.compile(q, &al);
        let key = compiled.cache_key().to_string();
        match cache.lookup(&compiled, &al) {
            Lookup::Exact(_) => touch(&mut recency, &key),
            _ => {
                cache.insert(compiled, Arc::new(q.evaluate(&db)));
                touch(&mut recency, &key);
            }
        }
        // The probe window — the `window` most recently used keys — must
        // all still be materialized, whatever got evicted.
        for k in recency.iter().rev().take(window) {
            assert!(
                cache.contains_key(k),
                "step {step}: key {k} is inside the {window}-entry probe window \
                 but was evicted (stats: {})",
                cache.stats()
            );
        }
        assert!(cache.len() <= 6, "capacity violated at step {step}");
    }
    assert!(
        cache.stats().evictions > 0,
        "the test never exercised eviction"
    );
}

#[test]
fn subsumed_answers_match_cold_evaluation() {
    // 200 seeded (database, query-pair) instances: seed the cache with the
    // union Q1∪Q2, then serve Q1. Whatever path the cache takes, the
    // answer must equal a cold evaluation; the subsumed path (filtering
    // the union's materialized pairs) must be exercised often.
    let mut subsumed = 0u32;
    for seed in 0..200u64 {
        let db = generate::random_gnm(8, 16, &["a", "b"], seed);
        let engine = regular_queries::engine::Engine::new(
            db,
            regular_queries::engine::EngineConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9));
        let q1 = random_two_rpq(&mut rng, 3);
        let q2 = random_two_rpq(&mut rng, 3);
        let big = TwoRpq::new(q1.regex().clone().or(q2.regex().clone()));
        engine.run(&big).expect("unlimited");
        let got = engine.run(&q1).expect("unlimited");
        if got.disposition == Disposition::Subsumed {
            subsumed += 1;
        }
        let cold = q1.evaluate(&engine.db());
        assert_eq!(
            *got.answer,
            cold,
            "seed {seed}: {} answer diverges from cold evaluation for {:?}",
            got.disposition,
            q1.regex()
        );
    }
    assert!(
        subsumed >= 50,
        "only {subsumed}/200 pairs took the subsumed path — the scenario is \
         no longer exercising subsumption"
    );
}

/// The canonical key of `q`, unmetered.
fn canonical_key(q: &TwoRpq, al: &Alphabet) -> String {
    let key = CompiledQuery::new(q, al, &Governor::unlimited())
        .cache_key()
        .to_string();
    assert!(key.starts_with("dfa:"), "an unmetered key is canonical");
    key
}

#[test]
fn canonical_key_ignores_interning_and_union_order() {
    let mut rng = SplitMix64::new(7_777);
    for trial in 0..60 {
        let al1 = Alphabet::from_names(["a", "b", "c"]);
        // Same names interned in a different order (with an extra unused
        // label shifting every id).
        let mut al2 = Alphabet::from_names(["z", "c", "b", "a"]);
        let cfg = RegexConfig {
            num_labels: 3,
            inverse_prob: 0.3,
            leaves: 4,
            repeat_prob: 0.35,
        };
        let r1 = random_regex(&mut rng, &cfg);
        let r2 = random_regex(&mut rng, &cfg);
        let text = format!("{}", r1.display(&al1));
        let q_al1 = TwoRpq::new(r1.clone());
        let q_al2 = TwoRpq::parse(&text, &mut al2).expect("display round-trips");
        assert_eq!(
            canonical_key(&q_al1, &al1),
            canonical_key(&q_al2, &al2),
            "trial {trial}: key depends on interning order for {text}"
        );
        // ∪ is commutative, so both orders must share a key.
        let u12 = TwoRpq::new(r1.clone().or(r2.clone()));
        let u21 = TwoRpq::new(r2.or(r1));
        assert_eq!(
            canonical_key(&u12, &al1),
            canonical_key(&u21, &al1),
            "trial {trial}: key depends on union argument order"
        );
    }
}

#[test]
fn starved_probes_count_as_exhausted_not_miss_evidence() {
    let db = generate::random_gnm(10, 20, &["a", "b"], 42);
    let mut al = db.alphabet().clone();
    let mut cache = SemanticCache::new(CacheConfig {
        probe_limits: Limits::unlimited().with_fuel(1),
        ..CacheConfig::default()
    });
    // The inverse letter in `Q2` keeps the pair off the Lemma 1 rung, so
    // only the metered exact stage can decide it.
    let big = TwoRpq::parse("(a|a-)+", &mut al).unwrap();
    let small = TwoRpq::parse("a+", &mut al).unwrap();
    cache.insert(cache.compile(&big, &al), Arc::new(big.evaluate(&db)));
    assert!(matches!(
        cache.lookup(&cache.compile(&small, &al), &al),
        Lookup::Miss
    ));
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.probe_exhausted, stats.probes,
        "every starved probe must be tallied as exhausted: {stats}"
    );
    // With a real budget the same pair is a subsumption hit, proving the
    // earlier miss was a budget artifact rather than non-containment.
    let mut roomy = SemanticCache::new(CacheConfig::default());
    roomy.insert(roomy.compile(&big, &al), Arc::new(big.evaluate(&db)));
    assert!(matches!(
        roomy.lookup(&roomy.compile(&small, &al), &al),
        Lookup::Subsumed { .. }
    ));
    assert_eq!(roomy.stats().probe_exhausted, 0);
}

#[test]
fn starved_probes_still_decide_simple_pairs_through_compiled_artefacts() {
    // Entries keep their compiled keys and minimal DFAs, so a probe into
    // a one-way query spends no fuel: the stored keys differ and the
    // unmetered Lemma 1 rung proves `a+ ⊑ (a|b)+` even at fuel 1.
    let db = generate::random_gnm(10, 20, &["a", "b"], 42);
    let mut al = db.alphabet().clone();
    let mut cache = SemanticCache::new(CacheConfig {
        probe_limits: Limits::unlimited().with_fuel(1),
        ..CacheConfig::default()
    });
    let big = TwoRpq::parse("(a|b)+", &mut al).unwrap();
    let small = TwoRpq::parse("a+", &mut al).unwrap();
    cache.insert(cache.compile(&big, &al), Arc::new(big.evaluate(&db)));
    match cache.lookup(&cache.compile(&small, &al), &al) {
        Lookup::Subsumed { superset, .. } => assert!(small.evaluate(&db).is_subset(&superset)),
        other => panic!("expected a subsumption hit, got {}", other.kind()),
    }
    assert_eq!(cache.stats().probe_exhausted, 0, "{}", cache.stats());
}

/// Every query the experiments and the serving benchmark's pools serve
/// (E4, E12, E13, the E14 stream with its cold chains, E17), each with
/// the alphabet it was built over.
fn pool_queries() -> Vec<(TwoRpq, Alphabet)> {
    use rq_bench::workloads::*;
    let mut queries = Vec::new();
    let mut pair = |(q1, q2, al): (TwoRpq, TwoRpq, Alphabet)| {
        queries.push((q1, al.clone()));
        queries.push((q2, al));
    };
    for n in 1..=6 {
        pair(e4_paper_family(n));
        pair(e4_refuted_family(n));
    }
    for leaves in [4, 6, 8] {
        for seed in 0..30 {
            pair(e4_random_pair(leaves, seed));
        }
    }
    let ab = ab_alphabet();
    for (_, detour, union) in e13_fold_pairs() {
        queries.push((detour, ab.clone()));
        queries.push((union, ab.clone()));
    }
    for empty in e13_empty_queries() {
        queries.push((empty, ab.clone()));
    }
    let texts = e12_batch(8)
        .into_iter()
        .chain(e14_stream())
        .chain(e17_simple_batch(12));
    for text in texts {
        let mut al = ab.clone();
        let q = TwoRpq::parse(&text, &mut al).expect("pool queries parse");
        queries.push((q, al));
    }
    queries
}

#[test]
fn keys_from_the_querys_own_nfa_match_its_simplified_regex() {
    // Keying determinizes the query's own NFA; no `simplify` runs first.
    // The minimal DFA depends only on the language, so every key must be
    // byte-identical to the key of the simplified regex.
    let pool = pool_queries();
    assert!(pool.len() > 700, "{} pool queries", pool.len());
    let ab = Alphabet::from_names(["a", "b"]);
    let mut rng = SplitMix64::new(2_028);
    let random = (0..600).map(|i| (random_two_rpq(&mut rng, 3 + i % 5), ab.clone()));
    let unlimited = Governor::unlimited();
    for (q, al) in pool.iter().cloned().chain(random) {
        let simplified = TwoRpq::new(simplify(q.regex()));
        let own = CompiledQuery::new(&q, &al, &unlimited);
        let other = CompiledQuery::new(&simplified, &al, &unlimited);
        assert_eq!(
            own.cache_key(),
            other.cache_key(),
            "{} keys apart from its simplified form",
            q.regex().display(&al)
        );
    }
    // Under the serving key budget every pool query still keys canonically.
    let cache = SemanticCache::new(CacheConfig::default());
    for (q, al) in &pool {
        let key = cache.key_of(q, al);
        assert!(
            key.starts_with("dfa:"),
            "{} starved the default key budget: {key}",
            q.regex().display(al)
        );
    }
}
