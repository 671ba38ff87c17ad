//! E9 — §2.3: Monadic Datalog expresses reachability-to-a-set but not E⁺.
//!
//! Benchmarks the monadic reachability program against the full binary
//! transitive closure on layered DAGs — the monadic query computes a set
//! (linear-size answer) while E⁺ materializes a quadratic relation, which
//! is the expressiveness/efficiency trade-off the paper discusses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rq_automata::Letter;
use rq_bench::{monadic_reachability_query, tc_query};
use rq_datalog::evaluate;
use rq_datalog::FactDb;
use rq_graph::generate::layered_dag;
use std::hint::black_box;

/// Layered-DAG EDB with the last layer marked in `p`.
fn layered_factdb(layers: usize, width: usize) -> FactDb {
    let g = layered_dag(layers, width, 2, "e", 9);
    let mut db = FactDb::new();
    let e = g.alphabet().get("e").unwrap();
    for (s, d) in g.edges(e) {
        db.add_fact("e", &[&format!("n{}", s.0), &format!("n{}", d.0)]);
    }
    // Mark sinks (nodes with no outgoing edges) as targets.
    for n in g.nodes() {
        if g.step(n, Letter::forward(e)).next().is_none() {
            db.add_fact("p", &[&format!("n{}", n.0)]);
        }
    }
    db
}

fn bench_monadic_vs_tc(c: &mut Criterion) {
    let monadic = monadic_reachability_query();
    let tc = tc_query();
    let mut g = c.benchmark_group("e9/layered");
    g.sample_size(10);
    for layers in [4usize, 8, 16] {
        let edb = layered_factdb(layers, 8);
        g.bench_with_input(
            BenchmarkId::new("monadic_reach", layers),
            &layers,
            |b, _| b.iter(|| black_box(evaluate(&monadic, &edb).len())),
        );
        g.bench_with_input(BenchmarkId::new("full_tc", layers), &layers, |b, _| {
            b.iter(|| black_box(evaluate(&tc, &edb).len()))
        });
    }
    g.finish();
}

criterion_group!(e9, bench_monadic_vs_tc);
criterion_main!(e9);
