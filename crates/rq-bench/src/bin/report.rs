//! Run the experiment suite and print the EXPERIMENTS.md tables.
//!
//! `cargo run --release -p rq-bench --bin report [-- --only=E1,E11,…]`
//! runs the listed experiments (default: all of E1–E17) and prints one
//! markdown table per experiment. Every row is deterministic in the seeds
//! baked into `rq_bench::workloads`, except wall-clock columns and the
//! closed-loop counts of E14 and E16, which depend on how many requests
//! the machine serves in a fixed run length.
//!
//! Every timing column outside the closed-loop runs (E14, and E16's
//! ingest part) comes from [`rq_bench::median`], from
//! [`rq_bench::interleaved`] for E13's µs-scale pre-flight rows, or, for
//! an A/B comparison, from [`rq_bench::paired`]. Two experiments are gates, and
//! `report` exits 1 when either fails: E11's aggregate governor overhead
//! must stay under 5%, and E17's simple-heavy batch must make no
//! `full_check` ladder call. A bad argument prints usage and exits 2.

use rq_automata::complement2::vardi_complement;
use rq_automata::containment::{check_explicit, check_on_the_fly, ContainmentRun};
use rq_automata::fold::{fold_twonfa, lemma3_state_bound};
use rq_automata::shepherdson::ShepherdsonDfa;
use rq_automata::twonfa::TwoNfa;
use rq_automata::{Alphabet, Governor, LabelId, Letter, Limits, Nfa};
use rq_bench::*;
use rq_core::containment::{rpq, rq as rqc, two_rpq, uc2rpq, Config, Outcome};
use rq_core::rpq::TwoRpq;
use rq_core::translate::{encode_query, grq_containment, grq_to_rq};
use rq_datalog::eval::{evaluate_program, evaluate_program_naive};
use rq_datalog::evaluate;
use rq_engine::{Disposition, Engine, EngineConfig};
use rq_graph::{generate, text, GraphDb, NodeId};
use rq_metrics::recorder::{Recorder, RecorderConfig};
use rq_metrics::registry::Snapshot;
use rq_metrics::span::{self, TraceContext};
use rq_metrics::{global, Value};
use rq_serve::{run_bench, BenchConfig, Client, ServeConfig, Server, TenantQuota};
use rq_storage::{StorageConfig, StorageHandle};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Timed passes per table cell ([`median`]).
const PASSES: usize = 5;
/// Interleaved rounds of E13's pre-flight rows ([`interleaved`]): its
/// cells are µs-scale, so five passes of one row in a row let one slow
/// stretch of the host move that row's median.
const PREFLIGHT_ROUNDS: usize = 101;
/// Interleaved rounds per A/B comparison ([`paired`]).
const ROUNDS: usize = 30;
/// Interleaved rounds per E11 row: its passes are ~1 ms, so it can afford
/// more rounds than the batch-sized comparisons.
const E11_ROUNDS: usize = 201;

/// `Err` carries the message of a failed gate.
type Gate = Result<(), String>;
type Experiment = fn() -> Gate;

const EXPERIMENTS: [(&str, Experiment); 17] = [
    ("E1", e1),
    ("E2", e2),
    ("E3", e3),
    ("E4", e4),
    ("E5", e5),
    ("E6", e6),
    ("E7", e7),
    ("E8", e8),
    ("E9", e9),
    ("E10", e10),
    ("E11", e11),
    ("E12", e12),
    ("E13", e13),
    ("E14", e14),
    ("E15", e15),
    ("E16", e16),
    ("E17", e17),
];

const USAGE: &str = "usage: report [--only=E1,E2,…]   (experiments E1–E17; default: all)";

/// Indices into [`EXPERIMENTS`] that the arguments select, in table order.
fn select(args: &[String]) -> Result<Vec<usize>, String> {
    let ids = match args {
        [] => return Ok((0..EXPERIMENTS.len()).collect()),
        [arg] => arg
            .strip_prefix("--only=")
            .ok_or_else(|| format!("unknown argument `{arg}`"))?,
        _ => return Err("expected at most one argument".into()),
    };
    let mut picked = [false; EXPERIMENTS.len()];
    for id in ids.split(',') {
        let i = EXPERIMENTS
            .iter()
            .position(|(name, _)| *name == id)
            .ok_or_else(|| format!("unknown experiment `{id}`"))?;
        picked[i] = true;
    }
    Ok((0..EXPERIMENTS.len()).filter(|&i| picked[i]).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = select(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let failed: Vec<String> = selected
        .into_iter()
        .filter_map(|i| (EXPERIMENTS[i].1)().err())
        .collect();
    for f in &failed {
        eprintln!("gate failed: {f}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

fn verdict(o: &Outcome) -> &'static str {
    match o.decided() {
        Some(true) => "contained",
        Some(false) => "not contained",
        None => "unknown",
    }
}

fn engine(db: GraphDb, threads: usize) -> Engine {
    Engine::new(
        db,
        EngineConfig {
            threads,
            ..EngineConfig::default()
        },
    )
}

fn parse_all(engine: &Engine, texts: &[String]) -> Vec<TwoRpq> {
    texts
        .iter()
        .map(|t| engine.parse(t).expect("parses"))
        .collect()
}

fn e1() -> Gate {
    println!("## E1 — RPQ containment (Lemma 1): on-the-fly vs explicit\n");
    println!("| family | n | verdict | fly states | fly µs | explicit states | explicit µs |");
    println!("|---|---|---|---|---|---|---|");
    let sigma: Vec<Letter> = ab_alphabet().sigma().collect();
    let mut rows = Vec::new();
    for n in [2, 4, 8, 16, 32] {
        rows.push(("contained", n, vec![e1_contained_pair(n)]));
    }
    for n in [2, 4, 8, 16, 32] {
        rows.push(("refuted", n, vec![e1_refuted_pair(n)]));
    }
    for n in [4, 8, 12, 16] {
        rows.push(("2^n adversarial (refuted)", n, vec![e1_exponential_pair(n)]));
    }
    for n in [4, 8, 12] {
        // Self-containment of the 2^n language: contained, and hard for
        // both engines (the subset space must be explored either way).
        let (_, q2) = e1_exponential_pair(n);
        rows.push(("2^n self-containment", n, vec![(q2.clone(), q2)]));
    }
    for leaves in [4, 8, 16] {
        let pairs = (0..8).map(|s| e1_random_pair(leaves, s)).collect();
        rows.push(("random (n leaves, 8 pairs)", leaves, pairs));
    }
    for (family, n, pairs) in rows {
        let nfas: Vec<_> = pairs
            .iter()
            .map(|(q1, q2)| (q1.as_two_rpq().nfa(), q2.as_two_rpq().nfa()))
            .collect();
        let (fly, t_fly) = median(PASSES, || {
            nfas.iter()
                .map(|(a, b)| check_on_the_fly(a, b))
                .collect::<Vec<_>>()
        });
        let (exp, t_exp) = median(PASSES, || {
            nfas.iter()
                .map(|(a, b)| check_explicit(a, b, &sigma))
                .collect::<Vec<_>>()
        });
        let contained = fly.iter().filter(|r| r.contained).count();
        assert!(fly
            .iter()
            .zip(&exp)
            .all(|(f, e)| f.contained == e.contained));
        let verdict = match (pairs.len(), contained) {
            (1, 1) => "contained".to_string(),
            (1, _) => "not contained".to_string(),
            (len, c) => format!("{c}/{len} contained"),
        };
        let states = |rs: &[ContainmentRun]| rs.iter().map(|r| r.states_explored).sum::<usize>();
        println!(
            "| {family} | {n} | {verdict} | {} | {t_fly:.0} | {} | {t_exp:.0} |",
            states(&fly),
            states(&exp),
        );
    }
    println!();
    Ok(())
}

fn e2() -> Gate {
    println!("## E2 — fold 2NFA size (Lemma 3: n·(|Σ±|+1) states)\n");
    println!("| NFA states n | Σ± size | fold 2NFA states | bound | build µs |");
    println!("|---|---|---|---|---|");
    for (states, labels) in [
        (4, 2),
        (8, 2),
        (16, 2),
        (32, 2),
        (64, 2),
        (128, 2),
        (16, 1),
        (16, 4),
        (16, 8),
    ] {
        let nfa = e2_nfa(states, labels, 7);
        let letters = sigma_pm(labels);
        let (m, t) = median(PASSES, || fold_twonfa(&nfa, &letters));
        let bound = lemma3_state_bound(nfa.num_states(), letters.len());
        assert_eq!(m.num_states(), bound);
        println!(
            "| {} | {} | {} | {bound} | {t:.0} |",
            nfa.num_states(),
            letters.len(),
            m.num_states(),
        );
    }
    println!();
    Ok(())
}

fn e3() -> Gate {
    println!("## E3 — 2NFA complementation blow-up (Lemma 4: 2^O(n))\n");
    println!("| 2NFA states | 4^n bound | Vardi reachable pairs | µs | Shepherdson tables | µs |");
    println!("|---|---|---|---|---|---|");
    let a = Letter::forward(LabelId(0));
    for k in [1usize, 2, 3, 4, 5, 8] {
        // The chain 2NFA for a^k (k+1 states).
        let mut n = Nfa::with_states(k + 1);
        n.set_initial(0);
        n.set_final(k);
        for i in 0..k {
            n.add_transition(i, a, i + 1);
        }
        let m = TwoNfa::from_nfa(&n);
        let (comp, t_v) = median(PASSES, || vardi_complement(&m, &[a], 50_000_000));
        let comp = comp.expect("within the pair cap");
        let (tables, t_s) = median(PASSES, || {
            let mut det = ShepherdsonDfa::new(&m);
            for len in 0..=k + 2 {
                det.accepts(&vec![a; len]);
            }
            det.discovered()
        });
        println!(
            "| {} | {} | {} | {t_v:.0} | {tables} | {t_s:.0} |",
            m.num_states(),
            comp.bound,
            comp.pairs
        );
    }
    println!();
    Ok(())
}

fn e4() -> Gate {
    println!("## E4 — 2RPQ containment (Theorem 5)\n");
    println!("| family | k | verdict | µs |");
    println!("|---|---|---|---|");
    for k in [1, 2, 4, 8] {
        let (q1, q2, al) = e4_paper_family(k);
        let (out, t) = median(PASSES, || two_rpq::check(&q1, &q2, &al));
        println!("| p ⊑ (p p⁻)^k p | {k} | {} | {t:.0} |", verdict(&out));
    }
    for n in [2, 4, 8, 16] {
        let (q1, q2, al) = e4_refuted_family(n);
        let (out, t) = median(PASSES, || two_rpq::check(&q1, &q2, &al));
        println!("| a^n ⊑ (a a⁻)* a | {n} | {} | {t:.0} |", verdict(&out));
    }
    for leaves in [4, 8, 12] {
        let pairs: Vec<_> = (0..30).map(|s| e4_random_pair(leaves, s)).collect();
        let (outs, t) = median(PASSES, || {
            pairs
                .iter()
                .map(|(q1, q2, al)| two_rpq::check(q1, q2, al))
                .collect::<Vec<_>>()
        });
        let decided = outs.iter().filter(|o| o.decided().is_some()).count();
        println!(
            "| random ({leaves} leaves, 30 pairs) | — | {decided}/30 decided | {:.0} avg |",
            t / 30.0
        );
    }
    println!();
    Ok(())
}

fn e5() -> Gate {
    println!("## E5 — UC2RPQ containment (Theorem 6 territory)\n");
    println!("| family | k | verdict | µs |");
    println!("|---|---|---|---|");
    let cfg = Config::default();
    let chain = [1, 2, 4, 8].map(|k| ("chain a^k ⊑ a+", k, e5_chain_pair(k)));
    let branch = [1, 2, 3, 4].map(|k| ("k-branch ⊑ 1-branch", k, e5_branching_pair(k)));
    let refuted = [1, 2, 3, 4].map(|n| ("a* ⊑ a^(<n)", n, e5_refuted_pair(n)));
    for (family, k, (q1, q2, al)) in chain.into_iter().chain(branch).chain(refuted) {
        let (out, t) = median(PASSES, || uc2rpq::check(&q1, &q2, &al, &cfg));
        println!("| {family} | {k} | {} | {t:.0} |", verdict(&out));
    }
    // Ablations: disable one checker stage and observe the effect.
    println!("\nAblations (k = 4 chain / 3-branch instances):\n");
    println!("| variant | chain verdict | µs | branch verdict | µs |");
    println!("|---|---|---|---|---|");
    for (name, ablated) in [
        ("full checker", Config::default()),
        (
            "no chain collapse",
            Config {
                disable_chain_collapse: true,
                ..Config::default()
            },
        ),
        (
            "no hom prover",
            Config {
                disable_hom_prover: true,
                ..Config::default()
            },
        ),
    ] {
        let (q1, q2, al) = e5_chain_pair(4);
        let (o1, t1) = median(PASSES, || uc2rpq::check(&q1, &q2, &al, &ablated));
        let (q1, q2, al) = e5_branching_pair(3);
        let (o2, t2) = median(PASSES, || uc2rpq::check(&q1, &q2, &al, &ablated));
        println!(
            "| {name} | {} | {t1:.0} | {} | {t2:.0} |",
            verdict(&o1),
            verdict(&o2)
        );
    }
    println!();
    Ok(())
}

fn e6() -> Gate {
    println!("## E6 — RQ containment (Theorem 7 territory)\n");
    println!("| instance | verdict | µs |");
    println!("|---|---|---|");
    let row = |name: &str, (q1, q2, al): &(_, _, Alphabet), cfg: &Config| {
        let (out, t) = median(PASSES, || rqc::check(q1, q2, al, cfg));
        println!("| {name} | {} | {t:.0} |", verdict(&out));
    };
    let cfg = Config::default();
    for k in [1, 2, 3, 4] {
        let name = format!("TC(chain_{k}) ⊑ chain_{k}+");
        row(&name, &e6_collapsible_pair(k), &cfg);
    }
    let triangle = e6_triangle_pair();
    let refuted = e6_refuted_pair();
    row("TC(triangle) ⊑ r+ (induction)", &triangle, &cfg);
    row("TC(triangle) ⊑ triangle", &refuted, &cfg);
    // Reflexive hard instance: must not be wrongly refuted.
    let (q1, _, al) = e6_refuted_pair();
    row("TC(triangle) ⊑ TC(triangle)", &(q1.clone(), q1, al), &cfg);
    // Ablation: the inductive prover is what decides the triangle closure.
    let no_induction = Config {
        disable_induction: true,
        ..Config::default()
    };
    row(
        "TC(triangle) ⊑ r+ *without induction*",
        &triangle,
        &no_induction,
    );
    // Ablation: refutation cost against the unrolling depth.
    for depth in [1, 2, 3] {
        let cfg = Config {
            unfold_depth: depth,
            ..Config::default()
        };
        let name = format!("TC(triangle) ⊑ triangle, unfold depth {depth}");
        row(&name, &refuted, &cfg);
    }
    println!();
    Ok(())
}

fn e7() -> Gate {
    println!("## E7 — GRQ → RQ reduction (Theorem 8)\n");
    println!("| EDB arity k | translate µs | hop ⊑ reach | µs | reach ⊑ hop | µs |");
    println!("|---|---|---|---|---|---|");
    let cfg = Config::default();
    for k in [2usize, 3, 4, 6] {
        let reach = e7_kary_reachability(k);
        let hop = e7_kary_hop(k);
        let (_, t_tr) = median(PASSES, || {
            let e = encode_query(&reach);
            grq_to_rq(&e, &mut Alphabet::new()).expect("translates")
        });
        let (o1, t1) = median(PASSES, || grq_containment(&hop, &reach, &cfg));
        let (o2, t2) = median(PASSES, || grq_containment(&reach, &hop, &cfg));
        println!(
            "| {k} | {t_tr:.0} | {} | {t1:.0} | {} | {t2:.0} |",
            verdict(&o1),
            verdict(&o2)
        );
    }
    println!();
    Ok(())
}

fn e8() -> Gate {
    println!("## E8 — Datalog engine ablation: naive vs semi-naive\n");
    println!("| workload | n | facts | semi-naive firings | naive firings | semi µs | naive µs |");
    println!("|---|---|---|---|---|---|---|");
    let q = tc_query();
    let chains = [25usize, 50, 100, 200].map(|n| ("chain", n, chain_factdb(n)));
    let random = [30usize, 60, 120].map(|n| ("G(n,2n)", n, random_factdb(n, 2 * n, 0, 5)));
    for (workload, n, edb) in chains.into_iter().chain(random) {
        let ((_, s), t_s) = median(PASSES, || evaluate_program(&q.program, &edb));
        let ((_, nv), t_n) = median(PASSES, || evaluate_program_naive(&q.program, &edb));
        assert_eq!(s.facts_derived, nv.facts_derived);
        println!(
            "| {workload} | {n} | {} | {} | {} | {t_s:.0} | {t_n:.0} |",
            s.facts_derived, s.rule_firings, nv.rule_firings
        );
    }
    println!();
    Ok(())
}

fn e9() -> Gate {
    println!("## E9 — monadic reachability vs full transitive closure\n");
    println!("| layers × width | monadic answers | monadic µs | E⁺ answers | E⁺ µs |");
    println!("|---|---|---|---|---|");
    let monadic = monadic_reachability_query();
    let tc = tc_query();
    for layers in [4usize, 8, 16, 32] {
        let width = 8;
        let g = generate::layered_dag(layers, width, 2, "e", 9);
        let mut edb = rq_datalog::FactDb::new();
        let e = g.alphabet().get("e").unwrap();
        for (s, d) in g.edges(e) {
            edb.add_fact("e", &[&format!("n{}", s.0), &format!("n{}", d.0)]);
        }
        // Sinks (no outgoing edge) are the targets.
        for n in g.nodes() {
            if g.step(n, Letter::forward(e)).next().is_none() {
                edb.add_fact("p", &[&format!("n{}", n.0)]);
            }
        }
        let (m, t_m) = median(PASSES, || evaluate(&monadic, &edb));
        let (t, t_t) = median(PASSES, || evaluate(&tc, &edb));
        println!(
            "| {layers}×{width} | {} | {t_m:.0} | {} | {t_t:.0} |",
            m.len(),
            t.len()
        );
    }
    println!();
    Ok(())
}

fn e10() -> Gate {
    println!("## E10 — RPQ/2RPQ evaluation scaling\n");
    println!("| graph | nodes | query | answers | µs |");
    println!("|---|---|---|---|---|");
    let row = |graph: &str, nodes: usize, query: &str, (answers, t): (usize, f64)| {
        println!("| {graph} | {nodes} | {query} | {answers} | {t:.0} |");
    };
    for nodes in [50usize, 100, 200, 400] {
        let db = e10_graph(nodes, 3);
        let q = TwoRpq::parse("a(b|a)*", &mut db.alphabet().clone()).unwrap();
        let cell = median(PASSES, || q.evaluate(&db).len());
        row("G(n,3n)", nodes, "a(b|a)* all-pairs", cell);
    }
    for nodes in [100usize, 400, 1600] {
        let db = e10_graph(nodes, 3);
        let q = TwoRpq::parse("a(b|a)*", &mut db.alphabet().clone()).unwrap();
        let cell = median(PASSES, || q.evaluate_from(&db, NodeId(0)).len());
        row("G(n,3n)", nodes, "a(b|a)* from node 0", cell);
    }
    for nodes in [100usize, 300, 1000] {
        let db = e10_social(nodes, 5);
        let q = TwoRpq::parse("knows+", &mut db.alphabet().clone()).unwrap();
        let cell = median(PASSES, || q.evaluate(&db).len());
        row("social", nodes, "forward all-pairs", cell);
    }
    for nodes in [100usize, 300, 1000, 3000] {
        let db = e10_social(nodes, 5);
        let mut al = db.alphabet().clone();
        let q = TwoRpq::parse("knows- (knows-|follows-)*", &mut al).unwrap();
        let src = db.nodes().max_by_key(|&n| db.degree(n)).expect("nonempty");
        let cell = median(PASSES, || q.evaluate_from(&db, src).len());
        row("social", nodes, "two-way single-source", cell);
    }
    println!();
    Ok(())
}

/// Every checker entry point runs under a [`Governor`]; the default path
/// uses an unlimited one. E11 prices *arming* real budgets on top of that:
/// each E1/E4 workload runs with the default governor (A) and with a
/// governor whose fuel cap, state cap and wall-clock deadline are all live
/// but never trip (B). Gate: aggregate overhead under 5%. Per-row deltas
/// on identical code paths sit inside measurement noise, so the gate is
/// on the sum over all rows.
fn e11() -> Gate {
    println!(
        "## E11 — resource-governor overhead: armed budgets vs the default unlimited governor\n"
    );
    println!("| workload | default µs | armed µs | overhead |");
    println!("|---|---|---|---|");
    let armed = || -> Governor {
        Limits::unlimited()
            .with_fuel(u64::MAX / 2)
            .with_states(u64::MAX / 2)
            .with_deadline(Duration::from_secs(3600))
            .governor()
    };
    let al = ab_alphabet();
    let mut rows = Vec::new();
    for (name, pairs) in [
        ("e1/contained(16)", vec![e1_contained_pair(16)]),
        ("e1/refuted(16)", vec![e1_refuted_pair(16)]),
        (
            "e1/random(8 leaves × 8)",
            (0..8).map(|s| e1_random_pair(8, s)).collect(),
        ),
    ] {
        let plain = || {
            for (q1, q2) in &pairs {
                black_box(rpq::check(q1, q2, &al).decided());
            }
        };
        let governed = || {
            for (q1, q2) in &pairs {
                black_box(rpq::check_governed(q1, q2, &al, &armed()).expect("ample budget"));
            }
        };
        rows.push((name, paired(E11_ROUNDS, plain, governed)));
    }
    for (name, cases) in [
        ("e4/paper(6)", vec![e4_paper_family(6)]),
        ("e4/refuted(4)", vec![e4_refuted_family(4)]),
        (
            "e4/random(6 leaves × 8)",
            (0..8).map(|s| e4_random_pair(6, s)).collect(),
        ),
    ] {
        let plain = || {
            for (q1, q2, al) in &cases {
                black_box(two_rpq::check(q1, q2, al).decided());
            }
        };
        let governed = || {
            for (q1, q2, al) in &cases {
                black_box(two_rpq::check_governed(q1, q2, al, &armed()).expect("ample budget"));
            }
        };
        rows.push((name, paired(E11_ROUNDS, plain, governed)));
    }
    let (mut plain_total, mut armed_total) = (0.0, 0.0);
    for (name, (plain, armed)) in rows {
        let overhead = (armed / plain - 1.0) * 100.0;
        println!("| {name} | {plain:.1} | {armed:.1} | {overhead:+.1}% |");
        plain_total += plain;
        armed_total += armed;
    }
    let aggregate = (armed_total / plain_total - 1.0) * 100.0;
    println!("| aggregate | {plain_total:.1} | {armed_total:.1} | **{aggregate:+.1}%** |\n");
    if aggregate < 5.0 {
        Ok(())
    } else {
        Err(format!(
            "E11 governor overhead {aggregate:.1}% is not under 5%"
        ))
    }
}

fn e12() -> Gate {
    println!("## E12 — serving throughput and semantic cache hit rate\n");

    // Parallel all-pairs evaluation vs the sequential evaluator on the
    // E10 G(n,3n) workload: same graph, same query, engine at 1/2/4
    // threads with the cache cleared before each timed run.
    println!("| graph | nodes | sequential µs | t=1 µs | t=2 µs | t=4 µs | speedup (t=4) |");
    println!("|---|---|---|---|---|---|---|");
    for nodes in [100usize, 200, 400] {
        let db = e10_graph(nodes, 3);
        let q = TwoRpq::parse("a(b|a)*", &mut db.alphabet().clone()).unwrap();
        let (_, seq) = median(PASSES, || q.evaluate(&db));
        let mut cols = Vec::new();
        let mut last = seq;
        for threads in [1usize, 2, 4] {
            let engine = engine(db.clone(), threads);
            let q = engine.parse("a(b|a)*").expect("parses");
            (_, last) = median(PASSES, || {
                engine.clear_cache();
                engine.run(&q).expect("unlimited")
            });
            cols.push(format!("{last:.0}"));
        }
        println!(
            "| G(n,3n) | {nodes} | {seq:.0} | {} | ×{:.1} |",
            cols.join(" | "),
            seq / last
        );
    }
    println!();

    // Batch serving with the semantic cache: a cold pass pays for the
    // misses, the warm repeat is answered from the cache; the dispositions
    // come from canonical keys + containment probes.
    println!("| batch | threads | pass | exact | equiv | subsumed | misses | hit-rate | µs |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (size, threads) in [(8usize, 2usize), (32, 1), (32, 2), (32, 4)] {
        let engine = engine(e10_graph(100, 3), threads);
        let queries = parse_all(&engine, &e12_batch(size));
        let cold = median(PASSES, || {
            engine.clear_cache();
            engine.run_batch(&queries)
        });
        // The cold pass's last run left every key cached.
        let warm = median(PASSES, || engine.run_batch(&queries));
        for (pass, (report, t)) in [("cold", cold), ("warm", warm)] {
            let s = &report.stats;
            println!(
                "| {size} | {threads} | {pass} | {} | {} | {} | {} | {:.0}% | {t:.0} |",
                s.exact,
                s.equivalent,
                s.subsumed,
                s.misses,
                s.hit_rate() * 100.0
            );
        }
    }
    println!();

    // Metrics overhead: the same cold batch with the rq-metrics global
    // kill switch off vs on. Recording touches atomics only at coarse
    // boundaries (per probe, per BFS, per query), so the delta should sit
    // inside run-to-run noise (<3%).
    let engine = engine(e10_graph(100, 3), 2);
    let queries = parse_all(&engine, &e12_batch(32));
    let cold = |metrics: bool| {
        rq_metrics::set_enabled(metrics);
        engine.clear_cache();
        engine.run_batch(&queries)
    };
    let (off, on) = paired(ROUNDS, || cold(false), || cold(true));
    rq_metrics::set_enabled(true);
    println!(
        "metrics overhead (cold batch of 32, 2 threads, {ROUNDS} paired rounds): disabled \
         {off:.0} µs, enabled {on:.0} µs ({:+.1}%)\n",
        (on / off - 1.0) * 100.0
    );

    // A short excerpt of the exposition the runs above populated, so the
    // report shows what `rqtool stats` / `serve-batch --metrics` emit.
    println!("```");
    for line in global().render().lines() {
        if line.starts_with("rq_cache_dispositions_total")
            || line.starts_with("rq_containment_ladder_total")
            || line.starts_with("rq_frontier_")
            || line.ends_with("_count")
        {
            println!("{line}");
        }
    }
    println!("```\n");
    Ok(())
}

fn e13() -> Gate {
    println!("## E13 — pre-flight analysis: per-query overhead and cache payoff\n");

    // Per-query cost of `rq_analyze::preflight` under the engine's own
    // probe budgets: the pass runs inside the engine's shared lock, so
    // this is serialized overhead every served query pays.
    let al = ab_alphabet();
    let config = EngineConfig::default();
    let limits = &config.cache.probe_limits;
    let pairs = e13_fold_pairs();
    println!("| query | action | µs/query |");
    println!("|---|---|---|");
    let mut cases: Vec<TwoRpq> = e12_batch(8)
        .iter()
        .map(|t| TwoRpq::parse(t, &mut ab_alphabet()).unwrap())
        .collect();
    cases.push(e13_empty_queries()[0].clone());
    cases.extend(pairs.iter().take(3).map(|(_, _, union)| union.clone()));
    let mut runs: Vec<_> = cases
        .iter()
        .map(|q| {
            let al = &al;
            move || rq_analyze::preflight(q, al, limits)
        })
        .collect();
    let times = interleaved(PREFLIGHT_ROUNDS, &mut runs);
    for ((q, run), t) in cases.iter().zip(&mut runs).zip(times) {
        println!(
            "| `{}` | {} | {t:.2} |",
            q.regex().display(&al),
            run().action.name()
        );
    }
    println!();

    // The payoff: serve the fold-variant workload (each Lemma-2 detour
    // followed by its answer-equivalent union, plus two ∅ queries) with
    // the pass on and off. On: unions collide on the detour's canonical
    // key, so the batch deduplicates them on their pre-flighted keys, and
    // ∅ queries never reach the pool. Off: the unions are only recognized
    // through per-candidate containment probes, and the ∅ queries are
    // evaluated as ordinary misses. Each row accounts for every query.
    println!(
        "| pre-flight | exact | equiv | subsumed | misses | empty | deduped | hit-rate | probes \
         | cold µs |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let db = e10_graph(100, 3);
    let mut batch: Vec<TwoRpq> = Vec::new();
    for (_, detour, union) in pairs {
        batch.push(detour);
        batch.push(union);
    }
    batch.extend(e13_empty_queries());
    let [on, off] = [true, false].map(|preflight| {
        Engine::new(
            db.clone(),
            EngineConfig {
                threads: 2,
                preflight,
                ..EngineConfig::default()
            },
        )
    });
    let cold = |engine: &Engine, batch: &[TwoRpq]| {
        engine.clear_cache();
        engine.run_batch(batch)
    };
    let (t_on, t_off) = paired(ROUNDS, || cold(&on, &batch), || cold(&off, &batch));
    for (name, engine, t) in [("on", &on, t_on), ("off", &off, t_off)] {
        let report = cold(engine, &batch);
        let s = &report.stats;
        let count = |d: Disposition| report.items.iter().filter(|i| i.disposition == d).count();
        let (empty, deduped) = (count(Disposition::Empty), count(Disposition::Deduped));
        println!(
            "| {name} | {} | {} | {} | {} | {empty} | {deduped} | {:.0}% | {} | {t:.0} |",
            s.exact,
            s.equivalent,
            s.subsumed,
            s.misses,
            s.hit_rate() * 100.0,
            s.probes,
        );
    }
    println!();

    // Hit-rate delta on the *original* E12 batch (no crafted unions): the
    // pool has no subsumed top-level branches, so the pass must not
    // change any disposition — its cost is the table above, its benefit
    // nil here. This bounds the overhead on workloads it cannot help.
    let queries = parse_all(&on, &e12_batch(32));
    let (t_on, t_off) = paired(ROUNDS, || cold(&on, &queries), || cold(&off, &queries));
    let [rate_on, rate_off] = [&on, &off].map(|e| cold(e, &queries).stats.hit_rate() * 100.0);
    println!(
        "E12 batch of 32 (nothing to normalize): hit-rate {rate_on:.0}% with pre-flight vs \
         {rate_off:.0}% without; cold batch {t_on:.0} µs vs {t_off:.0} µs ({:+.1}%, \
         {ROUNDS} paired rounds)\n",
        (t_on / t_off - 1.0) * 100.0
    );
    Ok(())
}

fn e14() -> Gate {
    println!("## E14 — front-end overload: shed instead of collapse\n");
    println!(
        "| load | clients | queue cap | answered | ok | shed | shed % | timed out | goodput ok/s \
         | admitted p50 µs | p95 µs | p99 µs |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let stream = e14_stream();
    // Offered load scales with the closed-loop client count: 2 clients
    // saturate the 2 execution slots (1×); 8 and 32 clients offer 4× and
    // 16×. The tenant quota is made non-binding (the fuel bucket refills
    // far faster than the slots can drain it) so the bounded waiting line
    // is the only shedding axis under test; the control row replaces it
    // with one deep enough to never shed, which is what an unprotected
    // server does — it queues.
    for (label, clients, queue_capacity) in [
        ("1× baseline", 2usize, 2usize),
        ("4×", 8, 2),
        ("16×", 32, 2),
        ("16×, unbounded queue (control)", 32, 1 << 20),
    ] {
        let server = Server::start(
            engine(e14_graph(), 2),
            ServeConfig {
                workers: 2,
                queue_capacity,
                max_connections: 64,
                // The SLO every request carries: generous against the
                // slowest cold query, tight against queueing delay —
                // time spent queued past it is pure wasted work.
                request_timeout: Duration::from_millis(300),
                request_fuel: 50_000_000,
                quota: TenantQuota {
                    fuel_per_sec: 1_000_000_000_000,
                    burst_fuel: 1_000_000_000_000,
                },
                ..ServeConfig::default()
            },
        )
        .expect("server boots");
        let report = run_bench(&BenchConfig {
            addr: server.addr().to_string(),
            clients,
            duration: Duration::from_secs(8),
            queries: stream.clone(),
            tenants: vec!["bench".into()],
            honor_retry_after: true,
        });
        println!(
            "| {label} | {clients} | {queue_capacity} | {} | {} | {} | {:.1}% | {} | {:.0} | {} | \
             {} | {} |",
            report.answered(),
            report.ok,
            report.shed,
            report.shed_rate() * 100.0,
            report.exhausted,
            report.ok as f64 / report.elapsed.as_secs_f64(),
            report.percentile_us(50.0),
            report.percentile_us(95.0),
            report.percentile_us(99.0),
        );
        server.shutdown();
    }
    println!();
    Ok(())
}

/// The E12 batch-serving workload (G(100)×3, the 32-query batch, 2
/// threads, cache cleared per batch) with a per-query `TraceContext`
/// installed, against the same workload untraced. "Capture only" drops
/// each trace unsealed, isolating the per-span cost from the per-request
/// snapshot and recorder write that "traced+recorded" adds.
fn e15() -> Gate {
    println!("## E15 — request-tracing overhead ({ROUNDS} paired rounds)\n");
    println!("| variant | untraced ms/batch | traced ms/batch | overhead |");
    println!("|---|---|---|---|");
    let engine = engine(e10_graph(100, 3), 2);
    let queries = parse_all(&engine, &e12_batch(32));
    let recorder = Recorder::new(RecorderConfig::default());
    let untraced = || {
        engine.clear_cache();
        for q in &queries {
            black_box(engine.run(q).unwrap().answer.len());
        }
    };
    let traced = |record: bool| {
        engine.clear_cache();
        for q in &queries {
            let ctx = TraceContext::start();
            {
                let _guard = span::install(&ctx, 0);
                black_box(engine.run(q).unwrap().answer.len());
            }
            if record {
                black_box(recorder.record(ctx.finish("ok", "")));
            }
        }
    };
    for (variant, record) in [("capture only", false), ("traced+recorded", true)] {
        let (base, with) = paired(ROUNDS, untraced, || traced(record));
        println!(
            "| {variant} | {:.2} | {:.2} | {:+.1}% |",
            base / 1e3,
            with / 1e3,
            (with / base - 1.0) * 100.0
        );
    }
    println!(
        "\nrecorder: {} traces recorded, {} retained slow\n",
        recorder.recorded_total(),
        recorder.retained_slow_total()
    );
    Ok(())
}

/// Two claims: opening a binary snapshot beats re-parsing the text format
/// for the same graph (cold start), and a live ingest stream whose label
/// no cached query mentions keeps admitted-request p99 near the no-ingest
/// baseline, because alphabet-intersection invalidation evicts nothing.
/// A stream on the hottest query label prices the other extreme: every
/// tick evicts the a-queries, so their next request pays a queued cold
/// re-evaluation.
fn e16() -> Gate {
    const NODES: usize = 50_000;
    const OPEN_ROUNDS: usize = 9;
    const RUN: Duration = Duration::from_millis(4_000);
    let db = generate::preferential_attachment(NODES, 4, &["a", "b", "c"], 16);
    println!(
        "## E16 — persistent storage: cold start ({} nodes, {} edges, {OPEN_ROUNDS} paired \
         rounds)\n",
        db.num_nodes(),
        db.num_edges()
    );
    let dir = std::env::temp_dir().join(format!("rq-e16-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text_path = dir.join("graph.txt");
    std::fs::write(&text_path, text::to_text(&db)).unwrap();
    let config = StorageConfig::default();
    StorageHandle::create(&dir, &db, config.clone()).unwrap();
    let bytes = |p: &str| std::fs::metadata(dir.join(p)).unwrap().len();
    let (t_text, t_snap) = paired(
        OPEN_ROUNDS,
        || text::parse(&std::fs::read_to_string(&text_path).unwrap()).unwrap(),
        || StorageHandle::open(&dir, config.clone()).unwrap(),
    );
    println!("| load path | median ms | bytes on disk | vs text |");
    println!("|---|---|---|---|");
    println!(
        "| `text::parse` | {:.1} | {} | 1× |",
        t_text / 1e3,
        bytes("graph.txt")
    );
    println!(
        "| snapshot ({} shards) | {:.1} | {} | {:.2}× faster |\n",
        config.shards,
        t_snap / 1e3,
        bytes("snapshot.rqs"),
        t_text / t_snap
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // Three closed-loop runs on the E14 driver: a no-ingest baseline,
    // sustained ingest on a label outside the bench-query alphabet, and
    // sustained ingest on the hottest query label.
    println!(
        "E16 ingest while serving ({} ms per run):\n",
        RUN.as_millis()
    );
    let serve_db = generate::random_gnm(120, 360, &["a", "b"], 16);
    let mut baseline = 1;
    for (tag, ingest_label, ingest_every_ms) in [
        ("no ingest       ", "", 0u64),
        ("ingest off-alpha", "c", 25),
        ("ingest hot label", "a", 25),
    ] {
        // A generous tenant quota: E16 measures ingest interference on
        // admitted-request latency, not admission control (that's E14).
        let server = Server::start(
            engine(serve_db.clone(), 2),
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                quota: TenantQuota {
                    fuel_per_sec: 50_000_000,
                    burst_fuel: 100_000_000,
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let ingester = (ingest_every_ms > 0).then(|| {
            let addr = server.addr().to_string();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
                let mut sent = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    // Toggle one edge between two dedicated nodes: every
                    // tick is an *effective* delta (epoch bump, eviction
                    // of any cached query whose alphabet contains the
                    // label) while the graph stays the same size, so the
                    // with-ingest runs serve the same workload as the
                    // baseline.
                    let verb = if sent.is_multiple_of(2) {
                        "add"
                    } else {
                        "remove"
                    };
                    let body = format!("{verb} ingest_u {ingest_label} ingest_v\n");
                    if client
                        .request("POST", "/ingest", &[], body.as_bytes())
                        .is_ok()
                    {
                        sent += 1;
                    }
                    std::thread::sleep(Duration::from_millis(ingest_every_ms));
                }
                sent
            })
        });
        let report = run_bench(&BenchConfig {
            addr: server.addr().to_string(),
            clients: 4,
            duration: RUN,
            ..BenchConfig::default()
        });
        stop.store(true, Ordering::SeqCst);
        let sent = ingester.map(|h| h.join().unwrap()).unwrap_or(0);
        server.shutdown();
        let p99 = report.percentile_us(99.0);
        if ingest_every_ms == 0 {
            baseline = p99.max(1);
            println!("  {tag}: {}", report.summary());
        } else {
            println!(
                "  {tag}: {}  ({sent} '{ingest_label}' batches @{ingest_every_ms}ms, \
                 p99 {:.2}x baseline)",
                report.summary(),
                p99 as f64 / baseline as f64
            );
        }
    }
    println!();
    Ok(())
}

/// Ladder stage counters E17 reads, in column order.
const STAGES: [&str; 7] = [
    "empty_left",
    "syntactic_eq",
    "canonical_key",
    "simple",
    "sample",
    "full_check",
    "exhausted",
];

/// What one E17 batch added to the global (cumulative) metrics registry.
struct Delta {
    stages: [u64; 7],
    probes: u64,
    fuel: u64,
}

fn delta(before: &Snapshot, after: &Snapshot) -> Delta {
    let counter = |name: &str, labels: &[(&str, &str)]| {
        let read = |s: &Snapshot| match s.get(name, labels) {
            Some(Value::Counter(c)) => *c,
            _ => 0,
        };
        read(after) - read(before)
    };
    let fuel = |s: &Snapshot| match s.get("rq_cache_probe_fuel_spent", &[]) {
        Some(Value::Histogram(h)) => h.sum,
        _ => 0,
    };
    Delta {
        stages: STAGES.map(|s| counter("rq_containment_ladder_total", &[("stage", s)])),
        probes: ["contained", "not_contained", "exhausted"]
            .iter()
            .map(|r| counter("rq_cache_probes_total", &[("result", r)]))
            .sum(),
        fuel: fuel(after) - fuel(before),
    }
}

/// The Lemma 1 ladder rung (stage `simple`) on the serving path. Two
/// workloads, each counted from a cold cache with a metrics snapshot on
/// either side: the simple-heavy batch (`e17_simple_batch`), whose every
/// probe is a pair of one-way queries the rung decides — gate: every pool
/// entry is one-way and the exact 2NFA stage sees zero calls — and the
/// E13 fold workload, whose probes into a query with an inverse letter
/// meet the sample rung and then, unrefuted, the exact stage, and whose
/// probe count must match E13's. "cache probes" counts cache-lookup
/// probes; the stage columns count *every* ladder call, pre-flight
/// subsumed-branch checks included, so they can exceed the probe count.
fn e17() -> Gate {
    let engine = engine(e10_graph(100, 3), 2);
    let pool = e17_simple_batch(24);
    let simple = parse_all(&engine, &pool);
    if let Some((text, _)) = pool.iter().zip(&simple).find(|(_, q)| !q.is_forward_only()) {
        return Err(format!(
            "E17's pool must be one-way for its gate to hold, but `{text}` reads an inverse letter"
        ));
    }
    let mut fold: Vec<TwoRpq> = Vec::new();
    for (_, detour, union) in e13_fold_pairs() {
        fold.push(detour);
        fold.push(union);
    }
    fold.extend(e13_empty_queries());
    // Warm parse/alloc paths once before counting.
    engine.run_batch(&simple);
    engine.run_batch(&fold);

    println!("## E17 — the Lemma 1 ladder rung: probe and fuel deltas per workload\n");
    println!(
        "| workload | cache probes | ladder: simple | sample | full_check | syntactic | exhausted \
         | probe fuel | hit-rate | ms |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let serve = |name: &str, batch: &[TwoRpq]| -> Delta {
        engine.clear_cache();
        let before = global().snapshot();
        let stats = engine.run_batch(batch).stats;
        let d = delta(&before, &global().snapshot());
        let (_, t) = median(PASSES, || {
            engine.clear_cache();
            engine.run_batch(batch)
        });
        println!(
            "| {name} | {} | {} | {} | {} | {} | {} | {} | {:.0}% | {:.1} |",
            d.probes,
            d.stages[3],
            d.stages[4],
            d.stages[5],
            d.stages[0] + d.stages[1] + d.stages[2],
            d.stages[6],
            d.fuel,
            stats.hit_rate() * 100.0,
            t / 1e3,
        );
        d
    };
    let simple = serve("simple-heavy (24q)", &simple);
    let fold = serve("fold/E13 (18q)", &fold);
    println!(
        "\nsimple-heavy: {} of {} ladder calls ({} cache probes) decided at the Lemma 1 rung; \
         {} reached the exact stage; {} probe fuel charged",
        simple.stages[3],
        simple.stages.iter().sum::<u64>(),
        simple.probes,
        simple.stages[5],
        simple.fuel
    );
    println!(
        "fold baseline: {} cache probes; {} ladder calls with a one-way right-hand side decided \
         at the Lemma 1 rung; of those with an inverse letter on the right, {} refuted by a \
         sampled word and {} decided at the exact stage ({} fuel)\n",
        fold.probes, fold.stages[3], fold.stages[4], fold.stages[5], fold.fuel
    );
    match simple.stages[5] {
        0 => Ok(()),
        n => Err(format!(
            "E17 simple-heavy batch made {n} full_check ladder calls; pairs with a one-way \
             right-hand side must never reach the exact stage"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_args(args: &[&str]) -> Result<Vec<usize>, String> {
        select(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn only_selects_exactly_the_listed_experiments() {
        assert_eq!(select_args(&[]), Ok((0..17).collect()));
        assert_eq!(select_args(&["--only=E1,E17"]), Ok(vec![0, 16]));
        assert_eq!(select_args(&["--only=E17,E2,E17"]), Ok(vec![1, 16]));
        for bad in [
            "--only=E18",
            "--only=E0",
            "--only=X",
            "--only=",
            "--only=E1,",
            "--only=e1",
            "E1",
        ] {
            assert!(select_args(&[bad]).is_err(), "{bad} must be rejected");
        }
        assert!(select_args(&["--only=E1", "--only=E2"]).is_err());
    }
}
