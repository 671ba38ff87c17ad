//! One benchmark run: plan, reference, repeated set-up, the untraced
//! timed pass, and (traced runs) a traced pass plus an in-process layer
//! replay.

use crate::layers::{
    CounterDeltas, LayerAcc, DISPOSITIONS, LADDER_STAGES, RUN_DISPOSITIONS, STATUSES,
};
use crate::oracle::Expected;
use crate::passes::{self, PassStats};
use crate::plan::{Op, Plan, Shape, Workload};
use crate::spans;
use crate::stats::{self, median, percentile, percentile_or_zero, ratio};
use crate::system::{self, Instance, Knobs, Reference, SetupInfo};
use rq_analyze::preflight;
use rq_core::TwoRpq;
use rq_engine::{CacheConfig, CacheStats, Disposition, Engine, SemanticCache};
use rq_graph::{Delta, GraphDb};
use rq_metrics::recorder::{Recorder, RecorderConfig};
use rq_metrics::span::TraceContext;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The cheap set-ups (about
/// 1 ms each) repeat often enough to spend about 0.1 s, so their median
/// is steady; the others take 15 ms or more each.
pub fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::HotHits | Workload::IngestMixed => 11,
        Workload::ColdEval | Workload::BatchContainment => 101,
    }
}

/// Repetitions of each bench-side layer-function timing.
const LAYER_REPS: usize = 9;

/// Operations of the in-process layer replay, per workload: enough for
/// stable medians (the whole stream on `ingest-mixed`, whose ingests need
/// 1000 samples for a p99), few enough to keep a traced run short.
fn replay_ops(w: Workload) -> usize {
    match w {
        Workload::HotHits => 2_000,
        Workload::ColdEval => 24,
        Workload::IngestMixed => usize::MAX,
        Workload::BatchContainment => 0,
    }
}

/// Paired rounds of the tracing-overhead measurement, per workload: each
/// round runs one block of engine calls unsampled and one sampled.
fn overhead_rounds(w: Workload) -> usize {
    match w {
        Workload::HotHits => 500,
        Workload::ColdEval => 8,
        Workload::BatchContainment => 10,
        Workload::IngestMixed => 50,
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub knobs: Knobs,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (every end-to-end figure by name and
    /// unit, with sample counts).
    pub lines: Vec<String>,
    /// Counters the self-tests check the workloads' character against.
    pub character: Character,
}

/// Facts about a run's untraced pass that define each workload.
#[derive(Debug, Default, Clone)]
pub struct Character {
    pub dispositions: HashMap<String, u64>,
    pub ladder: [u64; 6],
    pub invalidated: u64,
    pub appends: u64,
    pub ingests_acked: u64,
    pub reads: u64,
}

/// Everything the untraced pass produced.
struct Untraced {
    stats: PassStats,
    counters: CounterDeltas,
    cache: CacheStats,
}

fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        exact: after.exact - before.exact,
        equivalent: after.equivalent - before.equivalent,
        subsumed: after.subsumed - before.subsumed,
        misses: after.misses - before.misses,
        probes: after.probes - before.probes,
        probe_exhausted: after.probe_exhausted - before.probe_exhausted,
        evictions: after.evictions - before.evictions,
        invalidated: after.invalidated - before.invalidated,
    }
}

fn client_timeout(knobs: &Knobs) -> Duration {
    knobs.request_deadline + Duration::from_secs(30)
}

/// Run the untraced pass (or, with `traced`, the traced one).
fn timed_pass(
    instance: &Instance,
    plan: &Plan,
    reference: &Reference,
    knobs: &Knobs,
    traced: bool,
    on_batch_trace: impl FnMut(passes::BatchTrace),
) -> Untraced {
    let engine = instance.engine();
    let snap = rq_metrics::global().snapshot();
    let cache_before = engine.cache_stats();
    let stats = match (instance, reference) {
        (Instance::Http { server, .. }, Reference::Http(accepted)) => passes::http_pass(
            &server.addr().to_string(),
            plan,
            accepted,
            engine,
            traced,
            client_timeout(knobs),
        ),
        // The traced batch pass runs half the operations: each traced one
        // yields thousands of spans, and the whole run must stay well
        // inside its time limit on a slow machine.
        (Instance::Batch { engine, batch }, Reference::Batch(answers)) => {
            let ops = if traced {
                plan.ops().div_ceil(2)
            } else {
                plan.ops()
            };
            passes::batch_pass(engine, batch, answers, ops, traced, on_batch_trace)
        }
        _ => unreachable!("instance and reference come from the same plan"),
    };
    Untraced {
        counters: CounterDeltas::between(&snap, &rq_metrics::global().snapshot()),
        cache: cache_delta(cache_before, engine.cache_stats()),
        stats,
    }
}

/// Sequential BFS time of `q` over every source, as the engine would
/// evaluate it after pre-flight, in µs.
fn sequential_bfs_us(q: &TwoRpq, db: &GraphDb, knobs: &Knobs) -> f64 {
    let probe_limits = CacheConfig::default().probe_limits;
    let q = preflight(q, db.alphabet(), &probe_limits).query;
    let gov = knobs.limits().governor();
    let t = Instant::now();
    for x in db.nodes() {
        std::hint::black_box(
            q.evaluate_from_governed(db, x, &gov)
                .expect("within budget"),
        );
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// Engine time of the misses among `spans`' `engine.run` spans.
fn miss_run_us(spans: &spans::Spans) -> f64 {
    spans
        .named("engine.run")
        .filter(|r| spans::field(r, "disposition") == Some("miss"))
        .map(|r| r.duration_us as f64)
        .sum()
}

/// Median time of `f` over [`LAYER_REPS`] calls, µs.
fn time_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Bench-side timings of the keying layers, µs: `Engine::parse` over
/// `texts`, then `rq_analyze::preflight` and `SemanticCache::key_of` (of
/// the pre-flighted query) over `queries`. Each is a p50 across queries
/// of each query's median.
#[derive(Debug, Clone, Copy, Default)]
struct Keying {
    parse_us: f64,
    preflight_us: f64,
    key_us: f64,
}

fn keying_us(engine: &Engine, texts: &[String], queries: &[TwoRpq]) -> Keying {
    let parse: Vec<f64> = texts
        .iter()
        .map(|t| time_us(|| drop(std::hint::black_box(engine.parse(t)))))
        .collect();
    let alphabet = engine.alphabet();
    let cache = SemanticCache::new(CacheConfig::default());
    let probe_limits = CacheConfig::default().probe_limits;
    let (mut pre, mut key) = (Vec::new(), Vec::new());
    for q in queries {
        pre.push(time_us(|| {
            drop(std::hint::black_box(preflight(q, &alphabet, &probe_limits)))
        }));
        let q = preflight(q, &alphabet, &probe_limits).query;
        key.push(time_us(|| {
            drop(std::hint::black_box(cache.key_of(&q, &alphabet)))
        }));
    }
    Keying {
        parse_us: median(&parse),
        preflight_us: median(&pre),
        key_us: median(&key),
    }
}

/// The in-process layer replay of an HTTP workload: a fresh engine (and
/// store) over the same graph, warmed like the served one, runs a prefix
/// of the interleaved operation stream through the public calls rq-serve
/// makes, one span collection per operation. Returns answer mismatches
/// and the engine, for the keying timings.
fn replay(
    plan: &Plan,
    knobs: &Knobs,
    accepted: &[Vec<Expected>],
    work_dir: &Path,
    acc: &mut LayerAcc,
) -> (u64, Engine) {
    let db = system::parse_graph(plan);
    let bfs_db = db.clone();
    let mut store = None;
    let db = if plan.workload == Workload::IngestMixed {
        let (s, db, _) = system::open_store(&work_dir.join("replay-store"), &db);
        store = Some(s);
        db
    } else {
        db
    };
    let engine = Engine::new(db, knobs.engine_config());
    if plan.workload != Workload::ColdEval {
        system::warm(&engine, &plan.queries);
    }
    let limits = knobs.limits();
    let mut seq_us: HashMap<usize, f64> = HashMap::new();
    let mut mismatches = 0;
    for (c, op) in plan
        .interleaved()
        .into_iter()
        .take(replay_ops(plan.workload))
    {
        let (result, spans) = spans::collect(|| match op {
            Op::Read(i) => {
                let q = engine
                    .parse(&plan.queries[i])
                    .expect("benchmark queries parse");
                Some((
                    i,
                    engine.run_with(&q, &limits, None).expect("within budget"),
                ))
            }
            Op::Ingest { add } => {
                let deltas = Delta::parse_text(&plan.ingest_body(c, add)).expect("delta text");
                let store = store.as_mut().expect("ingest-mixed has a store");
                store.append(&deltas).expect("append to the replay store");
                engine.apply_deltas(&deltas);
                if store.needs_compaction() {
                    store
                        .compact(&engine.db())
                        .expect("compact the replay store");
                }
                None
            }
        });
        acc.absorb(&spans);
        if let Some((i, r)) = result {
            if !accepted[i].contains(&Expected::of(&r.answer)) {
                mismatches += 1;
            }
            if r.disposition == Disposition::Miss {
                acc.seq_bfs_us += *seq_us.entry(i).or_insert_with(|| {
                    let mut alphabet = bfs_db.alphabet().clone();
                    let q = TwoRpq::parse(&plan.queries[i], &mut alphabet).expect("parses");
                    sequential_bfs_us(&q, &bfs_db, knobs)
                });
                acc.miss_run_us += miss_run_us(&spans);
            }
        }
    }
    if store.is_some() {
        let _ = std::fs::remove_dir_all(work_dir.join("replay-store"));
    }
    (mismatches, engine)
}

/// Run `f` as an rq-serve worker runs a request: under a fresh trace
/// context that is then finished and offered to a flight recorder. Only a
/// sampled request has the context installed, so only it captures spans.
fn as_request<R>(recorder: &Recorder, sampled: bool, f: impl FnOnce() -> R) -> R {
    let ctx = TraceContext::start();
    let out = {
        let _guard = sampled.then(|| rq_metrics::span::install(&ctx, 0));
        f()
    };
    std::hint::black_box(recorder.record(ctx.finish("ok", "")));
    out
}

/// The program's span-capture cost, paired and interleaved as E15
/// measures it: one block of the workload's engine calls on the served
/// engine, run alternately with every call unsampled (as under a recorder
/// that samples nothing) and with every call sampled (the default,
/// `sample_every` 1), each side first in every other round. No bench
/// probe runs inside a timed block. Returns
/// 1 − (median unsampled block time ÷ median sampled block time).
fn trace_overhead_share(instance: &Instance, plan: &Plan, knobs: &Knobs) -> f64 {
    let engine = instance.engine();
    let recorder = Recorder::new(RecorderConfig::default());
    let limits = knobs.limits();
    let read = |text: &String, sampled: bool| {
        as_request(&recorder, sampled, || {
            let q = engine.parse(text).expect("benchmark queries parse");
            std::hint::black_box(engine.run_with(&q, &limits, None).expect("within budget"));
        })
    };
    let block = |sampled: bool| match (instance, plan.workload) {
        (Instance::Batch { batch, .. }, _) => {
            engine.clear_cache();
            as_request(&recorder, sampled, || {
                drop(std::hint::black_box(engine.run_batch(batch)))
            });
        }
        // Exact hits on the warmed cache.
        (_, Workload::HotHits) => plan.queries.iter().for_each(|t| read(t, sampled)),
        // Misses: the first two chains, evaluated afresh each time.
        (_, Workload::ColdEval) => {
            engine.clear_cache();
            plan.queries[..2].iter().for_each(|t| read(t, sampled));
        }
        // The reads around an ingest: each re-evaluated, then each a hit.
        _ => {
            engine.clear_cache();
            for _ in 0..2 {
                plan.queries.iter().for_each(|t| read(t, sampled));
            }
        }
    };
    block(false);
    block(true);
    let (mut unsampled, mut sampled) = (Vec::new(), Vec::new());
    for round in 0..overhead_rounds(plan.workload) {
        // Alternate which side runs first, so neither gains from order.
        let first = round % 2 == 1;
        for on in [first, !first] {
            let t = Instant::now();
            block(on);
            let out = if on { &mut sampled } else { &mut unsampled };
            out.push(t.elapsed().as_secs_f64());
        }
    }
    1.0 - ratio(median(&unsampled), median(&sampled))
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Report line for a percentile with its sample count.
fn pct_line(name: &str, samples: &[f64], q: f64, unit: &str) -> String {
    let mut v = samples.to_vec();
    stats::sort(&mut v);
    match percentile(&v, q) {
        Some(x) => format!("{name} = {x} {unit} (n={})", v.len()),
        None => format!(
            "{name} = n/a (n={}: fewer than {} samples beyond p{q})",
            v.len(),
            stats::MIN_BEYOND
        ),
    }
}

/// Run one workload with `settings`, at `shape`, using `work_dir` for
/// stores.
pub fn run(settings: &Settings, shape: Shape, work_dir: &Path) -> Outcome {
    let knobs = &settings.knobs;
    let plan = Plan::new(settings.workload, settings.seed, shape);
    let reference = system::reference(&plan, knobs.engine_threads);

    // The set-up that serves the timed passes runs first, on a fresh
    // process, and the peak memory is read right after the untraced pass.
    // The repeated set-ups for `setup_s` run last, so the allocator state
    // they leave behind cannot move `peak_rss_mb`.
    let (instance, info, first_setup_s) = system::setup(&plan, knobs, work_dir, 0);
    let untraced = timed_pass(&instance, &plan, &reference, knobs, false, |_| {});
    let rss = peak_rss_mb();
    let mut acc = LayerAcc::default();
    let mut traced = None;
    let mut overhead_share = 0.0;
    if settings.trace {
        let db = system::parse_graph(&plan);
        let mut seq_us: HashMap<usize, f64> = HashMap::new();
        let batch = match &instance {
            Instance::Batch { batch, .. } => batch.clone(),
            Instance::Http { .. } => Vec::new(),
        };
        traced = Some(timed_pass(&instance, &plan, &reference, knobs, true, |t| {
            acc.absorb(&t.spans);
            for i in t.misses {
                acc.seq_bfs_us += *seq_us
                    .entry(i)
                    .or_insert_with(|| sequential_bfs_us(&batch[i], &db, knobs));
            }
            acc.miss_run_us += miss_run_us(&t.spans);
        }));
        overhead_share = trace_overhead_share(&instance, &plan, knobs);
    }
    instance.shutdown();
    let mut setup_s = vec![first_setup_s];
    let mut open_us = vec![info.open_us];
    for rep in 1..setup_reps(plan.workload) {
        let (again, again_info, secs) = system::setup(&plan, knobs, work_dir, rep);
        again.shutdown();
        setup_s.push(secs);
        open_us.push(again_info.open_us);
    }

    let mut replay_mismatches = 0;
    let mut keying = Keying::default();
    if settings.trace {
        match &reference {
            Reference::Http(accepted) => {
                let (m, engine) = replay(&plan, knobs, accepted, work_dir, &mut acc);
                replay_mismatches = m;
                let texts = distinct_texts(&plan);
                let mut alphabet = engine.alphabet();
                let queries: Vec<TwoRpq> = texts
                    .iter()
                    .map(|t| TwoRpq::parse(t, &mut alphabet).expect("parses"))
                    .collect();
                keying = keying_us(&engine, &texts, &queries);
            }
            Reference::Batch(_) => {
                let db = system::parse_graph(&plan);
                let batch = crate::inputs::containment_batch(&mut db.alphabet().clone());
                let engine = Engine::new(db, knobs.engine_config());
                keying = keying_us(&engine, &crate::inputs::batch_texts(), &batch);
            }
        }
    }

    let st = &untraced.stats;
    let mut attempted = st.attempted;
    let mut failed = st.failed;
    let mut mismatches = st.mismatches + replay_mismatches;
    if let Some(t) = &traced {
        attempted += t.stats.attempted;
        failed += t.stats.failed;
        mismatches += t.stats.mismatches;
    }
    failed += replay_mismatches;

    let setup_median = median(&setup_s);
    let mut lines = vec![format!(
        "workload={} seed={} ops={} clients={} engine_threads={} serve_workers={} \
         queue_capacity={} tenant_fuel={} request_fuel={} request_deadline_ms={}",
        plan.workload.name(),
        plan.seed,
        plan.ops(),
        plan.streams.len(),
        knobs.engine_threads,
        knobs.serve_workers,
        knobs.queue_capacity,
        knobs.tenant_fuel,
        knobs.request_fuel,
        knobs.request_deadline.as_millis(),
    )];
    let clients = plan.streams.len() as f64;
    let ops_per_s = clients * median(&st.block_ops_per_s);
    let latency_p50 = median(&st.block_p50_ms);
    let latency_p90 = median(&st.block_p90_ms);
    lines.push(format!(
        "ops_per_s = {ops_per_s} 1/s ({clients} clients x median of {} block rates; \
         {} ok in {} s overall)",
        st.block_ops_per_s.len(),
        st.attempted - st.failed,
        st.wall_s
    ));
    lines.push(format!(
        "latency_p50_ms = {latency_p50} ms (median of {} block p50s; {} reads)",
        st.block_p50_ms.len(),
        st.read_ms.len()
    ));
    lines.push(format!(
        "latency_p90_ms = {latency_p90} ms (median of {} block p90s; {} reads)",
        st.block_p90_ms.len(),
        st.read_ms.len()
    ));
    lines.push(pct_line("latency_p99_ms", &st.read_ms, 99.0, "ms"));
    if plan.workload == Workload::IngestMixed {
        lines.push(pct_line("ingest_p50_ms", &st.ingest_ms, 50.0, "ms"));
        lines.push(pct_line("ingest_p90_ms", &st.ingest_ms, 90.0, "ms"));
        lines.push(
            "flush policy: each /ingest batch is fsync'd by StorageHandle::append before it is \
             applied (the store's only policy)"
                .to_string(),
        );
    }
    lines.push(format!(
        "failed_share = {} share ({} of {} attempted)",
        ratio(failed as f64, attempted as f64),
        failed,
        attempted
    ));
    lines.push(format!("answer_mismatches = {mismatches} count"));
    lines.push(format!(
        "setup_s = {setup_median} s (median of {} set-ups)",
        setup_s.len()
    ));
    lines.push(format!("peak_rss_mb = {rss} MB"));

    let metrics = if settings.trace {
        let t = traced.as_ref().expect("traced pass ran");
        per_layer(&PerLayerInputs {
            untraced: &untraced,
            traced: t,
            acc: &acc,
            keying,
            open_us: median(&open_us),
            info,
            threads: knobs.engine_threads,
            overhead_share,
            mismatches,
            failed_share: ratio(failed as f64, attempted as f64),
        })
    } else {
        vec![
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("latency_p50_ms", latency_p50, "ms"),
            metric("latency_p90_ms", latency_p90, "ms"),
            metric("setup_s", setup_median, "s"),
            metric("peak_rss_mb", rss, "MB"),
        ]
    };

    Outcome {
        correct: failed == 0 && mismatches == 0,
        attempted,
        failed,
        metrics,
        lines,
        character: Character {
            dispositions: st.dispositions.clone().into_iter().collect(),
            ladder: untraced.counters.ladder,
            invalidated: untraced.cache.invalidated,
            appends: untraced.counters.appends,
            ingests_acked: st.ingest_ms.len() as u64,
            reads: st.read_ms.len() as u64,
        },
    }
}

/// Distinct query texts of an HTTP plan, in first-use order of the
/// interleaved stream (bounded like the replay for `cold-eval`).
fn distinct_texts(plan: &Plan) -> Vec<String> {
    let mut seen = Vec::new();
    for (_, op) in plan
        .interleaved()
        .into_iter()
        .take(replay_ops(plan.workload).max(1))
    {
        if let Op::Read(i) = op {
            if !seen.contains(&i) {
                seen.push(i);
            }
        }
    }
    seen.into_iter().map(|i| plan.queries[i].clone()).collect()
}

/// Inputs of the per-layer figures.
pub struct PerLayerInputs<'a> {
    untraced: &'a Untraced,
    traced: &'a Untraced,
    acc: &'a LayerAcc,
    keying: Keying,
    open_us: f64,
    info: SetupInfo,
    threads: usize,
    overhead_share: f64,
    mismatches: u64,
    failed_share: f64,
}

/// The per-layer metrics, in a fixed order; a layer a workload does not
/// exercise reads 0.
fn per_layer(x: &PerLayerInputs) -> Vec<Metric> {
    let (u, t, acc) = (&x.untraced, &x.traced, x.acc);
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        stats::sort(&mut v);
        v
    };
    let exec = sorted(&t.stats.exec_us);
    let outside = sorted(&t.stats.outside_us);
    let apply = sorted(&acc.apply_deltas_us);
    let append = sorted(&acc.append_us);
    let lock = sorted(&t.stats.lock_wait_us);
    let reads = sorted(&u.stats.read_ms);
    let ingests = sorted(&u.stats.ingest_ms);
    let c = &u.cache;
    let lookups = (c.hits() + c.misses) as f64;
    let mut m = vec![
        metric("serve.execute_us.p50", median(&exec), "us"),
        metric(
            "serve.execute_us.p99",
            percentile_or_zero(&exec, 99.0),
            "us",
        ),
        metric("serve.outside_execute_us.p50", median(&outside), "us"),
        metric(
            "serve.outside_execute_us.p99",
            percentile_or_zero(&outside, 99.0),
            "us",
        ),
    ];
    for s in STATUSES {
        let n = u.stats.statuses.get(&s).copied().unwrap_or(0)
            + t.stats.statuses.get(&s).copied().unwrap_or(0);
        m.push(metric(format!("serve.non200.{s}"), n as f64, "count"));
    }
    m.push(metric(
        "serve.transport_errors",
        (u.stats.transport_errors + t.stats.transport_errors) as f64,
        "count",
    ));
    m.push(metric(
        "serve.retries",
        (u.counters.retries + t.counters.retries) as f64,
        "count",
    ));
    m.push(metric(
        "serve.queue_wait_us.p50",
        median(&t.stats.queue_wait_us),
        "us",
    ));
    m.push(metric("automata.parse_us.p50", x.keying.parse_us, "us"));
    m.push(metric(
        "analyze.preflight_us.p50",
        x.keying.preflight_us,
        "us",
    ));
    m.push(metric(
        "analyze.preflight_rewrites",
        acc.preflight_rewrites as f64,
        "count",
    ));
    m.push(metric("core.key_us.p50", x.keying.key_us, "us"));
    for d in RUN_DISPOSITIONS {
        m.push(metric(
            format!("engine.run_us.{d}.p50"),
            acc.run_us_p50(d),
            "us",
        ));
    }
    for d in DISPOSITIONS {
        let n = u.stats.dispositions.get(d).copied().unwrap_or(0);
        m.push(metric(format!("engine.disposition.{d}"), n as f64, "count"));
    }
    m.extend([
        metric(
            "engine.cache_hit_share",
            ratio(c.hits() as f64, lookups),
            "share",
        ),
        metric("engine.cache_lookups", lookups, "count"),
        metric("engine.lookup_us.p50", median(&acc.lookup_us), "us"),
        metric("engine.probes", c.probes as f64, "count"),
        metric(
            "engine.probe_useful_share",
            ratio((c.equivalent + c.subsumed) as f64, c.probes as f64),
            "share",
        ),
        metric("engine.evictions", c.evictions as f64, "count"),
        metric("engine.invalidated", c.invalidated as f64, "count"),
        metric("engine.batch_plan_us", median(&acc.batch_plan_us), "us"),
        metric("engine.eval_us.p50", median(&acc.eval_us), "us"),
        metric("engine.stripe_skew", median(&acc.stripe_skew), "ratio"),
        metric("engine.merge_us.p50", median(&acc.merge_us), "us"),
        metric(
            "engine.parallel_efficiency",
            ratio(acc.seq_bfs_us, x.threads as f64 * acc.miss_run_us),
            "ratio",
        ),
        metric("engine.apply_deltas_us.p50", median(&apply), "us"),
        metric(
            "engine.apply_deltas_us.p99",
            percentile_or_zero(&apply, 99.0),
            "us",
        ),
        metric(
            "engine.lock_wait_us.p99",
            percentile_or_zero(&lock, 99.0),
            "us",
        ),
    ]);
    for (i, s) in LADDER_STAGES.iter().enumerate() {
        m.push(metric(
            format!("core.ladder_calls.{s}"),
            u.counters.ladder[i] as f64,
            "count",
        ));
    }
    m.extend([
        metric(
            "core.ladder_us.simple.p50",
            median(&acc.ladder_simple_us),
            "us",
        ),
        metric(
            "core.ladder_us.full_check.p50",
            median(&acc.ladder_full_us),
            "us",
        ),
        metric("core.probe_fuel", u.counters.probe_fuel as f64, "fuel"),
        metric("graph.bfs_us_per_query", acc.bfs_us_per_query(), "us"),
        metric("graph.bfs_us_per_source.p50", median(&acc.bfs_us), "us"),
        metric(
            "graph.expansions_per_pair",
            acc.expansions_per_pair(),
            "ratio",
        ),
        metric("graph.fuel_per_query", acc.fuel_per_query(), "fuel"),
        metric("graph.answer_pairs", acc.evaluated_pairs, "count"),
        metric("storage.open_us", x.open_us, "us"),
        metric("storage.append_us.p50", median(&append), "us"),
        metric(
            "storage.append_us.p99",
            percentile_or_zero(&append, 99.0),
            "us",
        ),
        metric(
            "storage.log_bytes_per_delta",
            ratio(acc.append_bytes, acc.append_records),
            "bytes",
        ),
        metric(
            "storage.snapshot_bytes_per_edge",
            ratio(x.info.snapshot_bytes as f64, x.info.edges as f64),
            "bytes",
        ),
        metric("storage.appends", u.counters.appends as f64, "count"),
        metric(
            "storage.compactions",
            (u.counters.compactions + t.counters.compactions) as f64,
            "count",
        ),
        metric("trace.overhead_share", x.overhead_share, "share"),
        metric("trace.dropped_spans", acc.dropped_spans as f64, "count"),
        metric("latency_p99_ms", percentile_or_zero(&reads, 99.0), "ms"),
        metric("ingest_p50_ms", percentile_or_zero(&ingests, 50.0), "ms"),
        metric("ingest_p90_ms", percentile_or_zero(&ingests, 90.0), "ms"),
        metric("failed_share", x.failed_share, "share"),
        metric("answer_mismatches", x.mismatches as f64, "count"),
    ]);
    m
}

/// The per-layer metric names and units, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let empty = Untraced {
        stats: PassStats::default(),
        counters: CounterDeltas::default(),
        cache: CacheStats::default(),
    };
    per_layer(&PerLayerInputs {
        untraced: &empty,
        traced: &empty,
        acc: &LayerAcc::default(),
        keying: Keying::default(),
        open_us: 0.0,
        info: SetupInfo::default(),
        threads: 1,
        overhead_share: 0.0,
        mismatches: 0,
        failed_share: 0.0,
    })
    .into_iter()
    .map(|m| (m.name, m.unit))
    .collect()
}

/// The end-to-end metric names and units, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The result object the benchmark prints as its last line.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
