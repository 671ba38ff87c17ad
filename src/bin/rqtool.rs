//! `rqtool` — command-line front end for the regular-queries library.
//!
//! ```text
//! rqtool eval <graph.txt> <query> [--from NODE] [--dot]
//! rqtool contain <query1> <query2> [--dot]
//! rqtool simplify <query>
//! rqtool datalog <program.dl> <goal> <graph.txt>
//! rqtool recognize <program.dl>
//! rqtool to-datalog <query>
//! rqtool eval-cq <graph.txt> <query.cq>
//! rqtool contain-cq <query1.cq> <query2.cq>
//! rqtool eval-rq <graph.txt> <query.rq> [--goal=PRED]
//! rqtool contain-rq <query1.rq> <query2.rq>
//! rqtool serve-batch <graph.txt> <queries.txt> [--threads=N] [--cache-cap=N] [--metrics]
//! rqtool stats <graph.txt> <queries.txt> [--threads=N] [--cache-cap=N]
//! rqtool explain <graph.txt> <query> [--warm=QUERY] [--threads=N]
//! rqtool lint <query|file|dir> [--goal=PRED] [--json]
//! rqtool serve <graph.txt> [--addr=H:P] [--workers=N] [--queue-cap=N] [--faults=SPEC]
//! rqtool serve --store=DIR [--addr=H:P] [--workers=N] ...
//! rqtool bench-serve <graph.txt> [queries.txt] [--clients=N] [--duration-ms=N] [--no-backoff] [--ingest-every-ms=N]
//! rqtool convert <graph.txt> <store-dir> [--shards=N]
//! rqtool compact <store-dir>
//! rqtool ingest <store-dir> <deltas.txt>
//! ```
//!
//! `convert` writes a graph into the `rq-storage` on-disk format: a
//! checksummed, sharded snapshot plus an (initially empty) append-only
//! delta log under `<store-dir>`. Everywhere a `<graph.txt>` is accepted,
//! a store directory works too — `eval`, `serve`, `bench-serve`, … open
//! it via snapshot load + log replay instead of the text parser. `ingest`
//! durably appends `add src label dst` / `remove src label dst` lines to
//! a store's log (replayed on next open); `compact` folds the log into a
//! fresh snapshot. `serve --store=DIR` serves over a store and wires
//! `POST /ingest` to it: each ingest batch is fsync'd to the log before
//! it patches the live engine, so an acknowledged batch survives a crash.
//!
//! `lint` runs the `rq-analyze` passes: over an inline regex, a single
//! `.dl`/`.cq`/`.rq`/`.batch` file, or a whole directory tree (e.g.
//! `examples/`). Findings print as `path:line:col: severity[RULE] slug:
//! message` (or a JSON array with `--json`); the exit code is non-zero
//! iff an error-severity finding or a parse failure occurred. `--goal`
//! enables the Datalog reachability lints. Failures to read or parse any
//! input are reported as structured `error[io]:` / `error[parse]:` lines
//! on stderr, never as panics.
//!
//! `serve` starts the `rq-serve` HTTP front-end over a graph: `POST
//! /query` (sync), `POST /submit` + `GET /poll?id=N` (async), `POST
//! /stream` (JSON-lines batch), `POST /lint`, `GET /metrics`, `GET
//! /healthz`, and `POST /drainz`. Requests carry `X-Tenant`, `X-Fuel`,
//! and `X-Timeout-Ms` headers; overload is shed with `429` +
//! `Retry-After`. `SIGTERM`/`SIGINT` (or `/drainz`) triggers a graceful
//! drain bounded by `--drain-ms`, ending with a final metrics flush on
//! stderr. `--faults=seed=S,panic=PPM,delay=PPM,delay_ms=MS,starve=PPM`
//! arms the deterministic fault-injection plan (needs `--features
//! faults`). `bench-serve` starts a private server over the same graph
//! and drives it with `--clients=N` closed-loop clients for
//! `--duration-ms`, printing the shed rate and admitted-request
//! latency percentiles (experiment E14). Shed clients honor the
//! server's `Retry-After` before retrying unless `--no-backoff` is
//! given.
//!
//! `explain` serves one query under a request-scoped trace and prints
//! the span tree as a per-stage profile: preflight action, cache
//! disposition, the containment-ladder rung that decided each cache
//! probe, and the frontier-BFS work of the evaluation — each span
//! annotated with its fuel and duration, with a per-stage fuel rollup at
//! the end. `--warm=QUERY` (repeatable) serves warm-up queries untraced
//! first, so cache hits and subsumptions can be profiled: `rqtool
//! explain g.txt "p p" --warm="p*"` shows the probe ladder proving
//! `p p ⊑ p*` and the superset re-evaluation.
//!
//! `serve-batch` reads one 2RPQ per line (blank lines and `#` comments
//! skipped), serves the batch through the `rq-engine` semantic cache, and
//! prints per-query hit/miss/subsumption dispositions plus the batch cache
//! counters. `--threads=N` sizes the worker pool and `--cache-cap=N` the
//! cache; the `--fuel`/`--timeout-ms` budgets apply per worker.
//! `--metrics` appends a Prometheus-style text exposition of every metric
//! recorded while serving (cache dispositions, containment-ladder stages,
//! latency histograms, governor fuel); `stats` runs the same batch but
//! prints *only* the exposition.
//!
//! Resource budgets: `--fuel=N` caps abstract search steps and
//! `--timeout-ms=N` sets a wall-clock deadline for `contain`,
//! `contain-cq`, `contain-rq`, and `datalog`. An exhausted budget is not
//! an error: the verdict degrades to `unknown` (or a partial fact count)
//! and the partial-progress counters are printed.
//!
//! `.rq` files use the full-RQ rule syntax with `tc[Pred]` closure atoms
//! (`Tri(x,y) :- [r](x,y), [r](y,z), [r](z,x).` / `Ans(x,y) :- tc[Tri](x,y).`).
//!
//! `.cq` files use the UC2RPQ rule syntax
//! (`Q(x, y) :- [a+](x, m), [b c-](m, y).`, one rule per line, same head
//! predicate throughout).
//!
//! Graph files use the `src label dst` text format (`node x` declares an
//! isolated node, `#` comments). Queries are regular expressions over Σ±
//! with `label-` for inverse letters. Datalog programs use
//! `Head(X,Y) :- body.` syntax with uppercase variables.

use regular_queries::analyze::Span;
use regular_queries::automata::regex::simplify;
use regular_queries::core::containment::two_rpq;
use regular_queries::core::rq::{RqExpr, RqQuery};
use regular_queries::core::translate::graphdb_to_factdb;
use regular_queries::datalog::depgraph::{is_monadic, is_nonrecursive, DepGraph};
use regular_queries::datalog::grq::analyze_grq;
use regular_queries::datalog::parser::{parse_program, parse_program_spanned};
use regular_queries::datalog::validate::validate_program;
use regular_queries::graph::dot::{to_dot, DotOptions};
use regular_queries::graph::text;
use regular_queries::metrics::json::Json;
use regular_queries::prelude::*;
use std::process::ExitCode;

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// The one writer behind everything rqtool prints to stdout. A reader
/// that closes the pipe early (`rqtool lint … | grep -q …`) has read all
/// it wants, so a broken pipe ends the process quietly with status 0;
/// any other write error exits 1 with a message.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    let want_dot = flags.iter().any(|f| *f == "--dot");
    let from = flags
        .iter()
        .position(|f| f.starts_with("--from="))
        .map(|i| flags[i]["--from=".len()..].to_owned());
    let goal = flags
        .iter()
        .position(|f| f.starts_with("--goal="))
        .map(|i| flags[i]["--goal=".len()..].to_owned());

    // A typo'd budget flag silently running an unbounded search would
    // defeat the point of having budgets; reject anything unrecognized.
    let want_json = flags.iter().any(|f| *f == "--json");
    let deny_warnings = flags.iter().any(|f| *f == "--deny-warnings");
    let unknown = flags.iter().find(|f| {
        !(***f == "--dot"
            || ***f == "--metrics"
            || ***f == "--json"
            || ***f == "--deny-warnings"
            || f.starts_with("--from=")
            || f.starts_with("--goal=")
            || f.starts_with("--fuel=")
            || f.starts_with("--timeout-ms=")
            || f.starts_with("--threads=")
            || f.starts_with("--cache-cap=")
            || f.starts_with("--warm=")
            || f.starts_with("--addr=")
            || f.starts_with("--workers=")
            || f.starts_with("--queue-cap=")
            || f.starts_with("--request-fuel=")
            || f.starts_with("--drain-ms=")
            || f.starts_with("--tenant-fuel-per-sec=")
            || f.starts_with("--tenant-burst=")
            || f.starts_with("--faults=")
            || f.starts_with("--clients=")
            || f.starts_with("--duration-ms=")
            || f.starts_with("--shards=")
            || f.starts_with("--store=")
            || f.starts_with("--compact-threshold=")
            || f.starts_with("--ingest-every-ms=")
            || f.as_str() == "--no-backoff")
    });
    let result = match unknown {
        Some(f) => Err(format!("unknown flag {f}\n{}", usage())),
        None => Ok(()),
    }
    .and_then(|()| parse_limits(&flags))
    .and_then(|limits| match positional.as_slice() {
        [cmd, rest @ ..] => match (cmd.as_str(), rest) {
            ("eval", [graph, query]) => cmd_eval(graph, query, from.as_deref(), want_dot),
            ("contain", [q1, q2]) => cmd_contain(q1, q2, want_dot, &limits),
            ("simplify", [query]) => cmd_simplify(query),
            ("datalog", [program, goal, graph]) => cmd_datalog(program, goal, graph, &limits),
            ("recognize", [program]) => cmd_recognize(program),
            ("to-datalog", [query]) => cmd_to_datalog(query),
            ("eval-cq", [graph, query]) => cmd_eval_cq(graph, query),
            ("contain-cq", [q1, q2]) => cmd_contain_cq(q1, q2, &limits),
            ("eval-rq", [graph, query]) => cmd_eval_rq(graph, query, goal.as_deref()),
            ("contain-rq", [q1, q2]) => cmd_contain_rq(q1, q2, &limits),
            ("serve-batch", [graph, queries]) => {
                cmd_serve_batch(graph, queries, &flags, &limits, ServeOutput::Report)
            }
            ("stats", [graph, queries]) => {
                cmd_serve_batch(graph, queries, &flags, &limits, ServeOutput::MetricsOnly)
            }
            ("explain", [graph, query]) => cmd_explain(graph, query, &flags),
            ("lint", [input]) => {
                cmd_lint(input, goal.as_deref(), &limits, want_json, deny_warnings)
            }
            ("convert", [graph, dir]) => cmd_convert(graph, dir, &flags),
            ("compact", [dir]) => cmd_compact(dir, &flags),
            ("ingest", [dir, deltas]) => cmd_ingest(dir, deltas, &flags),
            ("serve", []) => cmd_serve(None, &flags, &limits),
            ("serve", [graph]) => cmd_serve(Some(graph), &flags, &limits),
            ("bench-serve", [graph]) => cmd_bench_serve(graph, None, &flags, &limits),
            ("bench-serve", [graph, queries]) => {
                cmd_bench_serve(graph, Some(queries), &flags, &limits)
            }
            _ => Err(usage()),
        },
        _ => Err(usage()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n  rqtool eval <graph.txt> <query> [--from=NODE] [--dot]\n  \
     rqtool contain <query1> <query2> [--dot]\n  \
     rqtool simplify <query>\n  \
     rqtool datalog <program.dl> <goal> <graph.txt>\n  \
     rqtool recognize <program.dl>\n  \
     rqtool to-datalog <query>\n  \
     rqtool eval-cq <graph.txt> <query.cq>\n  \
     rqtool contain-cq <query1.cq> <query2.cq>\n  \
     rqtool eval-rq <graph.txt> <query.rq> [--goal=PRED]\n  \
     rqtool contain-rq <query1.rq> <query2.rq>\n  \
     rqtool serve-batch <graph.txt> <queries.txt> [--threads=N] [--cache-cap=N] [--metrics]\n  \
     rqtool stats <graph.txt> <queries.txt> [--threads=N] [--cache-cap=N]\n  \
     rqtool explain <graph.txt> <query> [--warm=QUERY] [--threads=N]\n  \
     rqtool lint <query|file|dir> [--goal=PRED] [--json] [--deny-warnings]\n  \
     rqtool serve <graph.txt|store-dir> [--addr=H:P] [--workers=N] [--queue-cap=N] [--request-fuel=N] [--drain-ms=N] [--faults=SPEC]\n  \
     rqtool serve --store=DIR [--addr=H:P] ... (persistent /ingest)\n  \
     rqtool bench-serve <graph.txt|store-dir> [queries.txt] [--clients=N] [--duration-ms=N] [--no-backoff] [--ingest-every-ms=N]\n  \
     rqtool convert <graph.txt> <store-dir> [--shards=N]\n  \
     rqtool compact <store-dir>\n  \
     rqtool ingest <store-dir> <deltas.txt>\n\
     budget flags (contain*, datalog, serve-batch, stats, lint): --fuel=N --timeout-ms=N"
        .to_owned()
}

/// Parse the `--fuel=N` / `--timeout-ms=N` budget flags into [`Limits`].
fn parse_limits(flags: &[&String]) -> Result<Limits, String> {
    let mut limits = Limits::unlimited();
    for f in flags {
        if let Some(v) = f.strip_prefix("--fuel=") {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--fuel expects an integer, got {v:?}"))?;
            limits = limits.with_fuel(n);
        } else if let Some(v) = f.strip_prefix("--timeout-ms=") {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("--timeout-ms expects an integer, got {v:?}"))?;
            limits = limits.with_deadline(std::time::Duration::from_millis(ms));
        }
    }
    Ok(limits)
}

/// Print the partial-progress counters of an exhausted / inconclusive
/// verdict so the user sees how far the search got before it stopped.
fn print_partial_progress(out: &Outcome) {
    if let Some(r) = out.report() {
        outln!("  partial progress: {}", r.counters);
    }
}

/// Load a graph from either source: a directory is an `rq-storage` store
/// (snapshot load + delta-log replay), anything else the text format.
fn load_graph(path: &str) -> Result<GraphDb, String> {
    if std::path::Path::new(path).is_dir() {
        let (_, db, report) = StorageHandle::open(std::path::Path::new(path), storage_config(&[])?)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "opened store {path}: {} nodes, {} edges, {} replayed deltas in {}us",
            report.nodes, report.edges, report.replayed, report.open_us
        );
        return Ok(db);
    }
    let content = read_input(path)?;
    text::parse(&content).map_err(|e| format!("error[parse]: {path}: {e}"))
}

/// Build the [`StorageConfig`] from `--shards=N` / `--compact-threshold=N`.
fn storage_config(flags: &[&String]) -> Result<StorageConfig, String> {
    let defaults = StorageConfig::default();
    let shards = flag_u64(flags, "shards", u64::from(defaults.shards))?;
    if shards == 0 || shards > 1024 {
        return Err(format!("--shards must be in 1..=1024, got {shards}"));
    }
    Ok(StorageConfig {
        shards: shards as u32,
        compact_threshold: flag_u64(flags, "compact-threshold", defaults.compact_threshold)?,
        ..defaults
    })
}

/// `rqtool convert`: write a text graph into the on-disk snapshot + log
/// format under `dir`.
fn cmd_convert(graph: &str, dir: &str, flags: &[&String]) -> Result<(), String> {
    let config = storage_config(flags)?;
    let content = read_input(graph)?;
    let db = text::parse(&content).map_err(|e| format!("error[parse]: {graph}: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("error[io]: cannot create {dir}: {e}"))?;
    let shards = config.shards;
    StorageHandle::create(std::path::Path::new(dir), &db, config).map_err(|e| e.to_string())?;
    outln!(
        "converted {graph} -> {dir}: {} nodes, {} labels, {} shards",
        db.num_nodes(),
        db.alphabet().len(),
        shards
    );
    Ok(())
}

/// `rqtool compact`: fold a store's delta log into a fresh snapshot.
fn cmd_compact(dir: &str, flags: &[&String]) -> Result<(), String> {
    let (mut handle, db, report) =
        StorageHandle::open(std::path::Path::new(dir), storage_config(flags)?)
            .map_err(|e| e.to_string())?;
    let folded = report.replayed;
    handle.compact(&db).map_err(|e| e.to_string())?;
    outln!(
        "compacted {dir}: folded {folded} log deltas into a snapshot of {} nodes at epoch {}",
        db.num_nodes(),
        handle.epoch()
    );
    Ok(())
}

/// `rqtool ingest`: durably append a file of `add`/`remove` delta lines
/// to a store's log. The deltas are replayed into the graph on the next
/// open; a running `serve --store` ingests via `POST /ingest` instead.
fn cmd_ingest(dir: &str, deltas_path: &str, flags: &[&String]) -> Result<(), String> {
    let content = read_input(deltas_path)?;
    let deltas = Delta::parse_text(&content)
        .map_err(|(line, e)| format!("error[parse]: {deltas_path}:{line}: {e}"))?;
    if deltas.is_empty() {
        return Err(format!("error[io]: no delta lines in {deltas_path}"));
    }
    let (mut handle, mut db, _) =
        StorageHandle::open(std::path::Path::new(dir), storage_config(flags)?)
            .map_err(|e| e.to_string())?;
    handle.append(&deltas).map_err(|e| e.to_string())?;
    let applied = deltas.iter().filter(|d| db.apply_delta(d)).count();
    let mut compacted = false;
    if handle.needs_compaction() {
        handle.compact(&db).map_err(|e| e.to_string())?;
        compacted = true;
    }
    outln!(
        "ingested {} deltas into {dir} ({applied} effective, epoch {}{})",
        deltas.len(),
        handle.epoch(),
        if compacted { ", compacted" } else { "" }
    );
    Ok(())
}

/// Read a file, mapping failures to the structured `error[io]:` form so
/// every subcommand exits non-zero with a diagnosable message instead of
/// panicking.
fn read_input(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("error[io]: cannot read {path}: {e}"))
}

fn cmd_eval(graph: &str, query: &str, from: Option<&str>, want_dot: bool) -> Result<(), String> {
    let db = load_graph(graph)?;
    let mut al = db.alphabet().clone();
    let q = TwoRpq::parse(query, &mut al).map_err(|e| e.to_string())?;
    match from {
        Some(name) => {
            let src = db
                .find_node(name)
                .ok_or_else(|| format!("no node named {name}"))?;
            let ans = q.evaluate_from(&db, src);
            outln!("{} answers from {name}:", ans.len());
            for n in &ans {
                outln!("  {}", db.display_node(*n));
            }
        }
        None => {
            let ans = q.evaluate(&db);
            outln!("{} answer pairs:", ans.len());
            for (x, y) in &ans {
                outln!("  {} ⇒ {}", db.display_node(*x), db.display_node(*y));
            }
        }
    }
    if want_dot {
        outln!("\n{}", to_dot(&db, &DotOptions::default()));
    }
    Ok(())
}

fn cmd_contain(s1: &str, s2: &str, want_dot: bool, limits: &Limits) -> Result<(), String> {
    let mut al = Alphabet::new();
    let q1 = TwoRpq::parse(s1, &mut al).map_err(|e| e.to_string())?;
    let q2 = TwoRpq::parse(s2, &mut al).map_err(|e| e.to_string())?;
    for (label, a, b) in [("Q1 ⊑ Q2", &q1, &q2), ("Q2 ⊑ Q1", &q2, &q1)] {
        let gov = limits.governor();
        let out = match two_rpq::check_governed(a, b, &al, &gov) {
            Ok(out) => out,
            Err(e) => Outcome::exhausted(e),
        };
        outln!("{label}: {out}");
        print_partial_progress(&out);
        if let Some(w) = out.witness() {
            if want_dot {
                let dot = to_dot(
                    &w.db,
                    &DotOptions {
                        name: Some("counterexample".into()),
                        highlight: w.tuple.clone(),
                        horizontal: true,
                    },
                );
                outln!("{dot}");
            } else {
                for line in text::to_text(&w.db).lines() {
                    outln!("    {line}");
                }
            }
        }
    }
    Ok(())
}

fn cmd_simplify(query: &str) -> Result<(), String> {
    let mut al = Alphabet::new();
    let e = regular_queries::automata::regex::parse(query, &mut al).map_err(|e| e.to_string())?;
    let out = simplify(&e);
    outln!("{}", out.display(&al));
    if out.size() < e.size() {
        eprintln!("({} → {} AST nodes)", e.size(), out.size());
    }
    Ok(())
}

fn cmd_datalog(program: &str, goal: &str, graph: &str, limits: &Limits) -> Result<(), String> {
    let content = read_input(program)?;
    let p = parse_program(&content).map_err(|e| format!("error[parse]: {program}: {e}"))?;
    validate_program(&p).map_err(|e| format!("error[parse]: {program}: {e}"))?;
    let q = DatalogQuery::new(p, goal);
    let db = load_graph(graph)?;
    let facts = graphdb_to_factdb(&db);
    let gov = limits.governor();
    match regular_queries::datalog::evaluate_governed(&q, &facts, &gov) {
        Ok(rel) => {
            outln!("{} facts for {goal}:", rel.len());
            for t in rel.iter() {
                let names: Vec<&str> = t.iter().map(|&v| facts.value_name(v)).collect();
                outln!("  {goal}({})", names.join(", "));
            }
        }
        Err(e) => {
            outln!("evaluation stopped early: {e}");
            outln!("  partial progress: {}", e.counters);
        }
    }
    Ok(())
}

fn cmd_recognize(program: &str) -> Result<(), String> {
    let content = read_input(program)?;
    let p = parse_program(&content).map_err(|e| format!("error[parse]: {program}: {e}"))?;
    validate_program(&p).map_err(|e| format!("error[parse]: {program}: {e}"))?;
    let dg = DepGraph::new(&p);
    outln!("predicates : {}", dg.predicates.join(", "));
    outln!("recursive  : {}", dg.recursive_predicates().join(", "));
    outln!("nonrecursive program? {}", is_nonrecursive(&p));
    outln!("Monadic Datalog?      {}", is_monadic(&p));
    match analyze_grq(&p) {
        Ok(a) => {
            outln!("GRQ?                  yes");
            for tc in &a.tc_defs {
                outln!("  {} = TC({}) [{:?}]", tc.tc_pred, tc.base_pred, tc.step);
            }
        }
        Err(v) => outln!("GRQ?                  no — {v}"),
    }
    Ok(())
}

fn cmd_to_datalog(query: &str) -> Result<(), String> {
    let mut al = Alphabet::new();
    let rel = TwoRpq::parse(query, &mut al).map_err(|e| e.to_string())?;
    let q = RqQuery::new(vec!["x".into(), "y".into()], RqExpr::rel2(rel, "x", "y"))
        .map_err(|e| e.to_string())?;
    let dq = regular_queries::core::translate::rq_to_datalog(&q, &al);
    out!("{}", dq.program);
    outln!("% goal: {}", dq.goal);
    Ok(())
}

/// What `cmd_serve_batch` prints: the per-query report (optionally
/// followed by the metric exposition when `--metrics` is passed), or the
/// exposition alone (the `stats` subcommand).
#[derive(PartialEq)]
enum ServeOutput {
    Report,
    MetricsOnly,
}

fn cmd_serve_batch(
    graph: &str,
    queries_path: &str,
    flags: &[&String],
    limits: &Limits,
    output: ServeOutput,
) -> Result<(), String> {
    let mut threads = 2usize;
    let mut cache_cap = 64usize;
    for f in flags {
        if let Some(v) = f.strip_prefix("--threads=") {
            threads = v
                .parse()
                .map_err(|_| format!("--threads expects an integer, got {v:?}"))?;
        } else if let Some(v) = f.strip_prefix("--cache-cap=") {
            cache_cap = v
                .parse()
                .map_err(|_| format!("--cache-cap expects an integer, got {v:?}"))?;
        }
    }
    let db = load_graph(graph)?;
    let content = read_input(queries_path)?;
    let texts: Vec<&str> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let engine = Engine::new(
        db,
        EngineConfig {
            threads,
            limits: limits.clone(),
            cache: CacheConfig {
                capacity: cache_cap,
                ..CacheConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let queries: Vec<TwoRpq> = texts
        .iter()
        .map(|t| {
            engine
                .parse(t)
                .map_err(|e| format!("error[parse]: {queries_path}: cannot parse query {t:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let start = std::time::Instant::now();
    let report = engine.run_batch(&queries);
    let elapsed = start.elapsed();
    if output == ServeOutput::Report {
        outln!(
            "served {} queries on {} threads in {elapsed:.1?}",
            queries.len(),
            engine.threads()
        );
        for item in &report.items {
            match &item.outcome {
                Ok(answer) => outln!(
                    "  [{:<10}] {:<24} {} pairs",
                    item.disposition.to_string(),
                    texts[item.index],
                    answer.len()
                ),
                Err(e) => outln!("  [stopped   ] {:<24} {e}", texts[item.index]),
            }
        }
        outln!("cache: {}", report.stats);
    }
    if output == ServeOutput::MetricsOnly || flags.iter().any(|f| *f == "--metrics") {
        if output == ServeOutput::Report {
            outln!();
        }
        out!("{}", regular_queries::metrics::global().render());
    }
    Ok(())
}

/// `rqtool explain`: serve one query under a request-scoped trace and
/// print the rendered span tree (the same per-stage profile the serve
/// front-end inlines for `{"query": ..., "explain": true}` bodies).
fn cmd_explain(graph: &str, query: &str, flags: &[&String]) -> Result<(), String> {
    use regular_queries::metrics::span::{self, TraceContext};
    let engine = serve_engine(graph, flags)?;
    // Warm-up queries run untraced, so the traced query can exercise the
    // cache paths (exact hits, equivalence, probe-ladder subsumption).
    for f in flags {
        if let Some(w) = f.strip_prefix("--warm=") {
            let q = engine
                .parse(w)
                .map_err(|e| format!("error[parse]: warm-up query {w:?}: {e}"))?;
            engine
                .run(&q)
                .map_err(|e| format!("warm-up query {w:?} failed: {e}"))?;
        }
    }
    let q = engine.parse(query).map_err(|e| e.to_string())?;
    let ctx = TraceContext::start();
    let result = {
        let _guard = span::install(&ctx, 0);
        engine.run(&q)
    };
    let outcome = match &result {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("error: {e}"),
    };
    let trace = ctx.finish(&outcome, query);
    match &result {
        Ok(r) => outln!("{} [{}]: {} pairs\n", query, r.disposition, r.answer.len()),
        Err(e) => outln!("{query}: stopped early: {e}\n"),
    }
    outln!("{}", trace.render());
    Ok(())
}

/// Parse a `--name=N` integer flag, or return the default.
fn flag_u64(flags: &[&String], name: &str, default: u64) -> Result<u64, String> {
    let prefix = format!("--{name}=");
    for f in flags {
        if let Some(v) = f.strip_prefix(&prefix) {
            return v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got {v:?}"));
        }
    }
    Ok(default)
}

/// Build the serve configuration shared by `serve` and `bench-serve` from
/// the command-line flags. `--timeout-ms` (the global budget flag) sets
/// the per-request deadline.
fn serve_config(flags: &[&String], limits: &Limits, addr: String) -> Result<ServeConfig, String> {
    let defaults = ServeConfig::default();
    let mut cfg = ServeConfig {
        addr,
        workers: flag_u64(flags, "workers", defaults.workers as u64)? as usize,
        queue_capacity: flag_u64(flags, "queue-cap", defaults.queue_capacity as u64)? as usize,
        request_fuel: flag_u64(flags, "request-fuel", defaults.request_fuel)?,
        drain_deadline: std::time::Duration::from_millis(flag_u64(
            flags,
            "drain-ms",
            defaults.drain_deadline.as_millis() as u64,
        )?),
        quota: TenantQuota {
            fuel_per_sec: flag_u64(flags, "tenant-fuel-per-sec", defaults.quota.fuel_per_sec)?,
            burst_fuel: flag_u64(flags, "tenant-burst", defaults.quota.burst_fuel)?,
        },
        ..defaults
    };
    if let Some(deadline) = limits.deadline {
        cfg.request_timeout = deadline;
    }
    for f in flags {
        if let Some(spec) = f.strip_prefix("--faults=") {
            cfg.faults = FaultPlan::parse(spec).map_err(|e| format!("error[config]: {e}"))?;
            if !regular_queries::serve::faults::compiled() {
                eprintln!(
                    "note: --faults requires building with `--features faults`; the plan is inert"
                );
            }
        }
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// Build the engine under a serve front-end (`--threads` sizes its pool).
fn serve_engine(graph: &str, flags: &[&String]) -> Result<Engine, String> {
    let db = load_graph(graph)?;
    let config = EngineConfig {
        threads: flag_u64(flags, "threads", 2)? as usize,
        ..EngineConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;
    Ok(Engine::new(db, config))
}

/// Open the `--store=DIR` flag's store for serving: the engine is built
/// over the replayed graph and the handle is passed to the server so
/// `POST /ingest` persists.
fn open_serve_store(
    dir: &str,
    flags: &[&String],
) -> Result<(Engine, Option<StorageHandle>), String> {
    let (handle, db, report) =
        StorageHandle::open(std::path::Path::new(dir), storage_config(flags)?)
            .map_err(|e| e.to_string())?;
    eprintln!(
        "opened store {dir}: {} nodes, {} edges, {} replayed deltas in {}us",
        report.nodes, report.edges, report.replayed, report.open_us
    );
    let config = EngineConfig {
        threads: flag_u64(flags, "threads", 2)? as usize,
        ..EngineConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;
    Ok((Engine::new(db, config), Some(handle)))
}

/// `rqtool serve`: run the front-end until SIGTERM/SIGINT (or `/drainz`),
/// then drain gracefully and flush metrics to stderr.
fn cmd_serve(graph: Option<&str>, flags: &[&String], limits: &Limits) -> Result<(), String> {
    let addr = flags
        .iter()
        .find_map(|f| f.strip_prefix("--addr="))
        .unwrap_or("127.0.0.1:7878")
        .to_string();
    let cfg = serve_config(flags, limits, addr)?;
    let store_flag = flags.iter().find_map(|f| f.strip_prefix("--store="));
    let (engine, store) = match (graph, store_flag) {
        (Some(g), None) => (serve_engine(g, flags)?, None),
        (None, Some(dir)) => open_serve_store(dir, flags)?,
        (Some(_), Some(_)) => {
            return Err("pass either a graph file or --store=DIR, not both".to_owned())
        }
        (None, None) => return Err(usage()),
    };
    let server = Server::start_with_store(engine, cfg, store).map_err(|e| e.to_string())?;
    outln!(
        "rq-serve listening on {} ({} workers, {} engine threads); SIGTERM or POST /drainz to drain",
        server.addr(),
        flag_u64(flags, "workers", ServeConfig::default().workers as u64)?,
        server.engine().threads(),
    );
    regular_queries::serve::signal::install();
    while !regular_queries::serve::signal::triggered() && !server.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("draining...");
    let report = server.drain();
    eprintln!(
        "drained in {:.2?}: clean={} swept={} cancelled={}",
        report.elapsed, report.clean, report.swept, report.cancelled
    );
    // The final flush: everything a scraper would have seen on /metrics.
    eprint!("{}", report.metrics);
    server.shutdown();
    Ok(())
}

/// `rqtool bench-serve`: start a private server over the graph and drive
/// it closed-loop (experiment E14's harness).
fn cmd_bench_serve(
    graph: &str,
    queries: Option<&str>,
    flags: &[&String],
    limits: &Limits,
) -> Result<(), String> {
    let cfg = serve_config(flags, limits, "127.0.0.1:0".to_string())?;
    let engine = serve_engine(graph, flags)?;
    let server = Server::start(engine, cfg).map_err(|e| e.to_string())?;
    let mut bench = regular_queries::serve::BenchConfig {
        addr: server.addr().to_string(),
        clients: flag_u64(flags, "clients", 4)? as usize,
        duration: std::time::Duration::from_millis(flag_u64(flags, "duration-ms", 5000)?),
        // `--no-backoff` models an abusive client that re-sends the
        // instant it is shed instead of honoring `Retry-After`.
        honor_retry_after: !flags.iter().any(|f| f.as_str() == "--no-backoff"),
        ..regular_queries::serve::BenchConfig::default()
    };
    if let Some(path) = queries {
        let content = read_input(path)?;
        bench.queries = content
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_owned)
            .collect();
        if bench.queries.is_empty() {
            return Err(format!("error[io]: no queries in {path}"));
        }
    }
    outln!(
        "bench-serve: {} clients closed-loop for {:?} against {}",
        bench.clients,
        bench.duration,
        bench.addr
    );
    // `--ingest-every-ms=N` arms a background writer that POSTs one
    // `a`-labeled edge delta every N ms while the clients run — the
    // ingest-while-serving load of experiment E16. Each batch bumps the
    // graph epoch and invalidates the cached queries over `a`, so the
    // bench measures admitted-request latency under continuous
    // delta-driven cache churn.
    let ingest_every = flag_u64(flags, "ingest-every-ms", 0)?;
    let stop_ingest = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ingester = if ingest_every > 0 {
        let addr = server.addr().to_string();
        let stop = std::sync::Arc::clone(&stop_ingest);
        Some(std::thread::spawn(move || {
            let mut sent = 0u64;
            let mut client = match regular_queries::serve::Client::connect(
                &addr,
                std::time::Duration::from_secs(10),
            ) {
                Ok(c) => c,
                Err(_) => return 0,
            };
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let body = format!("add ingest_{sent} a ingest_{}\n", sent + 1);
                if client
                    .request("POST", "/ingest", &[], body.as_bytes())
                    .is_ok()
                {
                    sent += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(ingest_every));
            }
            sent
        }))
    } else {
        None
    };
    let report = regular_queries::serve::run_bench(&bench);
    stop_ingest.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(h) = ingester {
        let sent = h.join().unwrap_or(0);
        outln!("ingest load: {sent} delta batches every {ingest_every}ms");
    }
    outln!("{}", report.summary());
    server.shutdown();
    Ok(())
}

fn load_uc2rpq(path: &str, al: &mut Alphabet) -> Result<regular_queries::core::Uc2Rpq, String> {
    let content = read_input(path)?;
    regular_queries::core::query_text::parse_uc2rpq(&content, al)
        .map_err(|e| format!("error[parse]: {path}: {e}"))
}

fn cmd_eval_cq(graph: &str, query: &str) -> Result<(), String> {
    let db = load_graph(graph)?;
    let mut al = db.alphabet().clone();
    let q = load_uc2rpq(query, &mut al)?;
    let ans = q.evaluate(&db);
    outln!("{} answer tuples:", ans.len());
    for t in &ans {
        let names: Vec<String> = t.iter().map(|&n| db.display_node(n)).collect();
        outln!("  ({})", names.join(", "));
    }
    Ok(())
}

fn cmd_contain_cq(p1: &str, p2: &str, limits: &Limits) -> Result<(), String> {
    use regular_queries::core::containment::{uc2rpq, Config};
    let mut al = Alphabet::new();
    let q1 = load_uc2rpq(p1, &mut al)?;
    let q2 = load_uc2rpq(p2, &mut al)?;
    let cfg = Config {
        limits: limits.clone(),
        ..Config::default()
    };
    for (label, a, b) in [("Q1 ⊑ Q2", &q1, &q2), ("Q2 ⊑ Q1", &q2, &q1)] {
        let out = uc2rpq::check(a, b, &al, &cfg);
        outln!("{label}: {out}");
        print_partial_progress(&out);
        if let Some(w) = out.witness() {
            for line in text::to_text(&w.db).lines() {
                outln!("    {line}");
            }
            let names: Vec<String> = w.tuple.iter().map(|&n| w.db.display_node(n)).collect();
            outln!("  distinguished tuple: ({})", names.join(", "));
        }
    }
    Ok(())
}

fn load_rq(path: &str, goal: Option<&str>, al: &mut Alphabet) -> Result<RqQuery, String> {
    let content = read_input(path)?;
    regular_queries::core::rq_text::parse_rq(&content, goal, al)
        .map_err(|e| format!("error[parse]: {path}: {e}"))
}

fn cmd_eval_rq(graph: &str, query: &str, goal: Option<&str>) -> Result<(), String> {
    let db = load_graph(graph)?;
    let mut al = db.alphabet().clone();
    let q = load_rq(query, goal, &mut al)?;
    let ans = q.evaluate(&db);
    outln!("{} answer tuples:", ans.len());
    for t in &ans {
        let names: Vec<String> = t.iter().map(|&n| db.display_node(n)).collect();
        outln!("  ({})", names.join(", "));
    }
    Ok(())
}

fn cmd_contain_rq(p1: &str, p2: &str, limits: &Limits) -> Result<(), String> {
    use regular_queries::core::containment::{rq, Config};
    let mut al = Alphabet::new();
    let q1 = load_rq(p1, None, &mut al)?;
    let q2 = load_rq(p2, None, &mut al)?;
    let cfg = Config {
        limits: limits.clone(),
        ..Config::default()
    };
    for (label, a, b) in [("Q1 ⊑ Q2", &q1, &q2), ("Q2 ⊑ Q1", &q2, &q1)] {
        let out = rq::check(a, b, &al, &cfg);
        outln!("{label}: {out}");
        print_partial_progress(&out);
        if let Some(w) = out.witness() {
            for line in text::to_text(&w.db).lines() {
                outln!("    {line}");
            }
        }
    }
    Ok(())
}

/// `rqtool lint`: run the `rq-analyze` passes over an inline 2RPQ, a
/// single file, or every lintable file under a directory.
///
/// Exit is nonzero on any error-level finding, on parse/IO failures,
/// and — under `--deny-warnings` — on any warning-level finding, so
/// lint can gate CI pipelines. Info-level findings never fail the run.
fn cmd_lint(
    input: &str,
    goal: Option<&str>,
    limits: &Limits,
    json: bool,
    deny_warnings: bool,
) -> Result<(), String> {
    let path = std::path::Path::new(input);
    let mut entries: Vec<(String, Report)> = Vec::new();
    if path.is_dir() {
        let mut files = Vec::new();
        collect_lintable(path, &mut files)?;
        files.sort();
        if files.is_empty() {
            return Err(format!(
                "error[io]: no lintable files (.dl/.cq/.rq/.batch) under {input}"
            ));
        }
        for f in &files {
            let origin = f.display().to_string();
            let report = lint_file(&origin, goal, limits)?;
            entries.push((origin, report));
        }
    } else if path.is_file() {
        entries.push((input.to_owned(), lint_file(input, goal, limits)?));
    } else {
        // Not a path on disk: treat the argument as an inline 2RPQ.
        let mut al = Alphabet::new();
        let q = TwoRpq::parse(input, &mut al).map_err(|e| format!("error[parse]: <query>: {e}"))?;
        let mut report = lint_two_rpq_with_source(&q, Some(input), &al, limits);
        report.sort();
        entries.push(("<query>".to_owned(), report));
    }

    let total: usize = entries.iter().map(|(_, r)| r.diagnostics.len()).sum();
    let errors: usize = entries
        .iter()
        .flat_map(|(_, r)| &r.diagnostics)
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings: usize = entries
        .iter()
        .flat_map(|(_, r)| &r.diagnostics)
        .filter(|d| d.severity == Severity::Warning)
        .count();
    if json {
        let arr = Json::Arr(
            entries
                .iter()
                .map(|(origin, report)| {
                    let mut fields = vec![("path".to_owned(), Json::Str(origin.clone()))];
                    if let Json::Obj(rest) = report.to_json() {
                        fields.extend(rest);
                    }
                    Json::Obj(fields)
                })
                .collect(),
        );
        outln!("{}", arr.emit());
    } else {
        for (origin, report) in &entries {
            if !report.is_clean() {
                outln!("{}", report.render_text(origin));
            }
        }
        outln!(
            "{total} finding(s) ({errors} error(s)) across {} input(s)",
            entries.len()
        );
    }
    if errors > 0 {
        Err(format!("error[lint]: {errors} error-level finding(s)"))
    } else if deny_warnings && warnings > 0 {
        Err(format!(
            "error[lint]: {warnings} warning-level finding(s) (--deny-warnings)"
        ))
    } else {
        Ok(())
    }
}

/// Recursively gather `.dl`/`.cq`/`.rq`/`.batch` files under `dir`.
fn collect_lintable(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), String> {
    let listing = std::fs::read_dir(dir)
        .map_err(|e| format!("error[io]: cannot read directory {}: {e}", dir.display()))?;
    for entry in listing {
        let entry = entry
            .map_err(|e| format!("error[io]: cannot read directory {}: {e}", dir.display()))?;
        let p = entry.path();
        if p.is_dir() {
            collect_lintable(&p, out)?;
        } else if matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("dl" | "cq" | "rq" | "batch")
        ) {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint one file, dispatching on its extension. Unknown extensions are
/// treated as a batch file: one 2RPQ per line, `#` comments skipped (the
/// `serve-batch` query format).
fn lint_file(path: &str, goal: Option<&str>, limits: &Limits) -> Result<Report, String> {
    let content = read_input(path)?;
    let ext = std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let mut report = match ext {
        "dl" => {
            let spanned = parse_program_spanned(&content)
                .map_err(|e| format!("error[parse]: {path}: {e}"))?;
            lint_program(&spanned.program, Some(&spanned.spans), goal)
        }
        "cq" => {
            let mut al = Alphabet::new();
            let q = parse_uc2rpq(&content, &mut al)
                .map_err(|e| format!("error[parse]: {path}: {e}"))?;
            let spans = rule_line_spans(&content);
            lint_uc2rpq(&q, &al, limits, Some(&spans))
        }
        "rq" => {
            let mut al = Alphabet::new();
            let q = regular_queries::core::rq_text::parse_rq(&content, goal, &mut al)
                .map_err(|e| format!("error[parse]: {path}: {e}"))?;
            let mut rels = Vec::new();
            collect_rels(&q.expr, &mut rels);
            let mut r = Report::new();
            for rel in rels {
                r.merge(lint_two_rpq(rel, &al, limits));
            }
            r
        }
        _ => {
            let mut al = Alphabet::new();
            let mut r = Report::new();
            for (i, raw) in content.lines().enumerate() {
                let line = raw.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let q = TwoRpq::parse(line, &mut al)
                    .map_err(|e| format!("error[parse]: {path}:{}: {e}", i + 1))?;
                let mut lr = lint_two_rpq_with_source(&q, Some(line), &al, limits);
                // Single-query spans are relative to the trimmed line
                // text; rebase them onto this line of the batch file.
                let indent = raw.len() - raw.trim_start().len();
                for d in &mut lr.diagnostics {
                    d.span = Some(match d.span {
                        Some(s) => Span::new(i + 1, s.column + indent),
                        None => Span::new(i + 1, 1),
                    });
                }
                r.merge(lr);
            }
            r
        }
    };
    report.sort();
    Ok(report)
}

/// Line/column spans of the rules in a `.cq` file, in parse order
/// (mirrors the `query_text` parser's comment/blank-line skipping).
fn rule_line_spans(content: &str) -> Vec<Span> {
    content
        .lines()
        .enumerate()
        .filter(|(_, raw)| {
            let t = raw.trim();
            !t.is_empty() && !t.starts_with('#') && !t.starts_with('%')
        })
        .map(|(i, raw)| Span::new(i + 1, raw.len() - raw.trim_start().len() + 1))
        .collect()
}

/// Collect every 2RPQ relation atom mentioned in an RQ expression tree.
fn collect_rels<'a>(e: &'a RqExpr, out: &mut Vec<&'a TwoRpq>) {
    match e {
        RqExpr::Rel2 { rel, .. } => out.push(rel),
        RqExpr::Select { inner, .. }
        | RqExpr::Project { inner, .. }
        | RqExpr::Closure { inner, .. } => collect_rels(inner, out),
        RqExpr::Union { left, right } | RqExpr::And { left, right } => {
            collect_rels(left, out);
            collect_rels(right, out);
        }
        RqExpr::Edge { .. } => {}
    }
}
