//! Black-box tests of the `rqtool` binary (spawned via the path Cargo
//! provides to integration tests).

use regular_queries::analyze::Report;
use regular_queries::metrics::json::Json;
use std::process::Command;

fn rqtool(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_rqtool"))
        .args(args)
        .output()
        .expect("rqtool runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn data(file: &str) -> String {
    format!("{}/examples/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn eval_command() {
    let (stdout, _, ok) = rqtool(&["eval", &data("social.graph"), "knows+"]);
    assert!(ok);
    assert!(stdout.contains("alice ⇒ erin"), "{stdout}");
}

#[test]
fn eval_from_named_node() {
    let (stdout, _, ok) = rqtool(&[
        "eval",
        &data("social.graph"),
        "worksAt worksAt-",
        "--from=alice",
    ]);
    assert!(ok);
    assert!(stdout.contains("carol"), "{stdout}");
}

#[test]
fn contain_command_shows_witness() {
    let (stdout, _, ok) = rqtool(&["contain", "p", "p p- p"]);
    assert!(ok);
    assert!(stdout.contains("Q1 ⊑ Q2: contained"), "{stdout}");
    assert!(stdout.contains("Q2 ⊑ Q1: not contained"), "{stdout}");
    assert!(
        stdout.contains("n0 p n1"),
        "witness database printed: {stdout}"
    );
}

#[test]
fn contain_dot_output() {
    let (stdout, _, ok) = rqtool(&["contain", "a a", "a", "--dot"]);
    assert!(ok);
    assert!(stdout.contains("digraph counterexample"), "{stdout}");
    assert!(stdout.contains("doublecircle"), "{stdout}");
}

#[test]
fn simplify_command() {
    let (stdout, _, ok) = rqtool(&["simplify", "a|a*|b a* a*"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "a*|b.a*");
}

#[test]
fn datalog_and_recognize_commands() {
    let (stdout, _, ok) = rqtool(&[
        "datalog",
        &data("routing.dl"),
        "Route",
        &data("social.graph"),
    ]);
    assert!(ok);
    assert!(stdout.contains("Route(alice, erin)"), "{stdout}");

    let (stdout, _, ok) = rqtool(&["recognize", &data("routing.dl")]);
    assert!(ok);
    assert!(stdout.contains("GRQ?                  yes"), "{stdout}");
    assert!(stdout.contains("Route = TC(knows)"), "{stdout}");
}

#[test]
fn cq_commands() {
    let (stdout, _, ok) = rqtool(&["eval-cq", &data("social.graph"), &data("coworker_chain.cq")]);
    assert!(ok);
    assert!(stdout.contains("answer tuples"), "{stdout}");

    // Containment of a .cq file against itself: trivially contained.
    let (stdout, _, ok) = rqtool(&[
        "contain-cq",
        &data("coworker_chain.cq"),
        &data("coworker_chain.cq"),
    ]);
    assert!(ok);
    assert!(stdout.contains("Q1 ⊑ Q2: contained"), "{stdout}");
}

#[test]
fn serve_batch_command() {
    let (stdout, _, ok) = rqtool(&[
        "serve-batch",
        &data("social.graph"),
        &data("social.batch"),
        "--threads=2",
        "--cache-cap=16",
    ]);
    assert!(ok);
    assert!(stdout.contains("served 6 queries on 2 threads"), "{stdout}");
    assert!(stdout.contains("[miss"), "{stdout}");
    assert!(stdout.contains("[subsumed"), "{stdout}");
    assert!(stdout.contains("[deduped"), "{stdout}");
    assert!(stdout.contains("misses=1"), "{stdout}");
}

#[test]
fn serve_batch_respects_budgets() {
    // fuel=1 per worker cannot finish the broad query; the tool still
    // exits 0 and reports the stopped query with its partial counters.
    let (stdout, _, ok) = rqtool(&[
        "serve-batch",
        &data("social.graph"),
        &data("social.batch"),
        "--threads=2",
        "--fuel=1",
    ]);
    assert!(ok);
    assert!(stdout.contains("[stopped"), "{stdout}");
    assert!(stdout.contains("fuel exhausted"), "{stdout}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = rqtool(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (_, stderr, ok) = rqtool(&["eval", &data("social.graph"), "knows", "--trace"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --trace"), "{stderr}");
    let (_, stderr, ok) = rqtool(&["eval", "/nonexistent/file.graph", "a"]);
    assert!(!ok);
    assert!(stderr.contains("error[io]: cannot read"), "{stderr}");
}

#[test]
fn parse_failures_exit_nonzero_with_structured_errors() {
    // An inline query with a syntax error: structured error, no panic.
    let (_, stderr, ok) = rqtool(&["lint", "a ("]);
    assert!(!ok);
    assert!(stderr.contains("error[parse]: <query>:"), "{stderr}");
    // A malformed Datalog file, through `datalog` and `lint` alike.
    let dir = scratch_dir("parse_failures");
    let bad = dir.join("bad.dl");
    std::fs::write(&bad, "P(X, Y) :-").unwrap();
    let bad = bad.to_str().unwrap().to_owned();
    let (_, stderr, ok) = rqtool(&["datalog", &bad, "P", &data("social.graph")]);
    assert!(!ok);
    assert!(stderr.contains("error[parse]:"), "{stderr}");
    let (_, stderr, ok) = rqtool(&["lint", &bad]);
    assert!(!ok);
    assert!(stderr.contains("error[parse]:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fresh scratch directory under the target dir (unique per test).
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a directory of deliberately messy inputs spanning all three
/// linted languages and return it.
fn messy_inputs() -> std::path::PathBuf {
    let dir = scratch_dir("lint_inputs");
    std::fs::write(
        dir.join("queries.batch"),
        "# 2RPQs, one per line\na ∅ b\na a- a\na | a?\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("union.cq"),
        "Q(x, y) :- [a ∅](x, y).\n\
         Q(x, y) :- [a](x, m), [b](z, y).\n\
         Q(x, y) :- [a](x, y).\n\
         Q(x, y) :- [a](x, y).\n\
         Q(x, y) :- [a|b](x, y).\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("monadic.dl"),
        "Q(X) :- E(X, Y), P(Y).\n\
         Q(X) :- E(X, Y), Q(Y).\n\
         Bad(X, Y) :- E(X, Z).\n\
         Orphan(X, Y) :- E(X, Y).\n",
    )
    .unwrap();
    dir
}

#[test]
fn lint_reports_many_distinct_rules_and_json_round_trips() {
    let dir = messy_inputs();
    let dir_arg = dir.to_str().unwrap();

    // Text mode: findings print with rule ids; error-level findings make
    // the exit code non-zero.
    let (stdout, stderr, ok) = rqtool(&["lint", dir_arg, "--goal=Q"]);
    assert!(!ok, "error-level findings must fail the lint");
    assert!(stderr.contains("error[lint]:"), "{stderr}");
    assert!(stdout.contains("error[RQA001] empty-language"), "{stdout}");
    assert!(stdout.contains("warning[RQA004]"), "{stdout}");

    // JSON mode: the output is one array entry per linted file, each
    // re-parseable as a Report, with ≥ 8 distinct rule ids overall.
    let (stdout, _, ok) = rqtool(&["lint", dir_arg, "--goal=Q", "--json"]);
    assert!(!ok);
    let v = Json::parse(&stdout).expect("lint --json emits valid JSON");
    let entries = v.as_arr().expect("top level is an array");
    assert_eq!(entries.len(), 3, "{stdout}");
    let mut rule_ids = std::collections::BTreeSet::new();
    for entry in entries {
        assert!(entry.get("path").and_then(Json::as_str).is_some());
        let report = Report::from_json_text(&entry.emit()).expect("entry re-parses as a Report");
        // Full round-trip: emit → parse → emit is a fixed point.
        let emitted = report.to_json().emit();
        assert_eq!(Report::from_json_text(&emitted).unwrap(), report);
        for d in &report.diagnostics {
            rule_ids.insert(d.rule.clone());
        }
    }
    assert!(
        rule_ids.len() >= 8,
        "expected ≥ 8 distinct rule ids, got {rule_ids:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_clean_input_exits_zero() {
    // "Clean" means nothing warning-or-worse: the info-level ladder-route
    // note (RQA006 here — the query is one-way) always fires and must not
    // affect the exit code, even under --deny-warnings.
    let (stdout, _, ok) = rqtool(&["lint", "(a|b)* c", "--deny-warnings"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("info[RQA006] one-way-query"), "{stdout}");
    assert!(stdout.contains("1 finding(s)"), "{stdout}");
    // The shipped example data stays lint-clean (modulo the RQD006 info
    // classification) — this is the `examples/` batch-lint mode.
    let (stdout, _, ok) = rqtool(&[
        "lint",
        &format!("{}/examples/data", env!("CARGO_MANIFEST_DIR")),
    ]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("info[RQD006] regular-recursion"),
        "{stdout}"
    );
}

#[test]
fn lint_exits_quietly_when_stdout_closes_early() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rqtool"))
        .args([
            "lint",
            &format!("{}/examples/data", env!("CARGO_MANIFEST_DIR")),
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rqtool runs");
    // Close the read end before the report is written, as `| grep -q`
    // does once it has matched.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("rqtool exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn rq_commands() {
    let (stdout, _, ok) = rqtool(&["eval-rq", &data("social.graph"), &data("reach.rq")]);
    assert!(ok);
    assert!(stdout.contains("(alice, erin)"), "{stdout}");

    // TC(triangle) ⊑ TC(hop) is proved by induction, from text files.
    let (stdout, _, ok) = rqtool(&[
        "contain-rq",
        &data("triangle_closure.rq"),
        &data("reach.rq"),
    ]);
    assert!(ok);
    assert!(stdout.contains("Q1 ⊑ Q2: contained"), "{stdout}");
    assert!(stdout.contains("Q2 ⊑ Q1: not contained"), "{stdout}");
}

#[test]
fn explain_shows_the_sample_rung_refuting_a_probe() {
    // The cached `knows-` reads an inverse letter, so the probe skips the
    // Lemma 1 rung; `knows knows`, its first sampled word, is outside
    // fold(L(knows-)), and the exact stage never runs.
    let (stdout, _, ok) = rqtool(&[
        "explain",
        &data("social.graph"),
        "knows knows",
        "--warm=knows-",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("ladder.sample") && stdout.contains("words=1 verdict=not_contained"),
        "{stdout}"
    );
    assert!(!stdout.contains("ladder.full_check"), "{stdout}");
}
