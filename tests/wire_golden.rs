//! Byte-exact golden tests for the JSON the workspace puts on the wire:
//! `/query` bodies (a 200, a 422, and an `{"explain": true}` envelope),
//! `FinishedTrace::to_json`, and `rqtool lint --json`. Consumers match
//! substrings of these bodies, so a refactor of the JSON emitter must not
//! change a single byte. Only values that vary run to run — trace ids,
//! wall-clock timestamps and measured durations — are masked.

use regular_queries::graph::generate;
use regular_queries::metrics::span::{FinishedTrace, SpanRecord};
use regular_queries::prelude::*;
use regular_queries::serve::http::ClientResponse;
use regular_queries::serve::Client;
use std::process::Command;
use std::time::Duration;

/// Mask a response body: its trace id wherever it appears, and every
/// measured time — a `…_us`/`…_ms` field or a rendered `N µs`.
fn mask(resp: &ClientResponse) -> String {
    let trace_id = resp.header("x-rq-trace-id").expect("trace id header");
    let body = resp.text().replace(trace_id, "_");
    let mut out = String::with_capacity(body.len());
    let mut rest = body.as_str();
    while let Some(i) = rest.find(|c: char| c.is_ascii_digit()) {
        let end = rest[i..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(rest.len(), |n| i + n);
        let (before, after) = (&rest[..i], &rest[end..]);
        let timed =
            before.ends_with("_us\":") || before.ends_with("_ms\":") || after.starts_with(" µs");
        out.push_str(before);
        out.push_str(if timed { "_" } else { &rest[i..end] });
        rest = after;
    }
    out.push_str(rest);
    out
}

fn golden_server() -> Server {
    let engine = Engine::new(
        generate::chain(4, "a"),
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    );
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    Server::start(engine, config).expect("server starts")
}

#[test]
fn query_bodies_are_byte_exact() {
    let server = golden_server();
    let mut client =
        Client::connect(&server.addr().to_string(), Duration::from_secs(30)).expect("connect");

    let ok = client
        .request("POST", "/query", &[], b"a+")
        .expect("request");
    assert_eq!(ok.status, 200);
    assert_eq!(
        mask(&ok),
        concat!(
            r#"{"id":1,"ok":true,"disposition":"miss","pairs":6,"#,
            r#""sample":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]],"truncated":false,"degraded":false,"#,
            r#""elapsed_us":_,"trace_id":"_"}"#,
        )
    );

    let exhausted = client
        .request("POST", "/query", &[("X-Fuel", "3")], b"(a|b)*")
        .expect("request");
    assert_eq!(exhausted.status, 422);
    assert_eq!(
        mask(&exhausted),
        concat!(
            r#"{"id":2,"ok":false,"error":"exhausted","message":"error[exhausted]: evaluation budget exhausted","#,
            r#""exhaustion":{"resource":"fuel","spent":4,"limit":3,"fuel_spent":4,"#,
            r#""states_constructed":0,"tuples_derived":0,"elapsed_ms":_},"trace_id":"_"}"#,
        )
    );

    // An exact cache hit on the first query keeps the span tree short.
    let explained = client
        .request(
            "POST",
            "/query",
            &[],
            br#"{"query": "a+", "explain": true}"#,
        )
        .expect("request");
    assert_eq!(explained.status, 200);
    assert_eq!(
        mask(&explained),
        concat!(
            r#"{"id":3,"ok":true,"disposition":"exact","pairs":6,"#,
            r#""sample":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]],"truncated":false,"#,
            r#""degraded":false,"elapsed_us":_,"trace_id":"_","#,
            r#""trace":{"trace_id":"_","started_at_unix_us":_,"duration_us":_,"#,
            r#""outcome":"ok","detail":"a+","dropped_spans":0,"spans":["#,
            r#"{"id":1,"name":"serve.execute","start_us":_,"duration_us":_,"fields":{"status":"200"}},"#,
            r#"{"id":2,"parent":1,"name":"engine.run","start_us":_,"duration_us":_,"fields":{"disposition":"exact","pairs":"6"}},"#,
            r#"{"id":3,"parent":2,"name":"analyze.preflight","start_us":_,"duration_us":_,"fields":{"action":"unchanged"}},"#,
            r#"{"id":4,"parent":2,"name":"cache.lookup","start_us":_,"duration_us":_,"fields":{"disposition":"exact"}}]},"#,
            r#""profile":"trace _ (_ µs, ok) — a+\n  serve.execute (_ µs) status=200\n"#,
            r#"    engine.run (_ µs) disposition=exact pairs=6\n      analyze.preflight (_ µs) action=unchanged\n"#,
            r#"      cache.lookup (_ µs) disposition=exact\n"}"#,
        )
    );
    server.shutdown();
}

#[test]
fn finished_trace_json_is_byte_exact() {
    let trace = FinishedTrace {
        trace_id: 0x00c0_ffee_1234_abcd,
        started_at_unix_us: 1_700_000_000_000_000,
        duration_us: 42,
        outcome: "error[exhausted]".to_string(),
        detail: "say \"hi\"\\\n\t\r\u{1}µ⁻".to_string(),
        dropped_spans: 3,
        spans: vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "engine.run",
                start_us: 0,
                duration_us: 40,
                fields: vec![
                    ("disposition", "miss".to_string()),
                    ("q", "a\"b".to_string()),
                ],
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "frontier.bfs",
                start_us: 5,
                duration_us: 30,
                fields: Vec::new(),
            },
        ],
    };
    assert_eq!(
        trace.to_json(),
        concat!(
            r#"{"trace_id":"00c0ffee1234abcd","started_at_unix_us":1700000000000000,"duration_us":42,"outcome":"error[exhausted]","detail":"say \"hi\"\\\n\t\r\u0001µ⁻","#,
            r#""dropped_spans":3,"spans":["#,
            r#"{"id":1,"name":"engine.run","start_us":0,"duration_us":40,"fields":{"disposition":"miss","q":"a\"b"}},"#,
            r#"{"id":2,"parent":1,"name":"frontier.bfs","start_us":5,"duration_us":30}]}"#,
        )
    );
}

#[test]
fn lint_json_report_is_byte_exact() {
    let out = Command::new(env!("CARGO_BIN_EXE_rqtool"))
        .args(["lint", "a* a* | a", "--json"])
        .output()
        .expect("rqtool runs");
    assert!(out.status.success(), "warnings alone do not fail the lint");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            r#"[{"path":"<query>","diagnostics":["#,
            r#"{"rule":"RQA005","slug":"subsumed-union-branch","severity":"warning","message":"union branch #1 (`a`) is subsumed by branch #0 (`a*a*`)","#,
            r#""notes":["containment proven by the quick ladder (Lemma 1 for a one-way subsumer, Lemmas 2–4 otherwise); the engine's pre-flight drops such branches before cache keying"]},"#,
            r#"{"rule":"RQA006","slug":"one-way-query","severity":"info","message":"query is one-way: containment probes into it are decided by the ladder's Lemma 1 rung over its minimal DFA","#,
            r#""notes":["fold(L(Q)) = L(Q) for a one-way Q (Lemma 2), so Q1 ⊑ Q iff L(Q1) ⊆ L(Q)"]}]}]"#,
            "\n",
        )
    );
    // A diagnostic with a source span.
    let out = Command::new(env!("CARGO_BIN_EXE_rqtool"))
        .args(["lint", "a b-", "--json"])
        .output()
        .expect("rqtool runs");
    assert!(out.status.success(), "info findings do not fail the lint");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            r#"[{"path":"<query>","diagnostics":["#,
            r#"{"rule":"RQA007","slug":"inverse-letter","severity":"info","message":"query reads the inverse letter `b-`: containment probes into it meet the sample rung first, and only unrefuted ones reach the exact fold/2NFA stage","#,
            r#""span":{"line":1,"column":3},"#,
            r#""notes":["Q1 ⊑ Q iff L(Q1) ⊆ fold(L(Q)) (Lemma 2): a short word of L(Q1) outside fold(L(Q)) refutes it in polynomial time, otherwise it is decided over the Lemma 3 fold 2NFA"]}]}]"#,
            "\n",
        )
    );
}
