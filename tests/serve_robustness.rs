//! Robustness tests for the rq-serve front-end, end to end over real
//! sockets: a drain racing a streaming batch, deadlines firing mid
//! evaluation, a query storm racing shutdown — and, when built with
//! `--features faults`, a seeded 10k-request chaos suite in which every
//! request must be answered or shed with no hang, leak, or abort.

use regular_queries::graph::generate;
use regular_queries::metrics::json::Json;
use regular_queries::prelude::*;
use regular_queries::serve::Client;
use std::time::{Duration, Instant};

fn engine_on(nodes: usize, edges_per_label: usize, seed: u64) -> Engine {
    let db = generate::random_gnm(nodes, edges_per_label, &["a", "b"], seed);
    Engine::new(
        db,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    )
}

/// A drain that lands in the middle of a `/stream` batch must answer
/// every line: the ones already admitted finish (or are cancelled into a
/// structured error), the rest are shed with `error[draining]` — nothing
/// is silently dropped and the connection still gets its full response.
#[test]
fn drain_racing_a_stream_batch_answers_every_line() {
    // Fuel far above any line's work, so a line ends only by completing,
    // by its deadline or by the drain, however fast the BFS runs; the
    // quota covers every line's up-front debit.
    let fuel = 1_000_000_000;
    let server = Server::start(
        engine_on(1000, 4000, 29),
        ServeConfig {
            workers: 2,
            drain_deadline: Duration::from_secs(2),
            request_fuel: fuel,
            quota: TenantQuota {
                fuel_per_sec: 1000 * fuel,
                burst_fuel: 1000 * fuel,
            },
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr().to_string();

    // 40 pairwise-distinct queries so the semantic cache cannot collapse
    // the batch into instant hits: each line does real evaluation work.
    let batch: String = (0..40)
        .map(|i| format!("a{}\n", " (a|b)".repeat(i % 10 + 1)))
        .collect();
    let streamer = std::thread::spawn(move || {
        let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
        client
            .request("POST", "/stream", &[], batch.as_bytes())
            .expect("the batch response must arrive even across a drain")
    });

    std::thread::sleep(Duration::from_millis(25));
    let report = server.drain();
    assert!(
        report.elapsed < Duration::from_secs(10),
        "drain must respect its deadline, took {:?}",
        report.elapsed
    );

    let resp = streamer.join().expect("stream thread");
    assert_eq!(resp.status, 200);
    let lines: Vec<Json> = resp
        .text()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("every line is a JSON object"))
        .collect();
    assert_eq!(lines.len(), 40, "one answer per submitted line");
    let mut ok = 0usize;
    let mut shed = 0usize;
    for line in &lines {
        if line.get("ok").map(|v| matches!(v, Json::Bool(true))) == Some(true) {
            ok += 1;
        } else {
            let code = line.get("error").and_then(Json::as_str).unwrap_or("?");
            assert!(
                matches!(code, "draining" | "deadline"),
                "unanswered lines must be structured sheds, got {code}"
            );
            shed += 1;
        }
    }
    assert_eq!(ok + shed, 40);
    assert!(ok >= 1, "lines admitted before the drain complete normally");
    assert!(shed >= 1, "lines after the drain are shed, not dropped");
    server.shutdown();
}

/// A job still waiting for an execution slot at the drain deadline is
/// swept: it answers `503 error[draining]` without running, while the job
/// holding the only slot has its evaluation cancelled.
#[test]
fn drain_deadline_sweeps_a_waiting_job() {
    // Fuel and quota far above the work, so only the drain ends it.
    let fuel = 1_000_000_000;
    let server = Server::start(
        engine_on(2500, 10_000, 31),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            drain_deadline: Duration::from_millis(100),
            request_timeout: Duration::from_secs(30),
            request_fuel: fuel,
            quota: TenantQuota {
                fuel_per_sec: 1000 * fuel,
                burst_fuel: 1000 * fuel,
            },
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr().to_string();
    // Two long queries: whichever takes the slot holds it past the drain
    // deadline, and the other waits for it.
    let clients: Vec<_> = ["(a|b)+", "(b|a)+ a"]
        .into_iter()
        .map(|query| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, Duration::from_secs(60)).expect("connect");
                client
                    .request("POST", "/query", &[], query.as_bytes())
                    .expect("every admitted job is answered")
            })
        })
        .collect();
    let mut health = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
    let waited = Instant::now();
    loop {
        let resp = health
            .request("GET", "/healthz", &[], b"")
            .expect("healthz");
        let body = Json::parse(&resp.text()).expect("json body");
        if body.get("queue_depth").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the second job never had to wait"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let report = server.drain();
    assert_eq!(report.swept, 1, "{report:?}");
    assert_eq!(report.cancelled, 1, "{report:?}");
    assert!(!report.clean, "{report:?}");
    let mut messages: Vec<String> = clients
        .into_iter()
        .map(|c| {
            let resp = c.join().expect("client thread");
            assert_eq!(resp.status, 503, "{}", resp.text());
            let body = Json::parse(&resp.text()).expect("json body");
            assert_eq!(body.get("error").and_then(Json::as_str), Some("draining"));
            body.get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    messages.sort();
    assert_eq!(
        messages,
        [
            "error[draining]: evaluation cancelled by drain",
            "error[draining]: server drained before this job ran",
        ]
    );
    server.shutdown();
}

/// A per-request deadline that fires while the product BFS is still
/// grinding must come back as `408` carrying the partial-progress
/// exhaustion report, and promptly — not after the full evaluation.
#[test]
fn deadline_mid_evaluation_returns_a_partial_report() {
    // Fuel far above the whole evaluation, so the deadline is the only
    // budget that can fire, however fast the BFS runs.
    let fuel = 1_000_000_000;
    let server = Server::start(
        engine_on(2500, 10_000, 31),
        ServeConfig {
            request_fuel: fuel,
            quota: TenantQuota {
                fuel_per_sec: fuel,
                burst_fuel: fuel,
            },
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client =
        Client::connect(&server.addr().to_string(), Duration::from_secs(30)).expect("connect");
    let start = Instant::now();
    let resp = client
        .request("POST", "/query", &[("X-Timeout-Ms", "20")], b"(a|b)+")
        .expect("request");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "a 20ms deadline must not take {:?}",
        start.elapsed()
    );
    assert_eq!(resp.status, 408, "{}", resp.text());
    let body = Json::parse(&resp.text()).expect("json body");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("deadline"));
    let ex = body.get("exhaustion").expect("408 carries the report");
    assert_eq!(ex.get("resource").and_then(Json::as_str), Some("deadline"));
    server.shutdown();
}

/// A storm of concurrent queries racing a drain: every request must get
/// *some* terminal outcome — a result, a structured shed, or a closed
/// connection after the server stopped — and the whole thing must wind
/// down within the drain deadline plus its cancellation grace.
#[test]
fn query_storm_racing_drain_always_terminates() {
    let server = Server::start(
        engine_on(600, 2400, 37),
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            drain_deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr().to_string();

    let mut clients = Vec::new();
    for t in 0..6 {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            let mut client = match Client::connect(&addr, Duration::from_secs(30)) {
                Ok(c) => c,
                Err(_) => return outcomes,
            };
            for i in 0..6 {
                let q = format!("a{}", " (a|b)".repeat((t + i) % 8 + 1));
                match client.request("POST", "/query", &[], q.as_bytes()) {
                    Ok(resp) => {
                        // 422 is the degradation ladder's terminal rung:
                        // the longer chains can spend the default request
                        // fuel, and must then carry the exhaustion report.
                        assert!(
                            matches!(resp.status, 200 | 408 | 422 | 429 | 503),
                            "unexpected status {}: {}",
                            resp.status,
                            resp.text()
                        );
                        if resp.status == 422 {
                            let body = Json::parse(&resp.text()).expect("json body");
                            assert_eq!(body.get("error").and_then(Json::as_str), Some("exhausted"));
                            let resource = body
                                .get("exhaustion")
                                .and_then(|ex| ex.get("resource"))
                                .and_then(Json::as_str);
                            assert!(resource.is_some(), "422 carries the report: {body:?}");
                        }
                        outcomes.push(resp.status);
                    }
                    // The server hung up after stopping — terminal too.
                    Err(_) => {
                        outcomes.push(0);
                        break;
                    }
                }
            }
            outcomes
        }));
    }

    std::thread::sleep(Duration::from_millis(40));
    let start = Instant::now();
    let report = server.drain();
    assert!(
        report.elapsed < Duration::from_secs(5),
        "drain overshot: {:?}",
        report.elapsed
    );
    let mut seen = 0usize;
    for c in clients {
        let outcomes = c.join().expect("client thread must terminate");
        seen += outcomes.len();
    }
    assert!(
        seen >= 6,
        "clients made progress before and during the drain"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "no client may hang past the drain"
    );
    server.shutdown();
}

/// Chaos suite (only with `--features faults`): deterministic seeded
/// injection of panics, delays, fuel starvation, and connection drops at
/// ≥1% per kind across a 10k-request run from 8 concurrent tenants.
/// Every request must be answered, shed, or visibly dropped by an
/// injected connection fault — and the server must end healthy.
#[cfg(feature = "faults")]
mod chaos {
    use super::*;
    use regular_queries::serve::FaultPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Injected job panics are expected here by the hundreds; silence
    /// their default-hook backtraces while forwarding everything else
    /// (a real test failure must still print).
    fn quiet_injected_panics() {
        static INSTALL: std::sync::Once = std::sync::Once::new();
        INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.contains("injected fault") {
                    prev(info);
                }
            }));
        });
    }

    #[derive(Default)]
    struct Tally {
        ok: AtomicUsize,
        shed: AtomicUsize,
        exhausted: AtomicUsize,
        internal: AtomicUsize,
        dropped: AtomicUsize,
        other: AtomicUsize,
    }

    #[test]
    fn chaos_ten_thousand_requests_always_answer_or_shed() {
        quiet_injected_panics();
        let plan = FaultPlan {
            seed: 0xC0FFEE,
            panic_ppm: 10_000, // 1% job panics / connection drops
            delay_ppm: 10_000, // 1% injected 1ms stalls
            delay: Duration::from_millis(1),
            starve_ppm: 10_000, // 1% fuel starvation (forces 422s)
        };
        assert!(regular_queries::serve::faults::compiled());
        let server = Server::start(
            engine_on(60, 240, 41),
            ServeConfig {
                workers: 4,
                queue_capacity: 64,
                // The chaos run is about fault handling, not quotas: give
                // the tenants enough fuel that admission never throttles.
                quota: TenantQuota {
                    fuel_per_sec: 1_000_000_000_000,
                    burst_fuel: 1_000_000_000_000,
                },
                faults: plan,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.addr().to_string();
        let queries = ["a+", "(a|b)+", "b+", "a b- a", "(a|b)* a"];

        const THREADS: usize = 8;
        const PER_THREAD: usize = 1250;
        let tally = Arc::new(Tally::default());
        let start = Instant::now();
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let addr = addr.clone();
            let tally = Arc::clone(&tally);
            handles.push(std::thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
                for i in 0..PER_THREAD {
                    let q = queries[(t + i) % queries.len()];
                    match client.request("POST", "/query", &[("X-Tenant", &tenant)], q.as_bytes()) {
                        Ok(resp) => {
                            let counter = match resp.status {
                                200 => &tally.ok,
                                429 | 503 => &tally.shed,
                                408 | 422 => &tally.exhausted,
                                500 => &tally.internal,
                                _ => &tally.other,
                            };
                            counter.fetch_add(1, Ordering::Relaxed);
                            if resp.status == 500 {
                                assert!(
                                    resp.text().contains("error[internal]"),
                                    "contained panics must be structured: {}",
                                    resp.text()
                                );
                            }
                        }
                        Err(_) => {
                            // An injected I/O fault dropped the connection;
                            // that request is visibly lost, not hung.
                            tally.dropped.fetch_add(1, Ordering::Relaxed);
                            while client.reconnect().is_err() {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no chaos client may die");
        }

        let (ok, shed, exhausted, internal, dropped, other) = (
            tally.ok.load(Ordering::Relaxed),
            tally.shed.load(Ordering::Relaxed),
            tally.exhausted.load(Ordering::Relaxed),
            tally.internal.load(Ordering::Relaxed),
            tally.dropped.load(Ordering::Relaxed),
            tally.other.load(Ordering::Relaxed),
        );
        let total = ok + shed + exhausted + internal + dropped + other;
        assert_eq!(
            total,
            THREADS * PER_THREAD,
            "every request accounted for: ok={ok} shed={shed} exhausted={exhausted} \
             internal={internal} dropped={dropped} other={other}"
        );
        assert_eq!(other, 0, "no unexpected status codes under chaos");
        assert!(
            ok >= total * 8 / 10,
            "most requests succeed, got {ok}/{total}"
        );
        assert!(
            internal >= 1,
            "1% pool-panic injection over 10k requests must surface contained panics"
        );
        assert!(
            dropped >= 1,
            "1% connection-fault injection over 10k requests must drop connections"
        );
        assert!(
            start.elapsed() < Duration::from_secs(300),
            "the chaos run may be slow but must not wedge"
        );

        // The storm is over: the server is still healthy, nothing leaked.
        let mut probe = Client::connect(&addr, Duration::from_secs(10)).expect("reconnect");
        let health = probe.request("GET", "/healthz", &[], b"").expect("healthz");
        assert_eq!(health.status, 200);
        let body = Json::parse(&health.text()).expect("json");
        assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(body.get("queue_depth").and_then(Json::as_u64), Some(0));

        let report = server.shutdown();
        assert!(
            report.clean,
            "no in-flight work left to sweep after the storm"
        );
        assert!(report.metrics.contains("rq_serve_faults_injected_total"));
        assert!(report.metrics.contains("rq_serve_job_panics_total"));
    }

    /// Panic isolation, directly: at a 50% pool-panic rate, the
    /// panicking requests must each come back `error[internal]` while
    /// their neighbors — in the same execution slots, on the same
    /// connection — keep completing normally, and the server stays healthy throughout.
    #[test]
    fn panicking_queries_yield_internal_while_neighbors_complete() {
        quiet_injected_panics();
        let plan = FaultPlan {
            seed: 7,
            panic_ppm: 500_000,
            delay_ppm: 0,
            delay: Duration::ZERO,
            starve_ppm: 0,
        };
        let server = Server::start(
            engine_on(40, 160, 43),
            ServeConfig {
                workers: 2,
                quota: TenantQuota {
                    fuel_per_sec: 1_000_000_000_000,
                    burst_fuel: 1_000_000_000_000,
                },
                faults: plan,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");

        // The 50% panic rate also fires at the I/O site (dropping the
        // connection), on every endpoint; reconnect and retry until an
        // actual HTTP response arrives, so every slot below is a served
        // request.
        let mut send = |method: &str, path: &str, body: &[u8]| loop {
            match client.request(method, path, &[], body) {
                Ok(resp) => break resp,
                Err(_) => {
                    while client.reconnect().is_err() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        };
        let (mut ok, mut internal) = (0usize, 0usize);
        for _ in 0..60 {
            let resp = send("POST", "/query", b"(a|b)+");
            match resp.status {
                200 => ok += 1,
                500 => {
                    assert!(resp.text().contains("error[internal]"), "{}", resp.text());
                    internal += 1;
                }
                other => panic!("unexpected status {other}: {}", resp.text()),
            }
        }
        assert!(ok >= 5, "neighbors of panicking queries complete, ok={ok}");
        assert!(
            internal >= 5,
            "injected panics are contained, internal={internal}"
        );

        let health = send("GET", "/healthz", b"");
        assert_eq!(health.status, 200);
        let body = Json::parse(&health.text()).expect("json");
        assert_eq!(
            body.get("status").and_then(Json::as_str),
            Some("ok"),
            "50% worker panics must not take the server down"
        );
        let report = server.shutdown();
        assert!(report.metrics.contains("rq_serve_job_panics_total"));
    }

    /// The flight recorder under chaos: a seeded fault storm (panics,
    /// stalls, fuel starvation) must leave `/tracez` well-formed — every
    /// entry a JSON object with a parseable trace id and an outcome —
    /// and `/slowz` must retain the injected-slow and errored requests,
    /// including a deterministically starved 422 whose echoed trace id
    /// is findable there afterwards.
    #[test]
    fn flight_recorder_stays_well_formed_under_chaos() {
        use regular_queries::metrics::span::parse_trace_id;
        quiet_injected_panics();
        let plan = FaultPlan {
            seed: 0xABAD1DEA,
            panic_ppm: 20_000,
            delay_ppm: 20_000,
            delay: Duration::from_millis(1),
            starve_ppm: 20_000,
        };
        let server = Server::start(
            engine_on(40, 160, 47),
            ServeConfig {
                workers: 2,
                quota: TenantQuota {
                    fuel_per_sec: 1_000_000_000_000,
                    burst_fuel: 1_000_000_000_000,
                },
                faults: plan,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
        let queries = ["a+", "(a|b)+", "b+", "a b- a"];
        for i in 0..300 {
            let q = queries[i % queries.len()];
            if client.request("POST", "/query", &[], q.as_bytes()).is_err() {
                while client.reconnect().is_err() {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        // One deterministic starvation (no injection needed): X-Fuel: 1
        // exhausts every attempt, so this request's trace must land in
        // the slow/errored retention ring.
        let starved = loop {
            match client.request("POST", "/query", &[("X-Fuel", "1")], b"(a|b)* a") {
                Ok(resp) => break resp,
                Err(_) => {
                    while client.reconnect().is_err() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        };
        assert_eq!(starved.status, 422, "{}", starved.text());
        let starved_tid = Json::parse(&starved.text())
            .expect("json")
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("422 bodies carry a trace id")
            .to_string();

        for path in ["/tracez", "/slowz"] {
            let resp = loop {
                match client.request("GET", path, &[], b"") {
                    Ok(resp) => break resp,
                    Err(_) => {
                        while client.reconnect().is_err() {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            };
            assert_eq!(resp.status, 200);
            let body = Json::parse(&resp.text())
                .unwrap_or_else(|e| panic!("{path} must stay well-formed under chaos: {e}"));
            let Some(Json::Arr(traces)) = body.get("traces") else {
                panic!("{path} carries a traces array");
            };
            assert!(!traces.is_empty(), "{path} is non-empty after 300 requests");
            for t in traces {
                let tid = t.get("trace_id").and_then(Json::as_str).expect("trace_id");
                assert!(parse_trace_id(tid).is_some(), "malformed id {tid:?}");
                assert!(t.get("outcome").and_then(Json::as_str).is_some());
                assert!(t.get("duration_us").and_then(Json::as_u64).is_some());
            }
            if path == "/slowz" {
                let kept = traces
                    .iter()
                    .find(|t| t.get("trace_id").and_then(Json::as_str) == Some(&starved_tid))
                    .expect("the starved 422 is retained in /slowz");
                assert_eq!(
                    kept.get("outcome").and_then(Json::as_str),
                    Some("error[exhausted]")
                );
            }
        }
        server.shutdown();
    }
}
