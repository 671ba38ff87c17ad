//! The front-end proper: admission, execution, recovery, and drain.
//!
//! One accept loop feeds per-connection handler threads; handlers admit
//! requests (tenant bucket, then the bounded [`Gate`]) and run each
//! admitted job themselves once the gate grants it a slot: one evaluation
//! against the engine under `catch_unwind` and per-request budgets.
//! Every admitted job is answered exactly once — by its own run, or, when
//! the drain deadline sweeps it while it still waits, with
//! `error[draining]`. The failure ladder is:
//! shed at admission (429/503) → deadline or drain (408/503) → exhaustion
//! report of the one evaluation (422) → contained panic (500) — the
//! process itself never goes down with a request.

use crate::bucket::{Admission, TenantBuckets};
use crate::config::{ConfigError, ServeConfig};
use crate::faults::{Fault, FaultSite};
use crate::gate::{Gate, Refusal, Ticket};
use crate::http::{read_request, write_response, HttpError, Request};
use rq_automata::governor::{EngineError, Exhaustion, Limits, Resource};
use rq_engine::Engine;
use rq_graph::Delta;
use rq_metrics::json::Json;
use rq_metrics::recorder::Recorder;
use rq_metrics::span::{self, FinishedTrace, TraceContext};
use rq_storage::StorageHandle;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on admitted-but-unpolled async jobs.
const MAX_ASYNC_JOBS: usize = 1024;
/// One admitted request, holding its place in the gate's line.
struct Job {
    id: u64,
    text: String,
    fuel: u64,
    deadline: Instant,
    cancel: Arc<AtomicBool>,
    ticket: Ticket,
    /// The request's trace context — every job has one (its id is echoed
    /// in the response) even when head sampling skips span capture.
    trace: Arc<TraceContext>,
    /// Whether spans are captured for this request (head sampling, forced
    /// on by `explain`).
    sampled: bool,
    /// Whether the response should inline the finished span tree and the
    /// rendered per-stage profile.
    explain: bool,
}

/// What a finished drain observed.
#[derive(Debug)]
pub struct DrainReport {
    /// Jobs still waiting at the drain deadline, answered `error[draining]`.
    pub swept: usize,
    /// Jobs in flight at the drain deadline whose cancellation flag was
    /// raised.
    pub cancelled: usize,
    /// Whether every admitted job finished before the deadline.
    pub clean: bool,
    /// Wall-clock time the drain took.
    pub elapsed: Duration,
    /// Final metrics exposition, rendered after the last job was answered
    /// (the "final flush" a scraper would otherwise miss).
    pub metrics: String,
}

struct Inner {
    cfg: ServeConfig,
    engine: Arc<Engine>,
    /// The persistent store behind `/ingest`, when the server was started
    /// over one (`rqtool serve --store=DIR`). Deltas are fsync'd here
    /// *before* they are applied to the engine, so an acknowledged ingest
    /// survives a crash.
    store: Option<Mutex<StorageHandle>>,
    /// Bounded flight recorder backing `/tracez`, `/slowz`, and `explain`.
    recorder: Recorder,
    gate: Gate,
    buckets: TenantBuckets,
    /// Cancellation flags of jobs currently executing, by job id.
    inflight: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    /// Async (`/submit`) jobs awaiting `/poll`, by job id: `None` until
    /// the job's response is ready.
    async_jobs: Mutex<HashMap<u64, Option<(u16, String)>>>,
    next_id: AtomicU64,
    /// Monotone fault-decision sequence (shared across sites).
    fault_seq: AtomicU64,
    open_conns: AtomicUsize,
    draining: AtomicBool,
    stopped: AtomicBool,
    started: Instant,
}

/// A running front-end. Dropping the handle does **not** stop the server;
/// call [`Server::drain`] (or [`Server::shutdown`]) for an orderly exit.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Validate `cfg`, bind the listener, and start the accept loop.
    pub fn start(engine: Engine, cfg: ServeConfig) -> Result<Server, ConfigError> {
        Server::start_with_store(engine, cfg, None)
    }

    /// [`start`](Server::start), backed by a persistent store: `/ingest`
    /// appends to the store's delta log (fsync = acknowledgment) before
    /// patching the live engine, and compacts once the log crosses the
    /// configured threshold. The engine's epoch is seeded from the store
    /// so cache keys and metrics line up across restarts.
    pub fn start_with_store(
        engine: Engine,
        cfg: ServeConfig,
        store: Option<StorageHandle>,
    ) -> Result<Server, ConfigError> {
        cfg.validate()?;
        if let Some(store) = &store {
            engine.set_epoch(store.epoch());
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| ConfigError {
            message: format!("cannot bind {}: {e}", cfg.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| ConfigError {
            message: format!("cannot resolve bound address: {e}"),
        })?;
        listener.set_nonblocking(true).map_err(|e| ConfigError {
            message: format!("cannot set the listener non-blocking: {e}"),
        })?;
        let inner = Arc::new(Inner {
            recorder: Recorder::new(cfg.tracing.clone()),
            gate: Gate::new(cfg.workers, cfg.queue_capacity),
            buckets: TenantBuckets::new(cfg.quota.clone()),
            inflight: Mutex::new(HashMap::new()),
            async_jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            fault_seq: AtomicU64::new(0),
            open_conns: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            started: Instant::now(),
            engine: Arc::new(engine),
            store: store.map(Mutex::new),
            cfg,
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("rq-serve-accept".to_string())
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawn accept loop")
        };
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// The request flight recorder (`/tracez` / `/slowz` backing store).
    pub fn recorder(&self) -> &Recorder {
        &self.inner.recorder
    }

    /// Whether a drain has started.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Gracefully drain: stop admitting, let admitted jobs finish, and at
    /// `drain_deadline` answer every job still waiting with
    /// `error[draining]` and cancel in-flight evaluations. Idempotent; blocks
    /// until the drain completes and returns what it observed.
    pub fn drain(&self) -> DrainReport {
        drain(&self.inner)
    }

    /// Drain, then join every thread the server owns.
    pub fn shutdown(mut self) -> DrainReport {
        let report = self.drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Handler threads are detached; give them one idle-timeout tick to
        // notice `stopped` and hang up.
        let waited = Instant::now();
        while self.inner.open_conns.load(Ordering::SeqCst) > 0
            && waited.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        report
    }
}

fn drain(inner: &Arc<Inner>) -> DrainReport {
    let start = Instant::now();
    if inner.draining.swap(true, Ordering::SeqCst) {
        // A concurrent drain is (or was) already running; wait it out.
        while !inner.stopped.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        return DrainReport {
            swept: 0,
            cancelled: 0,
            clean: true,
            elapsed: start.elapsed(),
            metrics: rq_metrics::global().render(),
        };
    }
    metrics::draining(true);
    inner.gate.drain();
    // Phase 1: let waiting and in-flight jobs finish on their own.
    let deadline = start + inner.cfg.drain_deadline;
    while Instant::now() < deadline && !inner.gate.is_idle() {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Phase 2 (deadline): release whatever still waits (each such job
    // answers its own `error[draining]`) and cancel whatever still runs.
    // Nothing is abandoned.
    let swept = inner.gate.sweep();
    for _ in 0..swept {
        metrics::shed("draining");
    }
    let cancelled = {
        let inflight = inner.inflight.lock().unwrap_or_else(|e| e.into_inner());
        for flag in inflight.values() {
            flag.store(true, Ordering::SeqCst);
        }
        inflight.len()
    };
    // Wait (briefly) for cancelled jobs to report in, then stop.
    let grace = Instant::now() + Duration::from_secs(2);
    while Instant::now() < grace && !inner.gate.is_idle() {
        std::thread::sleep(Duration::from_millis(5));
    }
    inner.stopped.store(true, Ordering::SeqCst);
    metrics::queue_depth(0);
    DrainReport {
        swept,
        cancelled,
        clean: swept == 0 && cancelled == 0,
        elapsed: start.elapsed(),
        metrics: rq_metrics::global().render(),
    }
}

// ---------------------------------------------------------------------------
// Accept loop and connection handling
// ---------------------------------------------------------------------------

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        if inner.stopped.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.open_conns.load(Ordering::SeqCst) >= inner.cfg.max_connections {
                    metrics::shed("connections");
                    let mut stream = stream;
                    let _ = write_response(
                        &mut stream,
                        503,
                        "application/json",
                        &[("Retry-After", "1".to_string())],
                        error_body(0, "overload", "connection limit reached", vec![]).as_bytes(),
                        true,
                    );
                    continue;
                }
                inner.open_conns.fetch_add(1, Ordering::SeqCst);
                let inner = Arc::clone(inner);
                let _ = std::thread::Builder::new()
                    .name("rq-serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(&inner, stream);
                        inner.open_conns.fetch_sub(1, Ordering::SeqCst);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.cfg.idle_timeout));
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(req) => req,
            Err(HttpError::Closed) => return,
            Err(HttpError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle keep-alive tick: hang up once the server stopped so
                // shutdown is not held open by parked clients.
                if inner.stopped.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                // Malformed or oversized: answer once, then hang up.
                let status = match e {
                    HttpError::TooLarge(_) => 413,
                    _ => 400,
                };
                let body = error_body(0, "invalid", &e.to_string(), vec![]);
                let stream = reader.get_mut();
                let _ = write_response(
                    stream,
                    status,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    true,
                );
                return;
            }
        };
        // Injected I/O fault: delay the exchange or drop the connection.
        match decide_fault(inner, FaultSite::Io) {
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::Panic) => return, // simulated connection loss
            _ => {}
        }
        let close = req.wants_close();
        let resp = dispatch(inner, &req);
        let stream = reader.get_mut();
        if write_response(
            stream,
            resp.status,
            resp.content_type,
            &resp.headers,
            resp.body.as_bytes(),
            close,
        )
        .is_err()
            || close
        {
            return;
        }
    }
}

struct Resp {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Resp {
    fn json(status: u16, body: String) -> Resp {
        Resp {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    fn with_retry_after(mut self, after: Duration) -> Resp {
        let secs = after.as_secs_f64().ceil().max(1.0) as u64;
        self.headers.push(("Retry-After", secs.to_string()));
        self
    }
}

fn dispatch(inner: &Arc<Inner>, req: &Request) -> Resp {
    let start = Instant::now();
    let endpoint = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => "query",
        ("POST", "/submit") => "submit",
        ("GET", "/poll") => "poll",
        ("POST", "/stream") => "stream",
        ("POST", "/lint") => "lint",
        ("POST", "/ingest") => "ingest",
        ("GET", "/metrics") => "metrics",
        ("GET", "/tracez") => "tracez",
        ("GET", "/slowz") => "slowz",
        ("GET", "/healthz") => "healthz",
        ("POST", "/drainz") => "drainz",
        _ => "other",
    };
    metrics::request(endpoint);
    let resp = match endpoint {
        "query" => query_sync(inner, req),
        "submit" => submit_async(inner, req),
        "poll" => poll(inner, req),
        "stream" => stream(inner, req),
        "lint" => lint(inner, req),
        "ingest" => ingest(inner, req),
        "metrics" => Resp {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: rq_metrics::global().render(),
        },
        "tracez" => tracez(inner, false),
        "slowz" => tracez(inner, true),
        "healthz" => healthz(inner),
        "drainz" => drainz(inner),
        _ => Resp::json(404, error_body(0, "invalid", "no such endpoint", vec![])),
    };
    metrics::latency(start.elapsed());
    resp
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

/// Parse the per-request knobs: tenants identify themselves with
/// `X-Tenant`; `X-Fuel` and `X-Timeout-Ms` may lower (never raise) the
/// configured budgets.
fn request_knobs(inner: &Inner, req: &Request) -> (String, u64, Duration) {
    let tenant = req.header("x-tenant").unwrap_or("anonymous").to_string();
    let fuel = req
        .header("x-fuel")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&f| f > 0)
        .map_or(inner.cfg.request_fuel, |f| f.min(inner.cfg.request_fuel));
    let timeout = req
        .header("x-timeout-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map_or(inner.cfg.request_timeout, |ms| {
            Duration::from_millis(ms).min(inner.cfg.request_timeout)
        });
    (tenant, fuel, timeout)
}

/// A query body is either the raw query text or a JSON envelope
/// `{"query": "...", "explain": true}`. The envelope opts the request
/// into the inline span profile; anything that does not parse as such an
/// object is treated as raw query text (and judged by the query parser).
fn parse_query_body(text: &str) -> (String, bool) {
    if text.trim_start().starts_with('{') {
        if let Ok(body) = Json::parse(text) {
            if let Some(q) = body.get("query").and_then(Json::as_str) {
                let explain = body.get("explain") == Some(&Json::Bool(true));
                return (q.to_string(), explain);
            }
        }
    }
    (text.to_string(), false)
}

/// Admit one query body: tenant bucket, then the gate. On success the job
/// holds its place in the gate's line and is returned for [`serve`]; on
/// shed, the structured refusal. Every admitted job gets a trace context
/// — fresh, or adopted from a well-formed `X-RQ-Trace-Id` header — whose
/// id the response echoes; span capture is head-sampled (forced on by
/// `explain`).
fn admit(inner: &Arc<Inner>, req: &Request, text: &str, explain: bool) -> Result<Job, Resp> {
    let (tenant, fuel, timeout) = request_knobs(inner, req);
    if text.trim().is_empty() {
        return Err(Resp::json(
            400,
            error_body(0, "invalid", "empty query body", vec![]),
        ));
    }
    if inner.draining.load(Ordering::SeqCst) {
        metrics::shed("draining");
        return Err(Resp::json(
            503,
            error_body(0, "draining", "server is draining", vec![]),
        ));
    }
    match inner.buckets.admit(&tenant, fuel, Instant::now()) {
        Admission::Admitted => {}
        Admission::Throttled(after) => {
            metrics::shed("quota");
            return Err(Resp::json(
                429,
                error_body(
                    0,
                    "quota",
                    &format!("tenant {tenant:?} is over its fuel quota"),
                    vec![("retry_after_ms", num(after.as_millis() as u64))],
                ),
            )
            .with_retry_after(after));
        }
    }
    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    let ticket = match inner.gate.enter() {
        Ok(ticket) => ticket,
        Err(Refusal::Full { depth }) => {
            metrics::shed("queue");
            // Retry-After derived from the backlog: the time this many
            // waiting jobs need at worst-case service time per slot.
            let per_job = inner.cfg.request_timeout.as_secs_f64();
            let secs = (depth as f64 * per_job / inner.cfg.workers.max(1) as f64).clamp(1.0, 30.0);
            return Err(Resp::json(
                429,
                error_body(
                    id,
                    "overload",
                    "submission queue is full",
                    vec![("queue_depth", num(depth as u64))],
                ),
            )
            .with_retry_after(Duration::from_secs_f64(secs)));
        }
        Err(Refusal::Draining) => {
            metrics::shed("draining");
            return Err(Resp::json(
                503,
                error_body(id, "draining", "server is draining", vec![]),
            ));
        }
    };
    metrics::queue_depth(inner.gate.depth());
    let trace = match req.header("x-rq-trace-id").and_then(span::parse_trace_id) {
        Some(tid) => TraceContext::with_id(tid),
        None => TraceContext::start(),
    };
    Ok(Job {
        id,
        text: text.to_string(),
        fuel,
        deadline: Instant::now() + timeout,
        cancel: Arc::new(AtomicBool::new(false)),
        ticket,
        sampled: explain || inner.recorder.sample(),
        explain,
        trace,
    })
}

fn query_sync(inner: &Arc<Inner>, req: &Request) -> Resp {
    let text = match req.body_utf8() {
        Ok(t) => t.to_string(),
        Err(e) => return Resp::json(400, error_body(0, "invalid", &e.to_string(), vec![])),
    };
    let (query, explain) = parse_query_body(&text);
    let job = match admit(inner, req, &query, explain) {
        Ok(job) => job,
        Err(resp) => return resp,
    };
    let (status, body) = serve(inner, &job);
    let mut resp = Resp::json(status, body);
    resp.headers.push(("X-RQ-Trace-Id", job.trace.id_hex()));
    resp
}

fn submit_async(inner: &Arc<Inner>, req: &Request) -> Resp {
    let text = match req.body_utf8() {
        Ok(t) => t.to_string(),
        Err(e) => return Resp::json(400, error_body(0, "invalid", &e.to_string(), vec![])),
    };
    {
        let jobs = inner.async_jobs.lock().unwrap_or_else(|e| e.into_inner());
        if jobs.len() >= MAX_ASYNC_JOBS {
            metrics::shed("queue");
            return Resp::json(
                429,
                error_body(0, "overload", "too many unpolled async jobs", vec![]),
            )
            .with_retry_after(Duration::from_secs(1));
        }
    }
    let (query, explain) = parse_query_body(&text);
    match admit(inner, req, &query, explain) {
        Ok(job) => {
            let id = job.id;
            inner
                .async_jobs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id, None);
            // The job runs on a thread of its own; the gate bounds how many
            // such threads exist. Shared, so that if no thread can be
            // spawned this handler serves it rather than strand its ticket.
            let job = Arc::new(job);
            let spawned = {
                let (inner, job) = (Arc::clone(inner), Arc::clone(&job));
                std::thread::Builder::new()
                    .name("rq-serve-submit".to_string())
                    .spawn(move || serve_async(&inner, &job))
            };
            if spawned.is_err() {
                serve_async(inner, &job);
            }
            Resp::json(
                202,
                Json::Obj(vec![
                    ("id".to_string(), num(id)),
                    ("done".to_string(), Json::Bool(false)),
                ])
                .emit(),
            )
        }
        Err(resp) => resp,
    }
}

/// Serve a `/submit` job and leave its response for `/poll`.
fn serve_async(inner: &Arc<Inner>, job: &Job) {
    let resp = serve(inner, job);
    if let Some(slot) = inner
        .async_jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_mut(&job.id)
    {
        *slot = Some(resp);
    }
}

fn poll(inner: &Arc<Inner>, req: &Request) -> Resp {
    let id = match req.query_param("id").and_then(|v| v.parse::<u64>().ok()) {
        Some(id) => id,
        None => {
            return Resp::json(
                400,
                error_body(0, "invalid", "poll requires ?id=<job id>", vec![]),
            )
        }
    };
    let mut jobs = inner.async_jobs.lock().unwrap_or_else(|e| e.into_inner());
    match jobs.remove(&id) {
        None => Resp::json(404, error_body(id, "invalid", "unknown job id", vec![])),
        // Delivery is one-shot: the entry is dropped once the result has
        // been handed out, so the async table cannot leak.
        Some(Some((status, body))) => Resp::json(status, body),
        Some(None) => {
            jobs.insert(id, None);
            Resp::json(
                202,
                Json::Obj(vec![
                    ("id".to_string(), num(id)),
                    ("done".to_string(), Json::Bool(false)),
                ])
                .emit(),
            )
        }
    }
}

/// JSON-lines batch: one query per input line, one result object per
/// output line, each line going through full admission independently — so
/// a drain or shed mid-batch answers the remaining lines structurally
/// instead of dropping them.
fn stream(inner: &Arc<Inner>, req: &Request) -> Resp {
    let text = match req.body_utf8() {
        Ok(t) => t.to_string(),
        Err(e) => return Resp::json(400, error_body(0, "invalid", &e.to_string(), vec![])),
    };
    let mut lines = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let line_resp = match admit(inner, req, line, false) {
            Ok(job) => serve(inner, &job).1,
            Err(resp) => resp.body,
        };
        lines.push(line_resp);
    }
    lines.push(String::new()); // trailing newline
    Resp {
        status: 200,
        content_type: "application/jsonl",
        headers: Vec::new(),
        body: lines.join("\n"),
    }
}

fn lint(inner: &Arc<Inner>, req: &Request) -> Resp {
    let text = match req.body_utf8() {
        Ok(t) => t,
        Err(e) => return Resp::json(400, error_body(0, "invalid", &e.to_string(), vec![])),
    };
    let q = match inner.engine.parse(text) {
        Ok(q) => q,
        Err(e) => return Resp::json(400, error_body(0, "invalid", &e.to_string(), vec![])),
    };
    let alphabet = inner.engine.alphabet();
    let report = rq_analyze::lint_two_rpq_with_source(
        &q,
        Some(text),
        &alphabet,
        &inner.engine.config().cache.probe_limits,
    );
    Resp::json(200, report.to_json().emit())
}

/// `POST /ingest`: a batch of edge deltas in the text format of
/// [`Delta::parse_text`] (`add src label dst` / `remove src label dst`,
/// one per line). When the server runs over a store the batch is fsync'd
/// to the append log *before* it touches the live engine — the 200 is the
/// durability acknowledgment — and the log is compacted into a fresh
/// snapshot once it crosses the configured threshold. The engine applies
/// the deltas under its shared lock, bumps the graph epoch, and evicts
/// exactly the cache entries whose alphabet intersects the touched
/// labels.
fn ingest(inner: &Arc<Inner>, req: &Request) -> Resp {
    let mut root = span::start("serve.ingest");
    if inner.draining.load(Ordering::SeqCst) {
        metrics::shed("draining");
        return Resp::json(503, error_body(0, "draining", "server is draining", vec![]));
    }
    let text = match req.body_utf8() {
        Ok(t) => t,
        Err(e) => return Resp::json(400, error_body(0, "invalid", &e.to_string(), vec![])),
    };
    let deltas = match Delta::parse_text(text) {
        Ok(d) => d,
        Err((line, e)) => {
            return Resp::json(
                400,
                error_body(
                    0,
                    "invalid",
                    &format!("delta line {line}: {e}"),
                    vec![("line", num(line as u64))],
                ),
            )
        }
    };
    if deltas.is_empty() {
        return Resp::json(
            400,
            error_body(0, "invalid", "empty ingest body (no delta lines)", vec![]),
        );
    }
    root.record("deltas", deltas.len() as u64);
    // Durability first: once append returns, the batch is on disk and a
    // crash between here and apply_deltas is repaired by log replay on
    // the next open (apply is idempotent). The store lock is held across
    // append → apply → compact so a compaction can never truncate a
    // concurrent batch that is in the log but not yet in the engine.
    let mut store_guard = inner
        .store
        .as_ref()
        .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()));
    let mut persisted = false;
    if let Some(store) = store_guard.as_deref_mut() {
        if let Err(e) = store.append(&deltas) {
            return Resp::json(500, error_body(0, "storage", &e.to_string(), vec![]));
        }
        persisted = true;
    }
    let report = inner.engine.apply_deltas(&deltas);
    let mut compacted = false;
    if let Some(store) = store_guard.as_deref_mut() {
        if store.needs_compaction() {
            // The engine has applied the batch, so the snapshot written
            // here covers everything the truncated log held.
            match store.compact(&inner.engine.db()) {
                Ok(()) => compacted = true,
                Err(e) => {
                    // The data is safe in the log; a failed compaction is
                    // degraded (the log keeps growing), not lost writes.
                    root.record("compact_error", e.to_string());
                }
            }
        }
    }
    drop(store_guard);
    metrics::ingested(report.applied as u64, report.ignored as u64);
    root.record("applied", report.applied as u64);
    root.record("epoch", report.epoch);
    Resp::json(
        200,
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("applied".to_string(), num(report.applied as u64)),
            ("ignored".to_string(), num(report.ignored as u64)),
            ("epoch".to_string(), num(report.epoch)),
            ("evicted".to_string(), num(report.evicted)),
            ("added_nodes".to_string(), Json::Bool(report.added_nodes)),
            ("persisted".to_string(), Json::Bool(persisted)),
            ("compacted".to_string(), Json::Bool(compacted)),
        ])
        .emit(),
    )
}

/// `/tracez` (recent traces) and `/slowz` (slow/errored retention): a
/// JSON array of finished traces, newest first, straight out of the
/// bounded flight recorder.
fn tracez(inner: &Arc<Inner>, slow_only: bool) -> Resp {
    let traces = if slow_only {
        inner.recorder.slow()
    } else {
        inner.recorder.recent()
    };
    let items: Vec<String> = traces.iter().map(|t| t.to_json()).collect();
    Resp::json(
        200,
        format!(
            "{{\"count\":{},\"recorded_total\":{},\"retained_slow_total\":{},\"traces\":[{}]}}",
            items.len(),
            inner.recorder.recorded_total(),
            inner.recorder.retained_slow_total(),
            items.join(",")
        ),
    )
}

fn healthz(inner: &Arc<Inner>) -> Resp {
    let status = if inner.stopped.load(Ordering::SeqCst) {
        "stopped"
    } else if inner.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    Resp::json(
        200,
        Json::Obj(vec![
            ("status".to_string(), Json::Str(status.to_string())),
            (
                "degraded".to_string(),
                Json::Bool(inner.engine.is_degraded()),
            ),
            ("queue_depth".to_string(), num(inner.gate.depth() as u64)),
            ("tenants".to_string(), num(inner.buckets.tenants() as u64)),
            (
                "uptime_ms".to_string(),
                num(inner.started.elapsed().as_millis() as u64),
            ),
        ])
        .emit(),
    )
}

fn drainz(inner: &Arc<Inner>) -> Resp {
    let already = inner.draining.load(Ordering::SeqCst);
    if !already {
        let inner = Arc::clone(inner);
        let _ = std::thread::Builder::new()
            .name("rq-serve-drain".to_string())
            .spawn(move || {
                drain(&inner);
            });
    }
    Resp::json(
        202,
        Json::Obj(vec![
            ("draining".to_string(), Json::Bool(true)),
            ("already".to_string(), Json::Bool(already)),
        ])
        .emit(),
    )
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Run one admitted job on the calling thread once the gate grants it a
/// slot, and answer it. A job swept at the drain deadline answers
/// `error[draining]` unrun; a panicking one answers `error[internal]`.
fn serve(inner: &Arc<Inner>, job: &Job) -> (u16, String) {
    let Some(_slot) = inner.gate.wait(&job.ticket) else {
        let finished = inner
            .recorder
            .record(job.trace.finish("error[draining]", &job.text));
        let body = error_body(
            job.id,
            "draining",
            "server drained before this job ran",
            vec![],
        );
        return (503, stamp_trace(body, &finished, false));
    };
    metrics::queue_depth(inner.gate.depth());
    inner
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(job.id, Arc::clone(&job.cancel));
    metrics::inflight(1);
    // The trace context is installed for the whole execution (when
    // sampled), so every engine/core/frontier span lands in this
    // request's tree under one `serve.execute` root. A panic unwinds the
    // guard and the root span like any other drop.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _guard = job.sampled.then(|| span::install(&job.trace, 0));
        let mut root = span::start("serve.execute");
        let (status, body) = execute(inner, job);
        root.record("status", status);
        (status, body)
    }));
    let (status, body) = outcome.unwrap_or_else(|_| {
        metrics::job_panic();
        (
            500,
            error_body(
                job.id,
                "internal",
                "request evaluation panicked (contained; other requests unaffected)",
                vec![],
            ),
        )
    });
    inner
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&job.id);
    metrics::inflight(-1);
    // Close out the trace (slow/errored tails survive in the recorder
    // regardless of sampling) and stamp the response body with the trace
    // id — plus the profile when `explain` asked.
    let finished = inner
        .recorder
        .record(job.trace.finish(outcome_name(status), &job.text));
    (status, stamp_trace(body, &finished, job.explain))
}

/// Trace-level outcome label for a response status.
fn outcome_name(status: u16) -> &'static str {
    match status {
        200 => "ok",
        400 => "error[invalid]",
        408 => "error[deadline]",
        422 => "error[exhausted]",
        500 => "error[internal]",
        503 => "error[draining]",
        _ => "error",
    }
}

/// Add the `trace_id` field (and, for `explain`, the span tree plus the
/// rendered profile) to a structured JSON response body. Non-object
/// bodies pass through untouched.
fn stamp_trace(body: String, trace: &FinishedTrace, explain: bool) -> String {
    let Ok(Json::Obj(mut fields)) = Json::parse(&body) else {
        return body;
    };
    fields.push((
        "trace_id".to_string(),
        Json::Str(span::format_trace_id(trace.trace_id)),
    ));
    if explain {
        fields.push(("trace".to_string(), trace.to_json_value()));
        fields.push(("profile".to_string(), Json::Str(trace.render())));
    }
    Json::Obj(fields).emit()
}

fn decide_fault(inner: &Inner, site: FaultSite) -> Option<Fault> {
    let fault = inner
        .cfg
        .faults
        .decide(site, inner.fault_seq.fetch_add(1, Ordering::Relaxed));
    if let Some(f) = fault {
        metrics::fault_injected(match f {
            Fault::Panic => "panic",
            Fault::Delay(_) => "delay",
            Fault::Starve => "starve",
        });
    }
    fault
}

/// Execute one admitted job: parse, then evaluate once under the
/// per-request budget. Every exit path returns a structured body; panics
/// (real or injected) escape to [`serve`]'s `catch_unwind`.
fn execute(inner: &Arc<Inner>, job: &Job) -> (u16, String) {
    let started = Instant::now();
    // Only the drain raises a job's cancellation flag.
    if job.cancel.load(Ordering::SeqCst) {
        return (
            503,
            error_body(job.id, "draining", "cancelled before execution", vec![]),
        );
    }
    if Instant::now() >= job.deadline {
        metrics::deadline_timeout();
        return (
            408,
            error_body(job.id, "deadline", "deadline expired in the queue", vec![]),
        );
    }
    let q = match inner.engine.parse(&job.text) {
        Ok(q) => q,
        Err(e) => return (400, error_body(job.id, "invalid", &e.to_string(), vec![])),
    };
    let mut fuel = job.fuel;
    // Injected pool fault: panic, stall, or starve the evaluation's fuel
    // so the exhaustion path fires.
    match decide_fault(inner, FaultSite::Pool) {
        Some(Fault::Panic) => panic!("injected fault: pool panic (job {})", job.id),
        Some(Fault::Delay(d)) => std::thread::sleep(d),
        Some(Fault::Starve) => fuel = 1,
        None => {}
    }
    let limits = Limits::unlimited()
        .with_fuel(fuel)
        .with_deadline(job.deadline.saturating_duration_since(Instant::now()));
    let e = match inner
        .engine
        .run_with(&q, &limits, Some(Arc::clone(&job.cancel)))
    {
        Ok(result) => return (200, success_body(inner, job.id, &result, started)),
        Err(EngineError::InvalidInput { message }) => {
            return (400, error_body(job.id, "invalid", &message, vec![]))
        }
        Err(EngineError::Exhausted(e)) => e,
    };
    match e.resource {
        Resource::Cancelled => (
            503,
            error_body_with_exhaustion(job.id, "draining", "evaluation cancelled by drain", &e),
        ),
        Resource::Deadline => {
            metrics::deadline_timeout();
            (
                408,
                error_body_with_exhaustion(
                    job.id,
                    "deadline",
                    "evaluation hit the request deadline",
                    &e,
                ),
            )
        }
        // Fuel / states / tuples: the same budget reproduces the same
        // exhaustion, so the report is the answer.
        _ => {
            metrics::exhausted();
            (
                422,
                error_body_with_exhaustion(job.id, "exhausted", "evaluation budget exhausted", &e),
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Wire bodies
// ---------------------------------------------------------------------------

/// Cap on answer pairs inlined into a response body.
const MAX_INLINE_PAIRS: usize = 100;

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn success_body(
    inner: &Inner,
    id: u64,
    result: &rq_engine::QueryResult,
    started: Instant,
) -> String {
    let pairs = result.answer.len();
    let sample: Vec<Json> = result
        .answer
        .iter()
        .take(MAX_INLINE_PAIRS)
        .map(|&(x, y)| Json::Arr(vec![num(x.index() as u64), num(y.index() as u64)]))
        .collect();
    Json::Obj(vec![
        ("id".to_string(), num(id)),
        ("ok".to_string(), Json::Bool(true)),
        (
            "disposition".to_string(),
            Json::Str(result.disposition.to_string()),
        ),
        ("pairs".to_string(), num(pairs as u64)),
        ("sample".to_string(), Json::Arr(sample)),
        (
            "truncated".to_string(),
            Json::Bool(pairs > MAX_INLINE_PAIRS),
        ),
        (
            "degraded".to_string(),
            Json::Bool(inner.engine.is_degraded()),
        ),
        (
            "elapsed_us".to_string(),
            num(started.elapsed().as_micros() as u64),
        ),
    ])
    .emit()
}

fn error_body(id: u64, code: &str, message: &str, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![
        ("id".to_string(), num(id)),
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(code.to_string())),
        (
            "message".to_string(),
            Json::Str(format!("error[{code}]: {message}")),
        ),
    ];
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(fields).emit()
}

/// The structured `ExhaustionReport` carried by partial-result responses.
fn exhaustion_json(e: &Exhaustion) -> Json {
    Json::Obj(vec![
        ("resource".to_string(), Json::Str(e.resource.to_string())),
        ("spent".to_string(), num(e.spent)),
        ("limit".to_string(), num(e.limit)),
        ("fuel_spent".to_string(), num(e.counters.fuel_spent)),
        (
            "states_constructed".to_string(),
            num(e.counters.states_constructed),
        ),
        ("tuples_derived".to_string(), num(e.counters.tuples_derived)),
        (
            "elapsed_ms".to_string(),
            num(e.counters.elapsed.as_millis() as u64),
        ),
    ])
}

fn error_body_with_exhaustion(id: u64, code: &str, message: &str, e: &Exhaustion) -> String {
    error_body(id, code, message, vec![("exhaustion", exhaustion_json(e))])
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

mod metrics {
    use rq_metrics::{global, latency_buckets_us, Counter, Gauge, Histogram};
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::Duration;

    pub(super) fn request(endpoint: &str) {
        static CELLS: OnceLock<[Arc<Counter>; 12]> = OnceLock::new();
        const ENDPOINTS: [&str; 12] = [
            "query", "submit", "poll", "stream", "lint", "ingest", "metrics", "tracez", "slowz",
            "healthz", "drainz", "other",
        ];
        let cells = CELLS.get_or_init(|| {
            ENDPOINTS.map(|e| {
                global().counter_with(
                    "rq_serve_requests_total",
                    &[("endpoint", e)],
                    "HTTP requests received, by endpoint",
                )
            })
        });
        let i = ENDPOINTS.iter().position(|e| *e == endpoint).unwrap_or(11);
        cells[i].inc();
    }

    pub(super) fn ingested(applied: u64, ignored: u64) {
        static CELLS: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            ["applied", "ignored"].map(|d| {
                global().counter_with(
                    "rq_serve_ingest_deltas_total",
                    &[("disposition", d)],
                    "Deltas received on /ingest, by disposition",
                )
            })
        });
        cells[0].add(applied);
        cells[1].add(ignored);
    }

    pub(super) fn shed(reason: &str) {
        static CELLS: OnceLock<[Arc<Counter>; 4]> = OnceLock::new();
        const REASONS: [&str; 4] = ["quota", "queue", "draining", "connections"];
        let cells = CELLS.get_or_init(|| {
            REASONS.map(|r| {
                global().counter_with(
                    "rq_serve_shed_total",
                    &[("reason", r)],
                    "Requests shed at admission, by reason",
                )
            })
        });
        let i = REASONS.iter().position(|r| *r == reason).unwrap_or(1);
        cells[i].inc();
    }

    pub(super) fn latency(elapsed: Duration) {
        static CELL: OnceLock<Arc<Histogram>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().histogram(
                "rq_serve_request_latency_us",
                "End-to-end latency of one HTTP exchange, microseconds",
                &latency_buckets_us(),
            )
        })
        .observe(elapsed.as_micros() as u64);
    }

    pub(super) fn queue_depth(depth: usize) {
        static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().gauge(
                "rq_serve_queue_depth",
                "Admitted jobs waiting for an execution slot",
            )
        })
        .set(depth as u64);
    }

    pub(super) fn inflight(delta: i64) {
        static COUNT: AtomicI64 = AtomicI64::new(0);
        static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
        let now = COUNT.fetch_add(delta, Ordering::SeqCst) + delta;
        CELL.get_or_init(|| {
            global().gauge(
                "rq_serve_inflight_jobs",
                "Admitted jobs currently executing",
            )
        })
        .set(now.max(0) as u64);
    }

    pub(super) fn exhausted() {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_serve_exhausted_total",
                "Requests answered with a partial exhaustion report (422)",
            )
        })
        .inc();
    }

    pub(super) fn deadline_timeout() {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_serve_deadline_timeouts_total",
                "Requests that hit their deadline (queued or mid-evaluation)",
            )
        })
        .inc();
    }

    pub(super) fn job_panic() {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_serve_job_panics_total",
                "Request evaluations that panicked and were contained",
            )
        })
        .inc();
    }

    pub(super) fn fault_injected(kind: &str) {
        static CELLS: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
        const KINDS: [&str; 3] = ["panic", "delay", "starve"];
        let cells = CELLS.get_or_init(|| {
            KINDS.map(|k| {
                global().counter_with(
                    "rq_serve_faults_injected_total",
                    &[("kind", k)],
                    "Faults injected by the active FaultPlan, by kind",
                )
            })
        });
        let i = KINDS.iter().position(|k| *k == kind).unwrap_or(0);
        cells[i].inc();
    }

    pub(super) fn draining(on: bool) {
        static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().gauge("rq_serve_draining", "1 once a graceful drain has started")
        })
        .set(u64::from(on));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Client;
    use rq_engine::EngineConfig;
    use rq_graph::{generate, GraphDb};

    fn test_server(cfg: ServeConfig) -> Server {
        let db = generate::random_gnm(30, 90, &["a", "b"], 7);
        let engine = Engine::new(
            db,
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        );
        Server::start(engine, cfg).unwrap()
    }

    fn client(server: &Server) -> Client {
        Client::connect(&server.addr().to_string(), Duration::from_secs(10)).unwrap()
    }

    fn temp_store_dir() -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rq-serve-ingest-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingest_applies_deltas_and_evicts_only_touched_cache_entries() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        // Warm the cache with one query per label.
        for q in [&b"a+"[..], &b"b+"[..]] {
            let r = c.request("POST", "/query", &[], q).unwrap();
            assert_eq!(r.status, 200, "{}", r.text());
        }
        // Ingest an `a`-labeled edge between two brand-new nodes.
        let r = c.request("POST", "/ingest", &[], b"add x a y\n").unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(body.get("applied"), Some(&num(1)));
        assert_eq!(body.get("epoch"), Some(&num(1)));
        assert_eq!(body.get("added_nodes"), Some(&Json::Bool(true)));
        assert_eq!(body.get("persisted"), Some(&Json::Bool(false)));
        // `a+` was invalidated (and now sees the new edge); `b+` survived.
        let r = c.request("POST", "/query", &[], b"a+").unwrap();
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("disposition").and_then(Json::as_str), Some("miss"));
        let r = c.request("POST", "/query", &[], b"b+").unwrap();
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(
            body.get("disposition").and_then(Json::as_str),
            Some("exact")
        );
        // Malformed delta lines are a structured 400, not a panic.
        let r = c.request("POST", "/ingest", &[], b"frobnicate\n").unwrap();
        assert_eq!(r.status, 400);
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("error").and_then(Json::as_str), Some("invalid"));
        server.shutdown();
    }

    #[test]
    fn ingest_with_store_persists_across_reopen() {
        use rq_automata::Letter;
        use rq_storage::{StorageConfig, StorageHandle};
        let dir = temp_store_dir();
        let mut db = GraphDb::new();
        let (u, v) = (db.node("u"), db.node("v"));
        let r = db.label("r");
        db.add_edge(u, r, v);
        StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
        let (store, db, _) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();

        let engine = Engine::new(db, rq_engine::EngineConfig::default());
        let server = Server::start_with_store(engine, ServeConfig::default(), Some(store)).unwrap();
        let mut c = client(&server);
        let r = c
            .request("POST", "/ingest", &[], b"add v r w\nremove u r v\n")
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("applied"), Some(&num(2)));
        assert_eq!(body.get("persisted"), Some(&Json::Bool(true)));
        // The live engine answers over the patched graph.
        let r = c.request("POST", "/query", &[], b"r").unwrap();
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("pairs"), Some(&num(1)));
        server.shutdown();

        // Reopen: the acknowledged batch was replayed from the log.
        let (_, db, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.replayed, 2);
        let (v, w) = (db.find_node("v").unwrap(), db.find_node("w").unwrap());
        let r = db.alphabet().get("r").unwrap();
        assert_eq!(db.step(v, Letter::forward(r)).collect::<Vec<_>>(), [w]);
        assert_eq!(db.num_edges(), 1);
        assert_eq!(db.degree(db.find_node("u").unwrap()), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_round_trip_and_cache_disposition() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        let r = c.request("POST", "/query", &[], b"a+").unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(body.get("disposition").and_then(Json::as_str), Some("miss"));
        // Same query again: served from the cache.
        let r = c.request("POST", "/query", &[], b"a+").unwrap();
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(
            body.get("disposition").and_then(Json::as_str),
            Some("exact")
        );
        server.shutdown();
    }

    #[test]
    fn every_query_response_carries_a_trace_id() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        // Success, client-supplied id echo, and error bodies all carry it.
        let r = c.request("POST", "/query", &[], b"a+").unwrap();
        assert_eq!(r.status, 200);
        let body = Json::parse(&r.text()).unwrap();
        let tid = body.get("trace_id").and_then(Json::as_str).unwrap();
        assert!(span::parse_trace_id(tid).is_some(), "malformed id {tid:?}");
        assert_eq!(r.header("x-rq-trace-id"), Some(tid));

        let supplied = "00000000deadbeef";
        let r = c
            .request("POST", "/query", &[("X-RQ-Trace-Id", supplied)], b"b+")
            .unwrap();
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(
            body.get("trace_id").and_then(Json::as_str),
            Some(supplied),
            "well-formed client trace ids are adopted"
        );

        let r = c.request("POST", "/query", &[], b"((((").unwrap();
        assert_eq!(r.status, 400);
        let body = Json::parse(&r.text()).unwrap();
        assert!(
            body.get("trace_id").and_then(Json::as_str).is_some(),
            "error responses are traced too"
        );
        server.shutdown();
    }

    #[test]
    fn explain_inlines_the_span_profile() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        let r = c
            .request(
                "POST",
                "/query",
                &[],
                br#"{"query": "a (a|b)*", "explain": true}"#,
            )
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        let profile = body.get("profile").and_then(Json::as_str).unwrap();
        for needle in [
            "serve.execute",
            "engine.run",
            "analyze.preflight",
            "fuel by stage:",
        ] {
            assert!(
                profile.contains(needle),
                "missing {needle:?} in:\n{profile}"
            );
        }
        let trace = body.get("trace").expect("span tree inlined");
        assert_eq!(
            trace.get("trace_id").and_then(Json::as_str),
            body.get("trace_id").and_then(Json::as_str)
        );
        // The JSON envelope without explain is still a plain response.
        let r = c
            .request("POST", "/query", &[], br#"{"query": "a+"}"#)
            .unwrap();
        assert_eq!(r.status, 200);
        let body = Json::parse(&r.text()).unwrap();
        assert!(body.get("profile").is_none());
        server.shutdown();
    }

    #[test]
    fn tracez_and_slowz_expose_the_flight_recorder() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        let r = c.request("POST", "/query", &[], b"a+").unwrap();
        let tid = Json::parse(&r.text())
            .unwrap()
            .get("trace_id")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let r = c.request("GET", "/tracez", &[], b"").unwrap();
        assert_eq!(r.status, 200);
        let body = Json::parse(&r.text()).unwrap();
        assert!(body.get("count").and_then(Json::as_u64).unwrap() >= 1);
        let traces = body.get("traces").unwrap();
        let Json::Arr(traces) = traces else {
            panic!("traces is an array")
        };
        assert!(
            traces
                .iter()
                .any(|t| t.get("trace_id").and_then(Json::as_str) == Some(tid.as_str())),
            "the served request is in /tracez"
        );
        // A starved request (X-Fuel: 1 exhausts) lands in /slowz retention.
        let r = c
            .request("POST", "/query", &[("X-Fuel", "1")], b"(a|b)* a")
            .unwrap();
        assert_eq!(r.status, 422);
        let errored = Json::parse(&r.text())
            .unwrap()
            .get("trace_id")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let r = c.request("GET", "/slowz", &[], b"").unwrap();
        let body = Json::parse(&r.text()).unwrap();
        let Some(Json::Arr(traces)) = body.get("traces").cloned() else {
            panic!("traces is an array")
        };
        let kept = traces
            .iter()
            .find(|t| t.get("trace_id").and_then(Json::as_str) == Some(errored.as_str()))
            .expect("errored request retained in /slowz");
        assert_eq!(
            kept.get("outcome").and_then(Json::as_str),
            Some("error[exhausted]")
        );
        server.shutdown();
    }

    #[test]
    fn invalid_query_is_a_structured_400() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        let r = c.request("POST", "/query", &[], b"((((").unwrap();
        assert_eq!(r.status, 400);
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("error").and_then(Json::as_str), Some("invalid"));
        server.shutdown();
    }

    #[test]
    fn quota_exhaustion_sheds_with_retry_after() {
        let server = test_server(ServeConfig {
            quota: crate::TenantQuota {
                fuel_per_sec: 1,
                burst_fuel: 200_000,
            },
            ..ServeConfig::default()
        });
        let mut c = client(&server);
        // First request drains the burst; the second is throttled.
        let r = c
            .request("POST", "/query", &[("X-Tenant", "greedy")], b"a+")
            .unwrap();
        assert_eq!(r.status, 200);
        let r = c
            .request("POST", "/query", &[("X-Tenant", "greedy")], b"b+")
            .unwrap();
        assert_eq!(r.status, 429);
        assert!(r.header("retry-after").is_some());
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("error").and_then(Json::as_str), Some("quota"));
        // Another tenant is unaffected.
        let r = c
            .request("POST", "/query", &[("X-Tenant", "patient")], b"b+")
            .unwrap();
        assert_eq!(r.status, 200);
        server.shutdown();
    }

    #[test]
    fn fuel_exhaustion_is_evaluated_once() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        // X-Fuel lowers the budget below anything useful. The same budget
        // would exhaust the same way again, so the engine runs once and
        // its report is the answer.
        let r = c
            .request(
                "POST",
                "/query",
                &[("X-Fuel", "3")],
                br#"{"query": "(a|b)*", "explain": true}"#,
            )
            .unwrap();
        assert_eq!(r.status, 422, "{}", r.text());
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("error").and_then(Json::as_str), Some("exhausted"));
        let ex = body.get("exhaustion").expect("exhaustion report");
        assert_eq!(ex.get("resource").and_then(Json::as_str), Some("fuel"));
        assert_eq!(ex.get("limit").and_then(Json::as_u64), Some(3));
        let Some(Json::Arr(spans)) = body.get("trace").and_then(|t| t.get("spans")) else {
            panic!("explain inlines the span tree: {}", r.text())
        };
        let runs = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some("engine.run"))
            .count();
        assert_eq!(runs, 1, "one evaluation per request: {}", r.text());
        server.shutdown();
    }

    #[test]
    fn submit_poll_round_trip() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        let r = c.request("POST", "/submit", &[], b"a (a|b)*").unwrap();
        assert_eq!(r.status, 202);
        let id = Json::parse(&r.text())
            .unwrap()
            .get("id")
            .and_then(Json::as_u64)
            .unwrap();
        // Poll until done.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let r = c
                .request("GET", &format!("/poll?id={id}"), &[], b"")
                .unwrap();
            if r.status == 200 {
                let body = Json::parse(&r.text()).unwrap();
                assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
                break;
            }
            assert_eq!(r.status, 202);
            assert!(Instant::now() < deadline, "job never completed");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Delivery is one-shot.
        let r = c
            .request("GET", &format!("/poll?id={id}"), &[], b"")
            .unwrap();
        assert_eq!(r.status, 404);
        server.shutdown();
    }

    #[test]
    fn stream_serves_one_result_line_per_query_line() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        let r = c
            .request("POST", "/stream", &[], b"a+\n(a|b)+\nb+\n")
            .unwrap();
        assert_eq!(r.status, 200);
        let lines: Vec<Json> = r
            .text()
            .lines()
            .filter(|l| !l.is_empty())
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert_eq!(line.get("ok"), Some(&Json::Bool(true)));
        }
        server.shutdown();
    }

    #[test]
    fn metrics_lint_and_healthz_endpoints() {
        let server = test_server(ServeConfig::default());
        let mut c = client(&server);
        c.request("POST", "/query", &[], b"a+").unwrap();
        let r = c.request("GET", "/metrics", &[], b"").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.text().contains("rq_serve_requests_total"), "{}", r.text());
        let r = c.request("POST", "/lint", &[], "a ∅ b".as_bytes()).unwrap();
        assert_eq!(r.status, 200);
        assert!(r.text().contains("\"diagnostics\""), "{}", r.text());
        let r = c.request("GET", "/healthz", &[], b"").unwrap();
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(body.get("degraded"), Some(&Json::Bool(false)));
        server.shutdown();
    }

    #[test]
    fn drain_answers_everything_and_stops_admitting() {
        let server = test_server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut c = client(&server);
        let r = c.request("POST", "/query", &[], b"a+").unwrap();
        assert_eq!(r.status, 200);
        let report = server.drain();
        assert!(report.clean, "{report:?}");
        assert!(report.metrics.contains("rq_serve_draining 1"));
        // Post-drain admission sheds with a structured 503.
        let r = c.request("POST", "/query", &[], b"b+").unwrap();
        assert_eq!(r.status, 503);
        let body = Json::parse(&r.text()).unwrap();
        assert_eq!(body.get("error").and_then(Json::as_str), Some("draining"));
        server.shutdown();
    }

    #[test]
    fn overload_sheds_with_queue_derived_retry_after() {
        // One execution slot, one waiting place, and slow queries:
        // concurrent submissions must shed rather than buffer without
        // bound.
        let server = test_server(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            request_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        });
        let addr = server.addr().to_string();
        let mut sheds = 0;
        let mut handles = Vec::new();
        for _ in 0..8 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = Client::connect(&addr, Duration::from_secs(10)).unwrap();
                let r = c
                    .request("POST", "/query", &[], b"(a|b)* a (a|b)*")
                    .unwrap();
                (r.status, r.header("retry-after").map(|v| v.to_string()))
            }));
        }
        let mut answered = 0;
        for h in handles {
            let (status, retry_after) = h.join().unwrap();
            match status {
                200 | 408 | 422 => answered += 1,
                429 => {
                    sheds += 1;
                    assert!(retry_after.is_some(), "shed responses carry Retry-After");
                }
                other => panic!("unexpected status {other}"),
            }
        }
        assert!(answered >= 1, "someone must be served");
        assert!(sheds >= 1, "an 8-deep burst into a 1-slot queue must shed");
        server.shutdown();
    }
}
