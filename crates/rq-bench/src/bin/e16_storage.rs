//! E16 — persistent storage: cold-start load time and ingest-while-serving.
//!
//! Two claims priced here:
//!
//! 1. **Cold start.** Opening a sharded binary snapshot (CSR adjacency
//!    loaded straight into the forward rows, per-section CRCs) beats
//!    re-parsing the text format for the same graph. Both paths are timed interleaved —
//!    text pass, snapshot pass, repeat — and compared by median, so
//!    machine drift cancels.
//! 2. **Ingest while serving.** On the E14 closed-loop driver, a
//!    continuous `POST /ingest` delta stream whose label no cached
//!    query mentions must keep admitted-request p99 within 2× of the
//!    no-ingest baseline (alphabet-intersection invalidation evicts
//!    nothing). A stream on the hottest query label prices the other
//!    extreme: every tick evicts the a-queries, so their next request
//!    pays a queued cold re-evaluation.
//!
//! Usage: `cargo run --release -p rq-bench --bin e16_storage
//! [rounds] [nodes] [bench-ms]`

use rq_engine::{Engine, EngineConfig};
use rq_graph::{generate, text};
use rq_serve::{BenchConfig, Client, ServeConfig, Server, TenantQuota};
use rq_storage::{StorageConfig, StorageHandle};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(9);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50_000);
    let bench_ms: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4_000);

    // -- Part 1: cold-start -------------------------------------------------
    let db = generate::preferential_attachment(nodes, 4, &["a", "b", "c"], 16);
    let edges = db.num_edges();
    println!(
        "e16 part 1 — cold start: {} nodes, {edges} edges, {rounds} interleaved rounds",
        db.num_nodes()
    );
    let dir = std::env::temp_dir().join(format!("rq-e16-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text_path = dir.join("graph.txt");
    std::fs::write(&text_path, text::to_text(&db)).unwrap();
    let config = StorageConfig::default();
    StorageHandle::create(&dir, &db, config.clone()).unwrap();
    let snap_bytes = std::fs::metadata(dir.join("snapshot.rqs")).unwrap().len();
    let text_bytes = std::fs::metadata(&text_path).unwrap().len();

    let (mut t_text, mut t_snap) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let t0 = Instant::now();
        let content = std::fs::read_to_string(&text_path).unwrap();
        black_box(text::parse(&content).unwrap());
        t_text.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        black_box(StorageHandle::open(&dir, config.clone()).unwrap());
        t_snap.push(t0.elapsed().as_secs_f64());
    }
    let (m_text, m_snap) = (median(t_text), median(t_snap));
    println!(
        "  text parse: {:8.1} ms  ({text_bytes} bytes)",
        m_text * 1e3
    );
    println!(
        "  snapshot  : {:8.1} ms  ({snap_bytes} bytes, {} shards)  {:.2}x faster",
        m_snap * 1e3,
        config.shards,
        m_text / m_snap
    );

    // -- Part 2: ingest while serving --------------------------------------
    // Three runs on the E14 closed-loop driver: a no-ingest baseline,
    // sustained ingest on a label *outside* the bench-query alphabet
    // (alphabet-intersection invalidation leaves every cached entry
    // alive — the case the delta-driven cache design is built for), and
    // sustained ingest on the hottest query label (every tick evicts
    // the a-queries, so their next request pays a cold re-evaluation —
    // the price *any* sound invalidation scheme pays for freshness).
    println!("\ne16 part 2 — ingest while serving ({bench_ms} ms per run)");
    let serve_db = generate::random_gnm(120, 360, &["a", "b"], 16);
    let mut baseline = None;
    for (tag, ingest_label, ingest_every_ms) in [
        ("no ingest       ", "", 0u64),
        ("ingest off-alpha", "c", 25),
        ("ingest hot label", "a", 25),
    ] {
        let engine = Engine::new(
            serve_db.clone(),
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        );
        // A generous tenant quota: E16 measures ingest interference on
        // admitted-request latency, not admission control (that's E14).
        let server = Server::start(
            engine,
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
        let report = rq_serve::run_bench(&BenchConfig {
            addr: server.addr().to_string(),
            clients: 4,
            duration: Duration::from_millis(bench_ms),
            ..BenchConfig::default()
        });
        stop.store(true, Ordering::SeqCst);
        let sent = ingester.map(|h| h.join().unwrap()).unwrap_or(0);
        server.shutdown();
        let p99 = report.percentile_us(99.0);
        match ingest_every_ms {
            0 => {
                baseline = Some(p99);
                println!("  {tag}: {}", report.summary());
            }
            _ => {
                let base = baseline.unwrap().max(1);
                println!(
                    "  {tag}: {}  ({sent} '{ingest_label}' batches @{ingest_every_ms}ms, \
                     p99 {:.2}x baseline)",
                    report.summary(),
                    p99 as f64 / base as f64
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
