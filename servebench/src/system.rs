//! The system under test: pinned knobs, timed set-up, and the reference
//! answers each workload is checked against.

use crate::inputs;
use crate::oracle::{self, Digest, Expected};
use crate::plan::{Plan, Workload};
use rq_automata::Limits;
use rq_core::TwoRpq;
use rq_engine::{Engine, EngineConfig};
use rq_graph::{text, Delta, GraphDb};
use rq_serve::{ServeConfig, Server, TenantQuota};
use rq_storage::{StorageConfig, StorageHandle};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The knobs that decide whether an operation can fail and how parallel
/// a run is. All are set explicitly (from the command line), so neither
/// `RQ_THREADS` nor the machine's parallelism changes the load. The client
/// count is the constant [`crate::plan::CLIENTS`]. Cache capacity and
/// probe budgets stay at the program's defaults.
#[derive(Debug, Clone)]
pub struct Knobs {
    pub engine_threads: usize,
    pub serve_workers: usize,
    pub queue_capacity: usize,
    /// Tenant bucket refill rate and burst, in governor fuel.
    pub tenant_fuel: u64,
    pub request_fuel: u64,
    pub request_deadline: Duration,
}

impl Knobs {
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            threads: self.engine_threads,
            ..EngineConfig::default()
        }
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: self.serve_workers,
            queue_capacity: self.queue_capacity,
            request_timeout: self.request_deadline,
            request_fuel: self.request_fuel,
            quota: TenantQuota {
                fuel_per_sec: self.tenant_fuel,
                burst_fuel: self.tenant_fuel,
            },
            ..ServeConfig::default()
        }
    }

    /// The per-request budget rq-serve applies, for in-process replays.
    pub fn limits(&self) -> Limits {
        Limits::unlimited()
            .with_fuel(self.request_fuel)
            .with_deadline(self.request_deadline)
    }
}

/// A set-up system, ready for timed operations.
pub enum Instance {
    Http {
        server: Server,
        /// The store directory (`ingest-mixed`).
        store: Option<PathBuf>,
    },
    Batch {
        engine: Box<Engine>,
        batch: Vec<TwoRpq>,
    },
}

impl Instance {
    /// Stop the system and remove its store.
    pub fn shutdown(self) {
        if let Instance::Http { server, store } = self {
            server.shutdown();
            if let Some(dir) = store {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    pub fn engine(&self) -> &Engine {
        match self {
            Instance::Http { server, .. } => server.engine(),
            Instance::Batch { engine, .. } => engine,
        }
    }
}

/// What one set-up measured besides its duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupInfo {
    /// `StorageHandle::open` time (`ingest-mixed`).
    pub open_us: f64,
    pub snapshot_bytes: u64,
    pub edges: usize,
}

pub fn parse_graph(plan: &Plan) -> GraphDb {
    text::parse(&plan.graph_text).expect("generated graph text parses")
}

/// Create a store for `db` in `dir` and open it, as a server restarting
/// over its data would.
pub fn open_store(dir: &Path, db: &GraphDb) -> (StorageHandle, GraphDb, SetupInfo) {
    let _ = std::fs::remove_dir_all(dir);
    StorageHandle::create(dir, db, StorageConfig::default()).expect("create store");
    let snapshot_bytes = std::fs::read_dir(dir)
        .expect("store directory")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "rqs"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let (store, db, report) =
        StorageHandle::open(dir, StorageConfig::default()).expect("open store");
    let info = SetupInfo {
        open_us: report.open_us as f64,
        snapshot_bytes,
        edges: report.edges,
    };
    (store, db, info)
}

/// Warm the engine's cache with every query text, in order.
pub fn warm(engine: &Engine, texts: &[String]) {
    for t in texts {
        engine.run_query(t).expect("warm-up query succeeds");
    }
}

/// Set the system up once: graph build, store create/open, `Engine::new`,
/// `Server::start` and cache warm-up (the HTTP workloads that time cache
/// hits). `batch-containment` has no warm-up: every timed operation
/// starts with `clear_cache`. Returns the instance, what it
/// measured, and the set-up time in seconds.
pub fn setup(
    plan: &Plan,
    knobs: &Knobs,
    work_dir: &Path,
    rep: usize,
) -> (Instance, SetupInfo, f64) {
    let t0 = Instant::now();
    let db = parse_graph(plan);
    let mut info = SetupInfo {
        edges: db.num_edges(),
        ..SetupInfo::default()
    };
    let instance = match plan.workload {
        Workload::HotHits | Workload::ColdEval => {
            let server =
                Server::start(Engine::new(db, knobs.engine_config()), knobs.serve_config())
                    .expect("server starts");
            if plan.workload == Workload::HotHits {
                warm(server.engine(), &plan.queries);
            }
            Instance::Http {
                server,
                store: None,
            }
        }
        Workload::IngestMixed => {
            let dir = work_dir.join(format!("store-{rep}"));
            let (store, db, opened) = open_store(&dir, &db);
            info = opened;
            let server = Server::start_with_store(
                Engine::new(db, knobs.engine_config()),
                knobs.serve_config(),
                Some(store),
            )
            .expect("server starts");
            warm(server.engine(), &plan.queries);
            Instance::Http {
                server,
                store: Some(dir),
            }
        }
        Workload::BatchContainment => {
            let batch = inputs::containment_batch(&mut db.alphabet().clone());
            let engine = Box::new(Engine::new(db, knobs.engine_config()));
            Instance::Batch { engine, batch }
        }
    };
    (instance, info, t0.elapsed().as_secs_f64())
}

/// Reference answers, computed once outside timing.
pub enum Reference {
    /// Per query text, every response a correct server may give (one per
    /// graph state the workload can be in).
    Http(Vec<Vec<Expected>>),
    /// Per batch position, the digest of the full answer.
    Batch(Vec<Digest>),
}

pub fn reference(plan: &Plan, threads: usize) -> Reference {
    let db = parse_graph(plan);
    match plan.workload {
        Workload::BatchContainment => {
            let batch = inputs::containment_batch(&mut db.alphabet().clone());
            Reference::Batch(batch.iter().map(|q| Digest::of(&q.evaluate(&db))).collect())
        }
        Workload::IngestMixed => {
            // Each client toggles its own edge, so a read may see any
            // subset of the clients' edges present.
            let mut accepted = vec![Vec::new(); plan.queries.len()];
            for mask in 0u32..(1 << plan.ingest_edges.len()) {
                let mut state = db.clone();
                for (c, (u, v)) in plan.ingest_edges.iter().enumerate() {
                    if mask & (1 << c) != 0 {
                        state.apply_delta(&Delta::add(u, "a", v));
                    }
                }
                for (i, e) in oracle::expectations(&state, &plan.queries, 1)
                    .into_iter()
                    .enumerate()
                {
                    if !accepted[i].contains(&e) {
                        accepted[i].push(e);
                    }
                }
            }
            Reference::Http(accepted)
        }
        // Only the 512 cold chains need a second thread. Elsewhere one
        // thread keeps the allocator state before set-up the same from run
        // to run, which keeps `peak_rss_mb` steady.
        Workload::ColdEval => Reference::Http(
            oracle::expectations(&db, &plan.queries, threads)
                .into_iter()
                .map(|e| vec![e])
                .collect(),
        ),
        Workload::HotHits => Reference::Http(
            oracle::expectations(&db, &plan.queries, 1)
                .into_iter()
                .map(|e| vec![e])
                .collect(),
        ),
    }
}
