//! Round-trip fidelity of the `rq-storage` on-disk format: every graph —
//! the shipped examples and a spread of generated shapes — must come back
//! from a snapshot + log cycle *identical* to the source, under every
//! shard count. Identity is checked two ways: the text serialization
//! matches line-for-line after sorting (node ids, names, labels, and the
//! edge set all survive; loading rebuilds backward rows in source order,
//! which is invisible to queries), and a query engine over the reopened
//! graph answers exactly like one over the original.

use regular_queries::graph::{generate, text, Delta, GraphDb};
use regular_queries::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Order-insensitive canonical form of a graph: the text serialization
/// with lines sorted (`to_text` never emits duplicate lines — the edge
/// set is deduplicated — so sorted-lines equality is set equality over
/// nodes and edges, with ids and names intact).
fn canonical(db: &GraphDb) -> String {
    let text = text::to_text(db);
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rq-roundtrip-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Graphs covering the shapes the format must preserve: named and
/// anonymous nodes, empty adjacency rows, skewed degrees, multiple
/// labels, and the shipped example data.
fn corpus() -> Vec<(String, GraphDb)> {
    let mut graphs = vec![
        ("chain".to_string(), generate::chain(50, "r")),
        ("cycle".to_string(), generate::cycle(17, "loop")),
        ("grid".to_string(), generate::grid(6, 5, "right", "down")),
        (
            "gnm".to_string(),
            generate::random_gnm(40, 120, &["a", "b", "c"], 11),
        ),
        (
            "social".to_string(),
            generate::preferential_attachment(60, 3, &["knows", "follows"], 7),
        ),
        (
            "dag".to_string(),
            generate::layered_dag(4, 8, 3, "next", 13),
        ),
        ("empty".to_string(), GraphDb::new()),
    ];
    // A graph with isolated nodes and labels that never occur on an edge.
    let mut odd = GraphDb::new();
    let x = odd.node("x");
    odd.node("isolated");
    odd.add_node();
    let used = odd.label("used");
    odd.label("unused");
    odd.add_edge(x, used, x);
    graphs.push(("odd".to_string(), odd));
    // Every example graph shipped in the repo.
    for entry in std::fs::read_dir("examples/data").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("graph") {
            let content = std::fs::read_to_string(&path).unwrap();
            graphs.push((path.display().to_string(), text::parse(&content).unwrap()));
        }
    }
    graphs
}

#[test]
fn every_graph_round_trips_identically_across_shard_counts() {
    for (name, db) in corpus() {
        let reference = canonical(&db);
        for shards in [1u32, 4, 16] {
            let dir = temp_dir("fidelity");
            let config = StorageConfig {
                shards,
                ..StorageConfig::default()
            };
            StorageHandle::create(&dir, &db, config.clone()).unwrap();
            let (_, reopened, report) = StorageHandle::open(&dir, config).unwrap();
            assert_eq!(
                canonical(&reopened),
                reference,
                "{name}: text serialization diverges (shards={shards})"
            );
            assert_eq!(report.nodes, db.num_nodes(), "{name}");
            assert_eq!(report.replayed, 0, "{name}: fresh store has no log");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn snapshot_loaded_engine_answers_exactly_like_the_text_path() {
    let queries = ["a+", "(a|b)+", "a b- a", "b* a", "c c-"];
    let db = generate::random_gnm(40, 120, &["a", "b", "c"], 11);
    let dir = temp_dir("differential");
    StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
    let (_, from_disk, _) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();

    let text_engine = Engine::new(db, EngineConfig::default());
    let disk_engine = Engine::new(from_disk, EngineConfig::default());
    for q in queries {
        let qt = text_engine.parse(q).unwrap();
        let qd = disk_engine.parse(q).unwrap();
        assert_eq!(
            *text_engine.run(&qt).unwrap().answer,
            *disk_engine.run(&qd).unwrap().answer,
            "query {q} diverges between load paths"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn acknowledged_deltas_survive_a_torn_final_append() {
    // Simulate kill -9 mid-append: append three batches, then chop the
    // log at every byte of its final record. The first two acknowledged
    // batches must replay; the torn suffix is dropped and reported.
    let db = generate::chain(10, "r");
    let dir = temp_dir("torn");
    StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
    let (mut handle, _, _) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    handle.append(&[Delta::add("n0", "s", "n5")]).unwrap();
    handle.append(&[Delta::add("n5", "s", "n9")]).unwrap();
    let intact = std::fs::read(dir.join("deltas.rqlog")).unwrap();
    handle.append(&[Delta::add("n9", "s", "n0")]).unwrap();
    drop(handle);
    let full = std::fs::read(dir.join("deltas.rqlog")).unwrap();
    assert!(full.len() > intact.len());

    for cut in intact.len() + 1..full.len() {
        std::fs::write(dir.join("deltas.rqlog"), &full[..cut]).unwrap();
        let (handle, reopened, report) =
            StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.replayed, 2, "cut at {cut}");
        assert!(report.torn_tail_dropped, "cut at {cut}");
        let s = reopened.alphabet().get("s").unwrap();
        let n0 = reopened.find_node("n0").unwrap();
        let n5 = reopened.find_node("n5").unwrap();
        let n9 = reopened.find_node("n9").unwrap();
        assert!(
            reopened.has_edge(n0, s, n5),
            "cut at {cut}: first acknowledged delta lost"
        );
        assert!(
            reopened.has_edge(n5, s, n9),
            "cut at {cut}: second acknowledged delta lost"
        );
        // The tail was physically truncated, so the next append starts
        // from a clean frame boundary and the log stays replayable.
        let mut handle = handle;
        handle.append(&[Delta::add("n9", "s", "n1")]).unwrap();
        drop(handle);
        let (_, again, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.replayed, 3, "cut at {cut}: post-recovery append");
        let (n9, n1) = (
            again.find_node("n9").unwrap(),
            again.find_node("n1").unwrap(),
        );
        assert!(again.has_edge(n9, s, n1));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_is_idempotent_with_duplicate_and_redundant_deltas() {
    // A log that re-adds existing edges, removes absent ones, and repeats
    // itself must converge to the same graph as applying each distinct
    // effective operation once.
    let db = generate::chain(5, "r");
    let dir = temp_dir("idempotent");
    StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
    let (mut handle, _, _) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    let batch = vec![
        Delta::add("n0", "r", "n1"),       // duplicate of a snapshot edge
        Delta::add("extra", "r", "n0"),    // new node + edge
        Delta::add("extra", "r", "n0"),    // repeated
        Delta::remove("ghost", "r", "n0"), // unknown node: no-op
        Delta::remove("n1", "r", "n2"),    // effective removal
        Delta::remove("n1", "r", "n2"),    // repeated removal: no-op
    ];
    handle.append(&batch).unwrap();
    handle.append(&batch).unwrap(); // the whole batch replayed twice
    drop(handle);
    let (_, got, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    assert_eq!(report.replayed, 12);

    let mut want = generate::chain(5, "r");
    for d in &batch {
        want.apply_delta(d);
    }
    assert_eq!(canonical(&got), canonical(&want));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_preserves_the_graph_and_empties_the_log() {
    let db = generate::random_gnm(20, 60, &["a", "b"], 3);
    let dir = temp_dir("compact");
    StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
    let (mut handle, mut live, _) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    let deltas = vec![
        Delta::add("fresh1", "a", "fresh2"),
        Delta::add("fresh2", "b", "fresh1"),
    ];
    handle.append(&deltas).unwrap();
    for d in &deltas {
        live.apply_delta(d);
    }
    handle.compact(&live).unwrap();
    assert_eq!(handle.log_records(), 0);
    drop(handle);
    let (_, reopened, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    assert_eq!(report.replayed, 0, "compaction folded the log");
    assert_eq!(canonical(&reopened), canonical(&live));
    std::fs::remove_dir_all(&dir).unwrap();
}
