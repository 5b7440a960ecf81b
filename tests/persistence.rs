//! Persistence end to end through the facade: `Database::save`/`load`
//! fidelity, durable serving with kill → warm restart, and a simulated
//! crash that recovers from the fsynced snapshot + WAL alone.
//!
//! The acceptance bar everywhere is **bit-identity**: a recovered
//! database must return the same neighbours, the same distances to the
//! bit, and the same `SearchStats` as the original — recovery decodes
//! state, it never recomputes it.

use cned::prelude::*;
use cned::{Neighbour, SearchStats, ServerConfig};
use std::path::{Path, PathBuf};

fn words() -> Vec<Vec<u8>> {
    [
        "casa", "cosa", "masa", "taza", "cesta", "pasta", "costa", "caza", "queso", "beso", "peso",
        "piso", "vaso", "caso", "cada", "nada",
    ]
    .iter()
    .map(|w| w.as_bytes().to_vec())
    .collect()
}

fn queries() -> Vec<Vec<u8>> {
    [
        b"cesa".to_vec(),
        b"pes".to_vec(),
        b"tazas".to_vec(),
        b"xyz".to_vec(),
    ]
    .to_vec()
}

/// Every query surface, with stats, as one comparable value.
type Answers = Vec<(
    (Option<Neighbour>, SearchStats),
    (Vec<Neighbour>, SearchStats),
    (Vec<Neighbour>, SearchStats),
)>;

fn ask(db: &Database<u8>) -> Answers {
    queries()
        .iter()
        .map(|q| {
            (
                db.nn(q).unwrap(),
                db.knn(q, 3).unwrap(),
                db.range(q, 0.6).unwrap(),
            )
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cned-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn save_load_is_bit_identical_across_metrics_and_backends() {
    let shapes = [
        (Backend::Laesa { pivots: 3 }, 1),
        (Backend::Laesa { pivots: 3 }, 2),
        (Backend::Linear, 1),
        (Backend::Auto, 1),
    ];
    for metric in [
        Metric::Levenshtein,
        Metric::YujianBo,
        Metric::ContextualHeuristic,
    ] {
        for (backend, shards) in shapes {
            for cache in [false, true] {
                let label = format!("{metric:?} {backend:?} shards={shards} cache={cache}");
                let builder = Database::builder(words())
                    .metric(metric)
                    .backend(backend)
                    .shards(shards);
                let db = if cache { builder.cache() } else { builder }
                    .build()
                    .unwrap();
                let path = fresh_dir("save-load").with_extension("snap");
                db.save(&path).unwrap();
                let loaded = Database::<u8>::load(&path).unwrap();
                assert_eq!(loaded.len(), db.len());
                assert_eq!(ask(&db), ask(&loaded), "{label}");

                // A fresh data dir starts from the very bytes `save`
                // writes, and a cached server counts its wire hits.
                let dir = fresh_dir("save-serve");
                let handle = db
                    .serve_with("127.0.0.1:0", ServerConfig::default().data_dir(&dir))
                    .unwrap();
                assert_eq!(
                    std::fs::read(dir.join(cned::store::SNAPSHOT_FILE)).unwrap(),
                    std::fs::read(&path).unwrap(),
                    "{label}"
                );
                assert_eq!(handle.cache_stats().is_some(), cache, "{label}");
                if cache {
                    let hits = handle.cache_stats().unwrap().hits;
                    let mut client: Client<u8> = Client::connect(handle.local_addr()).unwrap();
                    let first = client.knn(b"tazas", 2).unwrap();
                    assert_eq!(client.knn(b"tazas", 2).unwrap(), first, "{label}");
                    assert!(handle.cache_stats().unwrap().hits > hits, "{label}");
                }
                drop(handle.shutdown());
                let _ = std::fs::remove_dir_all(&dir);
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

#[test]
fn save_refuses_custom_metrics_with_a_typed_error() {
    let db = Database::builder(words())
        .custom_metric(Box::new(cned::core::levenshtein::Levenshtein))
        .build()
        .unwrap();
    let path = fresh_dir("custom-metric").with_extension("snap");
    match db.save(&path) {
        Err(SearchError::UnsupportedConfig { .. }) => {}
        other => panic!("expected UnsupportedConfig, got {other:?}"),
    }
    assert!(!path.exists(), "a refused save must not touch disk");
}

#[test]
fn load_of_garbage_is_a_typed_error() {
    let path = fresh_dir("garbage").with_extension("snap");
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    match Database::<u8>::load(&path) {
        Err(SearchError::Persistence { .. }) => {}
        Err(other) => panic!("expected Persistence, got {other:?}"),
        Ok(_) => panic!("garbage decoded as a database"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Kill (drop without graceful shutdown) → restart from the data dir:
/// the wire-accepted insert survives, and a fresh seed database passed
/// to the restarted server is ignored in favour of disk.
#[test]
fn warm_restart_is_bit_identical_including_stats() {
    let dir = fresh_dir("warm-restart");
    let db = Database::builder(words())
        .metric(Metric::Contextual { bounded: true })
        .backend(Backend::Laesa { pivots: 3 })
        .shards(2)
        .build()
        .unwrap();

    // Boot 1: seed the dir, insert over the wire, record answers.
    let handle = db
        .serve_with("127.0.0.1:0", ServerConfig::default().data_dir(&dir))
        .unwrap();
    let mut client: Client<u8> = Client::connect(handle.local_addr()).unwrap();
    let at = client.insert(b"tapa").unwrap();
    assert_eq!(at, words().len());
    let before: Vec<_> = queries().iter().map(|q| client.nn(q).unwrap()).collect();
    drop(client);
    drop(handle); // kill: no graceful drain of the facade handle

    // Boot 2: different seed contents prove disk wins.
    let decoy = Database::builder(vec![b"zzz".to_vec()])
        .metric(Metric::Levenshtein)
        .build()
        .unwrap();
    let handle = decoy
        .serve_with("127.0.0.1:0", ServerConfig::default().data_dir(&dir))
        .unwrap();
    let mut client: Client<u8> = Client::connect(handle.local_addr()).unwrap();
    let after: Vec<_> = queries().iter().map(|q| client.nn(q).unwrap()).collect();
    assert_eq!(before, after);

    // The recovered database still holds the insert, with the
    // persisted metric (d_C), not the decoy's.
    drop(client);
    let db = handle.shutdown();
    assert_eq!(db.len(), words().len() + 1);
    let (nn, _) = db.nn(b"tapa").unwrap();
    assert_eq!(nn.map(|n| (n.index, n.distance)), Some((at, 0.0)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copy the fsynced files out from under a *live* server (the moral
/// equivalent of `kill -9` + disk image): recovery from the copy must
/// hold every acknowledged insert, replayed from the WAL.
#[test]
fn simulated_crash_recovers_acknowledged_inserts_from_the_wal() {
    let dir = fresh_dir("crash-live");
    let crash_dir = fresh_dir("crash-image");
    let db = Database::builder(words())
        .metric(Metric::Levenshtein)
        .build()
        .unwrap();
    // A huge snapshot threshold keeps every insert in the WAL.
    let handle = db
        .serve_with(
            "127.0.0.1:0",
            ServerConfig::default()
                .data_dir(&dir)
                .snapshot_every(1 << 30),
        )
        .unwrap();
    let mut client: Client<u8> = Client::connect(handle.local_addr()).unwrap();
    for w in [b"tapa".as_slice(), b"sopa", b"ropa"] {
        client.insert(w).unwrap();
    }
    let before: Vec<_> = queries().iter().map(|q| client.nn(q).unwrap()).collect();

    // The server is still running: everything in the copy was made
    // durable by the insert path itself, not by any shutdown logic.
    copy_dir(&dir, &crash_dir);

    let handle2 = Database::builder(vec![b"zzz".to_vec()])
        .metric(Metric::Levenshtein)
        .build()
        .unwrap()
        .serve_with("127.0.0.1:0", ServerConfig::default().data_dir(&crash_dir))
        .unwrap();
    let mut client2: Client<u8> = Client::connect(handle2.local_addr()).unwrap();
    let after: Vec<_> = queries().iter().map(|q| client2.nn(q).unwrap()).collect();
    assert_eq!(before, after);
    drop(client2);
    let recovered = handle2.shutdown();
    assert_eq!(recovered.len(), words().len() + 3);

    drop(client);
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}
