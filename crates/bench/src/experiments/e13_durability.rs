//! E13 — durable storage: snapshot throughput, recovery time vs journal
//! length, and the compact on-disk encoding vs the in-memory arena.
//!
//! Three measurements over one store-backed corpus in a scratch
//! directory:
//!
//! * **Recovery vs journal length** — after an initial full snapshot,
//!   the corpus is churned with random edits in steps; after each step
//!   the corpus is dropped and recovered from disk, so every point is a
//!   cold boot replaying a longer journal tail over the same snapshot
//!   generation. Recovery time should grow linearly in the tail, from a
//!   snapshot-only floor at zero records.
//! * **Snapshot write/load throughput** — one full `persist` (every
//!   shard snapshotted, journal compacted away) timed as nodes/s, then
//!   one more cold recovery against the now-empty journal timed as the
//!   pure snapshot-load rate.
//! * **Compression** — the balanced-parentheses + label-palette
//!   encoding's actual on-disk bytes per node (total snapshot bytes over
//!   total nodes, headers and checksums included) against the 16-byte
//!   arena node ([`ARENA_BYTES_PER_NODE`]). The acceptance bar is ≥ 4×;
//!   with a 4-label alphabet the encoding lands near the
//!   [`compact_bytes_per_node`] ideal of ~0.5 B/node, so the measured
//!   ratio is comfortably above it.
//!
//! [`run_full`] also returns the structured summary the harness exports
//! as the top-level `e13` field of `BENCH_HARNESS.json`; CI asserts
//! `compression_ratio >= 4`.

use crate::table::Table;
use crate::RunCfg;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use twx_corpus::{Corpus, DocId, Placement, StoreConfig};
use twx_obs::json::Json;
use twx_xtree::bp::{compact_bytes_per_node, ARENA_BYTES_PER_NODE};
use twx_xtree::edit::random_edit;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::Catalog;

struct E13Cfg {
    n_docs: usize,
    doc_size: usize,
    n_shards: usize,
    /// Cumulative journal lengths (edit counts) to recover at; the
    /// leading 0 is the snapshot-only floor.
    journal_points: [usize; 4],
}

fn e13_cfg(cfg: &RunCfg) -> E13Cfg {
    if cfg.quick {
        E13Cfg {
            n_docs: 12,
            doc_size: 60,
            n_shards: 4,
            journal_points: [0, 40, 120, 240],
        }
    } else {
        E13Cfg {
            n_docs: 32,
            doc_size: 400,
            n_shards: 4,
            journal_points: [0, 200, 800, 2000],
        }
    }
}

/// A process-unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("twx-bench-e13-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct RecoveryPoint {
    journal_records: u64,
    recover_ms: f64,
}

/// Runs E13, returning the rendered table and the structured summary
/// exported as the `e13` field of `BENCH_HARNESS.json`.
pub fn run_full(cfg: &RunCfg) -> (Table, Json) {
    let ec = e13_cfg(cfg);
    let scratch = Scratch::new();
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let labels: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| catalog.intern(n))
        .collect();
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(13));

    let mut b =
        Corpus::builder(Arc::clone(&catalog), ec.n_shards).placement(Placement::SizeBalanced);
    for _ in 0..ec.n_docs {
        b.add_document(random_document_in(
            Shape::DocumentLike,
            ec.doc_size,
            &catalog,
            &mut rng,
        ));
    }
    // try_build takes the initial full snapshot the recovery points boot
    // from; fsync_every=1 keeps every churned edit durable
    let mut corpus = b
        .with_store(scratch.0.clone())
        .store_config(StoreConfig::default())
        .try_build()
        .expect("initial store persist");
    let total_nodes = corpus.total_nodes();

    // recovery time vs journal length: churn to each cumulative edit
    // count, drop, and time the cold boot
    let mut points = Vec::with_capacity(ec.journal_points.len());
    let mut churned = 0usize;
    for &target in &ec.journal_points {
        while churned < target {
            let id = DocId(rng.gen_range(0..ec.n_docs as u32));
            let doc = corpus.doc(id).expect("doc exists");
            let edit = random_edit(&doc.tree, &labels, &mut rng);
            corpus.update(id, &edit).expect("random_edit applies");
            churned += 1;
        }
        drop(corpus);
        let t0 = Instant::now();
        let (recovered, report) =
            Corpus::recover(&scratch.0, StoreConfig::default()).expect("recovery succeeds");
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            report.records_replayed, target,
            "every churned edit is in the journal tail"
        );
        points.push(RecoveryPoint {
            journal_records: target as u64,
            recover_ms,
        });
        corpus = recovered;
    }

    // snapshot write throughput: one full persist of the churned corpus
    let nodes_now = corpus.total_nodes();
    let t0 = Instant::now();
    let receipt = corpus
        .persist()
        .expect("persist succeeds")
        .expect("corpus has a store");
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let write_nodes_per_s = nodes_now as f64 / (write_ms / 1e3).max(1e-9);

    // snapshot load throughput: cold boot with the journal compacted away
    drop(corpus);
    let t0 = Instant::now();
    let (recovered, report) =
        Corpus::recover(&scratch.0, StoreConfig::default()).expect("recovery succeeds");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.records_replayed, 0, "journal was compacted away");
    let load_nodes_per_s = nodes_now as f64 / (load_ms / 1e3).max(1e-9);

    // compression: actual on-disk snapshot bytes per node vs the arena
    let snapshot_bytes = recovered
        .store()
        .expect("recovered corpus has a store")
        .snapshot_bytes();
    let disk_bytes_per_node = snapshot_bytes as f64 / nodes_now as f64;
    let ratio = ARENA_BYTES_PER_NODE as f64 / disk_bytes_per_node;
    let ideal = compact_bytes_per_node(nodes_now, labels.len());
    drop(recovered);

    let mut table = Table::new(
        "E13: durable storage — snapshot throughput, recovery vs journal length, compression",
        &["measurement", "journal", "wall", "rate / ratio"],
    );
    for p in &points {
        table.row(vec![
            "cold recovery".into(),
            format!("{} records", p.journal_records),
            format!("{:.2}ms", p.recover_ms),
            format!(
                "{:.1}us/record",
                if p.journal_records == 0 {
                    0.0
                } else {
                    p.recover_ms * 1e3 / p.journal_records as f64
                }
            ),
        ]);
    }
    table.row(vec![
        "snapshot write".into(),
        "-".into(),
        format!("{write_ms:.2}ms"),
        format!("{:.1}M nodes/s", write_nodes_per_s / 1e6),
    ]);
    table.row(vec![
        "snapshot load".into(),
        "0 records".into(),
        format!("{load_ms:.2}ms"),
        format!("{:.1}M nodes/s", load_nodes_per_s / 1e6),
    ]);
    table.row(vec![
        "bytes/node".into(),
        "-".into(),
        format!("{disk_bytes_per_node:.2}B vs {ARENA_BYTES_PER_NODE}B arena"),
        format!("{ratio:.1}x"),
    ]);
    table.note(format!(
        "{} docs x ~{} nodes in {} shards; every recovery point is a cold boot over the same \
         snapshot generation with a longer journal tail",
        ec.n_docs, ec.doc_size, ec.n_shards
    ));
    table.note(format!(
        "on-disk encoding: balanced-parentheses structure (2 bits/node) + palette label ids \
         ({} labels => ideal {:.2}B/node); measured {:.2}B/node includes headers, palettes, \
         versions, and checksums",
        labels.len(),
        ideal,
        disk_bytes_per_node
    ));

    let summary = Json::obj()
        .field(
            "corpus",
            Json::obj()
                .field("docs", ec.n_docs)
                .field("doc_size", ec.doc_size)
                .field("shards", ec.n_shards)
                .field("nodes", total_nodes)
                .field("nodes_after_churn", nodes_now),
        )
        .field(
            "recovery",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj()
                            .field("journal_records", p.journal_records)
                            .field("recover_ms", p.recover_ms)
                    })
                    .collect(),
            ),
        )
        .field(
            "snapshot",
            Json::obj()
                .field("write_ms", write_ms)
                .field("write_nodes_per_s", write_nodes_per_s)
                .field("load_ms", load_ms)
                .field("load_nodes_per_s", load_nodes_per_s)
                .field("bytes", receipt.snapshot_bytes)
                .field("journal_reclaimed", receipt.journal_reclaimed),
        )
        .field("arena_bytes_per_node", ARENA_BYTES_PER_NODE as u64)
        .field("disk_bytes_per_node", disk_bytes_per_node)
        .field("ideal_bytes_per_node", ideal)
        .field("compression_ratio", ratio);
    (table, summary)
}

/// Table-only entry point (`run_all` and the experiment registry).
pub fn run(cfg: &RunCfg) -> Table {
    run_full(cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        match obj {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("not an object"),
        }
    }

    /// The acceptance bar in miniature: the compact snapshot encoding
    /// beats the resident arena by at least 4x even on quick-sized
    /// documents, and every recovery point boots.
    #[test]
    fn quick_run_recovers_and_compresses() {
        let (t, summary) = run_full(&RunCfg::quick());
        assert!(t.rows.len() >= 6, "4 recovery points + 3 summary rows");
        match field(&summary, "compression_ratio") {
            Json::Num(r) => assert!(
                *r >= 4.0,
                "compression ratio {r:.2} below the 4x acceptance bar"
            ),
            other => panic!("compression_ratio is {other:?}"),
        }
        match field(&summary, "recovery") {
            Json::Arr(points) => {
                assert_eq!(points.len(), 4);
                for p in points {
                    match field(p, "recover_ms") {
                        Json::Num(ms) => assert!(*ms > 0.0),
                        other => panic!("recover_ms is {other:?}"),
                    }
                }
            }
            other => panic!("recovery is {other:?}"),
        }
    }
}
