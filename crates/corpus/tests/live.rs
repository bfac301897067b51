//! The live corpus under concurrent writers and readers.
//!
//! 4 writer threads commit random typed edits through
//! [`QueryService::update`] while 8 reader threads query; every per-doc
//! answer names the [`DocVersion`] it was evaluated against, and must
//! equal a sequential evaluation on the exact snapshot committed at
//! that version — never a blend of two versions, never a half-applied
//! edit. The version→snapshot oracle is built from the writers' own
//! [`UpdateReceipt`]s, so the test also pins the receipt contract: the
//! returned `doc` *is* the committed snapshot for the returned version.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use treewalk::Engine;
use twx_corpus::{Corpus, DocId, QueryService, ServiceConfig};
use twx_xtree::edit::random_edit;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document};

const QUERIES: &[&str] = &[
    "down*[b]",
    "(down | right)*[c]",
    "down[a]/down*[b]",
    "down*[<down[b]>]",
    ".",
];

const N_DOCS: usize = 8;
const WRITERS: usize = 4;
const READERS: usize = 8;
const EDITS_PER_WRITER: usize = 40;
const QUERIES_PER_READER: usize = 25;

type Oracle = Mutex<HashMap<(u32, u64), Arc<Document>>>;

/// Blocks (bounded) until the writer that committed `(doc, version)`
/// has registered its receipt snapshot — commits become visible to
/// readers a beat before the receipt reaches the oracle map.
fn pinned(oracle: &Oracle, doc: u32, version: u64) -> Arc<Document> {
    for _ in 0..200_000 {
        if let Some(d) = oracle.lock().unwrap().get(&(doc, version)) {
            return Arc::clone(d);
        }
        std::thread::yield_now();
    }
    panic!("no snapshot registered for doc {doc} version {version}");
}

#[test]
fn concurrent_writers_and_readers_agree_with_per_version_oracles() {
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let labels: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| catalog.intern(n))
        .collect();
    let mut rng = SplitMix64::seed_from_u64(0x11fe);
    let mut b = Corpus::builder(Arc::clone(&catalog), 2);
    for _ in 0..N_DOCS {
        b.add_document(random_document_in(Shape::Recursive, 20, &catalog, &mut rng));
    }
    let corpus = Arc::new(b.build());
    let service = QueryService::new(
        Arc::clone(&corpus),
        Engine::new(),
        ServiceConfig {
            workers: 4,
            queue_capacity: 128,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );

    // seed the oracle with the version-0 snapshots
    let oracle: Oracle = Mutex::new(
        corpus
            .iter()
            .map(|e| ((e.id.0, e.version.0), Arc::clone(&e.doc)))
            .collect(),
    );

    let committed: u64 = std::thread::scope(|s| {
        let writer_handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let service = &service;
                let corpus = &corpus;
                let oracle = &oracle;
                let labels = &labels;
                s.spawn(move || {
                    let mut rng = SplitMix64::seed_from_u64(0xa110 + w as u64);
                    let mut committed = 0u64;
                    for i in 0..EDITS_PER_WRITER {
                        let id = DocId(((w + i) % N_DOCS) as u32);
                        let current = corpus.doc(id).expect("doc exists");
                        let edit = random_edit(&current.tree, labels, &mut rng);
                        // a racing commit can invalidate the edit's node
                        // ids between `doc()` and `update()`; that must
                        // surface as a typed error, never a bad tree
                        if let Ok(receipt) = service.update(id, &edit) {
                            oracle
                                .lock()
                                .unwrap()
                                .insert((id.0, receipt.version.0), Arc::clone(&receipt.doc));
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();

        let reader_handles: Vec<_> = (0..READERS)
            .map(|r| {
                let service = &service;
                let oracle = &oracle;
                let catalog = &catalog;
                s.spawn(move || {
                    // one oracle compile per query string; the service
                    // prepares every request independently
                    let engine = Engine::new();
                    let prepared: Vec<_> = QUERIES
                        .iter()
                        .map(|q| engine.prepare_in(catalog, q).expect("oracle prepare"))
                        .collect();
                    for i in 0..QUERIES_PER_READER {
                        let k = (r + i) % QUERIES.len();
                        let q = QUERIES[k];
                        let answer = service.query(q).expect("live query");
                        assert_eq!(answer.per_doc.len(), N_DOCS, "answers cover every doc");
                        for (id, version, set) in &answer.per_doc {
                            let doc = pinned(oracle, id.0, version.0);
                            doc.tree
                                .validate()
                                .expect("committed snapshots are valid trees");
                            let expected = prepared[k].eval(&doc, doc.tree.root());
                            assert_eq!(
                                set, &expected,
                                "`{q}` on doc {} at version {} diverges from the snapshot \
                                 committed at that version",
                                id.0, version.0
                            );
                        }
                    }
                })
            })
            .collect();

        for h in reader_handles {
            h.join().unwrap();
        }
        writer_handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert!(
        committed > (WRITERS * EDITS_PER_WRITER) as u64 / 2,
        "most edits commit (only id races may be rejected): {committed}"
    );
    let stats = service.shutdown();
    assert_eq!(stats.updates, committed);
    assert_eq!(
        stats.completed,
        (READERS * QUERIES_PER_READER) as u64,
        "every reader query completed"
    );
    // the corpus ends at the committed sequence number, and every final
    // document is still a valid tree
    assert_eq!(corpus.seq(), committed);
    for entry in corpus.iter() {
        entry.doc.tree.validate().expect("final trees are valid");
    }
}
