//! Regression guard: tracing must never perturb answers.
//!
//! The whole observability subsystem rides the promise that
//! instrumentation is *passive* — a traced evaluation walks exactly the
//! nodes an untraced one walks. This guard checks the promise
//! differentially with the conformance fuzzer's own generators: random
//! documents × random printed `Regular XPath` queries, evaluated traced
//! and untraced on the serving engine and through the sharded service,
//! with answers compared node-for-node.

use std::sync::Arc;
use treewalk::Engine;
use twx_corpus::{Corpus, QueryService, ServiceConfig};
use twx_regxpath::generate::{random_rpath, RGenConfig};
use twx_regxpath::print::rpath_to_string;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{Catalog, NodeId};

const SHAPES: [Shape; 4] = [
    Shape::Recursive,
    Shape::Deep(1),
    Shape::Wide,
    Shape::DocumentLike,
];

#[test]
fn traced_engine_queries_answer_identically() {
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let gen_cfg = RGenConfig {
        labels: 4,
        ..RGenConfig::default()
    };
    let mut rng = SplitMix64::seed_from_u64(0x7ace_6a5d);
    let engine = Engine::new();
    let mut compared = 0u32;
    for trial in 0..80 {
        let depth = rng.gen_range(1..4u32) as usize;
        let n = rng.gen_range(2..24u32) as usize;
        let shape = SHAPES[rng.gen_range(0..SHAPES.len() as u32) as usize];
        let doc = random_document_in(shape, n, &catalog, &mut rng);
        let query = rpath_to_string(
            &random_rpath(&gen_cfg, depth, &mut rng),
            &catalog.snapshot(),
        );
        let ctx = NodeId(rng.gen_range(0..doc.tree.len() as u32));
        let plain = match engine.query(&doc, &query, ctx) {
            Ok(set) => set,
            Err(_) => continue, // generator can exceed engine limits
        };
        let (traced, tree) = engine
            .query_traced(&doc, &query, ctx)
            .expect("untraced accepted the query");
        assert_eq!(
            plain.iter().collect::<Vec<_>>(),
            traced.iter().collect::<Vec<_>>(),
            "trial {trial}: traced answer diverged for {query:?}"
        );
        if twx_obs::ENABLED {
            let tree = tree.expect("obs enabled: trace collected");
            assert!(!tree.root.children.is_empty(), "trace has no stages");
        } else {
            assert!(tree.is_none(), "obs disabled: no trace");
        }
        compared += 1;
    }
    assert!(compared >= 60, "only {compared} comparisons ran");
}

#[test]
fn traced_service_replies_are_identical_to_untraced() {
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let gen_cfg = RGenConfig {
        labels: 4,
        ..RGenConfig::default()
    };
    let mut rng = SplitMix64::seed_from_u64(0x7ace_c04e);
    let mut b = Corpus::builder(Arc::clone(&catalog), 3);
    for _ in 0..6 {
        let n = rng.gen_range(4..40u32) as usize;
        let shape = SHAPES[rng.gen_range(0..SHAPES.len() as u32) as usize];
        b.add_document(random_document_in(shape, n, &catalog, &mut rng));
    }
    let service = QueryService::new(
        Arc::new(b.build()),
        Engine::new(),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let mut compared = 0u32;
    for trial in 0..30 {
        let depth = rng.gen_range(1..4u32) as usize;
        let query = rpath_to_string(
            &random_rpath(&gen_cfg, depth, &mut rng),
            &catalog.snapshot(),
        );
        let plain = match service.query(&query) {
            Ok(a) => a,
            Err(_) => continue, // e.g. engine limits; same both ways
        };
        let traced = service
            .query_traced(&query)
            .expect("untraced accepted the query");
        assert_eq!(
            plain.total_matches, traced.total_matches,
            "trial {trial}: totals diverged for {query:?}"
        );
        assert_eq!(
            plain.per_doc.len(),
            traced.per_doc.len(),
            "trial {trial}: doc coverage diverged for {query:?}"
        );
        for ((id_p, v_p, set_p), (id_t, v_t, set_t)) in plain.per_doc.iter().zip(&traced.per_doc) {
            assert_eq!(
                (id_p, v_p),
                (id_t, v_t),
                "trial {trial}: doc order diverged"
            );
            assert_eq!(
                set_p.iter().collect::<Vec<_>>(),
                set_t.iter().collect::<Vec<_>>(),
                "trial {trial}: answer diverged on doc {id_p:?} for {query:?}"
            );
        }
        if twx_obs::ENABLED {
            assert!(traced.trace.is_some(), "obs enabled: reply carries a trace");
        }
        compared += 1;
    }
    service.shutdown();
    assert!(compared >= 20, "only {compared} comparisons ran");
}
