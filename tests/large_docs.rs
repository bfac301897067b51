//! Large-document gate for the VM: on ~24k-node documents the engine's
//! answers must equal the paper's NFA × tree product construction
//! applied to the same simplified query, and closures that run in rounds
//! must cross between sparse and dense rounds on every document.
//!
//! Small fuzzed documents fit in one 64-bit word, where every closure
//! round is dense. At 24k nodes the sparse/dense thresholds (n/64 and
//! n/128 live nodes) sit in the hundreds. On the `DocumentLike` and
//! `Wide` documents closures from the root grow past n/64 and shrink
//! back; on the `Deep(2)` document a closure from every `b` node runs
//! thousands of sparse rounds after a dense start. Closures of bare-axis unions (`down*`,
//! `(up | down)*`, …) run one kernel and closures of one-way bodies
//! (`(down/down)*`, …) one automaton pass, neither with rounds, so the
//! switching check uses bodies that move both ways.

use treewalk::obs::{self, Counter};
use treewalk::Engine;
use twx_conform::{reference_image, RouteId};
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document, NodeId, NodeSet};

const QUERIES: [&str; 6] = [
    "down*",
    "(up | down)*",
    "down*[b]/right*",
    "(down[b] | down/down)*",
    "down*/up*[a]",
    "(left | right)*[c]",
];

/// Closures whose bodies move both ways (one-way bodies run one
/// automaton pass), so they run rounds; the last one starts from every
/// `b` node, a dense first round.
const ROUND_QUERIES: [&str; 4] = [
    "(down/down | left)*",
    "(down[b] | up[c])*",
    "(down/right | up)*",
    "down*[b]/(down/right | up)*",
];

fn docs() -> (Catalog, Vec<Document>) {
    let catalog = Catalog::new();
    for name in ["a", "b", "c", "d"] {
        catalog.intern(name);
    }
    let mut rng = SplitMix64::seed_from_u64(0x9A7A11E1);
    let docs = vec![
        random_document_in(Shape::DocumentLike, 24_000, &catalog, &mut rng),
        random_document_in(Shape::Wide, 24_000, &catalog, &mut rng),
        random_document_in(Shape::Deep(2), 24_000, &catalog, &mut rng),
    ];
    (catalog, docs)
}

/// Context nodes spread across the preorder id space.
fn contexts(doc: &Document) -> Vec<NodeId> {
    let n = doc.tree.len() as u32;
    vec![
        doc.tree.root(),
        NodeId(n / 3),
        NodeId(2 * n / 3),
        NodeId(n - 1),
    ]
}

#[test]
fn engine_matches_product_reference_on_large_docs() {
    let (_catalog, docs) = docs();
    let engine = Engine::new();
    for doc in &docs {
        for query in QUERIES {
            let prepared = engine.prepare(doc, query).expect("query compiles");
            for ctx in contexts(doc) {
                let ctx_set = NodeSet::singleton(doc.tree.len(), ctx);
                let reference =
                    reference_image(RouteId::Product, prepared.path(), &doc.tree, &ctx_set);
                assert!(
                    prepared.eval(doc, ctx) == reference,
                    "`{query}` ctx {ctx:?}: the VM differs from the product reference"
                );
            }
        }
    }
}

#[test]
fn closures_switch_between_sparse_and_dense_rounds() {
    if !obs::ENABLED {
        return;
    }
    let (_catalog, docs) = docs();
    let engine = Engine::new();
    for (doc, shape) in docs.iter().zip(["DocumentLike", "Wide", "Deep(2)"]) {
        let before = obs::snapshot();
        for query in ROUND_QUERIES {
            for ctx in contexts(doc) {
                engine.query(doc, query, ctx).expect("query evaluates");
            }
        }
        let switches = obs::delta_since(&before).get(Counter::FrontierSwitches);
        assert!(
            switches > 0,
            "no closure on the {shape} doc changed round kind"
        );
    }
}
