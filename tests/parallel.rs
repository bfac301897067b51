//! Determinism gate for frontier-parallel evaluation: the same
//! `(query, document, seed)` triple must produce **bit-identical** answer
//! sets at every thread count, and the [`QueryProfile`] must report the
//! same `total_steps` — parallelism may only change wall-clock, never the
//! answer or the amount of semantic work. A parallelism-1 engine must
//! additionally byte-match the plain sequential VM entry point, proving
//! the parallel plumbing is a true no-op when it is switched off.
//!
//! Documents are generated at ~24k nodes so the push/pull kernels really
//! split the work into multiple chunks (the grains are 128 source nodes /
//! 1024 candidate ids — tiny trees collapse to one chunk and would test
//! nothing). The `Deep(2)` document makes closures run thousands of
//! sparse rounds and cross the sparse↔dense switch, so the hybrid `Star`
//! loop is held to the same bit-identical answers and `total_steps`.

use treewalk::{Backend, Engine};
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document, NodeId};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const QUERIES: [&str; 6] = [
    "down*",
    "(up | down)*",
    "down*[b]/right*",
    "(down[b] | down/down)*",
    "down*/up*[a]",
    "(left | right)*[c]",
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
fn answers_are_bit_identical_across_thread_counts() {
    let (_catalog, docs) = docs();
    for doc in &docs {
        for query in QUERIES {
            for ctx in contexts(doc) {
                let reference = Engine::with_backend(Backend::Vm)
                    .with_parallelism(1)
                    .query(doc, query, ctx)
                    .expect("query evaluates");
                for t in THREADS {
                    let parallel = Engine::with_backend(Backend::Vm)
                        .with_parallelism(t)
                        .query(doc, query, ctx)
                        .expect("query evaluates");
                    assert_eq!(
                        parallel.as_words(),
                        reference.as_words(),
                        "`{query}` ctx {ctx:?}: {t}-thread answer differs bit-for-bit"
                    );
                }
            }
        }
    }
}

#[test]
fn total_steps_is_invariant_under_thread_count() {
    let (_catalog, docs) = docs();
    for doc in [&docs[0], &docs[2]] {
        let ctx = doc.tree.root();
        for query in QUERIES {
            let mut seen: Vec<(usize, u64)> = Vec::new();
            for t in THREADS {
                let engine = Engine::with_backend(Backend::Vm).with_parallelism(t);
                // warm the plan cache so the profiled run is eval-only and
                // comparable across engines
                engine.query(doc, query, ctx).expect("warmup");
                let profile = engine.explain(doc, query, ctx).expect("explain");
                seen.push((t, profile.total_steps()));
            }
            let (_, reference) = seen[0];
            for &(t, steps) in &seen {
                assert_eq!(
                    steps, reference,
                    "`{query}`: total_steps at {t} threads ({steps}) != at 1 thread ({reference}); \
                     scheduling must not change the semantic work accounting"
                );
            }
        }
    }
}

#[test]
fn parallelism_one_matches_plain_sequential_vm() {
    // `with_parallelism(1)` must add nothing on top of the VM: the answer
    // byte-matches `twx_vm::eval_image` with default options
    // on the engine's own compiled program.
    let (_catalog, docs) = docs();
    let doc = &docs[1];
    for query in QUERIES {
        let engine = Engine::with_backend(Backend::Vm).with_parallelism(1);
        for ctx in contexts(doc) {
            let via_engine = engine.query(doc, query, ctx).expect("engine eval");
            let program = twx_vm::compile_path(
                &twx_regxpath::parser::parse_rpath(query, &mut doc.alphabet.clone())
                    .expect("parse"),
            );
            let ctx_set = twx_xtree::NodeSet::singleton(doc.tree.len(), ctx);
            let direct = twx_vm::eval_image(&doc.tree, &program, &ctx_set);
            assert_eq!(
                via_engine.as_words(),
                direct.as_words(),
                "`{query}` ctx {ctx:?}: parallelism=1 engine diverges from sequential VM"
            );
        }
    }
}

#[test]
fn default_parallelism_comes_from_env_or_one() {
    // The engine default is read from TWX_EVAL_THREADS once per process;
    // whatever it resolved to, it is ≥ 1 and the builder override wins.
    let e = Engine::with_backend(Backend::Vm);
    assert!(e.parallelism() >= 1);
    assert_eq!(e.with_parallelism(3).parallelism(), 3);
    assert_eq!(
        Engine::with_backend(Backend::Vm)
            .with_parallelism(0)
            .parallelism(),
        1,
        "parallelism clamps to at least one thread"
    );
}
