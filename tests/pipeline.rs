//! Integration tests for the staged compile pipeline: the mandatory
//! simplify stage, the shared plan cache, and the `Send + Sync`
//! prepare-once/serve-many contract of [`Engine`] and [`Prepared`].

use std::sync::Arc;
use treewalk::obs;
use treewalk::{Engine, EngineError, Prepared};
use twx_conform::{reference_image, RouteId};
use twx_regxpath::generate::{random_rpath, RGenConfig};
use twx_regxpath::print::rpath_to_string;
use twx_regxpath::{simplify_rpath, RPath};
use twx_xtree::generate::{enumerate_trees_up_to, random_document_in, Shape};
use twx_xtree::parse::{parse_xml, parse_xml_catalog};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document, NodeSet, Tree};

/// Compile-time proof that the engine types cross threads: `Prepared`
/// values are served from many threads, engines are cloned into them.
#[test]
fn engine_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<Catalog>();
    assert_send_sync::<treewalk::CacheStats>();
}

/// `p` evaluated from `ctx` by each of the paper's three reference
/// translations and by the VM, by name.
fn answers(t: &Tree, p: &RPath, ctx: &NodeSet) -> Vec<(&'static str, NodeSet)> {
    let mut out: Vec<_> = RouteId::REFERENCES
        .into_iter()
        .map(|r| (r.name(), reference_image(r, p, t, ctx)))
        .collect();
    out.push(("vm", twx_vm::eval_image(t, &twx_vm::compile_path(p), ctx)));
    out
}

/// The simplify stage is semantics-preserving for every evaluator: a
/// random path and its simplification compile to plans with identical
/// answers on every tree of a bounded domain (seeded, deterministic).
#[test]
fn simplify_stage_preserves_semantics_on_all_backends() {
    let trees = enumerate_trees_up_to(4, 2);
    let mut rng = SplitMix64::seed_from_u64(2008);
    let cfg = RGenConfig::default();
    for _ in 0..12 {
        let p = random_rpath(&cfg, 3, &mut rng);
        let sp = simplify_rpath(&p);
        for t in &trees {
            let all = NodeSet::full(t.len());
            assert_eq!(
                answers(t, &p, &all),
                answers(t, &sp, &all),
                "{p:?} vs simplified {sp:?}"
            );
        }
    }
}

/// One `Prepared` value hammered from 8 threads returns identical answers
/// everywhere, and repeat prepares on those threads are all plan-cache
/// hits.
#[test]
fn one_prepared_serves_eight_threads() {
    let catalog = Catalog::new();
    let doc = parse_xml_catalog("<a><b><c/><d/></b><c><b><d/></b></c><d/></a>", &catalog).unwrap();
    let engine = Engine::new();
    let prepared = Arc::new(engine.prepare(&doc, "(down | right)*[b]").unwrap());
    let expected = prepared.eval(&doc, doc.tree.root());

    std::thread::scope(|s| {
        for _ in 0..8 {
            let p = Arc::clone(&prepared);
            let engine = engine.clone();
            let doc = &doc;
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..16 {
                    assert_eq!(p.eval(doc, doc.tree.root()), *expected);
                }
                // the same query re-prepared on this thread is a cache hit
                let again = engine.prepare(doc, "(down | right)*[b]").unwrap();
                assert_eq!(again.eval(doc, doc.tree.root()), *expected);
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "one cold compile");
    assert_eq!(stats.hits, 8, "every thread re-prepare hit the cache");
    assert_eq!(stats.entries, 1);
}

/// `query_batch` fans one plan across catalog-shared documents and agrees
/// with sequential evaluation.
#[test]
fn query_batch_over_catalog_shared_documents() {
    let catalog = Catalog::from_names(["a", "b", "c"]);
    let mut rng = SplitMix64::seed_from_u64(77);
    let docs: Vec<Document> = (0..16)
        .map(|_| random_document_in(Shape::DocumentLike, 60, &catalog, &mut rng))
        .collect();
    let engine = Engine::new();
    let prepared = engine.prepare_in(&catalog, "down*[b]").unwrap();
    let jobs: Vec<(&Document, _)> = docs.iter().map(|d| (d, d.tree.root())).collect();
    let batch = engine.query_batch(&jobs, "down*[b]").unwrap();
    assert_eq!(batch.len(), docs.len());
    for (i, d) in docs.iter().enumerate() {
        assert_eq!(batch[i], prepared.eval(d, d.tree.root()), "doc {i}");
    }
}

/// Unknown labels surface as a typed error against immutable documents
/// and shared catalogs alike: resolution is read-only, so neither label
/// space grows, and a failed prepare caches nothing.
#[test]
fn unknown_labels_are_typed_errors_for_documents_and_catalogs() {
    let doc = parse_xml("<a><b/></a>").unwrap();
    let engine = Engine::new();
    match engine.prepare(&doc, "down[ghost]") {
        Err(EngineError::UnknownLabel { label }) => assert_eq!(label, "ghost"),
        other => panic!("expected UnknownLabel, got {other:?}"),
    }
    assert_eq!(doc.alphabet.len(), 2);

    let catalog = Catalog::from_names(["a", "b"]);
    for _ in 0..2 {
        match engine.prepare_in(&catalog, "down[ghost]") {
            Err(EngineError::UnknownLabel { label }) => assert_eq!(label, "ghost"),
            other => panic!("expected UnknownLabel, got {other:?}"),
        }
    }
    assert_eq!(catalog.len(), 2, "prepare_in never interns");
    assert_eq!(catalog.lookup("ghost"), None);
    assert_eq!(engine.cache_stats().entries, 0);
}

/// The engine's simplify stage is **idempotent** — feeding a
/// pipeline's output query back through the pipeline changes nothing —
/// and never grows the AST, across 2000 random queries.
#[test]
fn simplify_stage_is_idempotent_and_never_grows() {
    let catalog = Catalog::from_names(["p0", "p1"]);
    let mut rng = SplitMix64::seed_from_u64(500);
    let cfg = RGenConfig::default();
    let engine = Engine::new();
    for i in 0..2000 {
        let p = random_rpath(&cfg, 4, &mut rng);
        // the bare rewriting fixpoint is idempotent on its own…
        let s = simplify_rpath(&p);
        assert_eq!(simplify_rpath(&s), s, "simplify not a fixpoint: {p:?}");
        assert!(s.size() <= p.size(), "simplify grew {p:?} -> {s:?}");

        // …and so is the engine's prepare path, observed through
        // `path()`.
        let text = rpath_to_string(&p, &catalog.snapshot());
        let prepared = engine.prepare_in(&catalog, &text).unwrap();
        let once = prepared.path().clone();
        assert!(
            once.size() <= prepared.raw_size(),
            "query {i}: pipeline grew {} -> {} ({text})",
            prepared.raw_size(),
            once.size()
        );
        let again = engine
            .prepare_in(&catalog, &rpath_to_string(&once, &catalog.snapshot()))
            .unwrap();
        assert_eq!(
            *again.path(),
            once,
            "query {i}: pipeline not idempotent for {text}"
        );
    }
}

/// FIFO eviction under contention: 8 threads push 48 thread-disjoint
/// distinct queries through a capacity-8 cache. Keys never collide across
/// threads, so inserts == misses exactly, and the FIFO invariant
/// `evictions == inserts − capacity` must hold; the scoped join doubles
/// as the no-deadlock check.
#[test]
fn plan_cache_fifo_eviction_under_contention() {
    const CAPACITY: usize = 8;
    const THREADS: usize = 8;
    const PER_THREAD: usize = 6;
    let engine = Engine::with_cache_capacity(CAPACITY);
    let catalog = Catalog::from_names(["a"]);

    std::thread::scope(|s| {
        for i in 0..THREADS {
            let engine = engine.clone();
            let catalog = &catalog;
            s.spawn(move || {
                for j in 0..PER_THREAD {
                    // a down-chain of thread-unique length: 48 distinct
                    // simplified ASTs, so every lookup is a cold miss
                    let len = i * PER_THREAD + j + 1;
                    let q = vec!["down"; len].join("/");
                    engine.prepare_in(catalog, &q).unwrap();
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.capacity, CAPACITY);
    assert_eq!(stats.entries, CAPACITY, "cache must sit at capacity");
    assert_eq!(stats.hits, 0, "disjoint keys cannot hit");
    assert_eq!(stats.misses, (THREADS * PER_THREAD) as u64);
    assert_eq!(
        stats.evictions,
        stats.misses - CAPACITY as u64,
        "FIFO invariant: evictions == inserts − capacity"
    );

    // determinism coda: one more distinct query misses and evicts, its
    // immediate re-prepare hits
    let q = vec!["down"; THREADS * PER_THREAD + 1].join("/");
    engine.prepare_in(&catalog, &q).unwrap();
    engine.prepare_in(&catalog, &q).unwrap();
    let after = engine.cache_stats();
    assert_eq!(after.hits, 1);
    assert_eq!(after.misses, stats.misses + 1);
    assert_eq!(after.evictions, stats.evictions + 1);
    assert_eq!(after.entries, CAPACITY);
}

/// The mandatory simplify stage is visible in EXPLAIN profiles: passes are
/// counted and shrinkage is reported for a query with redundancy.
#[test]
fn explain_shows_simplify_and_cache_counters() {
    if !obs::ENABLED {
        return;
    }
    let doc = parse_xml("<a><b/><b/></a>").unwrap();
    let engine = Engine::new();
    let profile = engine
        .explain(&doc, "(down | down)[b]", doc.tree.root())
        .unwrap();
    assert_eq!(profile.result_count, 2);
    assert!(profile.counters.get(obs::Counter::SimplifyPasses) > 0);
    assert!(profile.counters.get(obs::Counter::SimplifyShrunkNodes) > 0);
    assert_eq!(profile.counters.get(obs::Counter::PlanCacheMisses), 1);
    // `down|down` collapses to `down`, but plans are keyed by text: the
    // plainly-written query compiles the same AST again, and only a
    // repeat of the redundant text hits
    let plain = engine.explain(&doc, "down[b]", doc.tree.root()).unwrap();
    assert_eq!(plain.counters.get(obs::Counter::PlanCacheMisses), 1);
    assert_eq!(plain.compiled.query_size, profile.compiled.query_size);
    let again = engine
        .explain(&doc, "(down | down)[b]", doc.tree.root())
        .unwrap();
    assert_eq!(again.counters.get(obs::Counter::PlanCacheHits), 1);
    assert_eq!(again.counters.get(obs::Counter::PlanCacheMisses), 0);
}

/// The plan cache stays exact while the catalog grows: a catalog is
/// append-only, so a repeat of the same text after new labels arrive is
/// a hit sharing the first plan, and it answers documents built
/// after the growth exactly as a cold engine does.
#[test]
fn text_hits_survive_catalog_growth() {
    let catalog = Catalog::from_names(["a", "b"]);
    let engine = Engine::new();
    let query = "down*[<down[b]>]";
    let first = engine.prepare_in(&catalog, query).unwrap();
    for name in ["c", "d", "e"] {
        catalog.intern(name);
    }
    let again = engine.prepare_in(&catalog, query).unwrap();
    assert!(Arc::ptr_eq(first.program(), again.program()));
    assert_eq!(first.path(), again.path());
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    let cold = Engine::new().prepare_in(&catalog, query).unwrap();
    let mut rng = SplitMix64::seed_from_u64(17);
    for shape in [Shape::DocumentLike, Shape::Wide, Shape::Recursive] {
        let doc = random_document_in(shape, 80, &catalog, &mut rng);
        let root = doc.tree.root();
        assert_eq!(first.eval(&doc, root), again.eval(&doc, root));
        assert_eq!(again.eval(&doc, root), cold.eval(&doc, root));
    }
}

/// Catalogs that number the same names differently never share an
/// entry: `down[a]` is `down[#0]` in one and `down[#1]` in the other, so
/// a text's bindings decide the probe, and each switch of catalog is a
/// miss that replaces the entry. Plans are keyed by text alone: `down[b]`
/// in the second catalog compiles to the first catalog's `down[a]` plan,
/// but compiles again.
#[test]
fn text_entries_are_per_catalog() {
    let ab = Catalog::from_names(["a", "b"]);
    let ba = Catalog::from_names(["b", "a"]);
    let doc_ab = parse_xml_catalog("<a><a/><b/><b/><b/></a>", &ab).unwrap();
    let doc_ba = parse_xml_catalog("<a><a/><b/><b/><b/></a>", &ba).unwrap();
    let engine = Engine::new();
    for _ in 0..2 {
        for (catalog, doc) in [(&ab, &doc_ab), (&ba, &doc_ba)] {
            let root = doc.tree.root();
            let a = engine.prepare_in(catalog, "down[a]").unwrap();
            let b = engine.prepare_in(catalog, "down[b]").unwrap();
            assert_eq!(a.eval(doc, root).count(), 1, "one a-child");
            assert_eq!(b.eval(doc, root).count(), 3, "three b-children");
        }
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 8, "every prepare follows a switch of catalog");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, 2, "one entry per text");
    let b_in_ba = engine.prepare_in(&ba, "down[b]").unwrap();
    assert_eq!(engine.cache_stats().hits, 1, "same catalog again: a hit");
    let a_in_ab = engine.prepare_in(&ab, "down[a]").unwrap();
    assert_eq!(a_in_ab.path(), b_in_ba.path(), "both are down[#0]");
    assert!(!Arc::ptr_eq(a_in_ab.program(), b_in_ba.program()));
}

/// One text served in four label spaces — two catalogs and two parsed
/// documents, numbering `a` and `b` both ways — answers like the product
/// reference on its own parse in each. A catalog and a document that bind
/// the names alike share one entry: the second is a hit.
#[test]
fn one_text_serves_every_label_space_that_binds_it_alike() {
    const QUERY: &str = "down*[a]/(down/right)*[<down[b]> or leaf]";
    let ab = Catalog::from_names(["a", "b"]);
    let ba = Catalog::from_names(["b", "a"]);
    let mut rng = SplitMix64::seed_from_u64(26);
    let doc_in_ab = random_document_in(Shape::Recursive, 60, &ab, &mut rng);
    let doc_in_ba = random_document_in(Shape::Recursive, 60, &ba, &mut rng);
    let parsed_ab = parse_xml("<a><b><a/><b/></b><a><a><b/></a></a></a>").unwrap();
    let parsed_ba = parse_xml("<b><a><b/><a><b/></a></a><a/></b>").unwrap();
    assert_eq!(parsed_ab.alphabet.lookup("a"), ab.lookup("a"));
    assert_eq!(parsed_ba.alphabet.lookup("a"), ba.lookup("a"));
    let engine = Engine::new();
    let spaces = [
        (engine.prepare_in(&ab, QUERY).unwrap(), &doc_in_ab),
        (engine.prepare(&parsed_ab, QUERY).unwrap(), &parsed_ab),
        (engine.prepare_in(&ba, QUERY).unwrap(), &doc_in_ba),
        (engine.prepare(&parsed_ba, QUERY).unwrap(), &parsed_ba),
    ];
    for (prepared, doc) in &spaces {
        let t = &doc.tree;
        let raw = twx_regxpath::parse_rpath_resolved(QUERY, &doc.alphabet).unwrap();
        let ctx = NodeSet::singleton(t.len(), t.root());
        assert_eq!(
            prepared.eval(doc, t.root()),
            reference_image(RouteId::Product, &raw, t, &ctx),
            "{:?}",
            doc.alphabet
        );
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 1));
}

/// A repeated `explain` of one text on a fresh engine is a plan-cache
/// hit: the second call ticks `plan_cache_hits` and runs no `parse` or
/// `simplify` stage.
#[test]
fn repeat_explain_skips_parse_and_simplify() {
    if !obs::ENABLED {
        return;
    }
    let doc = parse_xml("<a><b/><c><b/></c></a>").unwrap();
    let root = doc.tree.root();
    let engine = Engine::new();
    let traced_explain = || {
        assert!(obs::trace::begin("explain", obs::TraceId::next()));
        let profile = engine.explain(&doc, "down*[b]", root).unwrap();
        let tree = obs::trace::take().expect("trace collected");
        let stages: Vec<String> = tree.root.children.iter().map(|c| c.name.clone()).collect();
        (profile, stages)
    };
    let (first, stages) = traced_explain();
    assert_eq!(stages, ["parse", "simplify", "plan_cache", "eval"]);
    let (second, stages) = traced_explain();
    assert_eq!(stages, ["eval"]);
    assert_eq!(first.counters.get(obs::Counter::PlanCacheMisses), 1);
    assert_eq!(second.counters.get(obs::Counter::PlanCacheHits), 1);
    assert_eq!(second.counters.get(obs::Counter::PlanCacheMisses), 0);
    assert_eq!(second.counters.get(obs::Counter::SimplifyPasses), 0);
    assert_eq!(first.result_count, second.result_count);
}

/// Failed prepares are never cached: a syntax error leaves the plan cache
/// alone, is not a hit the second time, and reports the same error.
#[test]
fn syntax_errors_are_not_cached() {
    let catalog = Catalog::from_names(["a"]);
    let engine = Engine::new();
    engine.prepare_in(&catalog, "down*[a]").unwrap();
    let before = engine.cache_stats();
    for _ in 0..2 {
        assert!(matches!(
            engine.prepare_in(&catalog, "down[["),
            Err(EngineError::Syntax(_))
        ));
    }
    let after = engine.cache_stats();
    assert_eq!(after, before, "no entry, hit or miss for a failed text");
    engine.prepare_in(&catalog, "down*[a]").unwrap();
    assert_eq!(engine.cache_stats().hits, before.hits + 1);
}

/// A cold prepare decides nothing about satisfiability, so it stays
/// cheap for any text: a filter whose tree-automaton satisfiability
/// check runs to millions of rules, and contradictory filters, each
/// compile and answer like the product reference on the raw parse (the
/// contradictions answer ∅).
#[test]
fn prune_budget_bounds_a_cold_prepare() {
    let hostile = "down*[<down[a]> or <down[b]> or <down[c]>]";
    let contradictions = [
        "down[b and !b]",
        "down*[leaf and <down>]",
        "down[<down[b and !b]>]",
        "down[W(a and b)]",
        "down[W(<down[b]> and leaf)]",
    ];
    let catalog = Catalog::from_names(["a", "b", "c", "d"]);
    let engine = Engine::new();
    let mut rng = SplitMix64::seed_from_u64(31);
    let docs: Vec<Document> = [Shape::DocumentLike, Shape::Wide, Shape::Recursive]
        .into_iter()
        .map(|shape| random_document_in(shape, 120, &catalog, &mut rng))
        .collect();
    for query in std::iter::once(hostile).chain(contradictions) {
        let prepared = engine.prepare_in(&catalog, query).unwrap();
        let raw = twx_regxpath::parser::parse_rpath_catalog(query, &catalog).unwrap();
        for doc in &docs {
            let t = &doc.tree;
            let ctx = NodeSet::singleton(t.len(), t.root());
            let vm = prepared.eval(doc, t.root());
            assert_eq!(
                vm,
                reference_image(RouteId::Product, &raw, t, &ctx),
                "{query}"
            );
            if query != hostile {
                assert!(vm.is_empty(), "{query}: a contradiction has no answer");
            }
        }
    }
}
