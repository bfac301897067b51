//! Integration tests for the staged compile pipeline: the mandatory
//! simplify stage, the result-cache key every [`Prepared`] carries, and
//! the `Send + Sync` prepare-once/serve-many contract of [`Engine`] and
//! [`Prepared`].

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

/// The product reference's answer to `path` on `doc` from its root.
fn product(doc: &Document, path: &RPath) -> NodeSet {
    let t = &doc.tree;
    reference_image(
        RouteId::Product,
        path,
        t,
        &NodeSet::singleton(t.len(), t.root()),
    )
}

/// One `Prepared` value hammered from 8 threads returns the product
/// reference's answer everywhere, and the same text re-prepared on each
/// thread compiles to a program with the same result-cache key.
#[test]
fn one_prepared_serves_eight_threads() {
    let catalog = Catalog::new();
    let doc = parse_xml_catalog("<a><b><c/><d/></b><c><b><d/></b></c><d/></a>", &catalog).unwrap();
    let engine = Engine::new();
    let prepared = Arc::new(engine.prepare(&doc, "(down | right)*[b]").unwrap());
    let expected = product(&doc, prepared.path());

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
                let again = engine.prepare(doc, "(down | right)*[b]").unwrap();
                assert_eq!(again.fingerprint(), p.fingerprint());
                assert_eq!(again.eval(doc, doc.tree.root()), *expected);
            });
        }
    });
}

/// Unknown labels surface as a typed error against immutable documents
/// and shared catalogs alike: resolution is read-only, so neither label
/// space grows.
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

/// The mandatory simplify stage is visible in EXPLAIN profiles: passes are
/// counted and shrinkage is reported for a query with redundancy, and
/// the result cache keys answers by what simplify left.
#[test]
fn explain_shows_simplify_and_cache_counters() {
    let doc = parse_xml("<a><b/><b/></a>").unwrap();
    let root = doc.tree.root();
    let engine = Engine::new();
    let profile = engine.explain(&doc, "(down | down)[b]", root).unwrap();
    assert_eq!(profile.result_count, 2);
    if obs::ENABLED {
        assert!(profile.counters.get(obs::Counter::SimplifyPasses) > 0);
        assert!(profile.counters.get(obs::Counter::SimplifyShrunkNodes) > 0);
        assert!(profile.compile_nanos > 0);
    }
    // `down|down` collapses to `down`: the plainly written query compiles
    // to the same program, so the two texts share cached answers
    let redundant = engine.prepare(&doc, "(down | down)[b]").unwrap();
    let plain = engine.prepare(&doc, "down[b]").unwrap();
    assert_eq!(redundant.path(), plain.path());
    assert_eq!(redundant.fingerprint(), plain.fingerprint());
    assert_eq!(plain.eval(&doc, root), product(&doc, plain.path()));
}

/// Cached answers stay reachable while the catalog grows: a catalog is
/// append-only, so the same text prepared after new labels arrive
/// compiles to a program with the same result-cache key, and it answers
/// documents built after the growth like the product reference.
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
    assert_eq!(first.path(), again.path());
    assert_eq!(first.fingerprint(), again.fingerprint());

    let mut rng = SplitMix64::seed_from_u64(17);
    for shape in [Shape::DocumentLike, Shape::Wide, Shape::Recursive] {
        let doc = random_document_in(shape, 80, &catalog, &mut rng);
        let raw = twx_regxpath::parser::parse_rpath_catalog(query, &catalog).unwrap();
        assert_eq!(first.eval(&doc, doc.tree.root()), product(&doc, &raw));
    }
}

/// Catalogs that number the same names differently never share a text's
/// cached answers: `down[a]` is `down[#0]` in one and `down[#1]` in the
/// other, so the two compile to programs with different keys. Answers are
/// keyed by program, not text: `down[b]` in the second catalog compiles
/// to the first catalog's `down[a]` program and shares its key.
#[test]
fn text_entries_are_per_catalog() {
    let ab = Catalog::from_names(["a", "b"]);
    let ba = Catalog::from_names(["b", "a"]);
    let doc_ab = parse_xml_catalog("<a><a/><b/><b/><b/></a>", &ab).unwrap();
    let doc_ba = parse_xml_catalog("<a><a/><b/><b/><b/></a>", &ba).unwrap();
    let engine = Engine::new();
    for (catalog, doc) in [(&ab, &doc_ab), (&ba, &doc_ba)] {
        let root = doc.tree.root();
        let a = engine.prepare_in(catalog, "down[a]").unwrap();
        let b = engine.prepare_in(catalog, "down[b]").unwrap();
        assert_eq!(a.eval(doc, root).count(), 1, "one a-child");
        assert_eq!(b.eval(doc, root).count(), 3, "three b-children");
        for p in [&a, &b] {
            assert_eq!(p.eval(doc, root), product(doc, p.path()), "{}", p.text());
        }
    }
    let key = |catalog: &Catalog, q: &str| engine.prepare_in(catalog, q).unwrap().fingerprint();
    assert_ne!(
        key(&ab, "down[a]"),
        key(&ba, "down[a]"),
        "one text, two numberings"
    );
    assert_eq!(
        key(&ab, "down[a]"),
        key(&ba, "down[b]"),
        "both are down[#0]"
    );
    assert_eq!(
        key(&ab, "down[b]"),
        key(&ba, "down[a]"),
        "both are down[#1]"
    );
}

/// One text served in four label spaces — two catalogs and two parsed
/// documents, numbering `a` and `b` both ways — answers like the product
/// reference on its own parse in each. A catalog and a document that bind
/// the names alike compile it to one result-cache key.
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
    let keys: Vec<u64> = spaces.iter().map(|(p, _)| p.fingerprint()).collect();
    assert_eq!(keys[0], keys[1], "ab and parsed_ab bind the names alike");
    assert_eq!(keys[2], keys[3], "ba and parsed_ba bind the names alike");
    assert_ne!(keys[0], keys[2]);
}

/// Every `explain` of a text runs the whole prepare pipeline: a repeat
/// parses, simplifies and compiles again, and answers alike.
#[test]
fn repeat_explain_reruns_every_prepare_stage() {
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
        assert_eq!(stages, ["parse", "simplify", "compile", "eval"]);
        assert!(profile.compile_nanos > 0);
        assert!(profile.counters.get(obs::Counter::SimplifyPasses) > 0);
        profile
    };
    let (first, second) = (traced_explain(), traced_explain());
    assert_eq!(first.result_count, second.result_count);
    let p = engine.prepare(&doc, "down*[b]").unwrap();
    assert_eq!(first.result_count, product(&doc, p.path()).count());
}

/// Failed prepares leave nothing behind: a syntax error is reported the
/// same way every time, and the text prepared next answers like the
/// product reference.
#[test]
fn syntax_errors_are_not_cached() {
    let catalog = Catalog::from_names(["a"]);
    let doc = parse_xml_catalog("<a><a/><a><a/></a></a>", &catalog).unwrap();
    let engine = Engine::new();
    for _ in 0..2 {
        assert!(matches!(
            engine.prepare_in(&catalog, "down[["),
            Err(EngineError::Syntax(_))
        ));
    }
    let p = engine.prepare_in(&catalog, "down*[a]").unwrap();
    assert_eq!(p.eval(&doc, doc.tree.root()), product(&doc, p.path()));
}

/// A cold prepare decides nothing about satisfiability, so it stays
/// cheap for any text: a filter whose tree-automaton satisfiability
/// check runs to millions of rules, and contradictory filters, each
/// compile and answer like the product reference on the raw parse (the
/// contradictions answer ∅).
#[test]
fn a_cold_prepare_decides_no_satisfiability() {
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
