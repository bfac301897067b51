//! Integration tests for the observability layer (`twx-obs`) as seen
//! through the facade: agreement with the reference translations, EXPLAIN
//! profiles, memoisation counters, and the JSON export.
//!
//! The counter assertions are gated on `treewalk::obs::ENABLED` so the
//! suite also passes under `--no-default-features`, where every
//! instrumentation call compiles to a no-op.

use std::sync::atomic::{AtomicBool, Ordering};
use treewalk::obs::{self, Counter};
use treewalk::regxpath::eval::Compiled;
use treewalk::regxpath::parser::parse_rpath_resolved;
use treewalk::Engine;
use twx_conform::{reference_image, RouteId};
use twx_xtree::parse::parse_xml;
use twx_xtree::{Document, NodeSet};

fn doc() -> Document {
    parse_xml("<a><b><c/><d/></b><c><b><d/></b></c><d/></a>").unwrap()
}

/// The engine's VM must return the same node set as each of the paper's
/// three constructions applied to the simplified AST it compiled — the
/// equivalence triangle, exercised through the public engine API.
#[test]
fn backends_return_identical_nodesets() {
    let queries = [
        "down*[c]",
        "(down[b] | right)*",
        "down+[d]/up",
        "down[<?(true)/down[d]>]",
        "(down | right)*[b]/down*",
    ];
    let d = doc();
    let root = d.tree.root();
    let ctx = NodeSet::singleton(d.tree.len(), root);
    for q in queries {
        let p = Engine::new()
            .prepare(&d, q)
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        let vm = p.eval(&d, root);
        for route in RouteId::REFERENCES {
            assert_eq!(
                vm,
                reference_image(route, p.path(), &d.tree, &ctx),
                "{q}: vm and {} disagree",
                route.name()
            );
        }
    }
}

/// EXPLAIN returns a correct result count and, with obs enabled, non-zero
/// VM work counters plus compiled-program sizes; each reference
/// translation, run directly, bumps its own signature and size counters.
#[test]
fn explain_profiles_carry_backend_counters() {
    let d = doc();
    let root = d.tree.root();
    let engine = Engine::new();
    let profile = engine.explain(&d, "down*[c]", root).unwrap();
    assert_eq!(profile.tree_size, d.tree.len());
    assert_eq!(profile.result_count, 2);
    assert_eq!(profile.compiled.query_size, 4);
    // program sizes are structural: reported with or without obs
    assert!(profile.compiled.vm_instrs > 0, "compiled size missing");
    assert!(profile.compiled.vm_regs > 0);
    // text and JSON renderings both carry the query
    assert!(profile.to_text().contains("down*[c]"));
    assert!(profile.to_json().render().contains("result_count"));
    if !obs::ENABLED {
        assert!(
            profile.counters.is_zero(),
            "counters must no-op when disabled"
        );
        return;
    }
    assert!(profile.counters.get(Counter::VmInstructions) > 0);
    // `down*` is one axis-closure kernel run, not closure rounds
    assert_eq!(profile.counters.get(Counter::VmAxisClosures), 1);
    assert_eq!(profile.counters.get(Counter::VmClosureIters), 0);
    assert!(profile.to_text().contains("vm_axis_closures"));
    assert!(profile.eval_nanos > 0);
    assert!(profile.compile_nanos > 0);
    assert!(profile.total_steps() > 0);

    // each construction has a signature counter any evaluation bumps and
    // a counter recording the size of the artifact it translated to
    let path = engine.prepare(&d, "down*[c]").unwrap().path().clone();
    let ctx = NodeSet::singleton(d.tree.len(), root);
    for (route, signature, size) in [
        (
            RouteId::Product,
            Counter::ProductConfigs,
            Counter::CompiledNfaStates,
        ),
        (
            RouteId::Automaton,
            Counter::TwaSteps,
            Counter::CompiledNtwaStates,
        ),
        (
            RouteId::Logic,
            Counter::FoEvalSteps,
            Counter::CompiledFormulaSize,
        ),
    ] {
        let before = obs::snapshot();
        let answer = reference_image(route, &path, &d.tree, &ctx);
        let counters = obs::delta_since(&before);
        assert_eq!(answer.count(), 2, "{}", route.name());
        for counter in [signature, size] {
            assert!(
                counters.get(counter) > 0,
                "{}: {} should be non-zero",
                route.name(),
                counter.name()
            );
        }
        // the reference never touches the VM
        assert_eq!(counters.get(Counter::VmInstructions), 0);
    }
}

/// A star whose body moves one way only is one automaton pass: EXPLAIN
/// shows `vm_one_way_passes` and no closure rounds, in both directions
/// (`<…>` runs the converse, backward pass).
#[test]
fn explain_counts_one_way_passes() {
    let d = doc();
    let root = d.tree.root();
    let engine = Engine::new();
    for (q, result) in [("(down/down)*[c]", 1), ("down*[<(down/down)*[d]>]", 5)] {
        let profile = engine.explain(&d, q, root).unwrap();
        assert_eq!(profile.result_count, result, "{q}");
        if !obs::ENABLED {
            continue;
        }
        assert_eq!(profile.counters.get(Counter::VmOneWayPasses), 1, "{q}");
        assert_eq!(profile.counters.get(Counter::VmClosureIters), 0, "{q}");
        assert!(profile.to_text().contains("vm_one_way_passes"), "{q}");
    }
}

/// Compilation happens at prepare time, on every prepare: each prepare
/// of a text simplifies and compiles it again, to a program with the
/// same result-cache key, and evaluations through a `Prepared` value
/// never compile.
#[test]
fn every_prepare_compiles_and_evals_never_do() {
    if !obs::ENABLED {
        return;
    }
    let d = doc();
    let root = d.tree.root();
    let engine = Engine::new();
    let ctx = NodeSet::singleton(d.tree.len(), root);

    let prepare = || {
        let before = obs::snapshot();
        let p = engine.prepare(&d, "down+[b]").unwrap();
        let compile = obs::delta_since(&before);
        assert!(compile.get(Counter::CompileNanos) > 0);
        assert!(compile.get(Counter::CompiledVmInstrs) > 0);
        assert!(compile.get(Counter::SimplifyPasses) > 0);
        p
    };
    let p = prepare();
    let again = prepare();
    assert_eq!(p.fingerprint(), again.fingerprint());

    // evaluating a prepared query never re-compiles
    let first = p.explain(&d, root);
    assert_eq!(first.counters.get(Counter::CompileNanos), 0);
    assert_eq!(first.counters.get(Counter::SimplifyPasses), 0);
    let product = reference_image(RouteId::Product, p.path(), &d.tree, &ctx);
    assert_eq!(first.result_count, product.count());
    assert_eq!(again.eval(&d, root), product);
}

/// The snapshot/delta protocol isolates concurrent work: counters are
/// thread-local, so a busy sibling thread never leaks into a profile.
#[test]
fn profiles_are_thread_local() {
    if !obs::ENABLED {
        return;
    }
    let done = AtomicBool::new(false);
    let busy = AtomicBool::new(false);
    let profiles = std::thread::scope(|s| {
        // the sibling keeps running the product evaluator — the only
        // code that ticks `ProductConfigs` — until the profiles below are
        // taken, so the two overlap
        s.spawn(|| {
            let d = doc();
            let path = parse_rpath_resolved("(down | right)*", &d.alphabet).unwrap();
            let product = Compiled::new(&path);
            let ctx = NodeSet::singleton(d.tree.len(), d.tree.root());
            while !done.load(Ordering::Acquire) {
                let _ = product.image(&d.tree, &ctx);
                busy.store(true, Ordering::Release);
            }
        });
        while !busy.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let d = doc();
        let root = d.tree.root();
        // many cold profiles, spread over several scheduler time slices,
        // so some of them overlap the sibling even when both threads
        // share one core
        let profiles: Vec<_> = (0..200)
            .map(|_| Engine::new().explain(&d, "down[b]", root).unwrap())
            .collect();
        done.store(true, Ordering::Release);
        profiles
    });
    // the VM profile visits no product configs of its own; interference
    // from the sibling thread would blow well past this
    for profile in &profiles {
        assert!(
            profile.counters.get(Counter::ProductConfigs) < 100,
            "profile contaminated: {} configs",
            profile.counters.get(Counter::ProductConfigs)
        );
    }
}

/// Profile JSON is parseable by the bundled strict parser and carries the
/// full counter map.
#[test]
fn profile_json_round_trips() {
    let d = doc();
    let root = d.tree.root();
    let profile = Engine::new().explain(&d, "down*[c]", root).unwrap();
    let rendered = profile.to_json().render();
    let parsed = obs::json::parse(&rendered).expect("profile JSON parses");
    let obj = match parsed {
        obs::json::Json::Obj(fields) => fields,
        other => panic!("expected object, got {other:?}"),
    };
    let get = |k: &str| {
        obj.iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {k}"))
    };
    assert_eq!(get("query").render(), "\"down*[c]\"");
    assert_eq!(get("result_count").render(), "2");
    assert!(matches!(get("counters"), obs::json::Json::Obj(_)));
    assert!(matches!(get("compiled"), obs::json::Json::Obj(_)));
}
