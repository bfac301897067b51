//! Integration tests for the observability layer (`twx-obs`) as seen
//! through the facade: backend agreement, EXPLAIN profiles, memoisation
//! counters, and the JSON export.
//!
//! The counter assertions are gated on `treewalk::obs::ENABLED` so the
//! suite also passes under `--no-default-features`, where every
//! instrumentation call compiles to a no-op.

use std::sync::atomic::{AtomicBool, Ordering};
use treewalk::obs::{self, Counter};
use treewalk::{Backend, Engine};
use twx_xtree::parse::parse_xml;
use twx_xtree::Document;

const ALL_BACKENDS: [Backend; 4] = [
    Backend::Product,
    Backend::Automaton,
    Backend::Logic,
    Backend::Vm,
];

fn doc() -> Document {
    parse_xml("<a><b><c/><d/></b><c><b><d/></b></c><d/></a>").unwrap()
}

/// Every backend must return the same node set for the same query — the
/// paper's equivalence triangle, exercised through the public engine API.
#[test]
fn backends_return_identical_nodesets() {
    let queries = [
        "down*[c]",
        "(down[b] | right)*",
        "down+[d]/up",
        "down[<?(true)/down[d]>]",
        "(down | right)*[b]/down*",
    ];
    for q in queries {
        let mut answers = Vec::new();
        for backend in ALL_BACKENDS {
            let d = doc();
            let root = d.tree.root();
            let ns = Engine::with_backend(backend)
                .query(&d, q, root)
                .unwrap_or_else(|e| panic!("{q}: {e}"));
            answers.push((backend.name(), ns));
        }
        for (name, ns) in &answers[1..] {
            assert_eq!(
                &answers[0].1, ns,
                "{q}: {} and {name} disagree",
                answers[0].0
            );
        }
    }
}

/// EXPLAIN returns a correct result count and, with obs enabled, non-zero
/// backend-specific work counters plus compiled-artifact sizes.
#[test]
fn explain_profiles_carry_backend_counters() {
    for backend in ALL_BACKENDS {
        let d = doc();
        let root = d.tree.root();
        let profile = Engine::with_backend(backend)
            .explain(&d, "down*[c]", root)
            .unwrap();
        assert_eq!(profile.backend, backend.name());
        assert_eq!(profile.tree_size, d.tree.len());
        assert_eq!(profile.result_count, 2, "{}", backend.name());
        assert_eq!(profile.compiled.query_size, 4);

        if !obs::ENABLED {
            assert!(
                profile.counters.is_zero(),
                "counters must no-op when disabled"
            );
            continue;
        }
        // each backend has a signature counter that any evaluation bumps
        let signature = match backend {
            Backend::Product => Counter::ProductConfigs,
            Backend::Automaton => Counter::TwaSteps,
            Backend::Logic => Counter::FoEvalSteps,
            Backend::Vm => Counter::VmInstructions,
        };
        assert!(
            profile.counters.get(signature) > 0,
            "{}: {} should be non-zero",
            backend.name(),
            signature.name()
        );
        assert_eq!(profile.counters.get(Counter::MemoMisses), 1);
        assert!(profile.eval_nanos > 0);
        assert!(profile.compile_nanos > 0);
        // the compiled size for the active backend must be reported
        let size = match backend {
            Backend::Product => profile.compiled.nfa_states,
            Backend::Automaton => profile.compiled.ntwa_states,
            Backend::Logic => profile.compiled.formula_size,
            Backend::Vm => profile.compiled.vm_instrs,
        };
        assert!(size > 0, "{}: compiled size missing", backend.name());
        assert!(profile.total_steps() > 0);
        // text and JSON renderings both carry the query
        assert!(profile.to_text().contains("down*[c]"));
        assert!(profile.to_json().render().contains("result_count"));
    }
}

/// Compilation happens once, at prepare time, through the plan cache: the
/// first prepare is a cache miss, repeat prepares are hits, and
/// evaluations through a `Prepared` value never compile.
#[test]
fn repeat_preparations_hit_the_plan_cache() {
    if !obs::ENABLED {
        return;
    }
    for backend in ALL_BACKENDS {
        let d = doc();
        let root = d.tree.root();
        let engine = Engine::with_backend(backend);

        let before = obs::snapshot();
        let p = engine.prepare(&d, "down+[b]").unwrap();
        let compile = obs::delta_since(&before);
        assert_eq!(
            compile.get(Counter::PlanCacheMisses),
            1,
            "{}",
            backend.name()
        );
        assert_eq!(compile.get(Counter::MemoMisses), 1, "{}", backend.name());
        assert_eq!(compile.get(Counter::PlanCacheHits), 0, "{}", backend.name());
        assert!(compile.get(Counter::CompileNanos) > 0, "{}", backend.name());
        assert!(
            compile.get(Counter::SimplifyPasses) > 0,
            "{}",
            backend.name()
        );

        // evaluating a prepared plan never re-compiles
        let first = p.explain(&d, root);
        assert_eq!(
            first.counters.get(Counter::CompileNanos),
            0,
            "{}",
            backend.name()
        );
        assert_eq!(
            first.counters.get(Counter::PlanCacheMisses),
            0,
            "{}",
            backend.name()
        );
        let second = p.explain(&d, root);
        assert_eq!(first.result_count, second.result_count);

        // a repeat prepare of the same query is a pure cache hit
        let before = obs::snapshot();
        let p2 = engine.prepare(&d, "down+[b]").unwrap();
        let hit = obs::delta_since(&before);
        assert_eq!(hit.get(Counter::PlanCacheHits), 1, "{}", backend.name());
        assert_eq!(hit.get(Counter::MemoHits), 1, "{}", backend.name());
        assert_eq!(hit.get(Counter::PlanCacheMisses), 0, "{}", backend.name());
        assert_eq!(hit.get(Counter::CompileNanos), 0, "{}", backend.name());
        assert_eq!(p2.eval(&d, root), p.eval(&d, root));

        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{}", backend.name());
    }
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
    let profile = std::thread::scope(|s| {
        // the sibling keeps evaluating on the product backend until the
        // profile below is taken, so the two overlap
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let d = doc();
                let root = d.tree.root();
                let _ = Engine::with_backend(Backend::Product)
                    .query(&d, "(down | right)*", root)
                    .unwrap();
                busy.store(true, Ordering::Release);
            }
        });
        while !busy.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let d = doc();
        let root = d.tree.root();
        let profile = Engine::with_backend(Backend::Product)
            .explain(&d, "down[b]", root)
            .unwrap();
        done.store(true, Ordering::Release);
        profile
    });
    // a single `down[b]` on a 9-node tree visits a bounded config set;
    // interference from the sibling thread would blow well past this
    assert!(
        profile.counters.get(Counter::ProductConfigs) < 100,
        "profile contaminated: {} configs",
        profile.counters.get(Counter::ProductConfigs)
    );
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
    let backend = format!("\"{}\"", Backend::default().name());
    assert_eq!(get("backend").render(), backend);
    assert_eq!(get("result_count").render(), "2");
    assert!(matches!(get("counters"), obs::json::Json::Obj(_)));
    assert!(matches!(get("compiled"), obs::json::Json::Obj(_)));
}
