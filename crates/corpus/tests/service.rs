//! End-to-end properties of the corpus query service.
//!
//! The load-bearing one: a concurrent corpus query returns exactly what a
//! sequential [`Engine::query`] returns per document — and what the
//! reference product evaluator returns on the same simplified plan —
//! sharding, queueing, and worker scheduling are invisible in
//! the answer. Plus the failure modes the service is specified to have:
//! deadline expiry yields a *flagged, partial, still-correct* answer, a
//! saturated admission queue yields a typed `Overloaded` rejection, and
//! shutdown drains everything already admitted.

use std::sync::Arc;
use std::time::Duration;
use treewalk::Engine;
use twx_corpus::{Corpus, Placement, QueryService, ServiceConfig, ServiceError};
use twx_obs::{self as obs, Counter};
use twx_regxpath::eval::Compiled;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{Catalog, NodeSet};

const QUERIES: &[&str] = &[
    "down*[b]",
    "(down | right)*[c]",
    "down[a]/down*[b]",
    "down+[!a and !b]",
    "?(a)/down/down",
    "down*[<down[b]> or <down[c]>]",
    ".",
    "down*[W(<down+[d]>)]",
];

fn build_corpus(
    seed: u64,
    n_docs: usize,
    max_extra_nodes: u64,
    n_shards: usize,
    placement: Placement,
) -> Arc<Corpus> {
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut b = Corpus::builder(Arc::clone(&catalog), n_shards).placement(placement);
    let shapes = [Shape::Recursive, Shape::Deep(2), Shape::Bounded(3)];
    for i in 0..n_docs {
        let n = 5 + (rng.next_u64() % max_extra_nodes) as usize;
        b.add_document(random_document_in(
            shapes[i % shapes.len()],
            n,
            &catalog,
            &mut rng,
        ));
    }
    Arc::new(b.build())
}

/// Concurrent answers equal sequential per-document evaluation and the
/// reference product evaluator, for both placements and several shard
/// counts.
#[test]
fn service_matches_sequential_engine() {
    for (n_shards, placement) in [
        (1, Placement::RoundRobin),
        (3, Placement::RoundRobin),
        (4, Placement::SizeBalanced),
    ] {
        let corpus = build_corpus(0xC0DE + n_shards as u64, 10, 60, n_shards, placement);
        let engine = Engine::new();
        let service = QueryService::new(
            Arc::clone(&corpus),
            engine.clone(),
            ServiceConfig {
                workers: 3,
                queue_capacity: 64,
                default_timeout: None,
                slowlog_capacity: 16,
            },
        );
        for q in QUERIES {
            let answer = service
                .query(q)
                .unwrap_or_else(|e| panic!("{n_shards} shards: query `{q}` failed: {e}"));
            assert!(!answer.timed_out);
            assert_eq!(
                answer.per_doc.len(),
                corpus.n_docs(),
                "query `{q}` covers all docs"
            );
            assert_eq!(answer.shards.len(), n_shards);
            let mut expected_total = 0u64;
            let reference = Compiled::new(engine.prepare_in(corpus.catalog(), q).unwrap().path());
            for (id, _version, set) in &answer.per_doc {
                let doc = corpus.doc(*id).expect("answer ids are corpus ids");
                let root = doc.tree.root();
                let sequential = engine.query(&doc, q, root).unwrap();
                assert_eq!(
                    *set, sequential,
                    "{n_shards} shards: `{q}` on {id} diverges from sequential"
                );
                let ctx = NodeSet::singleton(doc.tree.len(), root);
                assert_eq!(
                    sequential,
                    reference.image(&doc.tree, &ctx),
                    "`{q}` on {id} diverges from the product reference"
                );
                expected_total += sequential.count() as u64;
            }
            assert_eq!(answer.total_matches, expected_total);
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, QUERIES.len() as u64);
        assert_eq!(stats.completed, QUERIES.len() as u64);
        assert_eq!(stats.rejected, 0);
    }
}

/// An already-expired deadline yields a flagged, partial answer whose
/// documents (if any) are still individually correct.
#[test]
fn expired_deadline_yields_flagged_partial_answer() {
    let corpus = build_corpus(7, 12, 40, 3, Placement::RoundRobin);
    let engine = Engine::new();
    let service = QueryService::new(
        Arc::clone(&corpus),
        engine.clone(),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );
    let answer = service
        .query_with_timeout("down*[b]", Some(Duration::ZERO))
        .unwrap();
    assert!(
        answer.timed_out,
        "a zero deadline cannot finish 12 documents"
    );
    assert!(answer.per_doc.len() < corpus.n_docs());
    let skipped: usize = answer.shards.iter().map(|t| t.skipped_docs).sum();
    assert_eq!(skipped + answer.per_doc.len(), corpus.n_docs());
    for (id, _version, set) in &answer.per_doc {
        let doc = corpus.doc(*id).unwrap();
        assert_eq!(
            *set,
            engine.query(&doc, "down*[b]", doc.tree.root()).unwrap()
        );
    }
    // an ample deadline on the same service completes fully
    let full = service
        .query_with_timeout("down*[b]", Some(Duration::from_secs(60)))
        .unwrap();
    assert!(!full.timed_out);
    assert_eq!(full.per_doc.len(), corpus.n_docs());
    let stats = service.shutdown();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.completed, 2);
}

/// With no workers draining, admission control fills deterministically
/// and rejects with the typed `Overloaded` error; nothing is partially
/// queued.
#[test]
fn saturated_queue_rejects_with_overloaded() {
    let corpus = build_corpus(11, 6, 20, 2, Placement::RoundRobin);
    let service = QueryService::new(
        corpus,
        Engine::new(),
        ServiceConfig {
            workers: 0, // manual mode: nothing drains
            queue_capacity: 5,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );
    // each request needs 2 slots; 2 requests fit (4/5), the third cannot
    let _t1 = service.submit("down*[b]").unwrap();
    let _t2 = service.submit("down*[b]").unwrap();
    match service.submit("down*[b]") {
        Err(ServiceError::Overloaded { queued, capacity }) => {
            assert_eq!(queued, 4);
            assert_eq!(capacity, 5);
        }
        other => panic!("expected Overloaded, got {other:?}", other = other.err()),
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.queued, 4, "the rejected fan-out left no residue");
}

/// Shutdown refuses new work but drains what was admitted: every ticket
/// issued before the shutdown call still completes with a full answer.
#[test]
fn shutdown_drains_admitted_tickets() {
    let corpus = build_corpus(13, 8, 20, 2, Placement::RoundRobin);
    let service = QueryService::new(
        Arc::clone(&corpus),
        Engine::new(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );
    let tickets: Vec<_> = (0..5)
        .map(|_| service.submit("down*[c]").unwrap())
        .collect();
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 5);
    for t in tickets {
        let answer = t.wait();
        assert!(!answer.timed_out);
        assert_eq!(answer.per_doc.len(), corpus.n_docs());
    }
}

/// Worker-side evaluation cost is not lost to worker-thread-local
/// counters: it rides back in `CorpusAnswer::counters` and is merged
/// into the waiting thread, so a snapshot window around a corpus query
/// observes it.
#[test]
fn worker_counters_flow_back_to_the_waiting_thread() {
    let corpus = build_corpus(17, 6, 20, 3, Placement::RoundRobin);
    let service = QueryService::new(
        corpus,
        Engine::new(),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );
    let before = obs::snapshot();
    let answer = service.query("down*[b]").unwrap();
    let delta = obs::delta_since(&before);
    assert!(
        answer.counters.get(Counter::EvalNanos) > 0,
        "the answer carries the workers' evaluation time"
    );
    assert!(
        delta.get(Counter::EvalNanos) >= answer.counters.get(Counter::EvalNanos),
        "worker costs were merged into the waiter's thread-local window"
    );
    assert_eq!(delta.get(Counter::CorpusRequests), 1);
    assert!(delta.get(Counter::CorpusShardEvalNanos) > 0);
    service.shutdown();
}

/// A traced query answers **identically** to an untraced one, and its
/// span tree covers the whole distributed request: the submit thread's
/// compile stages, one subtree per shard (with its queue wait), and the
/// merge pass — all offsets on one clock.
#[test]
fn traced_queries_match_untraced_and_span_the_request() {
    let corpus = build_corpus(19, 8, 30, 3, Placement::RoundRobin);
    let service = QueryService::new(
        Arc::clone(&corpus),
        Engine::new(),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );
    let plain = service.query("down*[b]").unwrap();
    let traced = service.query_traced("down*[b]").unwrap();
    assert_eq!(plain.total_matches, traced.total_matches);
    for ((id_a, _, set_a), (id_b, _, set_b)) in plain.per_doc.iter().zip(traced.per_doc.iter()) {
        assert_eq!(id_a, id_b);
        assert_eq!(set_a, set_b, "tracing perturbed the answer on {id_a}");
    }
    // every answer carries a distinct trace id, traced or not
    assert_ne!(plain.trace_id, traced.trace_id);
    assert!(plain.trace.is_none(), "untraced answers carry no span tree");
    let tree = traced.trace.expect("traced answer carries a span tree");
    assert_eq!(tree.trace_id, traced.trace_id);
    assert_eq!(tree.root.name, "request");
    let names: Vec<&str> = tree.root.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names[0], "prepare");
    assert_eq!(*names.last().unwrap(), "merge");
    let shard_nodes: Vec<&twx_obs::SpanNode> = tree
        .root
        .children
        .iter()
        .filter(|c| c.name.starts_with("shard"))
        .collect();
    assert_eq!(shard_nodes.len(), 3, "one subtree per shard");
    for shard in &shard_nodes {
        assert_eq!(shard.children[0].name, "queue_wait");
        // the plain run warmed the result cache, so the traced run's
        // shard work is cache lookups (misses would add `eval` spans)
        assert!(
            shard
                .children
                .iter()
                .any(|c| c.name == "result_cache" || c.name == "eval"),
            "shard subtree records per-document work spans"
        );
        // offsets share the request clock: no shard starts after the end
        assert!(shard.start_ns <= tree.root.dur_ns);
    }
    // the plain run prepared this text, so the traced prepare is a
    // plan-cache hit: nothing is parsed, simplified or compiled
    let prepare = &tree.root.children[0];
    assert!(prepare.children.is_empty(), "{:?}", prepare.children);
    assert_eq!(prepare.counters.get(Counter::PlanCacheHits), 1);
    // a text the engine has not seen names every pipeline stage
    let cold = service.query_traced("down*[c]").unwrap();
    let prepare = &cold.trace.expect("traced").root.children[0];
    let stage_names: Vec<&str> = prepare.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(stage_names, ["parse", "simplify", "plan_cache"]);
    service.shutdown();
}

/// Every completed request lands in the latency histograms and the
/// slow-query log, tagged with its trace id.
#[test]
fn latency_histograms_and_slowlog_record_requests() {
    let corpus = build_corpus(23, 6, 20, 2, Placement::RoundRobin);
    let service = QueryService::new(
        corpus,
        Engine::new(),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            default_timeout: None,
            slowlog_capacity: 2,
        },
    );
    let mut ids = Vec::new();
    for q in ["down*[b]", "down*[c]", "down+[d]"] {
        ids.push(service.query(q).unwrap().trace_id);
    }
    let request = service.request_latency_histogram();
    assert_eq!(request.count(), 3, "one end-to-end sample per request");
    assert!(request.percentile(0.5) <= request.percentile(0.99));
    // 3 requests × 2 shards = 6 shard items through queue + eval
    assert_eq!(service.queue_wait_histogram().count(), 6);
    assert_eq!(service.shard_eval_histogram().count(), 6);
    let slow = service.slow_queries();
    assert_eq!(slow.len(), 2, "slowlog keeps its capacity bound");
    assert!(
        slow.windows(2).all(|w| w[0].latency >= w[1].latency),
        "slowlog is sorted slowest first"
    );
    for entry in &slow {
        assert!(
            ids.contains(&entry.trace_id),
            "slowlog entries join back to answers by trace id"
        );
        assert!(!entry.query.is_empty());
    }
    service.shutdown();
}
