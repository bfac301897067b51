//! E11 — the live corpus: versioned edits, the result cache, and
//! precise invalidation, measured against the recompute world.
//!
//! Two measurements:
//!
//! * **90/10 mix** — the same deterministic stream of operations (90%
//!   queries over a small hot query pool, 10% random typed edits) runs
//!   through two regimes. *Live*: documents are [`VersionedDocument`]s,
//!   each pool query is prepared once, answers come through a
//!   [`ResultCache`] whose entries are invalidated precisely by each
//!   edit's affected span. *Baseline*: every edit re-ingests the whole
//!   corpus (the cost a version-less store pays) and every query is
//!   prepared afresh and evaluated with no result cache. Same answers,
//!   measured wall-clock apart — the acceptance bar is live > 1×: the
//!   result cache must beat re-ingest plus recompute.
//! * **Invalidation precision probe** — a deterministic script caches a
//!   subtree-local query, edits a *disjoint* subtree (the entry must be
//!   carried and the next lookup must hit), then edits *inside* the
//!   cached span (the entry must be invalidated and the next lookup
//!   must miss). The counts land in the summary so CI can assert the
//!   cache is precise, not merely correct.
//!
//! [`run_full`] also returns the structured summary that the harness
//! exports as the top-level `e11` field of `BENCH_HARNESS.json`.

use crate::table::Table;
use crate::RunCfg;
use std::sync::Arc;
use treewalk::{Engine, ResultCache};
use twx_corpus::Corpus;
use twx_obs::json::Json;
use twx_obs::Histogram;
use twx_xtree::edit::random_edit;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{Catalog, Document, NodeId, VersionedDocument};

/// The hot query pool: a subtree-local scan (cache entries survive
/// disjoint edits), a sideways closure (whole-document span), and a
/// filter-heavy walk.
const QUERIES: [&str; 3] = [
    "down*[a]",
    "(down | right)*[b]",
    "down*[<down[c]> or <down[d]>]",
];

/// One operation of the 90/10 mix, pre-generated so both regimes replay
/// the identical stream.
enum MixOp {
    /// Evaluate `QUERIES[query]` on every document from context `ctx`
    /// (clamped to the document's current length — mostly the root,
    /// sometimes an early subtree so downward answers can *survive*
    /// later-subtree edits).
    Query { query: usize, ctx: u32 },
    /// Apply a random (but deterministic) edit to document `doc`;
    /// `pick` seeds the edit draw.
    Edit { doc: usize, pick: u64 },
}

struct MixCfg {
    n_docs: usize,
    doc_size: usize,
    ops: usize,
}

fn mix_cfg(cfg: &RunCfg) -> MixCfg {
    if cfg.quick {
        MixCfg {
            n_docs: 8,
            doc_size: 40,
            ops: 200,
        }
    } else {
        MixCfg {
            n_docs: 24,
            doc_size: 200,
            ops: 1000,
        }
    }
}

fn build_docs(cfg: &RunCfg, mc: &MixCfg, catalog: &Catalog) -> Vec<Document> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(11));
    (0..mc.n_docs)
        .map(|_| random_document_in(Shape::DocumentLike, mc.doc_size, catalog, &mut rng))
        .collect()
}

fn build_ops(cfg: &RunCfg, mc: &MixCfg) -> Vec<MixOp> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(11) ^ 0x9e37);
    (0..mc.ops)
        .map(|_| {
            if rng.gen_range(0..100u32) < 90 {
                MixOp::Query {
                    query: rng.gen_range(0..QUERIES.len()),
                    ctx: if rng.gen_range(0..100u32) < 70 { 0 } else { 1 },
                }
            } else {
                MixOp::Edit {
                    doc: rng.gen_range(0..mc.n_docs),
                    pick: rng.next_u64(),
                }
            }
        })
        .collect()
}

struct LiveRun {
    elapsed_ms: f64,
    matches: u64,
    hits: u64,
    misses: u64,
    carried: u64,
    invalidated: u64,
    /// Latency distribution of each *query op* (one pool query swept
    /// across the whole corpus), log-bucketed.
    query_hist: Histogram,
}

/// The live regime: versioned documents + hot engine + result cache,
/// each edit invalidating exactly its affected span.
fn run_live(catalog: &Arc<Catalog>, docs: &[Document], ops: &[MixOp]) -> LiveRun {
    let labels: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| catalog.intern(n))
        .collect();
    let mut live: Vec<VersionedDocument> = docs
        .iter()
        .map(|d| VersionedDocument::new(Arc::new(d.clone())))
        .collect();
    let engine = Engine::new();
    let cache = ResultCache::default();
    let mut matches = 0u64;
    let mut query_hist = Histogram::default();
    let t0 = std::time::Instant::now();
    // one compile per pool query, inside the timed region — the serving
    // posture (QueryService compiles once and fans the plan out)
    let pool: Vec<_> = QUERIES
        .iter()
        .map(|q| engine.prepare_in(catalog, q).expect("pool query compiles"))
        .collect();
    for op in ops {
        match op {
            MixOp::Query { query, ctx } => {
                let prepared = &pool[*query];
                let q0 = std::time::Instant::now();
                for (i, vdoc) in live.iter().enumerate() {
                    let ctx = NodeId((*ctx).min(vdoc.doc.tree.len() as u32 - 1));
                    let answer =
                        prepared.eval_cached(&cache, i as u64, vdoc.version, &vdoc.doc, ctx);
                    matches += answer.count() as u64;
                }
                query_hist.record(q0.elapsed().as_nanos() as u64);
            }
            MixOp::Edit { doc, pick } => {
                let vdoc = &mut live[*doc];
                let mut rng = SplitMix64::seed_from_u64(*pick);
                let edit = random_edit(&vdoc.doc.tree, &labels, &mut rng);
                let receipt = vdoc.apply(&edit).expect("random_edit is always valid");
                cache.invalidate(*doc as u64, receipt.affected, receipt.version);
            }
        }
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = cache.stats();
    LiveRun {
        elapsed_ms,
        matches,
        hits: stats.hits,
        misses: stats.misses,
        carried: stats.carried,
        invalidated: stats.invalidated,
        query_hist,
    }
}

/// The baseline regime: the same op stream, but every edit pays a full
/// corpus re-ingest and every query a fresh prepare with no result
/// cache.
fn run_baseline(catalog: &Arc<Catalog>, docs: &[Document], ops: &[MixOp]) -> (f64, u64) {
    let labels: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| catalog.intern(n))
        .collect();
    let mut current: Vec<Document> = docs.to_vec();
    let mut matches = 0u64;
    let t0 = std::time::Instant::now();
    for op in ops {
        match op {
            MixOp::Query { query, ctx } => {
                let prepared = Engine::new()
                    .prepare_in(catalog, QUERIES[*query])
                    .expect("pool query compiles");
                for doc in &current {
                    let ctx = NodeId((*ctx).min(doc.tree.len() as u32 - 1));
                    matches += prepared.eval(doc, ctx).count() as u64;
                }
            }
            MixOp::Edit { doc, pick } => {
                let mut rng = SplitMix64::seed_from_u64(*pick);
                let edit = random_edit(&current[*doc].tree, &labels, &mut rng);
                let (tree, _) = twx_xtree::apply_edit(&current[*doc].tree, &edit)
                    .expect("random_edit is always valid");
                current[*doc] = Document::new(tree, current[*doc].alphabet.clone());
                // the version-less world: every edit re-ingests the corpus
                let mut b = Corpus::builder(Arc::clone(catalog), 4);
                for d in &current {
                    b.add_document(d.clone());
                }
                let _reingested = b.build();
            }
        }
    }
    (t0.elapsed().as_secs_f64() * 1e3, matches)
}

struct Precision {
    carried: u64,
    invalidated: u64,
    hit_after_disjoint_edit: bool,
    miss_after_overlapping_edit: bool,
}

/// The deterministic precision probe (see the module docs).
fn precision_probe(catalog: &Arc<Catalog>) -> Precision {
    let doc = twx_xtree::parse::parse_sexp_catalog("(a (b (c a) b) (c (d b) a))", catalog)
        .expect("probe doc");
    let mut vdoc = VersionedDocument::new(Arc::new(doc));
    let engine = Engine::new();
    let cache = ResultCache::default();
    let prepared = engine.prepare_in(catalog, "down*[a]").expect("probe query");
    let late = catalog.intern("d");

    // cache a subtree-local answer at the first child (span [1, 5))
    prepared.eval_cached(&cache, 0, vdoc.version, &vdoc.doc, NodeId(1));
    // edit the disjoint second subtree: the entry must be carried
    let receipt = vdoc
        .apply(&twx_xtree::Edit::Relabel {
            node: NodeId(6),
            label: late,
        })
        .expect("probe relabel");
    let (carried, _) = cache.invalidate(0, receipt.affected, receipt.version);
    let before = cache.stats();
    prepared.eval_cached(&cache, 0, vdoc.version, &vdoc.doc, NodeId(1));
    let hit_after_disjoint_edit = cache.stats().hits == before.hits + 1;

    // edit *inside* the cached span: the entry must be invalidated
    let receipt = vdoc
        .apply(&twx_xtree::Edit::Relabel {
            node: NodeId(2),
            label: late,
        })
        .expect("probe relabel");
    let (_, invalidated) = cache.invalidate(0, receipt.affected, receipt.version);
    let before = cache.stats();
    prepared.eval_cached(&cache, 0, vdoc.version, &vdoc.doc, NodeId(1));
    let miss_after_overlapping_edit = cache.stats().misses == before.misses + 1;

    Precision {
        carried,
        invalidated,
        hit_after_disjoint_edit,
        miss_after_overlapping_edit,
    }
}

/// Runs E11, returning the rendered table and the structured summary
/// exported as the `e11` field of `BENCH_HARNESS.json`.
pub fn run_full(cfg: &RunCfg) -> (Table, Json) {
    let mc = mix_cfg(cfg);
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let docs = build_docs(cfg, &mc, &catalog);
    let ops = build_ops(cfg, &mc);
    let n_queries = ops
        .iter()
        .filter(|o| matches!(o, MixOp::Query { .. }))
        .count();
    let n_edits = ops.len() - n_queries;

    let live = run_live(&catalog, &docs, &ops);
    let (baseline_ms, baseline_matches) = run_baseline(&catalog, &docs, &ops);
    assert_eq!(
        live.matches, baseline_matches,
        "live and baseline regimes must agree on every answer"
    );
    let speedup = baseline_ms / live.elapsed_ms.max(1e-9);
    let lookups = live.hits + live.misses;
    let hit_rate = live.hits as f64 / (lookups.max(1)) as f64;
    let precision = precision_probe(&catalog);

    let mut table = Table::new(
        "E11: live corpus — 90/10 edit/query mix, result cache vs re-ingest + cold query",
        &[
            "regime",
            "docs",
            "ops",
            "queries",
            "edits",
            "wall",
            "hit rate",
            "carried",
            "invalidated",
        ],
    );
    table.row(vec![
        "live".into(),
        mc.n_docs.to_string(),
        ops.len().to_string(),
        n_queries.to_string(),
        n_edits.to_string(),
        format!("{:.1}ms", live.elapsed_ms),
        format!("{:.0}%", hit_rate * 100.0),
        live.carried.to_string(),
        live.invalidated.to_string(),
    ]);
    table.row(vec![
        "re-ingest".into(),
        mc.n_docs.to_string(),
        ops.len().to_string(),
        n_queries.to_string(),
        n_edits.to_string(),
        format!("{:.1}ms", baseline_ms),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    table.row(vec![
        "speedup".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{speedup:.1}x"),
        "".into(),
        "".into(),
        "".into(),
    ]);
    table.note(
        "live: versioned documents, pool queries prepared once, result cache invalidated by each edit's \
         affected span; re-ingest: every edit rebuilds the corpus, every query compiles cold \
         with no result cache — identical op streams, identical answers",
    );
    table.note(
        "precision probe: a subtree-local cached answer survives a disjoint edit (hit) and dies \
         to an overlapping one (miss) — counts in the JSON summary",
    );
    let q = live.query_hist.quantiles();
    table.note(format!(
        "live query-op latency (one pool query over the whole corpus, log-bucketed): {}",
        q.iter()
            .map(|(name, ns)| format!("{name}={:.0}us", *ns as f64 / 1_000.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let summary = Json::obj()
        .field(
            "mix",
            Json::obj()
                .field("docs", mc.n_docs)
                .field("doc_size", mc.doc_size)
                .field("ops", ops.len())
                .field("queries", n_queries)
                .field("edits", n_edits),
        )
        .field("live_ms", live.elapsed_ms)
        .field("baseline_ms", baseline_ms)
        .field("speedup", speedup)
        .field("query_op_ns", live.query_hist.to_json())
        .field(
            "result_cache",
            Json::obj()
                .field("hits", live.hits)
                .field("misses", live.misses)
                .field("hit_rate", hit_rate)
                .field("carried", live.carried)
                .field("invalidated", live.invalidated),
        )
        .field(
            "precision",
            Json::obj()
                .field("carried", precision.carried)
                .field("invalidated", precision.invalidated)
                .field("hit_after_disjoint_edit", precision.hit_after_disjoint_edit)
                .field(
                    "miss_after_overlapping_edit",
                    precision.miss_after_overlapping_edit,
                ),
        );
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

    #[test]
    fn quick_run_agrees_and_caches() {
        let (t, summary) = run_full(&RunCfg::quick());
        assert_eq!(t.rows.len(), 3, "live + baseline + speedup rows");
        let cache = field(&summary, "result_cache");
        match field(cache, "hit_rate") {
            Json::Num(r) => assert!(*r > 0.5, "hit rate {r} too low for a 3-query pool"),
            other => panic!("hit_rate is {other:?}"),
        }
        let precision = field(&summary, "precision");
        assert_eq!(
            field(precision, "hit_after_disjoint_edit"),
            &Json::Bool(true)
        );
        assert_eq!(
            field(precision, "miss_after_overlapping_edit"),
            &Json::Bool(true)
        );
        match field(precision, "carried") {
            Json::Int(n) => assert!(*n >= 1, "disjoint edit carried nothing"),
            other => panic!("carried is {other:?}"),
        }
    }
}
