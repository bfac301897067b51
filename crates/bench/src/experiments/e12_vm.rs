//! E12 — the engine's bytecode VM vs the reference product evaluator on
//! a deep/starred query pool, plan-cache-cold and plan-cache-hot.
//!
//! The VM compiles a plan once into a register program over dense
//! word-level bitsets and then serves every evaluation from a recycled
//! arena: no per-eval `n × m` visited maps, no per-eval test-set
//! allocations, and 64-way word parallelism on every union/intersect.
//! The product evaluator (`Compiled`, the paper's NFA × tree product and
//! now a conformance reference) pays all of those per evaluation. It is
//! timed directly on the simplified AST the engine compiled from
//! ([`treewalk::Prepared::path`]). This experiment quantifies the gap on
//! the query shapes the VM was built for (deep sequences and starred
//! closures over document-like trees), in both the cold posture (every
//! serve parses, simplifies and compiles) and the hot serving posture
//! (plan-cache hit, eval only).
//!
//! A second, separate measurement times the same pool hot on one
//! 20k-node `Shape::Deep(2)` document, where a closure needs one
//! round per tree level in the product evaluator: the case the VM's
//! closure kernels exist for. A third, ungated one times the E1 and E2
//! query mixes hot on each E1/E2 workload shape, so a query family where
//! the VM loses to the product evaluator shows up by name. A fourth
//! times bare-axis closures (`down*`, `up*`, `(down | right)*`,
//! `(left | up)*`) from the root and from the deepest leaf of 20k- and
//! 50k-node `Shape::Deep(2)` documents: selective contexts, where the
//! answer or the walk is a small part of a large tree.
//!
//! [`run_full`] also returns the structured summary that the harness
//! exports as the top-level `e12` field of `BENCH_HARNESS.json`; CI
//! asserts the hot geometric-mean speedup stays ≥ 2× on the pool, and
//! that the VM is at least as fast as product on the deep document
//! (`e12.deep` geomean ≥ 1×), on every deep row whose closure ran a
//! one-way automaton pass (`one_way` in the summary), and on every
//! selective-context row (`e12.selective` minimum ≥ 1×).

use crate::experiments::{e1_core_eval, e2_regxpath_eval, time_us};
use crate::table::{fmt_micros, Table};
use crate::{RunCfg, Workload};
use treewalk::Engine;
use twx_obs::json::Json;
use twx_obs::{self as obs, Counter};
use twx_regxpath::eval::Compiled;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document, NodeId, NodeSet};

/// The deep/starred pool: descendant closures, zigzags, long sequences,
/// chained stars, filtered closures, a nested `Some` filter, and the
/// closures of one-way bodies in both directions (`filtered-closure`
/// and `even-depths` run the preorder pass; `even-depths-some`'s `<…>`
/// is a preimage, so it runs the reverse-preorder pass).
const QUERIES: [(&str, &str); 8] = [
    ("desc-star", "down*[p0]"),
    ("zigzag", "(down/right | up)*[p0]"),
    ("deep-seq", "down/down/down/down/down[p1]"),
    ("star-chain", "down*/right*/down*[p2]"),
    ("filtered-closure", "(down[p0] | right)*[p1 or p2]"),
    ("nested-some", "down*[<down*[p2]>]"),
    ("even-depths", "(down/down)*[p0]"),
    ("even-depths-some", "down*[<(down/down)*[p1]>]"),
];

struct Sizes {
    n_docs: usize,
    doc_size: usize,
    serves: usize,
    deep_serves: usize,
    family_size: usize,
    selective_serves: usize,
}

/// Node count of the deep document (the same in quick and full runs:
/// depth is what the measurement is about).
const DEEP_SIZE: usize = 20_000;

/// Bare-axis closures timed from selective contexts.
const SELECTIVE: [&str; 4] = ["down*", "up*", "(down | right)*", "(left | up)*"];

/// Node counts of the selective-context documents.
const SELECTIVE_SIZES: [usize; 2] = [20_000, 50_000];

/// Hot evals per E1/E2 query-mix row: the `within` row on the 10k-node
/// deep document costs over a second per product eval.
const FAMILY_SERVES: usize = 4;

fn sizes(cfg: &RunCfg) -> Sizes {
    if cfg.quick {
        Sizes {
            n_docs: 6,
            doc_size: 300,
            serves: 16,
            deep_serves: 4,
            family_size: 1_000,
            selective_serves: 8,
        }
    } else {
        Sizes {
            n_docs: 16,
            doc_size: 900,
            serves: 64,
            deep_serves: 16,
            family_size: 10_000,
            selective_serves: 32,
        }
    }
}

struct QueryResult {
    name: &'static str,
    query: &'static str,
    product_cold_us: f64,
    vm_cold_us: f64,
    product_hot_us: f64,
    vm_hot_us: f64,
}

impl QueryResult {
    fn speedup_cold(&self) -> f64 {
        self.product_cold_us / self.vm_cold_us.max(0.01)
    }

    fn speedup_hot(&self) -> f64 {
        self.product_hot_us / self.vm_hot_us.max(0.01)
    }
}

fn root_ctx(d: &Document) -> NodeSet {
    NodeSet::singleton(d.tree.len(), d.tree.root())
}

fn root(d: &Document) -> NodeId {
    d.tree.root()
}

/// Times `serves` evaluations, round-robin over `docs`; `eval` gets the
/// document's index.
fn time_serves(docs: &[Document], serves: usize, mut eval: impl FnMut(usize) -> NodeSet) -> f64 {
    let (_, us) = time_us(|| {
        for i in 0..serves {
            std::hint::black_box(eval(i % docs.len()));
        }
    });
    us
}

/// Hot product and VM time over `serves` evals of `q` from the node
/// `ctx` picks in each document (picked before timing), after checking
/// the two agree on every document. Both sides compile once, outside
/// the timed region: the VM through `vm`'s plan cache, the product from
/// the simplified AST that VM program was compiled from. A short
/// warm-up pass keeps first-touch page faults and lazy arena growth out
/// of the timings.
fn hot_pair(
    vm: &Engine,
    catalog: &Catalog,
    docs: &[Document],
    q: &str,
    serves: usize,
    ctx: fn(&Document) -> NodeId,
) -> (f64, f64) {
    let prepared = vm.prepare_in(catalog, q).expect("pool query compiles");
    let product = Compiled::new(prepared.path());
    let ctxs: Vec<NodeId> = docs.iter().map(ctx).collect();
    let product_eval = |i: usize| {
        let d = &docs[i];
        product.image(&d.tree, &NodeSet::singleton(d.tree.len(), ctxs[i]))
    };
    let vm_eval = |i: usize| prepared.eval(&docs[i], ctxs[i]);
    for i in 0..docs.len() {
        assert_eq!(
            product_eval(i),
            vm_eval(i),
            "{q}: product and vm disagree on doc {i}"
        );
    }
    time_serves(docs, serves.min(4), product_eval);
    time_serves(docs, serves.min(4), vm_eval);
    (
        time_serves(docs, serves, product_eval),
        time_serves(docs, serves, vm_eval),
    )
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0f64, 0usize), |(s, n), x| (s + x.max(1e-9).ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// Runs E12, returning the rendered table and the structured summary
/// exported as the `e12` field of `BENCH_HARNESS.json`.
pub fn run_full(cfg: &RunCfg) -> (Table, Json) {
    let sz = sizes(cfg);
    let catalog = Catalog::from_names(["p0", "p1", "p2"]);
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(12));
    let docs: Vec<Document> = (0..sz.n_docs)
        .map(|_| random_document_in(Shape::DocumentLike, sz.doc_size, &catalog, &mut rng))
        .collect();

    let vm = Engine::new();
    let results: Vec<QueryResult> = QUERIES
        .iter()
        .map(|&(name, q)| {
            // hot first: it cross-checks the answers before any timing
            // is trusted — E12 doubles as a correctness check
            let (product_hot_us, vm_hot_us) = hot_pair(&vm, &catalog, &docs, q, sz.serves, root);
            QueryResult {
                name,
                query: q,
                // prepare through the warm engine (a plan-cache hit), then
                // compile the product
                product_cold_us: time_serves(&docs, sz.serves, |i| {
                    let d = &docs[i];
                    let p = vm.prepare_in(&catalog, q).expect("pool query compiles");
                    Compiled::new(p.path()).image(&d.tree, &root_ctx(d))
                }),
                vm_cold_us: time_serves(&docs, sz.serves, |i| {
                    let d = &docs[i];
                    let p = Engine::new()
                        .prepare_in(&catalog, q)
                        .expect("pool query compiles");
                    p.eval(d, d.tree.root())
                }),
                product_hot_us,
                vm_hot_us,
            }
        })
        .collect();

    let deep = run_deep(cfg, &catalog, sz.deep_serves);
    let families = run_families(cfg, &catalog, sz.family_size, FAMILY_SERVES);
    let selective = run_selective(cfg, &catalog, sz.selective_serves);

    let geo_cold = geomean(results.iter().map(QueryResult::speedup_cold));
    let geo_hot = geomean(results.iter().map(QueryResult::speedup_hot));

    let mut table = Table::new(
        "E12: bytecode VM vs product evaluator — deep/starred pool, cold and plan-cache-hot",
        &[
            "query",
            "serves",
            "product cold",
            "vm cold",
            "cold speedup",
            "product hot",
            "vm hot",
            "hot speedup",
        ],
    );
    for r in &results {
        table.row(vec![
            r.name.into(),
            sz.serves.to_string(),
            fmt_micros(r.product_cold_us),
            fmt_micros(r.vm_cold_us),
            format!("{:.1}x", r.speedup_cold()),
            fmt_micros(r.product_hot_us),
            fmt_micros(r.vm_hot_us),
            format!("{:.1}x", r.speedup_hot()),
        ]);
    }
    table.row(vec![
        "geomean".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{geo_cold:.1}x"),
        "".into(),
        "".into(),
        format!("{geo_hot:.1}x"),
    ]);
    let hot_row = |label: String, serves: usize, product_us: f64, vm_us: f64| {
        vec![
            label,
            serves.to_string(),
            "".into(),
            "".into(),
            "".into(),
            fmt_micros(product_us),
            fmt_micros(vm_us),
            format!("{:.1}x", product_us / vm_us.max(0.01)),
        ]
    };
    for r in &deep.rows {
        table.row(hot_row(
            format!("deep:{}", r.name),
            deep.serves,
            r.product_us,
            r.vm_us,
        ));
    }
    let geomean_row = |label: &str, g: f64| {
        let mut row = vec![String::new(); 8];
        row[0] = label.into();
        row[7] = format!("{g:.1}x");
        row
    };
    table.row(geomean_row("deep geomean", deep.geomean_speedup_hot));
    for f in &families.rows {
        table.row(hot_row(
            format!("{}:{}:{}", f.workload, f.family, f.name),
            families.serves,
            f.product_hot_us,
            f.vm_hot_us,
        ));
    }
    table.row(geomean_row(
        "families geomean",
        families.geomean_speedup_hot,
    ));
    for r in &selective.rows {
        table.row(hot_row(
            format!("selective:{}:{}:{}", r.doc_size, r.from, r.query),
            selective.serves,
            r.product_hot_us,
            r.vm_hot_us,
        ));
    }
    table.row(geomean_row(
        "selective geomean",
        selective.geomean_speedup_hot,
    ));
    let vm_stats = vm.cache_stats();
    table.note(format!(
        "{} docs x {} nodes (DocumentLike); cold = every serve parses, simplifies and compiles; \
         hot = prepared once, evals only",
        sz.n_docs, sz.doc_size
    ));
    table.note(format!(
        "vm plan cache after run: {} hits / {} misses / {} entries — one compile per pool query, \
         every re-prepare a hit",
        vm_stats.hits, vm_stats.misses, vm_stats.entries
    ));
    let one_way: Vec<&str> = deep
        .rows
        .iter()
        .filter(|r| r.one_way)
        .map(|r| r.name)
        .collect();
    table.note(format!(
        "deep rows: one Shape::Deep(2) doc of {DEEP_SIZE} nodes (height {}), hot, one thread; \
         one-way automaton passes in {}",
        deep.height,
        if one_way.is_empty() {
            "none (instrumentation off)".to_string()
        } else {
            one_way.join(", ")
        }
    ));
    table.note(format!(
        "workload:e1|e2:query rows: the E1/E2 query mixes, hot, one thread, one {}-node doc per \
         E1/E2 workload shape (reported, not gated)",
        sz.family_size
    ));
    table.note(format!(
        "selective:size:from:query rows: bare-axis closures from the root and from the deepest \
         leaf of one Shape::Deep(2) doc per size, hot, one thread (min speedup {:.1}x)",
        selective.min_speedup_hot
    ));
    table.note(
        "product = Compiled::new on the engine's simplified AST; answers cross-checked product vs \
         vm on every (query, doc) pair before timing",
    );

    let queries: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.name)
                .field("query", r.query)
                .field("product_cold_us", r.product_cold_us)
                .field("vm_cold_us", r.vm_cold_us)
                .field("speedup_cold", r.speedup_cold())
                .field("product_hot_us", r.product_hot_us)
                .field("vm_hot_us", r.vm_hot_us)
                .field("speedup_hot", r.speedup_hot())
        })
        .collect();
    let deep_queries: Vec<Json> = deep
        .rows
        .iter()
        .zip(QUERIES)
        .map(|(r, (_, q))| {
            Json::obj()
                .field("name", r.name)
                .field("query", q)
                .field("product_hot_us", r.product_us)
                .field("vm_hot_us", r.vm_us)
                .field("speedup_hot", r.product_us / r.vm_us.max(0.01))
                .field("one_way", r.one_way)
        })
        .collect();
    let family_rows: Vec<Json> = families
        .rows
        .iter()
        .map(|f| {
            Json::obj()
                .field("workload", f.workload)
                .field("family", f.family)
                .field("name", f.name)
                .field("query", f.query)
                .field("product_hot_us", f.product_hot_us)
                .field("vm_hot_us", f.vm_hot_us)
                .field("speedup_hot", f.product_hot_us / f.vm_hot_us.max(0.01))
        })
        .collect();
    let selective_rows: Vec<Json> = selective
        .rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("doc_size", r.doc_size)
                .field("from", r.from)
                .field("query", r.query)
                .field("product_hot_us", r.product_hot_us)
                .field("vm_hot_us", r.vm_hot_us)
                .field("speedup_hot", r.speedup_hot())
        })
        .collect();
    let summary = Json::obj()
        .field("pool", QUERIES.len())
        .field("docs", sz.n_docs)
        .field("doc_size", sz.doc_size)
        .field("serves", sz.serves)
        .field("queries", Json::Arr(queries))
        .field("geomean_speedup_cold", geo_cold)
        .field("geomean_speedup_hot", geo_hot)
        .field(
            "deep",
            Json::obj()
                .field("doc_size", DEEP_SIZE)
                .field("height", deep.height)
                .field("serves", deep.serves)
                .field("queries", Json::Arr(deep_queries))
                .field("geomean_speedup_hot", deep.geomean_speedup_hot),
        )
        .field(
            "families",
            Json::obj()
                .field("doc_size", sz.family_size)
                .field("serves", families.serves)
                .field("queries", Json::Arr(family_rows))
                .field("geomean_speedup_hot", families.geomean_speedup_hot),
        )
        .field(
            "selective",
            Json::obj()
                .field("serves", selective.serves)
                .field("queries", Json::Arr(selective_rows))
                .field("geomean_speedup_hot", selective.geomean_speedup_hot)
                .field("min_speedup_hot", selective.min_speedup_hot),
        )
        .field(
            "vm_plan_cache",
            Json::obj()
                .field("hits", vm_stats.hits)
                .field("misses", vm_stats.misses)
                .field("entries", vm_stats.entries),
        );
    (table, summary)
}

/// The deep-document measurement: per pool query, hot product and VM
/// time over `serves` evals.
struct Deep {
    height: u32,
    serves: usize,
    rows: Vec<DeepRow>,
    geomean_speedup_hot: f64,
}

/// One pool query on the deep document.
struct DeepRow {
    name: &'static str,
    product_us: f64,
    vm_us: f64,
    /// Whether the VM's evaluation ran a one-way automaton pass (read
    /// from `vm_one_way_passes`; always false without instrumentation).
    one_way: bool,
}

/// Times the pool hot on one [`DEEP_SIZE`]-node
/// `Shape::Deep(2)` document, after checking the two agree.
fn run_deep(cfg: &RunCfg, catalog: &Catalog, serves: usize) -> Deep {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(12) ^ 0xDEE9);
    let doc = random_document_in(Shape::Deep(2), DEEP_SIZE, catalog, &mut rng);
    let docs = std::slice::from_ref(&doc);
    let height = doc.tree.depths().into_iter().max().unwrap_or(0);
    let vm = Engine::new();
    let rows: Vec<DeepRow> = QUERIES
        .iter()
        .map(|&(name, q)| {
            let (product_us, vm_us) = hot_pair(&vm, catalog, docs, q, serves, root);
            let prepared = vm.prepare_in(catalog, q).expect("pool query compiles");
            let before = obs::snapshot();
            prepared.eval(&doc, doc.tree.root());
            let one_way = obs::delta_since(&before).get(Counter::VmOneWayPasses) > 0;
            DeepRow {
                name,
                product_us,
                vm_us,
                one_way,
            }
        })
        .collect();
    let geomean_speedup_hot = geomean(rows.iter().map(|r| r.product_us / r.vm_us.max(0.01)));
    Deep {
        height,
        serves,
        rows,
        geomean_speedup_hot,
    }
}

/// One E1/E2 query-mix row: hot product and VM time on one workload.
struct FamilyRow {
    workload: &'static str,
    family: &'static str,
    name: &'static str,
    query: &'static str,
    product_hot_us: f64,
    vm_hot_us: f64,
}

/// The E1/E2 query-mix measurement (reported, not gated).
struct Families {
    serves: usize,
    rows: Vec<FamilyRow>,
    geomean_speedup_hot: f64,
}

/// Times the E1 and E2 query mixes hot on one `size`-node
/// document per E1/E2 workload shape, after checking the two agree.
fn run_families(cfg: &RunCfg, catalog: &Catalog, size: usize, serves: usize) -> Families {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(12) ^ 0xFA71);
    let vm = Engine::new();
    let mix: Vec<_> = e1_core_eval::QUERY_MIX
        .iter()
        .map(|&(name, q)| ("e1", name, q))
        .chain(
            e2_regxpath_eval::QUERY_MIX
                .iter()
                .map(|&(name, q)| ("e2", name, q)),
        )
        .collect();
    let mut rows = Vec::new();
    for wl in Workload::ALL {
        let doc = random_document_in(wl.shape(), size, catalog, &mut rng);
        for &(family, name, query) in &mix {
            let (product_hot_us, vm_hot_us) = hot_pair(
                &vm,
                catalog,
                std::slice::from_ref(&doc),
                query,
                serves,
                root,
            );
            rows.push(FamilyRow {
                workload: wl.name(),
                family,
                name,
                query,
                product_hot_us,
                vm_hot_us,
            });
        }
    }
    let geomean_speedup_hot = geomean(
        rows.iter()
            .map(|r| r.product_hot_us / r.vm_hot_us.max(0.01)),
    );
    Families {
        serves,
        rows,
        geomean_speedup_hot,
    }
}

/// One selective-context row: a bare-axis closure from one node.
struct SelectiveRow {
    doc_size: usize,
    from: &'static str,
    query: &'static str,
    product_hot_us: f64,
    vm_hot_us: f64,
}

impl SelectiveRow {
    fn speedup_hot(&self) -> f64 {
        self.product_hot_us / self.vm_hot_us.max(0.01)
    }
}

/// The selective-context measurement (the minimum speedup is gated).
struct Selective {
    serves: usize,
    rows: Vec<SelectiveRow>,
    geomean_speedup_hot: f64,
    min_speedup_hot: f64,
}

/// The deepest node of `d` (the first one in document order).
fn deepest_leaf(d: &Document) -> NodeId {
    let depths = d.tree.depths();
    d.tree
        .nodes()
        .max_by_key(|&v| (depths[v.index()], std::cmp::Reverse(v)))
        .expect("trees are non-empty")
}

/// Times [`SELECTIVE`] hot from the root and from the deepest leaf of
/// one `Shape::Deep(2)` document per [`SELECTIVE_SIZES`] entry, after
/// checking the two agree.
fn run_selective(cfg: &RunCfg, catalog: &Catalog, serves: usize) -> Selective {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(12) ^ 0x5E1E);
    let vm = Engine::new();
    let mut rows = Vec::new();
    for size in SELECTIVE_SIZES {
        let doc = random_document_in(Shape::Deep(2), size, catalog, &mut rng);
        let docs = std::slice::from_ref(&doc);
        for (from, ctx) in [
            ("root", root as fn(&Document) -> NodeId),
            ("leaf", deepest_leaf),
        ] {
            for query in SELECTIVE {
                let (product_hot_us, vm_hot_us) = hot_pair(&vm, catalog, docs, query, serves, ctx);
                rows.push(SelectiveRow {
                    doc_size: size,
                    from,
                    query,
                    product_hot_us,
                    vm_hot_us,
                });
            }
        }
    }
    let geomean_speedup_hot = geomean(rows.iter().map(SelectiveRow::speedup_hot));
    let min_speedup_hot = rows
        .iter()
        .map(SelectiveRow::speedup_hot)
        .fold(f64::INFINITY, f64::min);
    Selective {
        serves,
        rows,
        geomean_speedup_hot,
        min_speedup_hot,
    }
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
    fn quick_run_produces_table_and_summary() {
        let (t, summary) = run_full(&RunCfg::quick());
        let families = 3 * (e1_core_eval::QUERY_MIX.len() + e2_regxpath_eval::QUERY_MIX.len());
        let selective = SELECTIVE_SIZES.len() * 2 * SELECTIVE.len();
        assert_eq!(
            t.rows.len(),
            2 * (QUERIES.len() + 1) + families + 1 + selective + 1,
            "pool rows + geomean row, the same for the deep doc, then the query mixes + geomean, \
             then the selective rows + geomean"
        );
        match field(&summary, "geomean_speedup_hot") {
            Json::Num(s) => assert!(*s > 0.0, "geomean must be positive, got {s}"),
            other => panic!("geomean_speedup_hot is {other:?}"),
        }
        match field(field(&summary, "deep"), "geomean_speedup_hot") {
            Json::Num(s) => assert!(*s > 0.0, "deep geomean must be positive, got {s}"),
            other => panic!("deep geomean_speedup_hot is {other:?}"),
        }
        match field(field(&summary, "deep"), "queries") {
            Json::Arr(rows) => {
                let one_way: Vec<&Json> = rows
                    .iter()
                    .filter(|r| field(r, "one_way") == &Json::Bool(true))
                    .map(|r| field(r, "name"))
                    .collect();
                let want = ["filtered-closure", "even-depths", "even-depths-some"].map(Json::from);
                assert_eq!(one_way, want.iter().collect::<Vec<_>>());
            }
            other => panic!("deep queries are {other:?}"),
        }
        match field(field(&summary, "selective"), "min_speedup_hot") {
            Json::Num(s) => assert!(*s > 0.0, "selective speedups must be positive, got {s}"),
            other => panic!("selective min_speedup_hot is {other:?}"),
        }
        match field(field(&summary, "vm_plan_cache"), "misses") {
            Json::Int(m) => assert_eq!(*m as usize, QUERIES.len(), "one compile per pool query"),
            other => panic!("misses is {other:?}"),
        }
    }

    #[test]
    fn geomean_of_constants_is_the_constant() {
        let g = geomean([4.0, 4.0, 4.0].into_iter());
        assert!((g - 4.0).abs() < 1e-9, "got {g}");
    }
}
