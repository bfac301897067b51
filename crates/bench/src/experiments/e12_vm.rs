//! E12 — the bytecode VM vs the product evaluator on a deep/starred
//! query pool, plan-cache-cold and plan-cache-hot.
//!
//! The VM compiles a plan once into a register program over dense
//! word-level bitsets and then serves every evaluation from a recycled
//! arena: no per-eval `n × m` visited maps, no per-eval test-set
//! allocations, and 64-way word parallelism on every union/intersect.
//! The product evaluator — the workspace's historical default — pays all
//! of those per evaluation. This experiment quantifies the gap on the
//! query shapes the VM was built for (deep sequences and starred
//! closures over document-like trees), in both the cold posture (fresh
//! engine per serve, compile included) and the hot serving posture
//! (plan-cache hit, eval only).
//!
//! A second, separate measurement times the same pool hot at one thread
//! on one 20k-node `Shape::Deep(2)` document, where a closure needs one
//! round per tree level: the case the VM's sparse closure rounds exist
//! for.
//!
//! [`run_full`] also returns the structured summary that the harness
//! exports as the top-level `e12` field of `BENCH_HARNESS.json`; CI
//! asserts the hot geometric-mean speedup stays ≥ 2× on the pool, and
//! that the VM is at least as fast as product (`e12.deep` geomean ≥ 1×)
//! on the deep document.

use crate::experiments::time_us;
use crate::table::{fmt_micros, Table};
use crate::RunCfg;
use treewalk::{Backend, Engine};
use twx_obs::json::Json;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document};

/// The deep/starred pool: descendant closures, zigzags, long sequences,
/// chained stars, filtered closures, and a nested `Some` filter.
const QUERIES: [(&str, &str); 6] = [
    ("desc-star", "down*[p0]"),
    ("zigzag", "(down/right | up)*[p0]"),
    ("deep-seq", "down/down/down/down/down[p1]"),
    ("star-chain", "down*/right*/down*[p2]"),
    ("filtered-closure", "(down[p0] | right)*[p1 or p2]"),
    ("nested-some", "down*[<down*[p2]>]"),
];

struct Sizes {
    n_docs: usize,
    doc_size: usize,
    serves: usize,
    deep_serves: usize,
}

/// Node count of the deep document (the same in quick and full runs:
/// depth is what the measurement is about).
const DEEP_SIZE: usize = 20_000;

fn sizes(cfg: &RunCfg) -> Sizes {
    if cfg.quick {
        Sizes {
            n_docs: 6,
            doc_size: 300,
            serves: 16,
            deep_serves: 4,
        }
    } else {
        Sizes {
            n_docs: 16,
            doc_size: 900,
            serves: 64,
            deep_serves: 16,
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

/// Cold posture: a fresh engine per serve — every serve compiles.
fn serve_cold(
    backend: Backend,
    catalog: &Catalog,
    docs: &[Document],
    q: &str,
    serves: usize,
) -> f64 {
    let (_, us) = time_us(|| {
        for i in 0..serves {
            let engine = Engine::with_backend(backend);
            let p = engine.prepare_in(catalog, q).expect("pool query compiles");
            let d = &docs[i % docs.len()];
            std::hint::black_box(p.eval(d, d.tree.root()));
        }
    });
    us
}

/// Hot posture: prepare once, then serve evals only (the plan-cache-hit
/// configuration a warmed `QueryService` runs in).
fn serve_hot(engine: &Engine, catalog: &Catalog, docs: &[Document], q: &str, serves: usize) -> f64 {
    let p = engine.prepare_in(catalog, q).expect("pool query compiles");
    let (_, us) = time_us(|| {
        for i in 0..serves {
            let d = &docs[i % docs.len()];
            std::hint::black_box(p.eval(d, d.tree.root()));
        }
    });
    us
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

    // both backends must agree on every (query, doc) pair before any
    // timing is trusted — E12 doubles as a correctness check
    let product = Engine::with_backend(Backend::Product);
    let vm = Engine::with_backend(Backend::Vm);
    for (_, q) in QUERIES {
        let pp = product
            .prepare_in(&catalog, q)
            .expect("pool query compiles");
        let pv = vm.prepare_in(&catalog, q).expect("pool query compiles");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(
                pp.eval(d, d.tree.root()),
                pv.eval(d, d.tree.root()),
                "{q}: product and vm disagree on doc {i}"
            );
        }
    }

    // warm-up pass so first-touch page faults and lazy arena growth land
    // outside the timed region, then measure
    let results: Vec<QueryResult> = QUERIES
        .iter()
        .map(|&(name, q)| {
            let _ = serve_hot(&product, &catalog, &docs, q, sz.serves.min(4));
            let _ = serve_hot(&vm, &catalog, &docs, q, sz.serves.min(4));
            QueryResult {
                name,
                query: q,
                product_cold_us: serve_cold(Backend::Product, &catalog, &docs, q, sz.serves),
                vm_cold_us: serve_cold(Backend::Vm, &catalog, &docs, q, sz.serves),
                product_hot_us: serve_hot(&product, &catalog, &docs, q, sz.serves),
                vm_hot_us: serve_hot(&vm, &catalog, &docs, q, sz.serves),
            }
        })
        .collect();

    let deep = run_deep(cfg, &catalog, sz.deep_serves);

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
    for (name, product_us, vm_us) in &deep.rows {
        table.row(vec![
            format!("deep:{name}"),
            deep.serves.to_string(),
            "".into(),
            "".into(),
            "".into(),
            fmt_micros(*product_us),
            fmt_micros(*vm_us),
            format!("{:.1}x", product_us / vm_us.max(0.01)),
        ]);
    }
    table.row(vec![
        "deep geomean".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{:.1}x", deep.geomean_speedup_hot),
    ]);
    let vm_stats = vm.cache_stats();
    table.note(format!(
        "{} docs x {} nodes (DocumentLike); cold = fresh engine per serve (compile included); \
         hot = prepared once, evals only",
        sz.n_docs, sz.doc_size
    ));
    table.note(format!(
        "vm plan cache after run: {} hits / {} misses / {} entries — one compile per pool query, \
         every re-prepare a hit",
        vm_stats.hits, vm_stats.misses, vm_stats.entries
    ));
    table.note(format!(
        "deep rows: one Shape::Deep(2) doc of {DEEP_SIZE} nodes (height {}), hot, one thread",
        deep.height
    ));
    table.note("answers cross-checked product vs vm on every (query, doc) pair before timing");

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
        .map(|((name, product_us, vm_us), (_, q))| {
            Json::obj()
                .field("name", *name)
                .field("query", q)
                .field("product_hot_us", *product_us)
                .field("vm_hot_us", *vm_us)
                .field("speedup_hot", product_us / vm_us.max(0.01))
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
                .field("threads", 1usize)
                .field("queries", Json::Arr(deep_queries))
                .field("geomean_speedup_hot", deep.geomean_speedup_hot),
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
    rows: Vec<(&'static str, f64, f64)>,
    geomean_speedup_hot: f64,
}

/// Times the pool hot at one thread on one [`DEEP_SIZE`]-node
/// `Shape::Deep(2)` document, after checking the two back ends agree.
fn run_deep(cfg: &RunCfg, catalog: &Catalog, serves: usize) -> Deep {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(12) ^ 0xDEE9);
    let doc = random_document_in(Shape::Deep(2), DEEP_SIZE, catalog, &mut rng);
    let docs = std::slice::from_ref(&doc);
    let height = doc
        .tree
        .nodes()
        .map(|v| doc.tree.depth(v))
        .max()
        .unwrap_or(0);
    let product = Engine::with_backend(Backend::Product).with_parallelism(1);
    let vm = Engine::with_backend(Backend::Vm).with_parallelism(1);
    let rows: Vec<(&'static str, f64, f64)> = QUERIES
        .iter()
        .map(|&(name, q)| {
            let pp = product.prepare_in(catalog, q).expect("pool query compiles");
            let pv = vm.prepare_in(catalog, q).expect("pool query compiles");
            assert_eq!(
                pp.eval(&doc, doc.tree.root()),
                pv.eval(&doc, doc.tree.root()),
                "{q}: product and vm disagree on the deep doc"
            );
            (
                name,
                serve_hot(&product, catalog, docs, q, serves),
                serve_hot(&vm, catalog, docs, q, serves),
            )
        })
        .collect();
    let geomean_speedup_hot = geomean(rows.iter().map(|(_, p, v)| p / v.max(0.01)));
    Deep {
        height,
        serves,
        rows,
        geomean_speedup_hot,
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
        assert_eq!(
            t.rows.len(),
            2 * (QUERIES.len() + 1),
            "pool rows + geomean row, then the same for the deep doc"
        );
        match field(&summary, "geomean_speedup_hot") {
            Json::Num(s) => assert!(*s > 0.0, "geomean must be positive, got {s}"),
            other => panic!("geomean_speedup_hot is {other:?}"),
        }
        match field(field(&summary, "deep"), "geomean_speedup_hot") {
            Json::Num(s) => assert!(*s > 0.0, "deep geomean must be positive, got {s}"),
            other => panic!("deep geomean_speedup_hot is {other:?}"),
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
