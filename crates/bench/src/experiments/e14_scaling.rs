//! E14 — strong scaling of frontier-parallel evaluation: the VM backend
//! at 1/2/4/8 eval threads on one large document.
//!
//! The frontier kernels in `twx-frontier` split every dense axis image
//! (including those of dense closure rounds) over the preorder id space
//! (push by source-node count, pull by candidate-id count), so on a document large enough to produce
//! many chunks the same plan should evaluate faster as threads are
//! added — without changing a single answer bit. This experiment
//! measures that curve: per star-heavy pool query, hot-serve latency at
//! each thread count and the speedup over the 1-thread baseline, with
//! every multi-threaded answer cross-checked bit-for-bit against the
//! sequential one before any timing is trusted.
//!
//! Strong scaling only exists when the host has cores to scale onto:
//! the structured summary carries `host_threads` (the value of
//! `std::thread::available_parallelism()`), and CI asserts the ≥ 2×
//! speedup at 4 threads only when `host_threads ≥ 4`. On a 1-core
//! runner the experiment still runs — it then checks determinism and
//! graceful oversubscription rather than speedup.

use crate::experiments::time_us;
use crate::table::{fmt_micros, Table};
use crate::RunCfg;
use treewalk::{Backend, Engine};
use twx_obs::json::Json;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document};

/// Star-heavy pool: every query is dominated by closure fixpoints whose
/// per-iteration axis images are the parallel kernels' unit of work.
const QUERIES: [(&str, &str); 4] = [
    ("desc-star", "down*[p0]"),
    ("updown-star", "(up | down)*[p1]"),
    ("star-chain", "down*/right*/down*[p2]"),
    ("zigzag-star", "(down/right | up)*[p0]"),
];

/// The thread counts on the scaling curve; the first is the baseline.
const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Sizes {
    doc_size: usize,
    serves: usize,
}

fn sizes(cfg: &RunCfg) -> Sizes {
    if cfg.quick {
        Sizes {
            doc_size: 20_000,
            serves: 3,
        }
    } else {
        Sizes {
            // the acceptance gate demands a ≥ 1M-node document: big
            // enough that push/pull chunking dominates thread overhead
            doc_size: 1_000_000,
            serves: 4,
        }
    }
}

struct QueryScaling {
    name: &'static str,
    query: &'static str,
    /// Hot-serve microseconds per thread count, aligned with [`THREADS`].
    us: [f64; THREADS.len()],
}

impl QueryScaling {
    fn speedup_at(&self, i: usize) -> f64 {
        self.us[0] / self.us[i].max(0.01)
    }
}

/// Hot posture at a fixed thread count: prepare once, serve evals only.
fn serve_hot(engine: &Engine, catalog: &Catalog, doc: &Document, q: &str, serves: usize) -> f64 {
    let p = engine.prepare_in(catalog, q).expect("pool query compiles");
    let (_, us) = time_us(|| {
        for _ in 0..serves {
            std::hint::black_box(p.eval(doc, doc.tree.root()));
        }
    });
    us / serves as f64
}

/// Runs E14, returning the rendered table and the structured summary
/// exported as the `e14` field of `BENCH_HARNESS.json`.
pub fn run_full(cfg: &RunCfg) -> (Table, Json) {
    let sz = sizes(cfg);
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let catalog = Catalog::from_names(["p0", "p1", "p2"]);
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(14));
    let doc = random_document_in(Shape::DocumentLike, sz.doc_size, &catalog, &mut rng);

    let engines: Vec<Engine> = THREADS
        .iter()
        .map(|&t| Engine::with_backend(Backend::Vm).with_parallelism(t))
        .collect();

    // determinism gate before any timing: every thread count must
    // produce the 1-thread answer bit-for-bit
    for (_, q) in QUERIES {
        let reference = engines[0]
            .prepare_in(&catalog, q)
            .expect("pool query compiles")
            .eval(&doc, doc.tree.root());
        for (e, &t) in engines.iter().zip(&THREADS).skip(1) {
            let answer = e
                .prepare_in(&catalog, q)
                .expect("pool query compiles")
                .eval(&doc, doc.tree.root());
            assert_eq!(
                answer.as_words(),
                reference.as_words(),
                "{q}: {t}-thread answer differs from sequential"
            );
        }
    }

    // the determinism pass doubles as warm-up (plans cached, arenas
    // grown, pages touched); now measure
    let results: Vec<QueryScaling> = QUERIES
        .iter()
        .map(|&(name, q)| QueryScaling {
            name,
            query: q,
            us: std::array::from_fn(|i| serve_hot(&engines[i], &catalog, &doc, q, sz.serves)),
        })
        .collect();

    let geomean_at = |i: usize| {
        let (sum, n) = results
            .iter()
            .map(|r| r.speedup_at(i))
            .fold((0.0f64, 0usize), |(s, n), x| (s + x.max(1e-9).ln(), n + 1));
        (sum / n.max(1) as f64).exp()
    };
    let geo: [f64; THREADS.len()] = std::array::from_fn(geomean_at);

    let mut table = Table::new(
        "E14: frontier-parallel strong scaling — VM backend at 1/2/4/8 eval threads",
        &[
            "query",
            "1T",
            "2T",
            "4T",
            "8T",
            "2T speedup",
            "4T speedup",
            "8T speedup",
        ],
    );
    for r in &results {
        table.row(vec![
            r.name.into(),
            fmt_micros(r.us[0]),
            fmt_micros(r.us[1]),
            fmt_micros(r.us[2]),
            fmt_micros(r.us[3]),
            format!("{:.1}x", r.speedup_at(1)),
            format!("{:.1}x", r.speedup_at(2)),
            format!("{:.1}x", r.speedup_at(3)),
        ]);
    }
    table.row(vec![
        "geomean".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{:.1}x", geo[1]),
        format!("{:.1}x", geo[2]),
        format!("{:.1}x", geo[3]),
    ]);
    table.note(format!(
        "1 doc x {} nodes (DocumentLike); hot serve (prepared once), {} evals per cell, \
         per-eval microseconds shown",
        sz.doc_size, sz.serves
    ));
    table.note(format!(
        "host has {host_threads} hardware thread(s) — speedups above that count measure \
         oversubscription overhead, not scaling"
    ));
    table.note(
        "all multi-threaded answers cross-checked bit-for-bit against 1 thread before timing",
    );

    let queries: Vec<Json> = results
        .iter()
        .map(|r| {
            let mut o = Json::obj().field("name", r.name).field("query", r.query);
            for (i, &t) in THREADS.iter().enumerate() {
                o = o.field(&format!("us_{t}t"), r.us[i]);
            }
            o.field("speedup_2t", r.speedup_at(1))
                .field("speedup_4t", r.speedup_at(2))
                .field("speedup_8t", r.speedup_at(3))
        })
        .collect();
    let summary = Json::obj()
        .field("pool", QUERIES.len())
        .field("doc_size", sz.doc_size)
        .field("serves", sz.serves)
        .field("host_threads", host_threads)
        .field("queries", Json::Arr(queries))
        .field("geomean_speedup_2t", geo[1])
        .field("geomean_speedup_4t", geo[2])
        .field("geomean_speedup_8t", geo[3]);
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
    fn quick_run_produces_table_and_summary() {
        let (t, summary) = run_full(&RunCfg::quick());
        assert_eq!(t.rows.len(), QUERIES.len() + 1, "pool rows + geomean row");
        match field(&summary, "host_threads") {
            Json::Int(n) => assert!(*n >= 1, "host_threads must be ≥ 1, got {n}"),
            other => panic!("host_threads is {other:?}"),
        }
        match field(&summary, "geomean_speedup_4t") {
            Json::Num(s) => assert!(*s > 0.0, "speedup must be positive, got {s}"),
            other => panic!("geomean_speedup_4t is {other:?}"),
        }
    }
}
