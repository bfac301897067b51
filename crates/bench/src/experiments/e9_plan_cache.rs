//! E9 — the staged compile pipeline: cold compiles vs cached serves over
//! a corpus of catalog-shared documents, plus `query_batch` fan-out.
//!
//! Documents are generated from one shared [`Catalog`], so a single
//! compiled plan is exact for the whole corpus; the experiment measures
//! what the plan cache (keyed by query text, in front of parse) buys
//! when a query is served many times, and what `std::thread::scope` fan-out buys
//! over a sequential loop.

use crate::experiments::time_us;
use crate::table::{fmt_micros, Table};
use crate::RunCfg;
use treewalk::Engine;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64 as StdRng;
use twx_xtree::{Catalog, Document, NodeId};

/// The query mix: a `within` filter whose nested evaluation dominates,
/// a two-way closure (`zigzag`), a cheap common case, and the
/// filter-heavy `filter-or`, whose cold serve (parse, simplify, compile
/// and eval in a fresh engine) costs under 3× a plan-cache hit.
const QUERIES: [(&str, &str); 4] = [
    ("desc-star", "down*[p0]"),
    ("zigzag", "(down/right | up)*[p0]"),
    ("within", "down*[W(<down*[p1]>)]"),
    ("filter-or", "down*[<down[p1]> or <down[p2]>]"),
];

/// Runs E9 and renders its table.
pub fn run(cfg: &RunCfg) -> Table {
    let catalog = Catalog::from_names(["p0", "p1", "p2"]);
    let mut rng = StdRng::seed_from_u64(cfg.seed_for(9));

    let mut table = Table::new(
        "E9: plan cache — cold compile vs cached serve over catalog-shared documents",
        &["query", "serves", "cold", "cached", "speedup", "cache h/m"],
    );

    let (n_docs, doc_size, serves) = if cfg.quick {
        (8, 150, 16)
    } else {
        (32, 600, 128)
    };
    let docs: Vec<Document> = (0..n_docs)
        .map(|_| random_document_in(Shape::DocumentLike, doc_size, &catalog, &mut rng))
        .collect();
    for (name, q) in QUERIES {
        // cold: a fresh engine (empty cache) for every serve
        let (_, cold_us) = time_us(|| {
            for i in 0..serves {
                let engine = Engine::new();
                let p = engine.prepare_in(&catalog, q).expect("query compiles");
                let d = &docs[i % docs.len()];
                std::hint::black_box(p.eval(d, d.tree.root()));
            }
        });
        // cached: one engine, every re-prepare after the first is a
        // plan-cache hit that skips parse, simplify and compile
        let engine = Engine::new();
        let (_, cached_us) = time_us(|| {
            for i in 0..serves {
                let p = engine.prepare_in(&catalog, q).expect("query compiles");
                let d = &docs[i % docs.len()];
                std::hint::black_box(p.eval(d, d.tree.root()));
            }
        });
        let stats = engine.cache_stats();
        table.row(vec![
            name.into(),
            serves.to_string(),
            fmt_micros(cold_us),
            fmt_micros(cached_us),
            format!("{:.1}x", cold_us / cached_us.max(0.01)),
            format!("{}/{}", stats.hits, stats.misses),
        ]);
    }

    // fan-out: query_batch across all documents vs a sequential loop
    let engine = Engine::new();
    let jobs: Vec<(&Document, NodeId)> = docs.iter().map(|d| (d, d.tree.root())).collect();
    let q = "(down | right)*[p1]";
    let (seq, seq_us) = time_us(|| {
        jobs.iter()
            .map(|(d, ctx)| engine.query(d, q, *ctx).unwrap())
            .collect::<Vec<_>>()
    });
    let (par, par_us) = time_us(|| engine.query_batch(&jobs, q).unwrap());
    assert_eq!(seq, par, "batch disagrees with sequential");
    table.row(vec![
        "batch".into(),
        jobs.len().to_string(),
        fmt_micros(seq_us),
        fmt_micros(par_us),
        format!("{:.1}x", seq_us / par_us.max(0.01)),
        "-".into(),
    ]);

    table.note("cold = fresh engine per serve (full pipeline); cached = one engine, so later serves are plan-cache hits (no parse, simplify or compile)");
    table
        .note("batch rows compare a sequential serve loop to Engine::query_batch (scoped threads)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_table() {
        let t = run(&RunCfg::quick());
        assert_eq!(t.rows.len(), QUERIES.len() + 1);
    }
}
