//! E9 — the staged compile pipeline: a cold prepare (parse, simplify, VM
//! compile) plus an eval, against an eval of a held `Prepared`, over a
//! corpus of catalog-shared documents.
//!
//! Documents are generated from one shared [`Catalog`], so a single
//! compiled program is exact for the whole corpus; the experiment
//! measures what preparing a query on every serve costs over holding the
//! prepared query across serves.

use crate::experiments::time_us;
use crate::table::{fmt_micros, Table};
use crate::RunCfg;
use treewalk::Engine;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64 as StdRng;
use twx_xtree::{Catalog, Document};

/// The query mix: a `within` filter whose nested evaluation dominates,
/// a two-way closure (`zigzag`), a cheap common case, and the
/// filter-heavy `filter-or`, whose cold serve costs under 3× a held one.
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
        "E9: prepare cost — cold prepare + eval vs eval of a held Prepared over catalog-shared documents",
        &["query", "serves", "cold", "held", "cold/held"],
    );

    let (n_docs, doc_size, serves) = if cfg.quick {
        (8, 150, 16)
    } else {
        (32, 600, 128)
    };
    let docs: Vec<Document> = (0..n_docs)
        .map(|_| random_document_in(Shape::DocumentLike, doc_size, &catalog, &mut rng))
        .collect();
    let engine = Engine::new();
    for (name, q) in QUERIES {
        // cold: every serve prepares the text
        let (_, cold_us) = time_us(|| {
            for i in 0..serves {
                let p = engine.prepare_in(&catalog, q).expect("query compiles");
                let d = &docs[i % docs.len()];
                std::hint::black_box(p.eval(d, d.tree.root()));
            }
        });
        // held: one prepare, outside the timed region
        let held = engine.prepare_in(&catalog, q).expect("query compiles");
        let (_, held_us) = time_us(|| {
            for i in 0..serves {
                let d = &docs[i % docs.len()];
                std::hint::black_box(held.eval(d, d.tree.root()));
            }
        });
        table.row(vec![
            name.into(),
            serves.to_string(),
            fmt_micros(cold_us),
            fmt_micros(held_us),
            format!("{:.1}x", cold_us / held_us.max(0.01)),
        ]);
    }

    table.note("cold = every serve parses, simplifies, compiles and evals; held = one Prepared, evals only");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_table() {
        let t = run(&RunCfg::quick());
        assert_eq!(t.rows.len(), QUERIES.len());
    }
}
