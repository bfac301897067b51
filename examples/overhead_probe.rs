//! The instrumentation overhead probe: the serving hot path (a held
//! `Prepared::eval` over a corpus of documents) timed in whichever
//! feature configuration this binary was built with.
//!
//! CI runs it twice — default features (instrumentation on) and
//! `--no-default-features` (every counter, span, and histogram call
//! compiled to nothing) — and gates the ratio of the two min-of-rounds
//! timings at 1.05×. That is the "zero-cost when off, cheap when on"
//! contract, measured rather than asserted.
//!
//! ```sh
//! cargo run --release --example overhead_probe
//! cargo run --release --no-default-features --example overhead_probe
//! ```
//!
//! Output is one JSON line:
//! `{"schema":"twx-overhead/1","obs_enabled":…,"rounds":…,"evals_per_round":…,"matches_per_round":…,"min_round_ns":…}`

use std::sync::Arc;
use treewalk::Engine;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document};

/// The serve mix from E10: a cheap scan, a transitive-closure walk, and
/// a filter-heavy query.
const QUERIES: [&str; 3] = [
    "down*[a]",
    "(down | right)*[b]",
    "down*[<down[c]> or <down[d]>]",
];

// documents large enough that per-eval work dwarfs the fixed per-eval
// instrumentation (clock reads, histogram record, stage bookkeeping);
// what's left to measure is the per-step cost inside the evaluators
const N_DOCS: usize = 24;
const DOC_SIZE: usize = 400;
const ROUNDS: usize = 7;
// enough passes that one round takes a few milliseconds: a round of
// only a quarter millisecond is within reach of a single scheduler
// hiccup or timer tick, which the min-of-rounds cannot always outrun
const REPS_PER_ROUND: usize = 48;

fn main() {
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let mut rng = SplitMix64::seed_from_u64(9);
    let docs: Vec<Document> = (0..N_DOCS)
        .map(|_| random_document_in(Shape::DocumentLike, DOC_SIZE, &catalog, &mut rng))
        .collect();
    // the default back end: the one every serving path runs
    let engine = Engine::new();
    // compile once, outside the timed region — the hot path under test
    // is evaluation of a prepared query, exactly what a service worker runs
    let pool: Vec<_> = QUERIES
        .iter()
        .map(|q| engine.prepare_in(&catalog, q).expect("pool query compiles"))
        .collect();

    let mut matches_per_round = 0u64;
    let mut min_round_ns = u64::MAX;
    // one untimed warmup pass, then min-of-rounds (the minimum is the
    // noise-robust statistic: every perturbation only ever adds time)
    for round in 0..=ROUNDS {
        let t0 = std::time::Instant::now();
        let mut matches = 0u64;
        for _ in 0..REPS_PER_ROUND {
            for prepared in &pool {
                for doc in &docs {
                    matches += prepared.eval(doc, doc.tree.root()).count() as u64;
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        if round == 0 {
            matches_per_round = matches;
            continue; // warmup
        }
        assert_eq!(matches, matches_per_round, "rounds must do identical work");
        min_round_ns = min_round_ns.min(ns);
    }

    println!(
        "{{\"schema\":\"twx-overhead/1\",\"obs_enabled\":{},\"rounds\":{ROUNDS},\
         \"evals_per_round\":{},\"matches_per_round\":{matches_per_round},\
         \"min_round_ns\":{min_round_ns}}}",
        twx_obs::ENABLED,
        REPS_PER_ROUND * QUERIES.len() * N_DOCS,
    );
}
