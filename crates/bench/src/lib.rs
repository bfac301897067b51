//! # twx-bench — the experiment harness
//!
//! The paper is pure theory — it has no tables or figures — so, per the
//! substitution recorded in `DESIGN.md`, this crate defines and runs the
//! synthetic experimental programme E1–E12 of `EXPERIMENTS.md`:
//!
//! * E1/E2 — evaluation-complexity measurements (linear/product evaluators
//!   vs naive relational baselines);
//! * E3 — translation blow-ups across the equivalence triangle;
//! * E4 — exhaustive validation of the triangle (the main theorem);
//! * E5 — cost of the logic encoding vs direct query evaluation;
//! * E6 — exact vs bounded satisfiability decision procedures;
//! * E7 — automata closure operations (determinization/complement blowup);
//! * E8 — the MSO separation targets (regular languages vs bounded search
//!   over Regular XPath(W) candidates);
//! * E9 — the staged compile pipeline: a cold prepare + eval vs an eval
//!   of a held `Prepared` over catalog-shared documents;
//! * E10 — the serving layer: corpus-query throughput and p50/p95/p99
//!   latency by shard count, plus admission-control saturation;
//! * E11 — the live corpus: a mixed query/edit workload through the
//!   result cache vs re-evaluation from scratch, plus an
//!   invalidation-precision probe;
//! * E12 — the engine's bytecode VM vs the reference product evaluator
//!   on deep/starred queries (cold and hot) and on the E1/E2
//!   query families.
//!
//! Each experiment is a function `fn(&RunCfg) -> Table`; the `harness`
//! binary prints them all and exports every table plus the quickstart
//! EXPLAIN profile to `BENCH_HARNESS.json`. Runs are fully seeded
//! (`--seed`), so any table is reproducible bit-for-bit.

pub mod experiments;
pub mod table;

pub use table::Table;

/// Run configuration shared by every experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCfg {
    /// Shrink instance sizes for CI-speed runs.
    pub quick: bool,
    /// Base seed; each experiment derives its own stream from it, so the
    /// default (`0`) reproduces the historical per-experiment seeds 1–8.
    pub seed: u64,
}

impl RunCfg {
    /// The quick (CI) configuration with the default seed.
    pub fn quick() -> Self {
        RunCfg {
            quick: true,
            seed: 0,
        }
    }

    /// The PRNG seed for experiment number `k` under this base seed.
    pub fn seed_for(&self, k: u64) -> u64 {
        self.seed.wrapping_add(k)
    }
}

/// Workload description shared by several experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Document-like XML trees (bounded depth, Zipf labels).
    Document,
    /// Deep, narrow trees.
    Deep,
    /// Shallow, wide trees.
    Wide,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [Workload::Document, Workload::Deep, Workload::Wide];

    /// The generator shape for this workload.
    pub fn shape(self) -> twx_xtree::generate::Shape {
        use twx_xtree::generate::Shape;
        match self {
            Workload::Document => Shape::DocumentLike,
            Workload::Deep => Shape::Deep(2),
            Workload::Wide => Shape::Wide,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Document => "document",
            Workload::Deep => "deep",
            Workload::Wide => "wide",
        }
    }
}
