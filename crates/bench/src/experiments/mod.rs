//! The experiment programme (one module per experiment; see
//! `EXPERIMENTS.md` for the index).

pub mod e10_corpus_serve;
pub mod e11_live_corpus;
pub mod e12_vm;
pub mod e13_durability;
pub mod e1_core_eval;
pub mod e2_regxpath_eval;
pub mod e3_translations;
pub mod e4_triangle;
pub mod e5_logic_cost;
pub mod e6_satisfiability;
pub mod e7_closure;
pub mod e8_separation;
pub mod e9_prepare;

use crate::{RunCfg, Table};

/// Runs every experiment and returns the tables in order.
pub fn run_all(cfg: &RunCfg) -> Vec<Table> {
    vec![
        e1_core_eval::run(cfg),
        e2_regxpath_eval::run(cfg),
        e3_translations::run(cfg),
        e4_triangle::run(cfg),
        e5_logic_cost::run(cfg),
        e6_satisfiability::run(cfg),
        e7_closure::run(cfg),
        e8_separation::run(cfg),
        e9_prepare::run(cfg),
        e10_corpus_serve::run(cfg),
        e11_live_corpus::run(cfg),
        e12_vm::run(cfg),
        e13_durability::run(cfg),
    ]
}

/// Times a closure, returning (result, microseconds).
pub(crate) fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e6)
}
