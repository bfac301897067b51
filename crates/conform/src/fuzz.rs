//! The seeded fuzzing driver behind `twx-fuzz`.
//!
//! Deterministic end to end: a master [`SplitMix64`] seeded with
//! `FuzzConfig::seed` hands each trial its own sub-seed, so any failing
//! trial can be regenerated from `(seed, trial index)` alone — and the
//! repro line records the sub-seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use twx_obs::json::Json;
use twx_regxpath::generate::{random_rpath, RGenConfig};
use twx_regxpath::print::rpath_to_string;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::Catalog;

use crate::shrink::minimize;
use crate::{Conformer, Divergence, Fault, RouteId};

/// Knobs for [`run_fuzz`].
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Master seed: same seed, same trials, same verdict.
    pub seed: u64,
    /// Trials to run (may be cut short by `time_budget`).
    pub iters: u64,
    /// Optional wall-clock cap on the whole run.
    pub time_budget: Option<Duration>,
    /// Maximum query AST generation depth (each trial draws a depth in
    /// `1..=max_depth`).
    pub max_depth: usize,
    /// Maximum document size in nodes (each trial draws `1..=max`).
    pub max_doc_nodes: usize,
    /// Labels in the shared catalog (`a`, `b`, …).
    pub labels: usize,
    /// Test-only answer corruption (see [`Fault`]).
    pub fault: Option<Fault>,
    /// Whether to minimise divergences before reporting them.
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            iters: 100,
            time_budget: None,
            max_depth: 4,
            max_doc_nodes: 12,
            labels: 2,
            fault: None,
            shrink: true,
        }
    }
}

/// One reported (and possibly minimised) failure.
#[derive(Clone, Debug)]
pub struct FoundDivergence {
    /// The divergence as generated.
    pub original: Divergence,
    /// The minimised divergence (equals `original` when shrinking is
    /// off or no shrink step was accepted).
    pub minimized: Divergence,
    /// AST size of the minimised query.
    pub query_size: usize,
    /// Node count of the minimised document.
    pub doc_nodes: usize,
    /// Accepted shrink steps.
    pub shrink_steps: u64,
}

/// The outcome of a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The master seed.
    pub seed: u64,
    /// Trials actually executed (≤ `iters` under a time budget).
    pub iterations: u64,
    /// Every divergence found, in discovery order.
    pub divergences: Vec<FoundDivergence>,
    /// Total accepted shrink steps.
    pub shrink_steps: u64,
    /// Accumulated `eval_nanos` per route.
    pub route_nanos: Vec<(RouteId, u64)>,
    /// VM-route evaluations that ran a one-way automaton pass.
    pub vm_one_way_evals: u64,
    /// VM-route evaluations that ran closure rounds.
    pub vm_round_evals: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// The machine-readable summary printed by `twx-fuzz`.
    pub fn to_json(&self) -> Json {
        let routes: Vec<Json> = self
            .route_nanos
            .iter()
            .map(|(r, n)| Json::obj().field("route", r.name()).field("eval_nanos", *n))
            .collect();
        let divergences: Vec<Json> = self
            .divergences
            .iter()
            .map(|d| {
                Json::obj()
                    .field("query", d.minimized.query.as_str())
                    .field("doc", d.minimized.doc_sexp.as_str())
                    .field("seed", d.minimized.seed)
                    .field(
                        "routes",
                        d.minimized
                            .route_names()
                            .into_iter()
                            .map(Json::from)
                            .collect::<Vec<Json>>(),
                    )
                    .field("query_size", d.query_size)
                    .field("doc_nodes", d.doc_nodes)
                    .field("shrink_steps", d.shrink_steps)
            })
            .collect();
        Json::obj()
            .field("schema", "twx-fuzz/1")
            .field("seed", self.seed)
            .field("iterations", self.iterations)
            .field("divergences", self.divergences.len())
            .field("shrink_steps", self.shrink_steps)
            .field("elapsed_ms", self.elapsed.as_millis() as u64)
            .field("routes", Json::Arr(routes))
            .field("vm_round_evals", self.vm_round_evals)
            .field("vm_one_way_evals", self.vm_one_way_evals)
            .field("found", Json::Arr(divergences))
    }
}

/// Label names `a`, `b`, …, `z`, `l26`, `l27`, … for the shared catalog.
pub(crate) fn label_names(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            if i < 26 {
                ((b'a' + i as u8) as char).to_string()
            } else {
                format!("l{i}")
            }
        })
        .collect()
}

pub(crate) const SHAPES: [Shape; 5] = [
    Shape::Recursive,
    Shape::Deep(2),
    Shape::Bounded(3),
    Shape::Wide,
    Shape::DocumentLike,
];

/// Runs the differential fuzzer. Deterministic in `cfg` (modulo the
/// wall-clock `time_budget`, which only decides how many of the
/// deterministic trials execute).
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let started = Instant::now();
    let catalog = Arc::new(Catalog::from_names(label_names(cfg.labels.max(1))));
    let mut conf = Conformer::with_fault(Arc::clone(&catalog), cfg.fault);
    let gen_cfg = RGenConfig {
        labels: cfg.labels.max(1),
        ..RGenConfig::default()
    };
    let mut master = SplitMix64::seed_from_u64(cfg.seed);
    let mut report = FuzzReport {
        seed: cfg.seed,
        iterations: 0,
        divergences: Vec::new(),
        shrink_steps: 0,
        route_nanos: Vec::new(),
        vm_one_way_evals: 0,
        vm_round_evals: 0,
        elapsed: Duration::ZERO,
    };

    for _ in 0..cfg.iters {
        if let Some(budget) = cfg.time_budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        let trial_seed = master.next_u64();
        let mut rng = SplitMix64::seed_from_u64(trial_seed);
        let depth = rng.gen_range(1..cfg.max_depth.max(1) + 1);
        let n = rng.gen_range(1..cfg.max_doc_nodes.max(1) + 1);
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        let doc = random_document_in(shape, n, &catalog, &mut rng);
        let path = random_rpath(&gen_cfg, depth, &mut rng);
        let query = rpath_to_string(&path, &catalog.snapshot());

        report.iterations += 1;
        let div = conf
            .check(&query, &doc, trial_seed)
            .expect("printed query must re-parse");
        let Some(div) = div else { continue };
        let (minimized, query_size, doc_nodes, steps) = if cfg.shrink {
            match minimize(&mut conf, &div) {
                Ok(out) => (out.divergence, out.query_size, out.doc_nodes, out.steps),
                Err(_) => (div.clone(), path.size(), doc.tree.len(), 0),
            }
        } else {
            (div.clone(), path.size(), doc.tree.len(), 0)
        };
        report.shrink_steps += steps;
        report.divergences.push(FoundDivergence {
            original: div,
            minimized,
            query_size,
            doc_nodes,
            shrink_steps: steps,
        });
    }

    report.route_nanos = conf.route_nanos();
    report.vm_one_way_evals = conf.vm_one_way_evals();
    report.vm_round_evals = conf.vm_round_evals();
    report.elapsed = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    /// The CI gate in miniature: a short clean run finds nothing.
    #[test]
    fn clean_run_has_no_divergences() {
        let report = run_fuzz(&FuzzConfig {
            seed: 42,
            iters: 40,
            max_doc_nodes: 8,
            ..FuzzConfig::default()
        });
        assert_eq!(report.iterations, 40);
        assert!(
            report.divergences.is_empty(),
            "divergence: {}",
            report.divergences[0].original.describe()
        );
        let json = report.to_json().render();
        assert!(json.contains("\"schema\":\"twx-fuzz/1\""));
        assert!(json.contains("\"divergences\":0"));
        assert!(json.contains("\"vm_one_way_evals\":"));
        assert!(json.contains("\"vm_round_evals\":"));
    }

    #[test]
    fn same_seed_same_run() {
        let cfg = FuzzConfig {
            seed: 7,
            iters: 15,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.divergences.len(), b.divergences.len());
    }

    /// Acceptance criterion: an intentionally-broken route is caught
    /// and shrunk to ≤ 6 query AST nodes and ≤ 8 document nodes.
    #[test]
    fn fault_injection_is_caught_and_shrunk() {
        let report = run_fuzz(&FuzzConfig {
            seed: 42,
            iters: 60,
            fault: Some(Fault {
                route: RouteId::Product,
                kind: FaultKind::InsertRoot,
            }),
            ..FuzzConfig::default()
        });
        assert!(
            !report.divergences.is_empty(),
            "fault never diverged in {} iterations",
            report.iterations
        );
        let d = &report.divergences[0];
        assert_eq!(d.minimized.route_names(), vec!["product"]);
        assert!(d.query_size <= 6, "query_size {} > 6", d.query_size);
        assert!(d.doc_nodes <= 8, "doc_nodes {} > 8", d.doc_nodes);
    }

    /// The `--fault vm=drop-max` self-test: a seeded bug in the VM route
    /// is caught by the differential check and shrunk to a tiny repro —
    /// proof the serving route is actually guarded, not just present.
    #[test]
    fn vm_fault_is_caught_and_shrunk() {
        let report = run_fuzz(&FuzzConfig {
            seed: 42,
            iters: 60,
            fault: Some(Fault {
                route: RouteId::Vm,
                kind: FaultKind::DropMax,
            }),
            ..FuzzConfig::default()
        });
        assert!(
            !report.divergences.is_empty(),
            "vm fault never diverged in {} iterations",
            report.iterations
        );
        let d = &report.divergences[0];
        assert_eq!(d.minimized.route_names(), vec!["vm"]);
        assert!(d.query_size <= 6, "query_size {} > 6", d.query_size);
        assert!(d.doc_nodes <= 8, "doc_nodes {} > 8", d.doc_nodes);
    }

    #[test]
    fn time_budget_cuts_the_run_short() {
        let report = run_fuzz(&FuzzConfig {
            seed: 1,
            iters: u64::MAX,
            time_budget: Some(Duration::from_millis(200)),
            ..FuzzConfig::default()
        });
        assert!(report.iterations > 0);
        assert!(report.elapsed >= Duration::from_millis(200));
    }
}
