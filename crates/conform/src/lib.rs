//! # twx-conform — differential conformance harness
//!
//! The paper's headline result is an *effective* equivalence triangle —
//! Regular XPath(W) ≡ FO(MTC) ≡ NTWA — so the strongest executable
//! correctness claim this workspace can make is that every evaluation
//! route **never disagrees** on any query/document pair. This crate turns
//! that claim into a continuously-checked property:
//!
//! * [`check::Conformer`] evaluates one `(query, document)` pair through
//!   every route — the naive relational oracle, the raw (pipeline-off)
//!   product evaluator, the paper's three translations (product, NTWA,
//!   FO(MTC)) applied to the engine's simplified AST, the engine's
//!   bytecode VM plan-cache-cold and in its production (hot,
//!   arena-recycled) configuration, and a sharded [`QueryService`] — and reports
//!   any disagreement as a typed [`Divergence`] naming the odd routes
//!   and their answers.
//! * [`shrink::minimize`] greedily minimises a failing pair over both the
//!   query AST (drop disjuncts, strip filters, shorten stars — see
//!   [`twx_regxpath::shrink`]) and the document (delete subtrees — see
//!   [`twx_xtree::shrink`]), re-checking the oracle at every step.
//! * [`corpus`] reads and writes the golden-regression format: one JSON
//!   line per repro (surface query + sexp document + seed), replayed
//!   forever by `tests/conformance.rs` at the workspace root.
//! * [`fuzz::run_fuzz`] is the seeded driver behind the `twx-fuzz`
//!   binary, with per-route timing drawn from `twx-obs` counters.
//! * [`mutate::run_mutation_fuzz`] (`twx-fuzz --mutate`) interleaves
//!   random typed edits with queries on a live versioned document,
//!   checking the engine's result cache — with its precise,
//!   affected-span invalidation — against a recompute-from-scratch
//!   oracle on every answer, and shrinking any divergence over the edit
//!   script as well as the query and the document.
//! * [`crash::run_crash_fuzz`] (`twx-fuzz --crash`) drives a
//!   store-backed corpus with random edit/snapshot scripts, simulates a
//!   crash with a torn journal tail, recovers from disk, and demands the
//!   recovered corpus match the acknowledged pre-crash state
//!   node-for-node — versions, placement, and sequence number included.
//!   Its `--fault store=skip-fsync` hook proves a broken group-commit
//!   would be caught and shrunk.
//!
//! A test-only [`Fault`] hook mutates one route's answer post-hoc, so the
//! harness can prove it *would* catch a broken route and that the
//! shrinker converges to a small repro.
//!
//! [`QueryService`]: twx_corpus::QueryService

pub mod check;
pub mod corpus;
pub mod crash;
pub mod fuzz;
pub mod mutate;
pub mod shrink;

pub use check::{reference_image, Conformer};
pub use corpus::Repro;
pub use crash::{run_crash_fuzz, CrashDivergence, CrashOp, CrashReport};
pub use fuzz::{run_fuzz, FuzzConfig, FuzzReport};
pub use mutate::{run_mutation_fuzz, CacheFault, MutationReport, ScriptOp};
pub use shrink::{minimize, ShrinkOutcome};
pub use twx_corpus::StoreFault;

/// One evaluation route through the system. Every route must produce the
/// same answer set for the triangle (and the serving layer on top of it)
/// to be correct.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RouteId {
    /// `eval_rel_naive` on the raw parsed AST — the `n × n` bit-matrix
    /// reference semantics, and the oracle every other route is compared
    /// against.
    Naive,
    /// `Compiled::new` on the raw AST: the product evaluator with the
    /// simplify stage **off**.
    RawProduct,
    /// `Compiled::new` on the simplified AST of the engine's
    /// [`treewalk::Prepared::path`]: the NFA × tree product reference.
    Product,
    /// `rpath_to_ntwa` + `twx_twa::eval_image` on the simplified AST: the
    /// nested tree walking automaton reference.
    Automaton,
    /// `rpath_to_formula` + `twx_fotc::eval_binary` on the simplified
    /// AST: the FO(MTC) model-checking reference.
    Logic,
    /// A fresh [`treewalk::Engine`] per check (plan-cache cold), full
    /// pipeline on.
    VmCold,
    /// The bytecode VM in its production configuration: a persistent
    /// [`treewalk::Engine`], plan-cache-hot, registers recycled through
    /// the thread-local arena across checks — the route serving runs.
    Vm,
    /// A [`twx_corpus::QueryService`] over a 2-shard corpus holding two
    /// copies of the document, checked for internal agreement and
    /// compared against the sequential answer.
    Service,
}

impl RouteId {
    /// Every route, in the order answers are collected and reported.
    pub const ALL: [RouteId; 8] = [
        RouteId::Naive,
        RouteId::RawProduct,
        RouteId::Product,
        RouteId::Automaton,
        RouteId::Logic,
        RouteId::VmCold,
        RouteId::Vm,
        RouteId::Service,
    ];

    /// The routes that evaluate a translation of the engine's simplified
    /// AST through one of the paper's constructions (see
    /// [`check::reference_image`]).
    pub const REFERENCES: [RouteId; 3] = [RouteId::Product, RouteId::Automaton, RouteId::Logic];

    /// Stable name used in JSON summaries and `--fault` specs.
    pub fn name(self) -> &'static str {
        match self {
            RouteId::Naive => "naive",
            RouteId::RawProduct => "raw-product",
            RouteId::Product => "product",
            RouteId::Automaton => "automaton",
            RouteId::Logic => "logic",
            RouteId::VmCold => "vm-cold",
            RouteId::Vm => "vm",
            RouteId::Service => "service",
        }
    }

    /// Inverse of [`RouteId::name`].
    pub fn parse(s: &str) -> Option<RouteId> {
        RouteId::ALL.into_iter().find(|r| r.name() == s)
    }

    /// Position in [`RouteId::ALL`].
    pub fn index(self) -> usize {
        RouteId::ALL
            .into_iter()
            .position(|r| r == self)
            .expect("route in ALL")
    }
}

/// How a [`Fault`] corrupts an answer set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Remove the largest node id from the answer (a no-op on empty
    /// answers, so the repro must keep the query *matching* something).
    DropMax,
    /// Insert the root (node 0) into the answer (a no-op when the root
    /// already matches).
    InsertRoot,
}

/// A test-only fault: mutate the named route's answer after evaluation.
/// Used to prove the harness detects a broken route and that the
/// shrinker converges; never enabled in CI fuzzing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The route whose answers are corrupted.
    pub route: RouteId,
    /// The corruption applied.
    pub kind: FaultKind,
}

impl Fault {
    /// Parses a `--fault` spec of the form `<route>=<kind>`, e.g.
    /// `automaton=drop-max` or `naive=insert-root`.
    pub fn parse(spec: &str) -> Result<Fault, String> {
        let (route, kind) = spec
            .split_once('=')
            .ok_or_else(|| format!("fault spec '{spec}' is not <route>=<kind>"))?;
        let route = RouteId::parse(route).ok_or_else(|| {
            let names: Vec<&str> = RouteId::ALL.iter().map(|r| r.name()).collect();
            format!("unknown route '{route}' (one of: {})", names.join(", "))
        })?;
        let kind = match kind {
            "drop-max" => FaultKind::DropMax,
            "insert-root" => FaultKind::InsertRoot,
            other => return Err(format!("unknown fault kind '{other}'")),
        };
        Ok(Fault { route, kind })
    }

    /// Applies the corruption to a sorted answer vector.
    pub fn apply(&self, answer: &mut Vec<u32>) {
        match self.kind {
            FaultKind::DropMax => {
                answer.pop();
            }
            FaultKind::InsertRoot => {
                if answer.first() != Some(&0) {
                    answer.insert(0, 0);
                }
            }
        }
    }
}

/// A route's answer: the sorted matched node ids, or an error rendered as
/// a string (an erroring route counts as divergent — routes must agree on
/// *success*, too).
pub type RouteAnswer = Result<Vec<u32>, String>;

/// A disagreement between routes on one `(query, document)` pair.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The query in surface syntax.
    pub query: String,
    /// The document as an s-expression.
    pub doc_sexp: String,
    /// The trial seed that produced the pair (0 for replays).
    pub seed: u64,
    /// The oracle's answer ([`RouteId::Naive`]).
    pub reference: Vec<u32>,
    /// Every route that disagreed with the oracle, with its answer.
    pub disagreeing: Vec<(RouteId, RouteAnswer)>,
}

impl Divergence {
    /// The names of the disagreeing routes (the odd-ones-out).
    pub fn route_names(&self) -> Vec<&'static str> {
        self.disagreeing.iter().map(|(r, _)| r.name()).collect()
    }

    /// One-line human summary.
    pub fn describe(&self) -> String {
        format!(
            "query `{}` on {} : routes [{}] disagree with reference {:?}",
            self.query,
            self.doc_sexp,
            self.route_names().join(", "),
            self.reference,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_names_roundtrip() {
        for r in RouteId::ALL {
            assert_eq!(RouteId::parse(r.name()), Some(r));
            assert_eq!(RouteId::ALL[r.index()], r);
        }
        assert_eq!(RouteId::parse("bogus"), None);
    }

    #[test]
    fn fault_spec_parses() {
        let f = Fault::parse("automaton=drop-max").unwrap();
        assert_eq!(f.route, RouteId::Automaton);
        assert_eq!(f.kind, FaultKind::DropMax);
        assert!(Fault::parse("naive").is_err());
        assert!(Fault::parse("naive=weird").is_err());
        assert!(Fault::parse("weird=drop-max").is_err());
    }

    #[test]
    fn fault_apply() {
        let f = Fault {
            route: RouteId::Naive,
            kind: FaultKind::DropMax,
        };
        let mut a = vec![1, 3];
        f.apply(&mut a);
        assert_eq!(a, vec![1]);
        let mut empty: Vec<u32> = vec![];
        f.apply(&mut empty);
        assert!(empty.is_empty());

        let g = Fault {
            route: RouteId::Naive,
            kind: FaultKind::InsertRoot,
        };
        let mut b = vec![2];
        g.apply(&mut b);
        assert_eq!(b, vec![0, 2]);
        g.apply(&mut b);
        assert_eq!(b, vec![0, 2], "idempotent when root present");
    }
}
