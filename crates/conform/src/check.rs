//! The cross-route checker: one `(query, document)` pair through every
//! evaluation route, compared against the naive relational oracle.

use std::sync::Arc;
use std::time::Duration;

use treewalk::Engine;
use twx_core::{rpath_to_formula, rpath_to_ntwa};
use twx_corpus::{Corpus, QueryService, ServiceConfig};
use twx_fotc::eval_binary;
use twx_obs::{self as obs, Counter};
use twx_regxpath::eval::Compiled;
use twx_regxpath::eval_naive::eval_rel_naive;
use twx_regxpath::parser::parse_rpath_catalog;
use twx_regxpath::RPath;
use twx_twa::eval_image;
use twx_xtree::serialize::to_sexp;
use twx_xtree::{Catalog, Document, NodeSet, Tree};

use crate::{Divergence, Fault, RouteAnswer, RouteId};

/// The differential checker. Holds the shared label [`Catalog`], the
/// optional test-only [`Fault`], and per-route accumulated evaluation
/// time.
///
/// All routes evaluate from the document root; answers are compared as
/// sorted node-id vectors. The reference is always [`RouteId::Naive`] —
/// the `n × n` bit-matrix semantics of `eval_rel_naive`.
pub struct Conformer {
    catalog: Arc<Catalog>,
    fault: Option<Fault>,
    route_nanos: [u64; RouteId::ALL.len()],
    /// [`RouteId::Vm`] evaluations that ran at least one one-way
    /// automaton pass (`vm_one_way_passes`).
    vm_one_way_evals: u64,
    /// [`RouteId::Vm`] evaluations that ran at least one closure round
    /// (`vm_closure_iters`).
    vm_round_evals: u64,
}

impl Conformer {
    /// A checker over `catalog` with no fault injected.
    pub fn new(catalog: Arc<Catalog>) -> Conformer {
        Conformer::with_fault(catalog, None)
    }

    /// A checker that corrupts one route's answers (see [`Fault`]).
    pub fn with_fault(catalog: Arc<Catalog>, fault: Option<Fault>) -> Conformer {
        Conformer {
            catalog,
            fault,
            route_nanos: [0; RouteId::ALL.len()],
            vm_one_way_evals: 0,
            vm_round_evals: 0,
        }
    }

    /// The shared label space.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Accumulated `eval_nanos` per route (from `twx-obs` counter deltas
    /// around each route's evaluation), in [`RouteId::ALL`] order.
    pub fn route_nanos(&self) -> Vec<(RouteId, u64)> {
        RouteId::ALL
            .into_iter()
            .map(|r| (r, self.route_nanos[r.index()]))
            .collect()
    }

    /// How many [`RouteId::Vm`] evaluations so far ran a one-way
    /// automaton pass — the share of checks that exercised that kernel
    /// (zero when instrumentation is compiled out).
    pub fn vm_one_way_evals(&self) -> u64 {
        self.vm_one_way_evals
    }

    /// How many [`RouteId::Vm`] evaluations so far ran closure rounds —
    /// the kernel of stars whose bodies move both ways (zero when
    /// instrumentation is compiled out).
    pub fn vm_round_evals(&self) -> u64 {
        self.vm_round_evals
    }

    /// Evaluates `query` on `doc` through every route. Returns
    /// `Ok(None)` if all routes agree, `Ok(Some(divergence))` naming the
    /// odd routes otherwise, and `Err` only if the query does not parse
    /// (a harness bug, since the harness prints the queries it checks).
    pub fn check(
        &mut self,
        query: &str,
        doc: &Document,
        seed: u64,
    ) -> Result<Option<Divergence>, String> {
        obs::incr(Counter::ConformChecks);
        let raw = parse_rpath_catalog(query, &self.catalog)
            .map_err(|e| format!("query `{query}` failed to parse: {e}"))?;
        let t = &doc.tree;
        let root = t.root();
        let ctx = NodeSet::singleton(t.len(), root);
        // the reference translations run on the AST the engine's
        // simplify stage produced, so that stage stays under test
        // against every construction of the triangle
        let prepared = Engine::new()
            .prepare_in(&self.catalog, query)
            .map_err(|e| format!("engine: {e}"));

        let mut answers: Vec<RouteAnswer> = Vec::with_capacity(RouteId::ALL.len());
        for route in RouteId::ALL {
            let before = obs::snapshot();
            let mut answer: RouteAnswer = match route {
                RouteId::Naive => {
                    let _s = obs::span(Counter::EvalNanos);
                    Ok(eval_rel_naive(t, &raw).image(&ctx))
                }
                RouteId::RawProduct => {
                    let _s = obs::span(Counter::EvalNanos);
                    Ok(Compiled::new(&raw).image(t, &ctx))
                }
                RouteId::Product | RouteId::Automaton | RouteId::Logic => {
                    prepared.as_ref().map_err(Clone::clone).map(|p| {
                        let _s = obs::span(Counter::EvalNanos);
                        reference_image(route, p.path(), t, &ctx)
                    })
                }
                RouteId::Vm => prepared
                    .as_ref()
                    .map_err(Clone::clone)
                    .map(|p| p.eval(doc, root)),
                RouteId::Service => self.service_answer(query, doc),
            }
            .map(|s| {
                s.iter().map(|v| v.0).collect::<Vec<u32>>() // NodeSet iterates in id order
            });
            let delta = obs::delta_since(&before);
            self.route_nanos[route.index()] += delta.get(Counter::EvalNanos);
            if route == RouteId::Vm {
                self.vm_one_way_evals += u64::from(delta.get(Counter::VmOneWayPasses) > 0);
                self.vm_round_evals += u64::from(delta.get(Counter::VmClosureIters) > 0);
            }
            if let (Some(f), Ok(a)) = (&self.fault, &mut answer) {
                if f.route == route {
                    f.apply(a);
                }
            }
            answers.push(answer);
        }

        let reference = answers[RouteId::Naive.index()]
            .clone()
            .expect("naive route is infallible");
        let disagreeing: Vec<(RouteId, RouteAnswer)> = RouteId::ALL
            .into_iter()
            .zip(answers)
            .filter(|(_, a)| a.as_ref() != Ok(&reference))
            .collect();
        if disagreeing.is_empty() {
            return Ok(None);
        }
        obs::incr(Counter::ConformDivergences);
        Ok(Some(Divergence {
            query: query.to_string(),
            doc_sexp: to_sexp(t, &self.catalog.snapshot()),
            seed,
            reference,
            disagreeing,
        }))
    }

    /// Runs the query through a 2-shard [`QueryService`] holding two
    /// copies of `doc` (one per shard, round-robin placement), checking
    /// that the shards agree with each other before returning the answer.
    fn service_answer(&self, query: &str, doc: &Document) -> Result<NodeSet, String> {
        let mut builder = Corpus::builder(Arc::clone(&self.catalog), 2);
        builder.add_document(doc.clone());
        builder.add_document(doc.clone());
        let corpus = Arc::new(builder.build());
        let service = QueryService::new(
            corpus,
            Engine::new(),
            ServiceConfig {
                workers: 2,
                queue_capacity: 8,
                default_timeout: Some(Duration::from_secs(30)),
                slowlog_capacity: 16,
            },
        );
        let answer = service.query(query).map_err(|e| format!("service: {e}"))?;
        service.shutdown();
        if answer.timed_out {
            return Err("service: timed out".to_string());
        }
        let [(_, _, a), (_, _, b)] = &answer.per_doc[..] else {
            return Err(format!(
                "service: expected 2 per-doc answers, got {}",
                answer.per_doc.len()
            ));
        };
        if a != b {
            return Err(format!(
                "service: shards disagree ({:?} vs {:?})",
                a.to_vec(),
                b.to_vec()
            ));
        }
        Ok(a.clone())
    }
}

/// Translates `path` through one of the paper's constructions — a
/// [`RouteId::REFERENCES`] route — and evaluates it on `t` from `ctx`.
///
/// # Panics
///
/// If `route` is not a reference route.
pub fn reference_image(route: RouteId, path: &RPath, t: &Tree, ctx: &NodeSet) -> NodeSet {
    match route {
        RouteId::Product => Compiled::new(path).image(t, ctx),
        RouteId::Automaton => eval_image(t, &rpath_to_ntwa(path), ctx),
        RouteId::Logic => eval_binary(t, &rpath_to_formula(path, 0, 1, 2), 0, 1).image(ctx),
        other => panic!("{} is not a reference route", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    fn doc(catalog: &Catalog, sexp: &str) -> Document {
        twx_xtree::parse::parse_sexp_catalog(sexp, catalog).unwrap()
    }

    #[test]
    fn all_routes_agree_on_handcrafted_pairs() {
        let catalog = Arc::new(Catalog::from_names(["a", "b"]));
        let mut conf = Conformer::new(Arc::clone(&catalog));
        let d = doc(&catalog, "(a (b a) b)");
        for q in [
            ".",
            "down",
            "down*",
            "down[b]",
            "down/down | down",
            "?(W(<down>))",
            "(down | up)*[a and !b]",
        ] {
            let r = conf.check(q, &d, 7).unwrap();
            assert!(
                r.is_none(),
                "unexpected divergence: {}",
                r.unwrap().describe()
            );
        }
        // every route actually ran and was timed
        for (route, nanos) in conf.route_nanos() {
            assert!(nanos > 0, "route {} recorded no eval time", route.name());
        }
        // none of those stars is one-way; this one is
        assert_eq!(conf.vm_one_way_evals(), 0);
        let r = conf.check("(down/down | right[a])*", &d, 7).unwrap();
        assert!(
            r.is_none(),
            "unexpected divergence: {}",
            r.unwrap().describe()
        );
        assert_eq!(conf.vm_one_way_evals(), u64::from(twx_obs::ENABLED));
        // and a body that steps both ways runs rounds
        let rounds = conf.vm_round_evals();
        let r = conf.check("(down[a]/up)*", &d, 7).unwrap();
        assert!(r.is_none(), "unexpected divergence");
        assert_eq!(conf.vm_round_evals(), rounds + u64::from(twx_obs::ENABLED));
    }

    #[test]
    fn fault_is_detected_and_named() {
        let catalog = Arc::new(Catalog::from_names(["a"]));
        let fault = Fault {
            route: RouteId::Automaton,
            kind: FaultKind::DropMax,
        };
        let mut conf = Conformer::with_fault(Arc::clone(&catalog), Some(fault));
        let d = doc(&catalog, "(a a a)");
        let div = conf
            .check("down", &d, 1)
            .unwrap()
            .expect("fault must diverge");
        assert_eq!(div.route_names(), vec!["automaton"]);
        assert_eq!(div.reference, vec![1, 2]);
        assert_eq!(div.disagreeing[0].1, Ok(vec![1]));
    }

    #[test]
    fn unparseable_query_is_a_harness_error() {
        let catalog = Arc::new(Catalog::from_names(["a"]));
        let mut conf = Conformer::new(Arc::clone(&catalog));
        let d = doc(&catalog, "(a)");
        assert!(conf.check("down[", &d, 0).is_err());
    }
}
