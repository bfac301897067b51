//! Unsat pruning: an exact, automata-backed pass of the mandatory
//! simplify stage.
//!
//! The syntactic rules in `twx_regxpath::simplify` only recognise `⊥`
//! literally. This pass goes further on the **downward fragment** (axes
//! `↓`, `↓⁺` only), where satisfiability is decidable by the bottom-up
//! type automaton of [`twx_treeauto::xpath_compile`]: every filter and
//! test subexpression of a query that falls in the fragment is checked,
//! and statically-unsatisfiable ones are replaced by `⊥` — which the
//! following simplify fixpoint then propagates, often collapsing whole
//! branches of the plan before it is compiled. Each replacement
//! ticks the `simplify_unsat_pruned` counter, so the pass is visible in
//! EXPLAIN profiles.
//!
//! Soundness under shared catalogs: a [`Catalog`](twx_xtree::Catalog) is
//! append-only, so a plan compiled today must stay correct for documents
//! that use labels interned tomorrow. The satisfiability check therefore
//! runs over the labels the formula *mentions* plus one fresh
//! representative for "any other label": a downward formula cannot
//! distinguish two labels it does not mention, so unsatisfiability over
//! that alphabet implies unsatisfiability over every larger one. (The
//! converse direction is why the check is conservative: `¬p` alone is
//! never pruned even against a catalog that only knows `p`.)

use std::collections::BTreeMap;
use twx_corexpath::ast::{Axis, NodeExpr, PathExpr, Step};
use twx_obs::{self as obs, Counter};
use twx_regxpath::simplify::{is_false, is_true};
use twx_regxpath::{RNode, RPath};
use twx_treeauto::xpath_compile::{compile_simple, to_simple, AcceptAt, Simple};
use twx_xtree::Label;

/// Cost caps: the decision procedure is EXPTIME in the worst case, so
/// the pass silently skips formulas whose modal normal form or mentioned
/// label set is large. (Skipping is always sound — pruning is an
/// optimisation, never a requirement.)
const MAX_SIMPLE_SIZE: usize = 48;
const MAX_LABELS: u32 = 8;
/// Work cap: automaton rules the decision procedure may build for one
/// formula. The syntactic caps above still admit formulas whose
/// automaton runs to millions of rules (`<down[a]> or <down[b]> or
/// <down[c]>` builds 6.56 M and takes seconds); past this budget the
/// check gives up and the filter is kept, ticking
/// `simplify_prune_skipped`. The largest automaton a known prune needs
/// (`down[W(<down[b]> and leaf)]`) has 2,738 rules.
const MAX_RULES: usize = 4096;

/// Replaces statically-unsatisfiable downward filter/test subexpressions
/// of `p` with `⊥`, bottom-up. Returns the rewritten path; when nothing
/// is prunable the input is returned structurally unchanged.
///
/// Run [`twx_regxpath::simplify_rpath`] on the result to propagate the
/// introduced `⊥`s (the engine's pipeline does exactly that).
pub fn prune_unsat_rpath(p: &RPath) -> RPath {
    match p {
        RPath::Axis(_) | RPath::Eps => p.clone(),
        RPath::Test(f) => RPath::test(prune_filter(f)),
        RPath::Seq(a, b) => prune_unsat_rpath(a).seq(prune_unsat_rpath(b)),
        RPath::Union(a, b) => prune_unsat_rpath(a).union(prune_unsat_rpath(b)),
        RPath::Star(a) => prune_unsat_rpath(a).star(),
        RPath::Filter(a, f) => prune_unsat_rpath(a).filter(prune_filter(f)),
    }
}

/// Prunes inside a filter formula (nested paths may carry their own
/// filters), then decides the formula itself.
fn prune_filter(f: &RNode) -> RNode {
    let f = prune_inside(f);
    if is_false(&f) || is_true(&f) {
        return f;
    }
    if is_unsat_downward(&f) {
        obs::incr(Counter::SimplifyUnsatPruned);
        return RNode::fals();
    }
    f
}

/// Structural recursion into a node expression: nested path expressions
/// are pruned through [`prune_unsat_rpath`] so deeper filters get their
/// own checks.
fn prune_inside(f: &RNode) -> RNode {
    match f {
        RNode::True | RNode::Label(_) => f.clone(),
        RNode::Some(p) => RNode::some(prune_unsat_rpath(p)),
        RNode::Not(g) => prune_inside(g).not(),
        RNode::And(g, h) => prune_inside(g).and(prune_inside(h)),
        RNode::Or(g, h) => prune_inside(g).or(prune_inside(h)),
        RNode::Within(g) => prune_inside(g).within(),
    }
}

/// Exact unsatisfiability for downward-fragment formulas; `false` for
/// anything outside the fragment or beyond the cost caps and budget.
fn is_unsat_downward(f: &RNode) -> bool {
    let mut labels = BTreeMap::new();
    let Some(converted) = to_downward_node(f, &mut labels) else {
        return false;
    };
    let n_labels = labels.len() as u32 + 1; // + one "any other label"
    if n_labels > MAX_LABELS {
        return false;
    }
    let Ok(simple) = to_simple(&converted) else {
        return false;
    };
    if simple_size(&simple) > MAX_SIMPLE_SIZE {
        return false;
    }
    match compile_simple(&simple, n_labels, AcceptAt::SomeNode, Some(MAX_RULES)) {
        Some(auto) => auto.tree_emptiness_witness().is_none(),
        None => {
            obs::incr(Counter::SimplifyPruneSkipped);
            false
        }
    }
}

fn simple_size(s: &Simple) -> usize {
    match s {
        Simple::True | Simple::Label(_) => 1,
        Simple::SomeChild(g) | Simple::SomeDesc(g) | Simple::Not(g) => 1 + simple_size(g),
        Simple::And(g, h) | Simple::Or(g, h) => 1 + simple_size(g) + simple_size(h),
    }
}

/// Densifies a mentioned label into `0..m` (the automaton alphabet is
/// the mentioned labels plus the representative `m`).
fn dense(l: Label, labels: &mut BTreeMap<Label, u32>) -> Label {
    let next = labels.len() as u32;
    Label(*labels.entry(l).or_insert(next))
}

/// Converts a Regular XPath(W) node expression into the downward
/// fragment of Core XPath, or `None` if it leaves the fragment.
///
/// `W φ` converts to `φ` when `φ` is itself downward: a downward formula
/// is subtree-local, so relativising it to the subtree is the identity.
fn to_downward_node(f: &RNode, labels: &mut BTreeMap<Label, u32>) -> Option<NodeExpr> {
    Some(match f {
        RNode::True => NodeExpr::True,
        RNode::Label(l) => NodeExpr::Label(dense(*l, labels)),
        RNode::Some(p) => NodeExpr::Some(Box::new(to_downward_path(p, labels)?)),
        RNode::Not(g) => NodeExpr::Not(Box::new(to_downward_node(g, labels)?)),
        RNode::And(g, h) => NodeExpr::And(
            Box::new(to_downward_node(g, labels)?),
            Box::new(to_downward_node(h, labels)?),
        ),
        RNode::Or(g, h) => NodeExpr::Or(
            Box::new(to_downward_node(g, labels)?),
            Box::new(to_downward_node(h, labels)?),
        ),
        RNode::Within(g) => to_downward_node(g, labels)?,
    })
}

/// Converts a path expression, keeping only `↓` steps, `ε`, tests,
/// composition, union, filters, and `(↓)*` (which is `. ∪ ↓⁺` in Core
/// XPath). General Kleene stars leave the fragment.
fn to_downward_path(p: &RPath, labels: &mut BTreeMap<Label, u32>) -> Option<PathExpr> {
    Some(match p {
        RPath::Axis(Axis::Down) => PathExpr::Step(Step::axis(Axis::Down)),
        RPath::Axis(_) => return None,
        RPath::Eps => PathExpr::Slf,
        RPath::Test(f) => PathExpr::Filter(
            Box::new(PathExpr::Slf),
            Box::new(to_downward_node(f, labels)?),
        ),
        RPath::Seq(a, b) => PathExpr::Seq(
            Box::new(to_downward_path(a, labels)?),
            Box::new(to_downward_path(b, labels)?),
        ),
        RPath::Union(a, b) => PathExpr::Union(
            Box::new(to_downward_path(a, labels)?),
            Box::new(to_downward_path(b, labels)?),
        ),
        RPath::Star(inner) => match &**inner {
            RPath::Axis(Axis::Down) => PathExpr::star(Axis::Down),
            _ => return None,
        },
        RPath::Filter(a, f) => PathExpr::Filter(
            Box::new(to_downward_path(a, labels)?),
            Box::new(to_downward_node(f, labels)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_regxpath::eval::eval_rel;
    use twx_regxpath::generate::{random_rpath, RGenConfig};
    use twx_regxpath::parser::parse_rpath_catalog;
    use twx_regxpath::simplify_rpath;
    use twx_xtree::generate::enumerate_trees_up_to;
    use twx_xtree::rng::SplitMix64;
    use twx_xtree::Catalog;

    fn path(s: &str) -> RPath {
        let catalog = Catalog::from_names(["a", "b", "c"]);
        parse_rpath_catalog(s, &catalog).unwrap()
    }

    #[test]
    fn contradictions_are_pruned_to_false() {
        for q in [
            "down[b and !b]",
            "down*[leaf and <down>]",
            "down[<down[b and !b]>]", // nested inside a filter's path
            "down[W(a and b)]",       // unique labelling: a ∧ b unsat
        ] {
            let pruned = simplify_rpath(&prune_unsat_rpath(&path(q)));
            assert!(
                twx_regxpath::simplify::is_empty_path(&pruned),
                "{q} should prune to the empty path, got {pruned:?}"
            );
        }
    }

    #[test]
    fn satisfiable_and_non_downward_filters_survive() {
        for q in [
            "down[b]",
            "down*[!b]",        // unsat only without label headroom: kept
            "down[<up>]",       // non-downward: skipped
            "down[root]",       // root = ¬⟨↑⟩: non-downward, skipped
            "(down/right)*[b]", // general star: filter still checked, kept
        ] {
            let p = path(q);
            let pruned = prune_unsat_rpath(&p);
            assert_eq!(p, pruned, "{q} should be untouched");
        }
    }

    #[test]
    fn within_of_downward_collapses_for_the_check() {
        // W(⟨↓[b]⟩ ∧ ¬⟨↓⟩) is unsat: a node with a b-child but no child
        let pruned = simplify_rpath(&prune_unsat_rpath(&path("down[W(<down[b]> and leaf)]")));
        assert!(twx_regxpath::simplify::is_empty_path(&pruned));
    }

    /// Pruning is semantics-preserving on bounded domains, fuzzed over
    /// random Regular XPath(W) expressions (seeded, deterministic).
    #[test]
    fn pruning_is_sound() {
        let trees = enumerate_trees_up_to(4, 2);
        let mut rng = SplitMix64::seed_from_u64(2026);
        let cfg = RGenConfig::default();
        for _ in 0..30 {
            let p = random_rpath(&cfg, 4, &mut rng);
            let pruned = prune_unsat_rpath(&p);
            for t in &trees {
                assert_eq!(
                    eval_rel(t, &p),
                    eval_rel(t, &pruned),
                    "unsound prune {p:?} → {pruned:?}"
                );
            }
        }
    }
}
