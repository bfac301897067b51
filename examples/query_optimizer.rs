//! A miniature query optimizer with *certified* rewrite rules.
//!
//! The motivation from the paper's area: evaluation times of two
//! equivalent queries may differ by orders of magnitude, so an optimizer
//! rewrites aggressively — but every rewrite rule must be a *valid*
//! equivalence ("fake equivalences are not so easy to spot, especially in
//! a hurry"). This example:
//!
//! 1. simplifies queries with the axiomatic rewriter;
//! 2. certifies candidate rule instances with the exact automata-based
//!    decision procedure (downward fragment) or the bounded-domain decider
//!    (full language), printing a countermodel when a plausible-looking
//!    rule is in fact unsound;
//! 3. measures the evaluation-time effect of a rewrite.
//!
//! ```sh
//! cargo run --release --example query_optimizer
//! ```

use std::time::Instant;
use treewalk::corexpath::parser::{parse_node_expr, parse_path_expr};
use treewalk::corexpath::print::path_to_string;
use treewalk::corexpath::rewrite::simplify_path;
use treewalk::xtree::generate::{random_tree, Shape};
use treewalk::xtree::{Alphabet, NodeSet};
use twx_core::decide::{downward_equivalent, node_equiv_bounded, path_equiv_bounded};
use twx_core::from_core::{core_node_to_regular, core_path_to_regular};

fn main() {
    let mut ab = Alphabet::from_names(["a0", "a1"]);

    // ---- 1. the simplifier at work --------------------------------------
    println!("== axiomatic simplification ==");
    for q in [
        "./down[true]/.",
        "down[a0][a1]",
        "(down | down)/(up | up[!<left> or <left>])",
        "down[<(. | .)[a0]>]",
    ] {
        let p = parse_path_expr(q, &mut ab).unwrap();
        let s = simplify_path(&p);
        println!("  {q}  ->  {}", path_to_string(&s, &ab));
    }

    // ---- 2. certifying rule candidates ----------------------------------
    println!("\n== certifying candidate equivalences (downward fragment: exact) ==");
    let candidates = [
        // (lhs, rhs) — some valid, some traps
        ("<down/down+>", "<down+/down>"),
        ("<down>", "<down+>"),
        ("<down[a0]>", "<down+[a0]>"), // trap: descendant need not be child
        ("a0", "!a1"),                 // valid under unique labelling with 2 labels
    ];
    for (l, r) in candidates {
        let lf = parse_node_expr(l, &mut ab).unwrap();
        let rf = parse_node_expr(r, &mut ab).unwrap();
        match downward_equivalent(&lf, &rf, 2) {
            Ok(true) => println!("  VALID    {l} == {r}"),
            Ok(false) => {
                // extract a countermodel via the bounded decider
                let v = node_equiv_bounded(
                    &core_node_to_regular(&lf),
                    &core_node_to_regular(&rf),
                    4,
                    2,
                );
                match v {
                    twx_core::decide::BoundedVerdict::Inequivalent { tree, witness } => {
                        println!(
                            "  INVALID  {l} == {r}   countermodel: {} at node {}",
                            treewalk::xtree::serialize::to_sexp(&tree, &ab),
                            witness.0 .0
                        );
                    }
                    _ => println!("  INVALID  {l} == {r}   (countermodel larger than bound)"),
                }
            }
            Err(e) => println!("  SKIPPED  {l} == {r}: {e}"),
        }
    }

    println!("\n== full language: bounded certification ==");
    let pairs = [
        ("down/down+", "down+/down"),
        ("down[a0]/down+", "down+[a0]/down"),
    ];
    for (l, r) in pairs {
        let lp = core_path_to_regular(&parse_path_expr(l, &mut ab).unwrap());
        let rp = core_path_to_regular(&parse_path_expr(r, &mut ab).unwrap());
        let v = path_equiv_bounded(&lp, &rp, 5, 2);
        if v.is_equivalent() {
            println!("  VALID (up to 5 nodes)  {l} == {r}");
        } else {
            println!("  INVALID                {l} == {r}");
        }
    }

    // ---- 3. the payoff: rewriting changes evaluation time ---------------
    println!("\n== evaluation-time effect of a rewrite ==");
    use twx_xtree::rng::SplitMix64 as StdRng;
    let mut rng = StdRng::seed_from_u64(42);
    let t = random_tree(Shape::DocumentLike, 50_000, 2, &mut rng);
    let verbose =
        parse_path_expr("./down[true]/./down[true][true]/. | down/down", &mut ab).unwrap();
    let tidy = simplify_path(&verbose);
    println!(
        "  query: {}  ->  {}",
        path_to_string(&verbose, &ab),
        path_to_string(&tidy, &ab)
    );
    let ctx = NodeSet::singleton(t.len(), t.root());
    let t0 = Instant::now();
    let r1 = treewalk::corexpath::eval_path_image(&t, &verbose, &ctx);
    let d1 = t0.elapsed();
    let t0 = Instant::now();
    let r2 = treewalk::corexpath::eval_path_image(&t, &tidy, &ctx);
    let d2 = t0.elapsed();
    assert_eq!(r1, r2, "rewrite changed the answer!");
    println!(
        "  50k-node tree: {:?} (original) vs {:?} (simplified), same {} answers",
        d1,
        d2,
        r1.count()
    );
}
