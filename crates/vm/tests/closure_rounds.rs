//! Seeded property suite for the hybrid `Star` loop: whatever mix of
//! sparse and dense rounds a closure takes, the compiled program must
//! agree with the `eval_naive` relational oracle, and its accounting must
//! be one closure iteration per round.
//!
//! * **Shapes.** `Deep(1)` (a chain), `Deep(2)`, `Wide` and
//!   `DocumentLike` trees.
//! * **Body shapes.** Every body the compiler emits: a single axis,
//!   `Seq`, `Union`, a filter inside the body, a `<…>` test inside the
//!   body, `up` bodies (whose sparse images are deduplicated), and a
//!   nested star, which must fall back to dense rounds.
//! * **Thresholds.** Context sets are sized one below, at, and one above
//!   the sparse bound `dense_threshold(n)` and the dense-to-sparse bound
//!   `sparse_threshold(n)`, so the first round starts on either side of
//!   each switch, and closures from the root cross both.
//! * **Universes.** Mid-size trees are checked against the full `n × n`
//!   relation of `eval_rel_naive`. Trees of 63, 64 and 65 words
//!   (4032/4096/4160 nodes) are out of that oracle's reach (O(n³/64) per
//!   composition), so there the star-free body's relation comes from
//!   `eval_rel_naive` and is closed by semi-naive iteration, which also
//!   counts the rounds the VM must report.

use twx_obs::{self as obs, Counter};
use twx_regxpath::eval_naive::eval_rel_naive;
use twx_regxpath::parser::parse_rpath;
use twx_vm::interp::{dense_threshold, sparse_threshold};
use twx_vm::{compile_path, eval_image};
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{BitMatrix, Catalog, Document, NodeId, NodeSet};

const SHAPES: [Shape; 4] = [
    Shape::Deep(1),
    Shape::Deep(2),
    Shape::Wide,
    Shape::DocumentLike,
];

/// Star bodies with no star inside: one per shape of body the compiler
/// emits, plus `up` and `left` bodies.
const BODIES: [&str; 8] = [
    "down",
    "up",
    "down/down",
    "down | right",
    "down/right | up",
    "down[b] | down[c]",
    "down[<down[c]>]",
    "left | up",
];

/// Whole queries for the mid-size trees: the bodies above as closures,
/// plus a nested star (dense rounds only), a `<…>` test over a closure,
/// and stars in sequence.
const QUERIES: [&str; 13] = [
    "down*",
    "up*",
    "(down/down)*",
    "(down | right)*",
    "(down/right | up)*",
    "(down[b] | down[c])*",
    "(down[<down[c]>])*",
    "(left | up)*",
    "(down | up)*[a]",
    "(down*/right)*",
    "down*[<down*[c]>]",
    "down+[b]",
    "down*[c]/down*[d]",
];

fn doc(shape: Shape, n: usize, rng: &mut SplitMix64) -> Document {
    random_document_in(shape, n, &Catalog::from_names(["a", "b", "c", "d"]), rng)
}

/// Context sets of every size that matters for the switches: the root,
/// `k - 1`, `k` and `k + 1` nodes for each threshold `k`, a sixteenth of
/// the tree, and all of it.
fn contexts(d: &Document, rng: &mut SplitMix64) -> Vec<NodeSet> {
    let n = d.tree.len();
    let mut sizes = vec![n / 16, n];
    for k in [dense_threshold(n), sparse_threshold(n)] {
        sizes.extend([k.saturating_sub(1), k, k + 1]);
    }
    let mut out = vec![NodeSet::singleton(n, d.tree.root())];
    for size in sizes.into_iter().filter(|&s| s > 0) {
        let mut s = NodeSet::empty(n);
        while s.count_ones() < size.min(n) {
            s.insert(NodeId(rng.gen_range(0..n) as u32));
        }
        out.push(s);
    }
    out
}

/// `ctx ∪ img(body⁺, ctx)` by semi-naive iteration over `body`'s
/// relation, and the number of image rounds it took, counting the final
/// one that finds nothing new (the VM's `closure_iters`).
fn naive_closure(body: &BitMatrix, ctx: &NodeSet) -> (NodeSet, u64) {
    let mut acc = ctx.clone();
    let mut front = ctx.clone();
    let mut rounds = 0;
    while !front.is_empty() {
        rounds += 1;
        let mut fresh = body.image(&front);
        fresh.difference_with(&acc);
        acc.union_with(&fresh);
        front = fresh;
    }
    (acc, rounds)
}

#[test]
fn mid_size_trees_match_the_relational_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0xC105);
    for shape in SHAPES {
        // 5 and 9 words: thresholds of 5/2 and 9/4 nodes
        for n in [320, 576] {
            let d = doc(shape, n, &mut rng);
            let t = &d.tree;
            let ctxs = contexts(&d, &mut rng);
            for q in QUERIES {
                let path = parse_rpath(q, &mut d.alphabet.clone()).expect("query parses");
                let prog = compile_path(&path);
                let rel = eval_rel_naive(t, &path);
                for ctx in &ctxs {
                    assert_eq!(
                        eval_image(t, &prog, ctx),
                        rel.image(ctx),
                        "`{q}` on {shape:?}/{n} from {} context nodes",
                        ctx.count_ones()
                    );
                }
            }
        }
    }
}

#[test]
fn word_boundary_universes_match_the_naive_closure() {
    let mut rng = SplitMix64::seed_from_u64(0xB0D1E5);
    for shape in SHAPES {
        for words in [63, 64, 65] {
            let d = doc(shape, words * 64, &mut rng);
            let t = &d.tree;
            let ctxs = contexts(&d, &mut rng);
            for body in BODIES {
                let mut ab = d.alphabet.clone();
                let rel = eval_rel_naive(t, &parse_rpath(body, &mut ab).expect("body parses"));
                let q = format!("({body})*");
                let prog = compile_path(&parse_rpath(&q, &mut ab).expect("query parses"));
                for ctx in &ctxs {
                    let (expect, rounds) = naive_closure(&rel, ctx);
                    let before = obs::snapshot();
                    let got = eval_image(t, &prog, ctx);
                    let iters = obs::delta_since(&before).get(Counter::VmClosureIters);
                    let what = format!(
                        "`{q}` on {shape:?}/{words} words from {} context nodes",
                        ctx.count_ones()
                    );
                    assert_eq!(got, expect, "{what}");
                    if obs::ENABLED {
                        assert_eq!(iters, rounds, "{what}: one closure iteration per round");
                    }
                }
            }
        }
    }
}

#[test]
fn descendant_closure_of_a_chain_counts_one_iteration_per_level() {
    let mut rng = SplitMix64::seed_from_u64(7);
    // the chain crosses no threshold (one node per round, all sparse);
    // the other accounting cases are pinned against the naive closure
    for n in [1, 2, 64, 5000] {
        let d = doc(Shape::Deep(1), n, &mut rng);
        let t = &d.tree;
        let height = t.nodes().map(|v| t.depth(v)).max().expect("nonempty") as u64;
        assert_eq!(height, n as u64 - 1, "Deep(1) is a chain");
        let prog = compile_path(&parse_rpath("down*", &mut d.alphabet.clone()).unwrap());
        let ctx = NodeSet::singleton(n, t.root());
        let before = obs::snapshot();
        let out = eval_image(t, &prog, &ctx);
        let delta = obs::delta_since(&before);
        assert_eq!(out, NodeSet::full(n));
        if obs::ENABLED {
            let iters = delta.get(Counter::VmClosureIters);
            assert_eq!(iters, height + 1, "chain of {n}");
            let main = prog.blocks[0].len() as u64;
            let body = prog.blocks[1].len() as u64;
            assert_eq!(
                delta.get(Counter::VmInstructions),
                main + iters * body,
                "chain of {n}: one instruction per body instruction per round"
            );
        }
    }
}

#[test]
fn closures_from_a_wide_root_switch_both_ways() {
    if !obs::ENABLED {
        return;
    }
    let mut rng = SplitMix64::seed_from_u64(11);
    let d = doc(Shape::Wide, 20_000, &mut rng);
    let t = &d.tree;
    let prog = compile_path(&parse_rpath("down*", &mut d.alphabet.clone()).unwrap());
    let before = obs::snapshot();
    eval_image(t, &prog, &NodeSet::singleton(t.len(), t.root()));
    // the root's children overflow the first, sparse round (sparse →
    // dense), and the last levels are few enough to run sparse again
    assert!(obs::delta_since(&before).get(Counter::FrontierSwitches) >= 2);
}
