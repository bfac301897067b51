//! Seeded property suite for closures: whatever mix of sparse and dense
//! rounds a `Star` takes, whichever interval or link walk the
//! `AxisClosure` kernel runs, and whichever direction a one-way pass
//! runs in, the compiled program must agree with the `eval_naive`
//! relational oracle; a round closure must count one closure iteration
//! per round, an axis closure one kernel run and no rounds, a one-way
//! closure one automaton pass and no rounds.
//!
//! * **Shapes.** `Deep(1)` (a chain), `Deep(2)`, `Wide` and
//!   `DocumentLike` trees.
//! * **Body shapes.** All 15 non-empty unions of the four axes (the
//!   `AxisClosure` kernel); one-way bodies (`OneWayClosure`) forward
//!   and backward, with tests, with a nested star, and on both sides of
//!   the automaton's 64-state bound; and bodies that move both ways,
//!   which run rounds: `Seq`, `Union` with a non-axis side, a filter
//!   inside the body, a `<…>` test inside the body, and a nested star,
//!   which must fall back to dense rounds.
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
//! * **Adversarial contexts.** Every node of a 5k-node chain (where a
//!   kernel that did not skip covered sources, or a walk that did not
//!   stop at present nodes, would read O(n²) links) and the deepest leaf
//!   alone. The kernel must run within a constant factor of a pass that
//!   reads `2n + |S|` links, the bound on its reads. One-way passes on
//!   the same chain, with full reach and with small reach from the root
//!   and from the leaf, must run within a constant factor of reading
//!   links at the nodes they answer and start from: a pass that swept
//!   every node would not.

use std::hint::black_box;
use std::time::Instant;
use twx_obs::{self as obs, Counter};
use twx_regxpath::ast::Axis;
use twx_regxpath::eval_naive::eval_rel_naive;
use twx_regxpath::parser::parse_rpath;
use twx_vm::interp::{axis_closure, dense_threshold, sparse_threshold};
use twx_vm::oneway::MAX_STATES;
use twx_vm::{compile_path, eval_image, AxisSet, Program};
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{BitMatrix, Catalog, Document, NodeId, NodeSet, Tree};

const SHAPES: [Shape; 4] = [
    Shape::Deep(1),
    Shape::Deep(2),
    Shape::Wide,
    Shape::DocumentLike,
];

/// Star bodies that move both ways, so they still run rounds: one per
/// shape of non-axis body the compiler emits.
const ROUND_BODIES: [&str; 4] = [
    "down/up",
    "down/right | up",
    "down[b] | up[c]",
    "down[<down[c]>] | left",
];

/// Star bodies that move one way only, so they run one automaton pass:
/// forward and backward, with label and `<…>` tests, with a nested
/// star.
const ONE_WAY_BODIES: [&str; 6] = [
    "down/down",
    "up/left",
    "down[b] | right",
    "up[<down[c]>]",
    "down/(down[b])*",
    "left/(up[a])*",
];

/// `k` `down` steps in sequence: a star over them has an automaton of
/// `k + 1` states (`k` that a move leaves, plus the accepting state).
fn down_steps(k: usize) -> String {
    vec!["down"; k].join("/")
}

/// How the VM runs a star over a body.
#[derive(Clone, Copy)]
enum Run {
    Kernel(AxisSet),
    Pass,
    Rounds,
}

/// Every non-empty union of the four axes, as `(set, body text)`.
fn axis_bodies() -> Vec<(AxisSet, String)> {
    const AXES: [Axis; 4] = [Axis::Down, Axis::Up, Axis::Left, Axis::Right];
    (1..16u32)
        .map(|mask| {
            let axes: Vec<Axis> = (0..4)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| AXES[i])
                .collect();
            let names: Vec<String> = axes.iter().map(Axis::to_string).collect();
            (AxisSet::of(axes), names.join(" | "))
        })
        .collect()
}

/// Whole queries for the mid-size trees: closures of axis unions, of
/// one-way bodies (nested stars included) and of bodies that move both
/// ways, plus a nested star in such a body (dense rounds only), `<…>`
/// tests over closures (the kernel and the pass with inverted axes),
/// and stars in sequence.
const QUERIES: [&str; 20] = [
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
    "down*[<(down | left)*[c]>]",
    "down*[<(right | up)*[d]>]",
    "(left | right)*[<(down | left | right)*[b]>]",
    "(down/(right[b])*)*[c]",
    "down*[<(up/left)*[d]>]",
    "(left | up[<down[c]>])*",
    "(up*/right)*",
];

fn doc(shape: Shape, n: usize, rng: &mut SplitMix64) -> Document {
    random_document_in(shape, n, &Catalog::from_names(["a", "b", "c", "d"]), rng)
}

/// Context sets of every size that matters for the switches: none, the
/// root, `k - 1`, `k` and `k + 1` nodes for each threshold `k`, a
/// sixteenth of the tree, and all of it.
fn contexts(d: &Document, rng: &mut SplitMix64) -> Vec<NodeSet> {
    let n = d.tree.len();
    let mut sizes = vec![n / 16, n];
    for k in [dense_threshold(n), sparse_threshold(n)] {
        sizes.extend([k.saturating_sub(1), k, k + 1]);
    }
    let mut out = vec![NodeSet::empty(n), NodeSet::singleton(n, d.tree.root())];
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

/// Runs the kernel for `axes` directly and checks its answer against
/// `expect`.
fn check_kernel(t: &Tree, axes: AxisSet, ctx: &NodeSet, expect: &NodeSet, what: &str) {
    let mut out = NodeSet::full(3);
    axis_closure(t, axes, ctx, &mut out);
    assert_eq!(&out, expect, "{what}: kernel answer");
}

/// The least of five timings of `f`, in nanoseconds.
fn min_nanos(mut f: impl FnMut()) -> u128 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .min()
        .expect("five runs")
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
    let mut bodies: Vec<(Run, String)> = axis_bodies()
        .into_iter()
        .map(|(axes, body)| (Run::Kernel(axes), body))
        .collect();
    bodies.extend(ONE_WAY_BODIES.iter().map(|b| (Run::Pass, b.to_string())));
    bodies.extend(ROUND_BODIES.iter().map(|b| (Run::Rounds, b.to_string())));
    // the automaton's state bound: 63 and 64 states pass, 65 runs rounds
    for k in [MAX_STATES - 2, MAX_STATES - 1] {
        bodies.push((Run::Pass, down_steps(k)));
    }
    bodies.push((Run::Rounds, down_steps(MAX_STATES)));
    for shape in SHAPES {
        for words in [63, 64, 65] {
            let d = doc(shape, words * 64, &mut rng);
            let t = &d.tree;
            let ctxs = contexts(&d, &mut rng);
            for (run, body) in &bodies {
                let mut ab = d.alphabet.clone();
                let rel = eval_rel_naive(t, &parse_rpath(body, &mut ab).expect("body parses"));
                let q = format!("({body})*");
                let prog = compile_path(&parse_rpath(&q, &mut ab).expect("query parses"));
                for ctx in &ctxs {
                    let (expect, rounds) = naive_closure(&rel, ctx);
                    let before = obs::snapshot();
                    let got = eval_image(t, &prog, ctx);
                    let delta = obs::delta_since(&before);
                    let what = format!(
                        "`{q}` on {shape:?}/{words} words from {} context nodes",
                        ctx.count_ones()
                    );
                    assert_eq!(got, expect, "{what}");
                    let iters = delta.get(Counter::VmClosureIters);
                    let kernels = delta.get(Counter::VmAxisClosures);
                    let passes = delta.get(Counter::VmOneWayPasses);
                    if let Run::Kernel(axes) = *run {
                        check_kernel(t, axes, ctx, &expect, &what);
                    }
                    if obs::ENABLED {
                        let counts = (kernels, passes, iters);
                        match run {
                            Run::Kernel(_) => assert_eq!(counts, (1, 0, 0), "{what}: one kernel"),
                            Run::Pass => assert_eq!(counts, (0, 1, 0), "{what}: one pass"),
                            Run::Rounds => assert_eq!(
                                counts,
                                (0, 0, rounds),
                                "{what}: one closure iteration per round"
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn adversarial_contexts_on_a_chain_stay_linear() {
    let mut rng = SplitMix64::seed_from_u64(0xC4A1);
    let d = doc(Shape::Deep(1), 5000, &mut rng);
    let t = &d.tree;
    let n = t.len();
    let deepest = NodeId(n as u32 - 1);
    assert_eq!(t.depth(deepest) as usize, n - 1, "Deep(1) is a chain");
    let ctxs = [NodeSet::full(n), NodeSet::singleton(n, deepest)];
    for (axes, body) in axis_bodies() {
        let mut ab = d.alphabet.clone();
        let rel = eval_rel_naive(t, &parse_rpath(&body, &mut ab).expect("body parses"));
        let prog = compile_path(&parse_rpath(&format!("({body})*"), &mut ab).unwrap());
        for ctx in &ctxs {
            let (expect, _) = naive_closure(&rel, ctx);
            let what = format!("`({body})*` on a chain from {} nodes", ctx.count_ones());
            assert_eq!(eval_image(t, &prog, ctx), expect, "{what}");
            check_kernel(t, axes, ctx, &expect, &what);
            // 2n + |S| link reads, the kernel's bound (sets without
            // `down` read at most 3·|answer| ≤ 3n); a quadratic kernel
            // reads ~n²/2 links here, a thousand times more
            let links = min_nanos(|| {
                for v in t.nodes() {
                    black_box((t.next_sibling(v), t.parent(v)));
                }
                for v in ctx.iter() {
                    black_box(v);
                }
            });
            let mut out = NodeSet::empty(n);
            let kernel = min_nanos(|| axis_closure(t, axes, ctx, &mut out));
            assert!(
                kernel <= 16 * links,
                "{what}: kernel took {kernel} ns, over 16x the {links} ns of 2n + |S| link reads"
            );
        }
    }
}

#[test]
fn descendant_closure_of_a_chain_runs_the_kernel_once() {
    let mut rng = SplitMix64::seed_from_u64(7);
    for n in [1, 2, 64, 5000] {
        let d = doc(Shape::Deep(1), n, &mut rng);
        let t = &d.tree;
        let prog = compile_path(&parse_rpath("down*", &mut d.alphabet.clone()).unwrap());
        let ctx = NodeSet::singleton(n, t.root());
        let before = obs::snapshot();
        let out = eval_image(t, &prog, &ctx);
        let delta = obs::delta_since(&before);
        assert_eq!(out, NodeSet::full(n));
        if obs::ENABLED {
            assert_eq!(delta.get(Counter::VmAxisClosures), 1, "chain of {n}");
            assert_eq!(delta.get(Counter::VmClosureIters), 0, "chain of {n}");
            assert_eq!(
                delta.get(Counter::VmInstructions),
                prog.blocks[0].len() as u64,
                "chain of {n}: each instruction once"
            );
        }
    }
}

/// `(down/down)*`'s answer and counters from the root of chains; with
/// `| left` added (which never moves on a chain) the body moves both
/// ways and runs rounds.
fn even_depths_of_a_chain(query: &str, check: impl Fn(usize, u64, &obs::Counters, &Program)) {
    let mut rng = SplitMix64::seed_from_u64(7);
    for n in [1, 2, 64, 5000] {
        let d = doc(Shape::Deep(1), n, &mut rng);
        let t = &d.tree;
        let depths = t.depths();
        let height = depths.iter().copied().max().expect("nonempty") as u64;
        assert_eq!(height, n as u64 - 1, "Deep(1) is a chain");
        let prog = compile_path(&parse_rpath(query, &mut d.alphabet.clone()).unwrap());
        let ctx = NodeSet::singleton(n, t.root());
        let before = obs::snapshot();
        let out = eval_image(t, &prog, &ctx);
        let delta = obs::delta_since(&before);
        assert_eq!(
            out,
            NodeSet::from_iter(
                n,
                t.nodes().filter(|&v| depths[v.index()].is_multiple_of(2))
            )
        );
        if obs::ENABLED {
            check(n, height, &delta, &prog);
        }
    }
}

#[test]
fn round_closure_of_a_chain_counts_one_iteration_per_round() {
    // the chain crosses no threshold (one node per round, all sparse);
    // the other accounting cases are pinned against the naive closure
    even_depths_of_a_chain("(down/down | left)*", |n, height, delta, prog| {
        // one round per two levels, plus the round that finds nothing
        let iters = delta.get(Counter::VmClosureIters);
        assert_eq!(iters, height / 2 + 1, "chain of {n}");
        let main = prog.blocks[0].len() as u64;
        let body = prog.blocks[1].len() as u64;
        assert_eq!(
            delta.get(Counter::VmInstructions),
            main + iters * body,
            "chain of {n}: one instruction per body instruction per round"
        );
    });
}

#[test]
fn one_way_closure_of_a_chain_runs_one_pass() {
    even_depths_of_a_chain("(down/down)*", |n, _, delta, prog| {
        assert_eq!(delta.get(Counter::VmOneWayPasses), 1, "chain of {n}");
        assert_eq!(delta.get(Counter::VmClosureIters), 0, "chain of {n}");
        assert_eq!(
            delta.get(Counter::VmInstructions),
            prog.blocks[0].len() as u64,
            "chain of {n}: each instruction once"
        );
    });
}

#[test]
fn one_way_passes_on_a_chain_visit_only_what_they_reach() {
    let mut rng = SplitMix64::seed_from_u64(0x1A55);
    let d = doc(Shape::Deep(1), 5000, &mut rng);
    let t = &d.tree;
    let n = t.len();
    let leaf = NodeSet::singleton(n, NodeId(n as u32 - 1));
    let (root, all) = (NodeSet::singleton(n, t.root()), NodeSet::full(n));
    // (body, context): full reach, and small reach from the root and
    // from the leaf, in both directions (no node tests: loading a test
    // register reads every label, which is not the pass's cost)
    let cases = [
        ("down/down", &all),
        ("down/down", &root),
        ("down/right", &root),
        ("down/down", &leaf),
        ("up/up", &all),
        ("up/up", &leaf),
        ("up/left", &leaf),
        ("up/up", &root),
    ];
    let mut ab = d.alphabet.clone();
    let identity = compile_path(&parse_rpath(".", &mut ab).unwrap());
    for (body, ctx) in cases {
        let rel = eval_rel_naive(t, &parse_rpath(body, &mut ab).expect("body parses"));
        let prog = compile_path(&parse_rpath(&format!("({body})*"), &mut ab).unwrap());
        assert_eq!(prog.autos.len(), 1, "({body})* is one pass");
        let (expect, _) = naive_closure(&rel, ctx);
        let what = format!("`({body})*` on a chain from {} nodes", ctx.count_ones());
        assert_eq!(eval_image(t, &prog, ctx), expect, "{what}");
        // an eval's fixed cost (register resets of n/64 words), plus
        // link reads at the answer (twice) and at the sources
        let fixed = min_nanos(|| {
            black_box(eval_image(t, &identity, ctx));
        });
        let at: Vec<NodeId> = expect.iter().chain(&expect).chain(ctx).collect();
        let links = min_nanos(|| {
            for &v in &at {
                black_box((t.next_sibling(v), t.parent(v)));
            }
        });
        let pass = min_nanos(|| {
            black_box(eval_image(t, &prog, ctx));
        });
        // a pass that swept all n nodes costs ~n link reads here, over
        // 30x the bound when the reach is small
        assert!(
            pass <= 4 * fixed + 16 * links,
            "{what}: the pass took {pass} ns, over 4x the {fixed} ns of an identity eval \
             plus 16x the {links} ns of 2|answer| + |S| link reads"
        );
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
    let prog = compile_path(&parse_rpath("(down/down | left)*", &mut d.alphabet.clone()).unwrap());
    let before = obs::snapshot();
    eval_image(t, &prog, &NodeSet::singleton(t.len(), t.root()));
    // the root's children overflow the first, sparse round (sparse →
    // dense), and the last levels are few enough to run sparse again
    assert!(obs::delta_since(&before).get(Counter::FrontierSwitches) >= 2);
}
