//! Hand-build a nested tree walking automaton, run it, translate it to
//! Regular XPath(W), and decide properties of the downward fragment with
//! the bottom-up automata substrate.
//!
//! The automaton implements a classic walking idiom: a depth-first search
//! that only descends into children whose subtree does *not* contain a
//! `stop` label — a query whose natural formulation is a guarded walk.
//!
//! ```sh
//! cargo run --example automaton_playground
//! ```

use treewalk::regxpath::print::rpath_to_string;
use treewalk::xtree::parse::parse_sexp_with;
use treewalk::xtree::serialize::to_sexp;
use treewalk::xtree::{Alphabet, NodeSet};
use twx_treeauto::xpath_compile::satisfiable;
use twx_twa::eval::{accepts_from, eval_image};
use twx_twa::machine::{Move, Ntwa, Scope, TestAtom, Transition, Twa};

fn main() {
    let mut ab = Alphabet::from_names(["ok", "stop"]);
    let stop = ab.lookup("stop").unwrap();

    // sub-automaton: "some node of my subtree is labelled stop"
    let sees_stop = Ntwa::flat(Twa {
        n_states: 2,
        initial: 0,
        accepting: vec![1],
        transitions: vec![
            Transition {
                from: 0,
                guard: vec![],
                mv: Move::AnyChild,
                to: 0,
            },
            Transition {
                from: 0,
                guard: vec![TestAtom::Label(stop)],
                mv: Move::Stay,
                to: 1,
            },
        ],
    });

    // top-level: descend only into stop-free territory
    let walker = Ntwa {
        top: Twa {
            n_states: 1,
            initial: 0,
            accepting: vec![0],
            transitions: vec![Transition {
                from: 0,
                guard: vec![TestAtom::Nested {
                    automaton: 0,
                    negated: true,
                    scope: Scope::Subtree,
                }],
                mv: Move::AnyChild,
                to: 0,
            }],
        },
        subs: vec![sees_stop],
    };
    walker.validate().expect("well-formed automaton");

    let t = parse_sexp_with("(ok (ok ok (ok stop)) (ok ok) (stop ok))", &mut ab).unwrap();
    println!("tree: {}", to_sexp(&t, &ab));

    // The guard is tested at the source of each move: from the root
    // (whose subtree contains a stop) the walker may not move at all,
    // while inside a stop-free subtree it roams freely.
    let reach = eval_image(&t, &walker, &NodeSet::singleton(t.len(), t.root()));
    println!(
        "\nreachable from the root (its subtree has a stop): {:?}",
        reach.to_vec()
    );
    let clean = t
        .first_child(t.root())
        .and_then(|c| t.next_sibling(c))
        .unwrap();
    let reach = eval_image(&t, &walker, &NodeSet::singleton(t.len(), clean));
    println!(
        "reachable from node {} (stop-free subtree): {:?}",
        clean.0,
        reach.to_vec()
    );
    println!(
        "acceptance set of the 'sees stop' sub-automaton: {:?}",
        accepts_from(&t, &walker.subs[0]).to_vec()
    );

    // the same automaton as a Regular XPath(W) expression (Kleene)
    let back = twx_core::ntwa_to_rpath(&walker);
    println!(
        "\nKleene translation of the walker:\n  {}",
        rpath_to_string(&back, &ab)
    );

    // sanity: same relation on this tree
    assert_eq!(
        twx_twa::eval_rel(&t, &walker),
        treewalk::regxpath::eval_rel(&t, &back),
    );
    println!("✓ automaton and translated expression agree on this tree");

    // a taste of the decision procedures: is there a tree where some node
    // has an ok child *and* is stop-labelled? (downward fragment: exact)
    let mut cab = Alphabet::from_names(["ok", "stop"]);
    let f = treewalk::corexpath::parse_node_expr("stop and <down[ok]>", &mut cab).unwrap();
    match satisfiable(&f, 2).unwrap() {
        Some(w) => println!(
            "\nsatisfiability witness for 'stop and <down[ok]>': {}",
            to_sexp(&w, &cab)
        ),
        None => println!("\nunsatisfiable"),
    }
}
