//! The paper's theorem, executed: take one query, render it in all three
//! formalisms — Regular XPath(W), FO(MTC), nested tree walking automaton —
//! and watch the translations agree on a corpus of trees.
//!
//! ```sh
//! cargo run --example equivalence_triangle
//! ```

use treewalk::regxpath::parser::parse_rpath;
use treewalk::regxpath::print::rpath_to_string;
use treewalk::xtree::Alphabet;
use twx_core::diff::{check_tri, standard_corpus, TriQuery};
use twx_fotc::print::formula_to_string;

fn main() {
    let mut ab = Alphabet::from_names(["a", "b"]);

    // A query using everything the paper adds to Core XPath: arbitrary
    // star, tests, and the W (within) operator.
    let source = "(down[a] | right)*[W(<down*[b]>)]";
    let p = parse_rpath(source, &mut ab).unwrap();

    println!("Regular XPath(W) query:\n  {}\n", rpath_to_string(&p, &ab));

    let tri = TriQuery::from_xpath(&p);

    println!("FO(MTC) translation (free variables x0, x1):");
    println!("  {}\n", formula_to_string(&tri.logic, &ab));

    println!("nested tree walking automaton:");
    println!(
        "  {} states, {} transitions, nesting depth {}\n",
        tri.automaton.total_states(),
        tri.automaton.total_transitions(),
        tri.automaton.depth()
    );

    println!("Kleene translation back from the automaton:");
    println!("  {}\n", rpath_to_string(&tri.xpath_back, &ab));

    match &tri.xpath_from_logic {
        Some(q) => println!(
            "guarded-fragment translation back from the logic:\n  {}\n",
            rpath_to_string(q, &ab)
        ),
        None => println!(
            "logic image outside the guarded fragment (uses W) — validated semantically instead\n"
        ),
    }

    let corpus = standard_corpus(4, 2, 5, 2008);
    println!(
        "checking all renditions on {} trees (every tree up to 4 nodes over 2 labels, plus random trees)...",
        corpus.len()
    );
    match check_tri(&tri, &corpus) {
        None => println!("✓ the equivalence triangle commutes on the whole corpus"),
        Some(m) => println!("✗ MISMATCH ({}) on tree {:?}", m.describe(), m.tree),
    }
}
