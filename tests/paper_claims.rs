//! Each test reproduces one claim from the paper (or its survey context),
//! named accordingly — the traceability layer referenced by
//! `EXPERIMENTS.md`.

use treewalk::corexpath::parser::parse_node_expr;
use treewalk::regxpath::parser::{parse_rnode, parse_rpath};
use treewalk::xtree::Alphabet;
use twx_core::decide::{
    downward_contains, downward_equivalent, node_equiv_bounded, path_equiv_bounded,
};
use twx_core::diff::{check_tri, standard_corpus, TriQuery};

fn ab() -> Alphabet {
    Alphabet::from_names(["a", "b"])
}

/// Claim: Regular XPath(W) ≡ FO(MTC) ≡ nested TWA (the main theorem),
/// validated by differential testing on the standard corpus.
#[test]
fn claim_equivalence_triangle() {
    let corpus = standard_corpus(4, 2, 3, 1);
    let mut alphabet = ab();
    for src in ["(down | right)*[a]", "down*[W(<down+[b]>)]", "?(!a)/up*"] {
        let p = parse_rpath(src, &mut alphabet).unwrap();
        assert!(
            check_tri(&TriQuery::from_xpath(&p), &corpus).is_none(),
            "triangle broken for {src}"
        );
    }
}

/// Claim: `W` adds expressive power *as an operator on intermediate
/// results*: `⟨↑⟩` and `W⟨↑⟩` differ (the latter is unsatisfiable).
#[test]
fn claim_within_changes_semantics() {
    let mut alphabet = ab();
    let plain = parse_rnode("<up>", &mut alphabet).unwrap();
    let within = parse_rnode("W(<up>)", &mut alphabet).unwrap();
    assert!(!node_equiv_bounded(&plain, &within, 3, 1).is_equivalent());
    // W⟨↑⟩ is unsatisfiable: each node is the root of its own subtree
    assert!(twx_core::decide::node_sat_bounded(&within, 4, 2).is_none());
}

/// Claim (evaluation): Regular XPath(W) queries are evaluable in
/// polynomial time — concretely, the product evaluator agrees with the
/// semantics and runs on a 100k-node tree in well under a second.
#[test]
fn claim_polynomial_evaluation() {
    use treewalk::xtree::generate::{random_tree, Shape};
    use twx_xtree::rng::SplitMix64 as StdRng;
    let mut alphabet = ab();
    let p = parse_rpath("(down[!a] | right)*[b]", &mut alphabet).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let t = random_tree(Shape::DocumentLike, 100_000, 2, &mut rng);
    let ctx = treewalk::xtree::NodeSet::singleton(t.len(), t.root());
    let t0 = std::time::Instant::now();
    let ans = treewalk::regxpath::eval_image(&t, &p, &ctx);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "evaluation not polynomial-ish: {:?}",
        t0.elapsed()
    );
    assert!(ans.count() > 0);
}

/// Claim (survey quiz): `↓/↓⁺ ≡ ↓⁺/↓ ≡ ↓⁺/↓⁺` but the filtered variants
/// differ — the equivalences an optimizer must certify.
#[test]
fn claim_quiz_equivalences() {
    let mut alphabet = ab();
    let p1 = parse_rpath("down/down+", &mut alphabet).unwrap();
    let p2 = parse_rpath("down+/down", &mut alphabet).unwrap();
    let p3 = parse_rpath("down+/down+", &mut alphabet).unwrap();
    assert!(path_equiv_bounded(&p1, &p2, 5, 2).is_equivalent());
    assert!(path_equiv_bounded(&p2, &p3, 5, 2).is_equivalent());
    let f1 = parse_rpath("down[a]/down+", &mut alphabet).unwrap();
    let f2 = parse_rpath("down+[a]/down", &mut alphabet).unwrap();
    assert!(!path_equiv_bounded(&f1, &f2, 4, 2).is_equivalent());
}

/// Claim (decidability): containment for the downward fragment is
/// decidable — exercised through the automata-based procedure, including
/// the non-obvious valid containments.
#[test]
fn claim_downward_containment_decidable() {
    let mut alphabet = ab();
    let cases = [
        ("<down[a]>", "<down+[a]>", true),
        ("<down+[a]>", "<down[a]>", false),
        ("<down/down>", "<down+/down+>", true),
        ("<down+/down+>", "<down/down>", true), // both = depth ≥ 2 reachable
        ("a and <down[b]>", "<down>", true),
    ];
    for (f, g, expected) in cases {
        let ff = parse_node_expr(f, &mut alphabet).unwrap();
        let gg = parse_node_expr(g, &mut alphabet).unwrap();
        assert_eq!(
            downward_contains(&ff, &gg, 2).unwrap(),
            expected,
            "{f} ⊨ {g}"
        );
    }
}

/// Claim (unique labelling): with a fixed finite alphabet the label
/// predicates partition the nodes, making `a ≡ ¬b` valid over Σ = {a, b}
/// — the "labels are disjoint" axiom of the survey.
#[test]
fn claim_disjoint_labels() {
    let mut alphabet = ab();
    let a = parse_node_expr("a", &mut alphabet).unwrap();
    let not_b = parse_node_expr("!b", &mut alphabet).unwrap();
    assert!(downward_equivalent(&a, &not_b, 2).unwrap());
    // ... but not over a 3-letter alphabet
    assert!(!downward_equivalent(&a, &not_b, 3).unwrap());
}

/// Claim: Core XPath embeds into Regular XPath (s⁺ = s/s*), preserving
/// semantics — spot-checked here, fuzzed in `twx-core`.
#[test]
fn claim_core_embeds() {
    use twx_core::from_core::core_path_to_regular;
    let mut alphabet = ab();
    let core = treewalk::corexpath::parse_path_expr("down+[a]/right", &mut alphabet).unwrap();
    let reg = core_path_to_regular(&core);
    let direct = parse_rpath("down+[a]/right", &mut alphabet).unwrap();
    assert!(path_equiv_bounded(&reg, &direct, 4, 2).is_equivalent());
}
