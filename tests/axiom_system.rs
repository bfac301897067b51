//! Integration: the Core XPath axiom system holds in *every* rendition of
//! the queries — not only under the Core XPath evaluator, but after
//! embedding into Regular XPath and compiling to nested tree walking
//! automata. Axioms are the contract of the whole stack.

use treewalk::corexpath::axioms::{all_axioms, AxiomInstance, Instantiation};
use treewalk::corexpath::generate::{random_node_expr, random_path_expr, GenConfig};
use treewalk::xtree::generate::enumerate_trees_up_to;
use twx_core::from_core::core_path_to_regular;
use twx_core::rpath_to_ntwa;
use twx_xtree::rng::SplitMix64 as StdRng;

fn random_instantiation(rng: &mut StdRng) -> Instantiation {
    let cfg = GenConfig {
        labels: 2,
        ..GenConfig::default()
    };
    Instantiation {
        a: random_path_expr(&cfg, 2, rng),
        b: random_path_expr(&cfg, 2, rng),
        c: random_path_expr(&cfg, 2, rng),
        phi: random_node_expr(&cfg, 2, rng),
        psi: random_node_expr(&cfg, 2, rng),
    }
}

/// Path axioms hold after embedding to Regular XPath and compiling to
/// automata: `[[lhs]] = [[rhs]]` under the NTWA evaluator too.
#[test]
fn axioms_hold_through_the_whole_stack() {
    let trees = enumerate_trees_up_to(4, 2);
    let mut rng = StdRng::seed_from_u64(123);
    for axiom in all_axioms() {
        // a couple of instantiations per schema (the per-crate test does
        // more; here the point is the cross-representation agreement)
        for _ in 0..2 {
            let inst = (axiom.instantiate)(&random_instantiation(&mut rng));
            if let AxiomInstance::Path(l, r) = inst {
                let rl = core_path_to_regular(&l);
                let rr = core_path_to_regular(&r);
                let al = rpath_to_ntwa(&rl);
                let ar = rpath_to_ntwa(&rr);
                for t in &trees {
                    let lhs = twx_twa::eval_rel(t, &al);
                    let rhs = twx_twa::eval_rel(t, &ar);
                    assert_eq!(
                        lhs, rhs,
                        "axiom {} broken under the NTWA rendition on {t:?}",
                        axiom.name
                    );
                }
            }
        }
    }
}

/// The axiom inventory is well-formed: names unique, statements nonempty.
#[test]
fn axiom_inventory_is_well_formed() {
    let axioms = all_axioms();
    let mut names: Vec<&str> = axioms.iter().map(|a| a.name).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate axiom names");
    for a in &axioms {
        assert!(!a.statement.is_empty());
    }
}
