//! Integration: the equivalence triangle across all crates, driven from
//! the textual surface syntax (parser → translations → all evaluators).

use treewalk::regxpath::parser::parse_rpath;
use treewalk::xtree::Alphabet;
use twx_core::diff::{check_tri, standard_corpus, TriQuery};
use twx_core::{ntwa_to_rpath, rpath_to_ntwa};

/// Handcrafted queries covering every construct of Regular XPath(W).
const QUERIES: &[&str] = &[
    "down",
    "down*",
    "down+/right",
    "(down | up)*",
    "down[a]/right*[b]",
    "?(a)/down/?(!b)",
    "(down/?(<right>))*",
    "down*[W(<down[b]>)]",
    "(down[W(!<down*[a]>)])*",
    "up*[root]/down*[leaf and a]",
    "(left | right)+[<up[b]>]",
];

#[test]
fn triangle_commutes_on_handcrafted_queries() {
    let corpus = standard_corpus(4, 2, 3, 99);
    for src in QUERIES {
        let mut ab = Alphabet::from_names(["a", "b"]);
        let p = parse_rpath(src, &mut ab).unwrap_or_else(|e| panic!("parse {src}: {e}"));
        let q = TriQuery::from_xpath(&p);
        if let Some(m) = check_tri(&q, &corpus) {
            panic!(
                "triangle broken ({}) for {src} on {:?}",
                m.describe(),
                m.tree
            );
        }
    }
}

#[test]
fn double_roundtrip_is_stable() {
    // expr → NTWA → expr → NTWA → expr: still equivalent
    let corpus = standard_corpus(4, 2, 2, 7);
    for src in &QUERIES[..6] {
        let mut ab = Alphabet::from_names(["a", "b"]);
        let p0 = parse_rpath(src, &mut ab).unwrap();
        let p1 = ntwa_to_rpath(&rpath_to_ntwa(&p0));
        let p2 = ntwa_to_rpath(&rpath_to_ntwa(&p1));
        for t in &corpus {
            let r0 = treewalk::regxpath::eval_rel(t, &p0);
            assert_eq!(r0, treewalk::regxpath::eval_rel(t, &p1), "{src} first trip");
            assert_eq!(
                r0,
                treewalk::regxpath::eval_rel(t, &p2),
                "{src} second trip"
            );
        }
    }
}

#[test]
fn printed_queries_reparse_and_stay_equivalent() {
    // The textual pipeline: parse → translate → print → reparse.
    let corpus = standard_corpus(3, 2, 2, 5);
    for src in QUERIES {
        let mut ab = Alphabet::from_names(["a", "b"]);
        let p = parse_rpath(src, &mut ab).unwrap();
        let back = ntwa_to_rpath(&rpath_to_ntwa(&p));
        let printed = treewalk::regxpath::print::rpath_to_string(&back, &ab);
        let reparsed = parse_rpath(&printed, &mut ab)
            .unwrap_or_else(|e| panic!("reparse of '{printed}' failed: {e}"));
        for t in &corpus {
            assert_eq!(
                treewalk::regxpath::eval_rel(t, &p),
                treewalk::regxpath::eval_rel(t, &reparsed),
                "{src} → {printed}"
            );
        }
    }
}
