//! Integration: XML in, answers out, through every engine.

use treewalk::corexpath::parser::parse_path_expr;
use treewalk::xtree::parse::{parse_xml, parse_xml_with, XmlOptions};
use treewalk::xtree::serialize::{to_sexp, to_xml};
use treewalk::xtree::{Alphabet, NodeSet};
use twx_core::from_core::core_path_to_regular;
use twx_core::rpath_to_ntwa;
use twx_twa::eval::eval_image;

const CATALOG: &str = r#"
<catalog>
  <book>
    <title/><author/><price/>
    <chapter><section/><section/></chapter>
    <chapter><section/></chapter>
  </book>
  <book>
    <title/><author/>
    <chapter><section><figure/></section></chapter>
  </book>
  <journal>
    <title/><article><figure/></article>
  </journal>
</catalog>"#;

#[test]
fn same_answers_from_all_engines() {
    let mut doc = parse_xml(CATALOG).unwrap();
    let queries = [
        "down[book]/down[chapter]/down[section]",
        "down+[figure]",
        "down[book]/down+[section][<down[figure]>]",
        "down+[title]/up",
    ];
    for src in queries {
        let p = parse_path_expr(src, &mut doc.alphabet).unwrap();
        let ctx = NodeSet::singleton(doc.tree.len(), doc.tree.root());
        // engine 1: GKP linear evaluator
        let gkp = treewalk::corexpath::eval_path_image(&doc.tree, &p, &ctx);
        // engine 2: naive relational
        let rel = treewalk::corexpath::eval_path_rel(&doc.tree, &p);
        assert_eq!(rel.image(&ctx), gkp, "{src}: naive");
        // engine 3: Regular XPath product evaluator
        let rp = core_path_to_regular(&p);
        assert_eq!(
            treewalk::regxpath::eval_image(&doc.tree, &rp, &ctx),
            gkp,
            "{src}: regxpath"
        );
        // engine 4: nested tree walking automaton
        let auto = rpath_to_ntwa(&rp);
        assert_eq!(eval_image(&doc.tree, &auto, &ctx), gkp, "{src}: ntwa");
        // engine 5: FO(MTC) model checking
        let f = twx_core::rpath_to_formula(&rp, 0, 1, 2);
        let logic_rel = twx_fotc::eval::eval_binary(&doc.tree, &f, 0, 1);
        assert_eq!(logic_rel.image(&ctx), gkp, "{src}: fotc");
    }
}

#[test]
fn xml_roundtrip_preserves_query_answers() {
    let mut doc = parse_xml(CATALOG).unwrap();
    let xml = to_xml(&doc.tree, &doc.alphabet);
    let doc2 = parse_xml(&xml).unwrap();
    assert_eq!(doc.tree, doc2.tree);
    let p = parse_path_expr("down+[section]", &mut doc.alphabet).unwrap();
    assert_eq!(
        treewalk::corexpath::query(&doc.tree, &p, doc.tree.root()),
        treewalk::corexpath::query(&doc2.tree, &p, doc2.tree.root()),
    );
}

#[test]
fn attributes_as_children_are_queryable() {
    let mut ab = Alphabet::new();
    let t = parse_xml_with(
        r#"<talk date="15-Dec-2010"><speaker uni="Leicester"/></talk>"#,
        &mut ab,
        XmlOptions {
            attributes_as_children: true,
        },
    )
    .unwrap();
    // query for the attribute node
    let p = parse_path_expr("down+[@uni=Leicester]", &mut ab).unwrap();
    let hits = treewalk::corexpath::query(&t, &p, t.root());
    assert_eq!(hits.count(), 1);
    assert_eq!(
        to_sexp(&t, &ab),
        "(talk @date=15-Dec-2010 (speaker @uni=Leicester))"
    );
}

#[test]
fn the_talk_example_document() {
    // The slide deck's example, queried for its <i> elements.
    let mut doc = parse_xml(
        r#"<talk date="x">
             <speaker uni="L">T</speaker>
             <title><i>XPath</i> rest</title>
             <location><i>ATT</i><b>Leicester</b></location>
           </talk>"#,
    )
    .unwrap();
    let p = parse_path_expr("down/down[i]", &mut doc.alphabet).unwrap();
    let hits = treewalk::corexpath::query(&doc.tree, &p, doc.tree.root());
    let names: Vec<&str> = hits.iter().map(|v| doc.label_name(v)).collect();
    assert_eq!(names, ["i", "i"]);
}
