//! Quickstart: parse an XML document into a shared catalog, run Core
//! XPath and Regular XPath(W) queries against it — without ever mutating
//! the document — and print the answers.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use treewalk::corexpath::parser::parse_path_expr_catalog;
use treewalk::corexpath::{eval_node, query};
use treewalk::regxpath::parser::{parse_rnode_catalog, parse_rpath_catalog};
use treewalk::xtree::parse::parse_xml_catalog;
use treewalk::xtree::serialize::to_sexp;
use treewalk::xtree::Catalog;
use treewalk::Engine;

fn main() {
    // The example document of the talk that surveys the paper's area.
    let xml = r#"<?xml version="1.0" encoding="UTF-8"?>
      <talk date="15-Dec-2010">
        <speaker uni="Leicester">T. Litak</speaker>
        <title><i>XPath</i> from a Logical Point of View</title>
        <location><i>ATT LT3</i><b>Leicester</b></location>
      </talk>"#;

    // One append-only catalog holds the label space; the parsed document
    // carries a snapshot and is immutable from here on.
    let catalog = Catalog::new();
    let doc = parse_xml_catalog(xml, &catalog).expect("well-formed XML");
    println!("document: {}", to_sexp(&doc.tree, &doc.alphabet));
    println!("nodes: {}\n", doc.tree.len());

    // --- Core XPath ------------------------------------------------------
    // children of the root that have an <i> child: down[<down[i]>]
    let p = parse_path_expr_catalog("down[<down[i]>]", &catalog).expect("query parses");
    let answer = query(&doc.tree, &p, doc.tree.root());
    println!("down[<down[i]>] from the root:");
    for v in answer.iter() {
        println!("  node {} ({})", v.0, doc.label_name(v));
    }

    // node expression: leaves
    let f = treewalk::corexpath::parse_node_expr_catalog("leaf", &catalog).unwrap();
    let leaves = eval_node(&doc.tree, &f);
    println!("\nleaves: {:?}", leaves.to_vec());

    // --- Regular XPath(W) -------------------------------------------------
    // Kleene star over arbitrary paths: walk down any number of levels,
    // then require a <b>-labelled node within the current subtree.
    let rp = parse_rpath_catalog("down*[W(<down*[b]>)]", &catalog).unwrap();
    let answer = treewalk::regxpath::query(&doc.tree, &rp, doc.tree.root());
    println!("\ndown*[W(<down*[b]>)] from the root:");
    for v in answer.iter() {
        println!("  node {} ({})", v.0, doc.label_name(v));
    }

    // the W operator in action: ⟨up⟩ vs W(⟨up⟩)
    let has_parent = parse_rnode_catalog("<up>", &catalog).unwrap();
    let within = parse_rnode_catalog("W(<up>)", &catalog).unwrap();
    println!(
        "\n<up> holds at {} node(s); W(<up>) at {} (every node is the root of its own subtree)",
        treewalk::regxpath::eval_node(&doc.tree, &has_parent).count(),
        treewalk::regxpath::eval_node(&doc.tree, &within).count(),
    );

    // --- prepare once, serve many ----------------------------------------
    // The engine compiles queries to register bytecode over dense
    // bitsets; the document is only ever borrowed immutably, so one
    // prepared query serves many threads, and every eval recycles its
    // registers through a thread-local arena.
    let engine = Engine::new();
    let prepared = engine.prepare(&doc, "down*[i]").expect("query compiles");
    let total: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| prepared.eval(&doc, doc.tree.root()).count()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    println!("\ndown*[i] served from 4 threads: {total} answers total");
    let profile = engine
        .explain(&doc, "down*[i]", doc.tree.root())
        .expect("query compiles");
    println!(
        "{} answer(s) from a {}-instruction program over {} register(s)",
        profile.result_count, profile.compiled.vm_instrs, profile.compiled.vm_regs,
    );
}
