//! EXPLAIN: profile a query through the engine's bytecode VM and read
//! its cost structure.
//!
//! ```sh
//! cargo run --release --example explain
//! cargo run --release --no-default-features --example explain  # no-op counters
//! ```

use treewalk::xtree::parse::parse_xml;
use treewalk::Engine;

fn main() {
    let xml = "<lib><shelf><book/><zine/></shelf><shelf><book><errata/></book></shelf></lib>";
    let query = "down*[book]";

    println!(
        "instrumentation {} (rebuild with --no-default-features to disable)\n",
        if treewalk::obs::ENABLED {
            "enabled"
        } else {
            "disabled"
        }
    );

    let doc = parse_xml(xml).expect("well-formed example document");
    let root = doc.tree.root();
    let engine = Engine::new();
    let profile = engine
        .explain(&doc, query, root)
        .expect("well-formed example query");
    println!("{profile}");

    // the same profile, machine-readable
    println!("as JSON:\n{}", profile.to_json().render());

    // a contradictory filter is not decided at prepare time: it
    // compiles like any other filter, and one ordinary eval finds that
    // it has no answer
    let contradiction = "down*[book and !book]";
    let profile = engine.explain(&doc, contradiction, root).expect("query");
    println!(
        "\n{contradiction}: {} answer(s); nonzero counters: {:?}",
        profile.result_count,
        profile.active_counters(),
    );
}
