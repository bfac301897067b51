//! Golden-corpus conformance gate: every repro line in
//! `tests/corpus/regressions.jsonl` — minimal counterexamples found (and
//! shrunk) by `twx-fuzz`, plus handcrafted tricky cases — must evaluate
//! identically on every route: the naive oracle, the pipeline-off raw
//! product, the three reference translations of the engine's simplified
//! AST, the VM cold and hot, and the sharded query service.
//!
//! When `twx-fuzz` finds a divergence it appends the shrunk repro here
//! (via `--corpus`), so once a bug is caught it is replayed forever.

use std::path::Path;
use twx_conform::corpus;

#[test]
fn golden_corpus_replays_with_zero_divergences() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/regressions.jsonl");
    let repros = corpus::load(&path).expect("golden corpus must parse");
    assert!(
        !repros.is_empty(),
        "golden corpus is empty — was {} deleted?",
        path.display()
    );
    let mut failures = Vec::new();
    for (i, r) in repros.iter().enumerate() {
        match r.replay() {
            Ok(None) => {}
            Ok(Some(d)) => failures.push(format!(
                "line {i} ({note}): routes [{routes}] diverge on `{q}` over {doc}",
                note = r.note,
                routes = d.route_names().join(", "),
                q = r.query,
                doc = r.doc,
            )),
            Err(e) => failures.push(format!(
                "line {i} ({note}): repro no longer replays: {e}",
                note = r.note
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "golden corpus regressions:\n{}",
        failures.join("\n")
    );
}
