//! The experiment harness: regenerates every table of `EXPERIMENTS.md`
//! and writes a machine-readable `BENCH_HARNESS.json`.
//!
//! ```sh
//! cargo run --release -p twx-bench --bin harness              # full run
//! cargo run --release -p twx-bench --bin harness -- --quick   # smaller sizes
//! cargo run --release -p twx-bench --bin harness -- e3 e9     # selected
//! cargo run --release -p twx-bench --bin harness -- --seed 7  # reseed
//! cargo run --release -p twx-bench --bin harness -- --json out.json
//! ```
//!
//! The JSON export carries every table (title/headers/rows/notes), the
//! run configuration, and the EXPLAIN profile of the quickstart query.

use treewalk::Engine;
use twx_bench::{experiments, RunCfg, Table};
use twx_obs::json::Json;
use twx_xtree::parse::parse_xml;

type Runner = fn(&RunCfg) -> Table;

struct Args {
    cfg: RunCfg,
    json_path: String,
    selected: Vec<String>,
}

fn parse_args() -> Args {
    let mut cfg = RunCfg::default();
    let mut json_path = "BENCH_HARNESS.json".to_string();
    let mut selected = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| die("--seed needs a value"));
                cfg.seed = v.parse().unwrap_or_else(|_| die("--seed must be a u64"));
            }
            "--json" => {
                json_path = it.next().unwrap_or_else(|| die("--json needs a path"));
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => selected.push(other.to_string()),
        }
    }
    Args {
        cfg,
        json_path,
        selected,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    eprintln!("usage: harness [--quick] [--seed <u64>] [--json <path>] [e1 .. e13]");
    std::process::exit(2)
}

/// EXPLAIN the quickstart query; the profile lands in the JSON export so
/// runs can be compared structurally. The document is immutable — queries
/// resolve against its alphabet without interning. The second return
/// value is the serve-side plan-cache statistics (explain twice: one
/// miss, one hit).
fn quickstart_profiles() -> (Vec<Json>, Json) {
    const QUERY: &str = "down*[c]";
    let doc = parse_xml("<a><b><c/></b><c><b/></c></a>").expect("quickstart doc");
    let root = doc.tree.root();
    let engine = Engine::new();
    let profile = engine.explain(&doc, QUERY, root).expect("quickstart query");
    let _served_again = engine.explain(&doc, QUERY, root).expect("quickstart query");
    println!("{profile}");
    let stats = engine.cache_stats();
    let cache = Json::obj()
        .field("hits", stats.hits)
        .field("misses", stats.misses)
        .field("evictions", stats.evictions);
    (vec![profile.to_json()], cache)
}

fn main() {
    let args = parse_args();
    let runners: [(&str, Runner); 9] = [
        ("e1", experiments::e1_core_eval::run),
        ("e2", experiments::e2_regxpath_eval::run),
        ("e3", experiments::e3_translations::run),
        ("e4", experiments::e4_triangle::run),
        ("e5", experiments::e5_logic_cost::run),
        ("e6", experiments::e6_satisfiability::run),
        ("e7", experiments::e7_closure::run),
        ("e8", experiments::e8_separation::run),
        ("e9", experiments::e9_plan_cache::run),
    ];

    // experiments with a structured summary exported as a top-level
    // field (per-shard serving stats for e10, live-corpus cache stats
    // for e11, VM speedups for e12, durability throughput for e13) run
    // outside the plain-table registry
    type FullRunner = fn(&RunCfg) -> (Table, Json);
    let full_runners: [(&str, FullRunner); 4] = [
        ("e10", experiments::e10_corpus_serve::run_full),
        ("e11", experiments::e11_live_corpus::run_full),
        ("e12", experiments::e12_vm::run_full),
        ("e13", experiments::e13_durability::run_full),
    ];

    for sel in &args.selected {
        if !runners.iter().any(|(id, _)| id == sel) && !full_runners.iter().any(|(id, _)| id == sel)
        {
            die(&format!("unknown experiment id {sel}"));
        }
    }

    println!(
        "treewalk experiment harness ({} mode, seed {})\n",
        if args.cfg.quick { "quick" } else { "full" },
        args.cfg.seed,
    );

    let mut exported = Vec::new();
    for (id, run) in runners {
        if !args.selected.is_empty() && !args.selected.iter().any(|s| s == id) {
            continue;
        }
        let t0 = std::time::Instant::now();
        let table = run(&args.cfg);
        let elapsed_us = t0.elapsed().as_secs_f64() * 1e6;
        println!("{}", table.render());
        println!("  [{id} completed in {:.2?}]\n", t0.elapsed());
        exported.push(
            Json::obj()
                .field("id", id)
                .field("elapsed_us", elapsed_us)
                .field("table", table.to_json()),
        );
    }

    let mut summaries: Vec<(&str, Json)> = Vec::new();
    for (id, run_full) in full_runners {
        let mut summary = Json::Null;
        if args.selected.is_empty() || args.selected.iter().any(|s| s == id) {
            let t0 = std::time::Instant::now();
            let (table, s) = run_full(&args.cfg);
            let elapsed_us = t0.elapsed().as_secs_f64() * 1e6;
            println!("{}", table.render());
            println!("  [{id} completed in {:.2?}]\n", t0.elapsed());
            exported.push(
                Json::obj()
                    .field("id", id)
                    .field("elapsed_us", elapsed_us)
                    .field("table", table.to_json()),
            );
            summary = s;
        }
        summaries.push((id, summary));
    }

    let (profiles, plan_cache) = quickstart_profiles();
    let mut doc = Json::obj()
        .field("schema", "twx-bench/1")
        .field("mode", if args.cfg.quick { "quick" } else { "full" })
        .field("seed", args.cfg.seed)
        .field("obs_enabled", twx_obs::ENABLED)
        .field("experiments", Json::Arr(exported));
    for (id, summary) in summaries {
        doc = doc.field(id, summary);
    }
    let doc = doc
        .field("quickstart_profiles", Json::Arr(profiles))
        .field("plan_cache", plan_cache)
        // every histogram the run registered process-wide (the engine
        // eval series, service latency series, …)
        .field(
            "histograms",
            twx_obs::metrics::global().histograms_to_json(),
        );
    let rendered = doc.render();
    // the export must always be machine-readable: re-parse before writing
    twx_obs::json::parse(&rendered).expect("harness JSON round-trips");
    std::fs::write(&args.json_path, &rendered)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", args.json_path)));
    println!("wrote {}", args.json_path);
}
