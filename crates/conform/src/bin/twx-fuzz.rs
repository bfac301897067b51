//! `twx-fuzz` — the differential conformance fuzzer.
//!
//! ```text
//! twx-fuzz [--seed N] [--iters N] [--time-budget SECS] [--max-depth N]
//!          [--max-doc-nodes N] [--labels N] [--replay PATH]
//!          [--corpus PATH]
//!          [--fault ROUTE=KIND|cache=KIND|store=KIND]
//!          [--no-shrink] [--mutate] [--crash]
//! ```
//!
//! Replays the regression corpus (if `--replay` is given), then runs the
//! seeded fuzz loop, and prints one JSON summary line to stdout
//! (`"schema":"twx-fuzz/1"`). Newly-found divergences are minimised and,
//! with `--corpus`, appended to the golden `.jsonl` file. Exit status:
//! `0` all routes agreed everywhere, `1` any divergence (fuzzed or
//! replayed), `2` usage error.
//!
//! With `--mutate` the loop instead interleaves random typed edits with
//! queries on a live versioned document, checking the engine's result
//! cache against a recompute-from-scratch oracle on every answer
//! (`"schema":"twx-fuzz-mutate/1"`). In this mode `--fault` takes the
//! `cache=skip-invalidate` form, which commits edits without telling the
//! cache which span they touched — the self-test that proves a broken
//! invalidation pass would be caught and shrunk.
//!
//! With `--crash` the loop drives a store-backed corpus with random
//! edit/snapshot scripts, simulates a crash with a torn journal tail,
//! recovers from disk, and diffs the recovered corpus node-for-node
//! against the acknowledged pre-crash state
//! (`"schema":"twx-fuzz-crash/1"`). Here `--fault` takes the
//! `store=skip-fsync` form — acknowledge appends without syncing them —
//! the self-test that proves a silent durability bug would be caught.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use twx_conform::{
    corpus, run_crash_fuzz, run_fuzz, run_mutation_fuzz, CacheFault, Fault, FuzzConfig, Repro,
    StoreFault,
};
use twx_obs::json::Json;

struct Args {
    cfg: FuzzConfig,
    replay: Option<PathBuf>,
    corpus: Option<PathBuf>,
    mutate: bool,
    crash: bool,
    cache_fault: Option<CacheFault>,
    store_fault: StoreFault,
}

fn usage() -> String {
    "usage: twx-fuzz [--seed N] [--iters N] [--time-budget SECS] [--max-depth N] \
     [--max-doc-nodes N] [--labels N] [--replay PATH] [--corpus PATH] \
     [--fault ROUTE=KIND|cache=KIND|store=KIND] [--no-shrink] \
     [--mutate] [--crash]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: FuzzConfig::default(),
        replay: None,
        corpus: None,
        mutate: false,
        crash: false,
        cache_fault: None,
        store_fault: StoreFault::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--seed" => args.cfg.seed = parse_num(&value("--seed")?)?,
            "--iters" => args.cfg.iters = parse_num(&value("--iters")?)?,
            "--time-budget" => {
                let secs: f64 = value("--time-budget")?
                    .parse()
                    .map_err(|e| format!("--time-budget: {e}"))?;
                args.cfg.time_budget = Some(Duration::from_secs_f64(secs));
            }
            "--max-depth" => args.cfg.max_depth = parse_num(&value("--max-depth")?)? as usize,
            "--max-doc-nodes" => {
                args.cfg.max_doc_nodes = parse_num(&value("--max-doc-nodes")?)? as usize
            }
            "--labels" => args.cfg.labels = parse_num(&value("--labels")?)? as usize,
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--fault" => {
                let spec = value("--fault")?;
                if spec.starts_with("cache=") {
                    args.cache_fault = Some(CacheFault::parse(&spec)?);
                } else if spec.starts_with("store=") {
                    args.store_fault = StoreFault::parse(&spec)
                        .ok_or_else(|| format!("unknown store fault '{spec}'"))?;
                } else {
                    args.cfg.fault = Some(Fault::parse(&spec)?);
                }
            }
            "--mutate" => args.mutate = true,
            "--crash" => args.crash = true,
            "--no-shrink" => args.cfg.shrink = false,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad number '{s}': {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twx-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    if args.cache_fault.is_some() && !args.mutate {
        eprintln!("twx-fuzz: cache faults need --mutate\n{}", usage());
        return ExitCode::from(2);
    }
    if args.store_fault != StoreFault::None && !args.crash {
        eprintln!("twx-fuzz: store faults need --crash\n{}", usage());
        return ExitCode::from(2);
    }
    if args.mutate && args.crash {
        eprintln!("twx-fuzz: --mutate and --crash are exclusive\n{}", usage());
        return ExitCode::from(2);
    }
    if args.crash {
        return run_crash(&args);
    }
    if args.mutate {
        return run_mutate(&args);
    }

    // Phase 1: replay the golden corpus.
    let mut replayed = 0u64;
    let mut replay_divergences = 0u64;
    if let Some(path) = &args.replay {
        let repros = match corpus::load(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("twx-fuzz: {e}");
                return ExitCode::from(2);
            }
        };
        for r in &repros {
            replayed += 1;
            match r.replay() {
                Ok(None) => {}
                Ok(Some(div)) => {
                    replay_divergences += 1;
                    eprintln!(
                        "twx-fuzz: REGRESSION {} — {}",
                        if r.note.is_empty() {
                            "(no note)"
                        } else {
                            &r.note
                        },
                        div.describe()
                    );
                }
                Err(e) => {
                    replay_divergences += 1;
                    eprintln!("twx-fuzz: corpus line broken: {e}");
                }
            }
        }
    }

    // Phase 2: fuzz.
    let report = run_fuzz(&args.cfg);
    for d in &report.divergences {
        eprintln!("twx-fuzz: DIVERGENCE {}", d.minimized.describe());
        if let Some(path) = &args.corpus {
            let repro = Repro::from_divergence(&d.minimized, "found by twx-fuzz");
            if let Err(e) = corpus::append(path, &repro) {
                eprintln!("twx-fuzz: cannot append to {}: {e}", path.display());
            }
        }
    }

    let summary = match report.to_json() {
        Json::Obj(fields) => {
            let mut j = Json::Obj(fields);
            j = j.field("replayed", replayed);
            j = j.field("replay_divergences", replay_divergences);
            j
        }
        other => other,
    };
    println!("{}", summary.render());

    if report.divergences.is_empty() && replay_divergences == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `--crash` mode: store-backed corpora killed at arbitrary points
/// and recovered from disk; any recovered corpus that is not
/// node-for-node identical to the acknowledged pre-crash state is a
/// divergence. Same exit-status conventions as the other modes.
fn run_crash(args: &Args) -> ExitCode {
    let report = run_crash_fuzz(&args.cfg, args.store_fault);
    for d in &report.divergences {
        eprintln!("twx-fuzz: CRASH DIVERGENCE {}", d.describe());
    }
    println!("{}", report.to_json().render());
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `--mutate` mode: live-document edit/query fuzzing against the
/// result cache, same corpus-append and exit-status conventions.
fn run_mutate(args: &Args) -> ExitCode {
    let report = run_mutation_fuzz(&args.cfg, args.cache_fault);
    for d in &report.divergences {
        eprintln!("twx-fuzz: CACHE DIVERGENCE {}", d.describe());
        if let Some(path) = &args.corpus {
            let repro = Repro::from_mutation(d, "found by twx-fuzz --mutate");
            if let Err(e) = corpus::append(path, &repro) {
                eprintln!("twx-fuzz: cannot append to {}: {e}", path.display());
            }
        }
    }
    println!("{}", report.to_json().render());
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
