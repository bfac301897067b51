//! `twx-serve` — a TCP front-end for the corpus query service, built on
//! the `twx-netio` event loop.
//!
//! One readiness-loop thread owns every socket (epoll, nonblocking);
//! requests dispatch into the query service's worker pool. Two framings
//! share the port, negotiated by the first byte of each connection:
//!
//! * **NDJSON** — one request per line, one response per line (any
//!   first byte other than `0xF7`).
//! * **Binary frames** — `F7 54 57 01` magic + u32 LE payload length +
//!   JSON payload, both directions (first byte `0xF7`, which cannot
//!   begin UTF-8 text).
//!
//! Requests may be **pipelined**: a client can write any number of
//! requests before reading a reply; replies come back in request order.
//! A connection that stops reading its replies is parked (write
//! backpressure) without affecting other connections.
//!
//! ```text
//! -> {"op":"query","query":"down*[b]","timeout_ms":250}
//! <- {"ok":true,"matches":2,"docs":[{"doc":0,"version":0,"matches":1},...],
//!     "timed_out":false,"latency_us":412,"trace_id":"…","shards":[...]}
//! -> {"op":"query","query":"down*[b]","trace":true}
//! <- {"ok":true,...,"trace":{"trace_id":"…","root":{...span tree...}}}
//! -> {"op":"update","doc":0,"edit":{"op":"relabel","node":1,"label":"c"}}
//! <- {"ok":true,"doc":0,"version":1,"affected":[1,2],"nodes":4,"seq":1}
//! -> {"op":"stats"}
//! <- {"ok":true,"submitted":3,...,"uptime_s":12,"connections":3,
//!     "conns_open":1,"frames_rx":4,"backpressure_stalls":0,
//!     "latency_p50_us":211,"latency_p99_us":733,...}
//! -> {"op":"metrics"}
//! <- {"ok":true,"metrics":"# TYPE twx_engine_eval_ns histogram\n..."}
//! -> {"op":"slowlog"}
//! <- {"ok":true,"entries":[{"trace_id":"…","query":"…","latency_us":…,
//!     "profile":{...}},...]}
//! -> {"op":"snapshot"}
//! <- {"ok":true,"seq":7,"snapshot_bytes":412,"journal_reclaimed":230}
//! -> {"op":"shutdown"}
//! <- {"ok":true,"shutting_down":true}
//! ```
//!
//! Errors come back typed: `{"ok":false,"error":"overloaded",...}` with
//! `error` one of `overloaded` | `shutdown` | `engine` | `protocol`.
//! Past `--max-conns` open connections, an accept is answered with one
//! typed `overloaded` line and closed.
//!
//! Usage:
//!
//! ```text
//! twx-serve [--port P] [--shards N] [--workers N] [--queue N]
//!           [--timeout-ms MS] [--max-conns N] [--dispatchers N]
//!           [--backpressure-bytes N]
//!           [--slowlog N] [--synthetic DOCSxNODES [--seed S]]
//!           [--store DIR [--fsync-every N]]
//!           [FILE.xml|FILE.sexp ...]
//! ```
//!
//! Queries compile to the engine's bytecode VM; the paper's other
//! constructions are conformance references, not serving options.
//! Each evaluation runs on one worker thread; parallelism lives across
//! requests and shards.
//!
//! `--port 0` binds an ephemeral port; the chosen address is printed as
//! `twx-serve listening on 127.0.0.1:PORT` so scripts can scrape it.
//!
//! With `--store DIR` the corpus is **durable**: if `DIR` already holds
//! a store the server recovers it on boot (ignoring FILEs and
//! `--synthetic` — the store is the source of truth; `--shards` must
//! then match the persisted shard count) and every committed update is
//! journalled before it is acknowledged, so a kill-and-restart round
//! trip preserves documents, versions, and the commit sequence exactly.
//! The `snapshot` op (`{"op":"snapshot"}`) writes a fresh snapshot
//! generation and compacts the journal; a background snapshotter does
//! the same automatically once the journal passes 1 MiB.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use treewalk::Engine;
use twx_corpus::proto::{ProtoHandler, MAX_REQUEST_BYTES};
use twx_corpus::{Corpus, QueryService, ServiceConfig, StoreConfig};
use twx_netio::{NetStats, ServerConfig};
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::Catalog;

struct Args {
    port: u16,
    shards: usize,
    workers: usize,
    queue: usize,
    timeout: Option<Duration>,
    slowlog: usize,
    max_conns: usize,
    dispatchers: usize,
    backpressure_bytes: usize,
    synthetic: Option<(usize, usize)>,
    seed: u64,
    store: Option<String>,
    fsync_every: u64,
    files: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: twx-serve [--port P] [--shards N] [--workers N] [--queue N] \
         [--timeout-ms MS] [--max-conns N] [--dispatchers N] \
         [--backpressure-bytes N] [--slowlog N] \
         [--synthetic DOCSxNODES [--seed S]] [--store DIR [--fsync-every N]] \
         [FILE.xml|FILE.sexp ...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 7878,
        shards: 4,
        workers: 0, // 0 = auto below
        queue: 256,
        timeout: None,
        slowlog: 16,
        max_conns: 10_000,
        dispatchers: 0, // 0 = auto: match the worker pool
        backpressure_bytes: 256 * 1024,
        synthetic: None,
        seed: 1,
        store: None,
        fsync_every: 1,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--port" => args.port = val("--port").parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = val("--shards").parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => args.queue = val("--queue").parse().unwrap_or_else(|_| usage()),
            "--timeout-ms" => {
                let ms: u64 = val("--timeout-ms").parse().unwrap_or_else(|_| usage());
                args.timeout = Some(Duration::from_millis(ms));
            }
            "--slowlog" => args.slowlog = val("--slowlog").parse().unwrap_or_else(|_| usage()),
            "--max-conns" => {
                args.max_conns = val("--max-conns").parse().unwrap_or_else(|_| usage());
                if args.max_conns == 0 {
                    usage();
                }
            }
            "--dispatchers" => {
                args.dispatchers = val("--dispatchers").parse().unwrap_or_else(|_| usage());
            }
            "--backpressure-bytes" => {
                args.backpressure_bytes = val("--backpressure-bytes")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if args.backpressure_bytes == 0 {
                    usage();
                }
            }
            "--synthetic" => {
                let spec = val("--synthetic");
                let (d, n) = spec.split_once('x').unwrap_or_else(|| usage());
                args.synthetic = Some((
                    d.parse().unwrap_or_else(|_| usage()),
                    n.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--store" => args.store = Some(val("--store")),
            "--fsync-every" => {
                args.fsync_every = val("--fsync-every").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => args.files.push(f.to_string()),
            _ => usage(),
        }
    }
    if args.workers == 0 {
        args.workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
    }
    if args.dispatchers == 0 {
        args.dispatchers = args.workers;
    }
    args
}

fn build_corpus(args: &Args) -> Result<Corpus, String> {
    let store_cfg = StoreConfig {
        fsync_every: args.fsync_every.max(1),
        ..StoreConfig::default()
    };
    // an existing store is the source of truth: recover it, ignore inputs
    if let Some(dir) = &args.store {
        if twx_store::Store::exists(dir) {
            let (corpus, report) =
                Corpus::recover(dir, store_cfg).map_err(|e| format!("recover {dir}: {e}"))?;
            eprintln!(
                "recovered store {dir}: seq {}, {} records replayed, {} skipped, \
                 {} torn bytes truncated, {} stale snapshots skipped, {:.1} ms",
                corpus.seq(),
                report.records_replayed,
                report.records_skipped,
                report.truncated_bytes,
                report.stale_snapshots_skipped,
                report.recovery_ns as f64 / 1e6,
            );
            return Ok(corpus);
        }
    }
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let mut b = Corpus::builder(Arc::clone(&catalog), args.shards);
    for f in &args.files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        if f.ends_with(".xml") {
            b.add_xml(&text).map_err(|e| format!("{f}: {e}"))?;
        } else {
            b.add_sexp(&text).map_err(|e| format!("{f}: {e}"))?;
        }
    }
    if let Some((docs, nodes)) = args.synthetic {
        let mut rng = SplitMix64::seed_from_u64(args.seed);
        for _ in 0..docs {
            b.add_document(random_document_in(
                Shape::Recursive,
                nodes,
                &catalog,
                &mut rng,
            ));
        }
    }
    if let Some(dir) = &args.store {
        b = b.with_store(dir).store_config(store_cfg);
    }
    let corpus = b.try_build().map_err(|e| format!("create store: {e}"))?;
    if corpus.n_docs() == 0 {
        return Err("empty corpus: pass FILEs and/or --synthetic DOCSxNODES".into());
    }
    Ok(corpus)
}

fn main() -> ExitCode {
    let args = parse_args();
    let corpus = match build_corpus(&args) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("twx-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let service = QueryService::new(
        Arc::clone(&corpus),
        Engine::new(),
        ServiceConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            default_timeout: args.timeout,
            slowlog_capacity: args.slowlog,
        },
    );
    // with a store: compact the journal in the background once it
    // passes 1 MiB (explicit `snapshot` ops still work at any time)
    let _snapshotter = corpus
        .store()
        .is_some()
        .then(|| corpus.spawn_snapshotter(1 << 20, Duration::from_millis(200)));
    eprintln!(
        "corpus: {} docs / {} nodes in {} shards; {} workers, {} dispatchers, \
         max {} conns{}",
        corpus.n_docs(),
        corpus.total_nodes(),
        corpus.n_shards(),
        args.workers,
        args.dispatchers,
        args.max_conns,
        if let Some(s) = corpus.store() {
            format!("; store {}", s.dir().display())
        } else {
            String::new()
        },
    );
    // each connection costs one descriptor; leave headroom for the
    // store, epoll, eventfd, and stdio
    twx_netio::raise_nofile_limit(args.max_conns as u64 + 128);
    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("twx-serve: bind 127.0.0.1:{}: {e}", args.port);
            return ExitCode::from(2);
        }
    };
    let addr = listener.local_addr().expect("local addr");
    // scraped by scripts — keep the format stable
    println!("twx-serve listening on {addr}");
    std::io::stdout().flush().ok();
    let net = Arc::new(NetStats::default());
    let handler = Arc::new(ProtoHandler::new(service, Arc::clone(&net), args.max_conns));
    let cfg = ServerConfig {
        max_conns: args.max_conns,
        dispatchers: args.dispatchers,
        max_request_bytes: MAX_REQUEST_BYTES,
        outbuf_hiwat: args.backpressure_bytes,
        ..ServerConfig::default()
    };
    if let Err(e) = twx_netio::serve(listener, Arc::clone(&handler), cfg, Arc::clone(&net)) {
        eprintln!("twx-serve: event loop: {e}");
    }
    // the loop has exited and its dispatchers are joined, so this is the
    // last Arc: tear the service down and write the parting snapshot
    let handler = Arc::try_unwrap(handler)
        .unwrap_or_else(|_| unreachable!("event loop dropped its handler refs"));
    let final_stats = handler.finish();
    match corpus.persist() {
        Ok(_) => {}
        Err(e) => eprintln!("twx-serve: final snapshot failed: {e}"),
    }
    let n = net.snapshot();
    eprintln!(
        "twx-serve: drained; {} submitted, {} completed, {} rejected, {} timeouts; \
         {} conns ({} refused), {} frames in / {} out, {} backpressure stalls",
        final_stats.submitted,
        final_stats.completed,
        final_stats.rejected,
        final_stats.timeouts,
        n.conns_total,
        n.conns_rejected,
        n.frames_rx,
        n.frames_tx,
        n.backpressure_stalls,
    );
    ExitCode::SUCCESS
}
