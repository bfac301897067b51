//! `serve-hot`: the server over an unchanging corpus, with every answer
//! resident in both caches after warm-up.
//!
//! 48 docs × 400 nodes (`Shape::Recursive`, 4 shards); two closed-loop
//! connections, one NDJSON and one binary-framed, each drawing queries
//! from a seeded order over a 12-query pool. 12 × 48 = 576 answers fit
//! the 1024-entry result cache, so eval does almost nothing: the time
//! goes to wire decode, proto, prepare (parse → simplify → plan cache),
//! queue wait, merge and render.
//!
//! `update_p50_us` comes from probe bursts in the pauses between slices:
//! pairs of relabels that set a node's label and restore it, so the
//! documents the queries see never change (only their versions do).

use crate::stack::{run_window, BenchHandler, Client, Stack, Tally, Wire, SLICES};
use crate::util::{
    answers_match, get_bool, get_u64, oracle_counts, query_request, update_request, Rounds, LABELS,
};
use crate::{Args, Report};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twx_corpus::Corpus;
use twx_obs::json::parse;
use twx_xtree::edit::Edit;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{Catalog, Document, Label, NodeId, Tree};

/// Closure queries plus the filter-heavy `down*[<down[c]> or <down[d]>]`,
/// whose simplify + unsat-prune stage dominates a fully cached request.
pub const POOL: [&str; 12] = [
    "down*[a]",
    "(down | right)*[b]",
    "down*[<down[c]> or <down[d]>]",
    "down+[c]",
    "(down/right)*[d]",
    "down*/right+[a]",
    "(down[a])*",
    "down*[<down[b]>]",
    "(down[b] | down[c])*",
    "down*[c]/down[d]",
    "(right | down)*[a]/up",
    "(down/down)*[a]",
];
const SHARDS: usize = 4;
const SETUPS: usize = 5;
/// Total update-probe time per window, split over the pauses.
const PROBE: Duration = Duration::from_secs(2);

/// One connection's closed loop.
struct Conn<'a> {
    client: Client,
    rounds: Rounds,
    requests: &'a [String],
    traced: bool,
    handler: &'a BenchHandler,
    oracle: &'a [Vec<u64>],
    /// The document versions the next answers must carry.
    versions: Vec<u64>,
}

fn query_op(c: &mut Conn, tally: &mut Tally) -> bool {
    let qi = c.rounds.next_index();
    let started = Instant::now();
    let reply = c.client.call(&c.requests[qi]);
    let rtt = started.elapsed().as_nanos() as u64;
    tally.ops += 1;
    tally.latency.push(rtt);
    let Ok(text) = reply else {
        tally.failed += 1;
        return false;
    };
    let ok = parse(&text).is_ok_and(|j| {
        if c.traced {
            let handle = c.handler.take_span(&text);
            tally.layers.absorb_query(rtt, handle, &j);
        }
        answers_match(&j, &c.oracle[qi], &c.versions)
    });
    tally.failed += u64::from(!ok);
    true
}

/// The update probe: relabels seeded nodes and restores them, checking
/// every receipt against the tracked versions.
struct Probe<'a> {
    docs: &'a [Document],
    versions: Vec<u64>,
    rng: SplitMix64,
    burst: Duration,
    tally: Tally,
}

impl Probe<'_> {
    fn update(&mut self, c: &mut Conn, doc: usize, node: NodeId, label: Label) {
        let started = Instant::now();
        let reply = c
            .client
            .call(&update_request(doc, &Edit::Relabel { node, label }));
        let rtt = started.elapsed().as_nanos() as u64;
        self.tally.ops += 1;
        self.tally.updates.push(rtt);
        let Ok(text) = reply else {
            self.tally.failed += 1;
            return;
        };
        if c.traced {
            self.tally
                .layers
                .absorb_update(rtt, c.handler.take_span(&text));
        }
        self.versions[doc] += 1;
        let ok = parse(&text).is_ok_and(|j| {
            get_bool(&j, "ok") == Some(true)
                && get_u64(&j, "version") == Some(self.versions[doc])
                && get_u64(&j, "nodes") == Some(self.docs[doc].tree.len() as u64)
        });
        self.tally.failed += u64::from(!ok);
    }

    /// One burst over the first connection while every loop is paused;
    /// then every connection expects the new versions.
    fn burst(&mut self, conns: &mut [Conn]) {
        let start = Instant::now();
        while start.elapsed() < self.burst {
            let doc = self.rng.gen_range(0..self.docs.len());
            let tree = &self.docs[doc].tree;
            let node = NodeId(self.rng.gen_range(0..tree.len()) as u32);
            let label = Label(self.rng.gen_range(0..LABELS.len()) as u32);
            let original = tree.label(node);
            self.update(&mut conns[0], doc, node, label);
            self.update(&mut conns[0], doc, node, original);
        }
        for c in conns.iter_mut() {
            c.versions.clone_from(&self.versions);
        }
    }
}

fn build_corpus(docs: &[Document]) -> Corpus {
    let mut b = Corpus::builder(Arc::new(Catalog::from_names(LABELS)), SHARDS);
    for d in docs {
        b.add_document(d.clone());
    }
    b.build()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (n_docs, n_nodes) = if args.tiny { (8, 60) } else { (48, 400) };
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let catalog = Catalog::from_names(LABELS);
    let docs: Vec<Document> = (0..n_docs)
        .map(|_| random_document_in(Shape::Recursive, n_nodes, &catalog, &mut rng))
        .collect();
    let trees: Vec<&Tree> = docs.iter().map(|d| &d.tree).collect();
    let oracle = oracle_counts(&POOL, &catalog, &trees);
    let mut report = Report::default();

    // set-up: ingest, start the stack, connect both framings, and warm
    // every query on each connection (filling plan and result caches)
    let mut setup_s = Vec::new();
    let mut running: Option<(Stack, Vec<Client>)> = None;
    for _ in 0..args.setups(SETUPS) {
        if let Some((stack, clients)) = running.take() {
            drop(clients);
            stack.stop()?;
        }
        let started = Instant::now();
        let stack = Stack::start(build_corpus(&docs))?;
        let mut clients = vec![stack.connect(Wire::Ndjson)?, stack.connect(Wire::Binary)?];
        let mut warm = Vec::new();
        for c in clients.iter_mut() {
            for q in POOL {
                warm.push(c.call(&query_request(q, false)));
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        let unchanged = vec![0; n_docs];
        let wrong = warm
            .iter()
            .enumerate()
            .filter(|(i, reply)| {
                !reply.as_ref().is_ok_and(|t| {
                    parse(t).is_ok_and(|j| answers_match(&j, &oracle[i % POOL.len()], &unchanged))
                })
            })
            .count();
        report.count(warm.len() as u64, wrong as u64);
        running = Some((stack, clients));
    }
    let (stack, clients) = running.expect("at least one set-up");

    let plain: Vec<String> = POOL.iter().map(|q| query_request(q, false)).collect();
    let traced: Vec<String> = POOL.iter().map(|q| query_request(q, true)).collect();
    let mut conns: Vec<Conn> = clients
        .into_iter()
        .map(|client| Conn {
            client,
            rounds: Rounds::new(POOL.len(), rng.split()),
            requests: &plain,
            traced: false,
            handler: stack.handler(),
            oracle: &oracle,
            versions: vec![0; n_docs],
        })
        .collect();
    let probe_total = if args.tiny { PROBE / 10 } else { PROBE };
    let mut probe = Probe {
        docs: &docs,
        versions: vec![0; n_docs],
        rng: rng.split(),
        burst: probe_total / (SLICES - 1),
        tally: Tally::default(),
    };
    let (first, traced_len) = args.windows();
    let mut window = run_window(&mut conns, first, query_op, |c| probe.burst(c));
    report.count(window.ops, window.failed);
    match traced_len {
        None => {
            window.updates = std::mem::take(&mut probe.tally.updates);
            report.end_to_end(&setup_s, &window);
        }
        Some(len) => {
            for c in conns.iter_mut() {
                c.requests = &traced;
                c.traced = true;
            }
            let before = stack.counters();
            stack.handler().set_tracing(true);
            let mut tw = run_window(&mut conns, len, query_op, |c| probe.burst(c));
            stack.handler().set_tracing(false);
            report.count(tw.ops, tw.failed);
            tw.layers.merge(std::mem::take(&mut probe.tally.layers));
            tw.layers
                .report(&stack.counters().since(&before), &mut report);
            report.tracing_overhead(&window, &tw);
            report.set("store.journal_bytes_per_update", 0.0);
            report.set("store.snapshot_bytes_per_node", 0.0);
        }
    }
    report.count(probe.tally.ops, probe.tally.failed);
    drop(conns);
    stack.stop()?;
    Ok(report)
}
