//! `serve-live`: the server over a durable corpus that is edited while
//! it is queried.
//!
//! 96 docs × 2000 nodes (`Shape::Recursive`, 4 shards) in a store under
//! a fresh scratch directory, with the default fsync-every-1 journal
//! policy and `twx-serve`'s background snapshotter. Two closed-loop
//! connections (NDJSON and binary) each run a seeded op sequence in which
//! one op in every five is an update: a relabel, insert-child or
//! leaf-remove chosen against the connection's shadow copy of the
//! documents it owns, keeping every document within one node of its
//! starting size. The other ops draw from 16 closure queries without
//! costly filters; 16 × 96 = 1536 answers overflow the 1024-entry result
//! cache, so eval runs on the serving path. After the window every pool
//! query is checked against the oracle on the shadow corpus.

use crate::stack::{run_window, Client, Stack, Tally, Wire};
use crate::util::{
    answers_match, get_bool, get_u64, next_edit, oracle_counts, query_request, update_request,
    Rounds, TempDir, LABELS,
};
use crate::{Args, Report};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use treewalk::Engine;
use twx_corpus::{Corpus, StoreConfig};
use twx_obs::json::parse;
use twx_xtree::edit::apply_edit;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{Catalog, Document, Tree};

/// Closure queries, none with a costly filter.
pub const POOL: [&str; 16] = [
    "down*[a]",
    "down*[b]",
    "down+[c]",
    "down/down*[d]",
    "(down | right)*[b]",
    "(down | up)*[d]",
    "down*/right+[a]",
    "(down/right)*[d]",
    "(down/down)*[a]",
    "down*[c]/down[d]",
    "down*[d]/right*",
    "down*[a]/down*[b]",
    "(down[a])*",
    "(down[b] | down[c])*",
    "(right | down)*[a]/up",
    "down*[<down[b]>]",
];
const SHARDS: usize = 4;
const SETUPS: usize = 5;
/// One update in every block of this many ops (20%).
const BLOCK: usize = 5;

/// Journal growth across updates. The journal shrinks when a snapshot
/// compacts it, so growth is summed sample by sample.
#[derive(Default)]
struct JournalMeter {
    /// `(last length seen, bytes grown)`
    state: Mutex<(u64, u64)>,
}

impl JournalMeter {
    /// Starts counting from the journal's current length.
    fn reset(&self, len: u64) {
        *self.state.lock().expect("journal meter poisoned") = (len, 0);
    }

    fn sample(&self, len: u64) {
        let mut s = self.state.lock().expect("journal meter poisoned");
        s.1 += if len >= s.0 { len - s.0 } else { len };
        s.0 = len;
    }

    fn grown(&self) -> u64 {
        self.state.lock().expect("journal meter poisoned").1
    }
}

/// One connection's closed loop and the shadow of the documents it edits.
struct Conn<'a> {
    client: Client,
    rounds: Rounds,
    /// Draws the update slots and the edits.
    rng: SplitMix64,
    block_pos: usize,
    update_slot: usize,
    /// `(doc id, shadow tree, version)` of every document this
    /// connection (alone) edits.
    owned: Vec<(usize, Tree, u64)>,
    target: usize,
    n_docs: usize,
    requests: &'a [String],
    traced: bool,
    stack: &'a Stack,
    journal: &'a JournalMeter,
}

fn live_op(c: &mut Conn, tally: &mut Tally) -> bool {
    if c.block_pos == BLOCK {
        c.block_pos = 0;
        c.update_slot = c.rng.gen_range(0..BLOCK);
    }
    let update = c.block_pos == c.update_slot;
    c.block_pos += 1;
    if update {
        update_op(c, tally)
    } else {
        query_op(c, tally)
    }
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
    // versions move under concurrent edits: the exact answers are
    // checked after the window, here only completeness
    let ok = parse(&text).is_ok_and(|j| {
        if c.traced {
            tally
                .layers
                .absorb_query(rtt, c.stack.handler().take_span(&text), &j);
        }
        get_bool(&j, "ok") == Some(true)
            && get_bool(&j, "timed_out") == Some(false)
            && crate::util::get_arr(&j, "docs").len() == c.n_docs
    });
    tally.failed += u64::from(!ok);
    true
}

fn update_op(c: &mut Conn, tally: &mut Tally) -> bool {
    let k = c.rng.gen_range(0..c.owned.len());
    let (doc, tree, version) = &c.owned[k];
    let (doc, version) = (*doc, *version);
    let edit = next_edit(tree, c.target, &mut c.rng);
    let (next, _) = apply_edit(tree, &edit).expect("edits are drawn valid for the shadow");
    let request = update_request(doc, &edit);
    let started = Instant::now();
    let reply = c.client.call(&request);
    let rtt = started.elapsed().as_nanos() as u64;
    tally.ops += 1;
    tally.latency.push(rtt);
    tally.updates.push(rtt);
    let Ok(text) = reply else {
        tally.failed += 1;
        return false;
    };
    if c.traced {
        tally
            .layers
            .absorb_update(rtt, c.stack.handler().take_span(&text));
        if let Some(store) = c.stack.corpus().store() {
            c.journal.sample(store.journal_bytes());
        }
    }
    let Ok(j) = parse(&text) else {
        tally.failed += 1;
        return true;
    };
    if get_bool(&j, "ok") != Some(true) {
        tally.failed += 1;
        return true;
    }
    // the receipt must describe exactly the shadow's next state
    let exact = get_u64(&j, "doc") == Some(doc as u64)
        && get_u64(&j, "version") == Some(version + 1)
        && get_u64(&j, "nodes") == Some(next.len() as u64);
    tally.failed += u64::from(!exact);
    c.owned[k] = (doc, next, version + 1);
    true
}

fn build_corpus(docs: &[Document], dir: &Path) -> Result<Corpus, String> {
    let mut b = Corpus::builder(Arc::new(Catalog::from_names(LABELS)), SHARDS)
        .with_store(dir)
        .store_config(StoreConfig::default());
    for d in docs {
        b.add_document(d.clone());
    }
    b.try_build().map_err(|e| format!("create store: {e}"))
}

/// Every pool query against the oracle on the shadow corpus: exact match
/// counts at exactly the shadow versions. Files the time the oracle (the
/// VM) and a default engine take over the shadow documents.
fn final_check(client: &mut Client, shadow: &[(usize, Tree, u64)], report: &mut Report) {
    let catalog = Catalog::from_names(LABELS);
    let trees: Vec<&Tree> = shadow.iter().map(|(_, t, _)| t).collect();
    let versions: Vec<u64> = shadow.iter().map(|(_, _, v)| *v).collect();
    let started = Instant::now();
    let oracle = oracle_counts(&POOL, &catalog, &trees);
    report.info("check_vm_ms", started.elapsed().as_secs_f64() * 1e3);
    let docs: Vec<Document> = trees
        .iter()
        .map(|t| Document::new((*t).clone(), catalog.snapshot()))
        .collect();
    let engine = Engine::new();
    let started = Instant::now();
    for q in POOL {
        let p = engine
            .prepare_in(&catalog, q)
            .expect("pool queries compile");
        for d in &docs {
            black_box(p.eval(d, d.tree.root()));
        }
    }
    report.info("check_engine_ms", started.elapsed().as_secs_f64() * 1e3);
    let wrong = POOL
        .iter()
        .zip(&oracle)
        .filter(|(q, counts)| {
            !client
                .call(&query_request(q, false))
                .is_ok_and(|t| parse(&t).is_ok_and(|j| answers_match(&j, counts, &versions)))
        })
        .count();
    report.count(POOL.len() as u64, wrong as u64);
}

pub fn run(args: &Args, scratch: &TempDir) -> Result<Report, String> {
    let (n_docs, n_nodes) = if args.tiny { (8, 100) } else { (96, 2000) };
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let catalog = Catalog::from_names(LABELS);
    let docs: Vec<Document> = (0..n_docs)
        .map(|_| random_document_in(Shape::Recursive, n_nodes, &catalog, &mut rng))
        .collect();
    let mut report = Report::default();

    // set-up: create the store and ingest, start the stack, connect both
    // framings, and compile every pool query once
    let mut setup_s = Vec::new();
    let mut running: Option<(Stack, Vec<Client>)> = None;
    for i in 0..args.setups(SETUPS) {
        if let Some((stack, clients)) = running.take() {
            drop(clients);
            stack.stop()?;
        }
        let dir = scratch.child(&format!("store-{i}"));
        let started = Instant::now();
        let stack = Stack::start(build_corpus(&docs, &dir)?)?;
        let mut clients = vec![stack.connect(Wire::Ndjson)?, stack.connect(Wire::Binary)?];
        let warm: Vec<bool> = POOL
            .iter()
            .enumerate()
            .map(|(qi, q)| clients[qi % 2].call(&query_request(q, false)).is_ok())
            .collect();
        setup_s.push(started.elapsed().as_secs_f64());
        report.count(
            warm.len() as u64,
            warm.iter().filter(|ok| !**ok).count() as u64,
        );
        running = Some((stack, clients));
    }
    let (stack, clients) = running.expect("at least one set-up");

    let plain: Vec<String> = POOL.iter().map(|q| query_request(q, false)).collect();
    let traced: Vec<String> = POOL.iter().map(|q| query_request(q, true)).collect();
    let journal = JournalMeter::default();
    let n_conns = clients.len();
    let mut conns: Vec<Conn> = clients
        .into_iter()
        .enumerate()
        .map(|(ci, client)| Conn {
            client,
            rounds: Rounds::new(POOL.len(), rng.split()),
            rng: rng.split(),
            block_pos: BLOCK,
            update_slot: 0,
            owned: (ci..n_docs)
                .step_by(n_conns)
                .map(|d| (d, docs[d].tree.clone(), 0))
                .collect(),
            target: n_nodes,
            n_docs,
            requests: &plain,
            traced: false,
            stack: &stack,
            journal: &journal,
        })
        .collect();
    let (first, traced_len) = args.windows();
    let window = run_window(&mut conns, first, live_op, |_| {});
    report.count(window.ops, window.failed);
    match traced_len {
        None => report.end_to_end(&setup_s, &window),
        Some(len) => {
            for c in conns.iter_mut() {
                c.requests = &traced;
                c.traced = true;
            }
            if let Some(store) = stack.corpus().store() {
                journal.reset(store.journal_bytes());
            }
            let before = stack.counters();
            stack.handler().set_tracing(true);
            let tw = run_window(&mut conns, len, live_op, |_| {});
            stack.handler().set_tracing(false);
            report.count(tw.ops, tw.failed);
            tw.layers
                .report(&stack.counters().since(&before), &mut report);
            report.tracing_overhead(&window, &tw);
            let store = stack
                .corpus()
                .store()
                .ok_or("serve-live runs with a store")?;
            report.set(
                "store.journal_bytes_per_update",
                crate::util::ratio(journal.grown() as f64, tw.updates.len() as f64),
            );
            report.set(
                "store.snapshot_bytes_per_node",
                store.snapshot_bytes() as f64 / stack.corpus().total_nodes() as f64,
            );
        }
    }

    // after the window: exact answers on the shadow corpus, and the
    // corpus size still in its band
    let mut shadow: Vec<(usize, Tree, u64)> = Vec::with_capacity(n_docs);
    for c in conns.iter_mut() {
        shadow.append(&mut c.owned);
    }
    shadow.sort_by_key(|(d, _, _)| *d);
    final_check(&mut conns[0].client, &shadow, &mut report);
    let total = stack.corpus().total_nodes();
    let shadow_total: usize = shadow.iter().map(|(_, t, _)| t.len()).sum();
    let band = (n_docs * (n_nodes - 1), n_docs * (n_nodes + 1));
    report.count(
        1,
        u64::from(total != shadow_total || total < band.0 || total > band.1),
    );
    report.info("total_nodes", total);
    report.info("nodes_band_lo", band.0);
    report.info("nodes_band_hi", band.1);
    report.info("fsync_every", StoreConfig::default().fsync_every);
    drop(conns);
    stack.stop()?;
    Ok(report)
}
