//! `eval-deep`: the library in-process, evaluation and nothing else.
//!
//! `Engine::new()` prepares a 6-query closure pool (the set-up), then one
//! thread calls `Prepared::eval` from the root over 4 `Shape::Deep(2)`
//! documents of 20k, 30k, 40k and 50k nodes, in a seeded order that
//! visits every (query, document) pair once per round. No cache, no
//! server: deep trees are where closure cost depends on the evaluation
//! strategy. `update_p50_us` comes from probe bursts of in-memory
//! `Corpus::update` edits on the same documents, in the pauses between
//! slices.

use crate::layers::LayerSamples;
use crate::stack::{run_window, Counters, Tally, SLICES};
use crate::util::{next_edit, oracle_answers, Rounds, LABELS};
use crate::{Args, Report};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use treewalk::{Engine, Prepared};
use twx_corpus::{Corpus, DocId};
use twx_obs as obs;
use twx_xtree::edit::Edit;
use twx_xtree::generate::{from_parent_vec, random_tree, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{Catalog, Document, Label, NodeSet, Tree};

/// Closure queries whose cost grows with depth.
pub const POOL: [&str; 6] = [
    "down*[a]",
    "down+[b]",
    "(down/down)*[c]",
    "(down | right)*[d]",
    "down*[c]/down*[d]",
    "(down | up)*[a]",
];
const SIZES: [usize; 4] = [20_000, 30_000, 40_000, 50_000];
const TINY_SIZES: [usize; 4] = [500, 800, 1_100, 1_400];
/// Set-up takes milliseconds, so it repeats more often than the serving
/// workloads' for a steady median.
const SETUPS: usize = 9;
/// Total update-probe time per window, split over the pauses.
const PROBE: Duration = Duration::from_secs(2);

/// Prepares `query`; with `layers`, under a trace whose stages feed the
/// engine metrics.
fn prepare(
    engine: &Engine,
    catalog: &Catalog,
    query: &str,
    layers: Option<&mut LayerSamples>,
) -> Result<Prepared, String> {
    let traced = layers.is_some() && obs::trace::begin("prepare", obs::TraceId::next());
    let started = Instant::now();
    let prepared = engine.prepare_in(catalog, query);
    let ns = started.elapsed().as_nanos() as u64;
    let tree = if traced { obs::trace::take() } else { None };
    if let Some(layers) = layers {
        layers.prepare.push(ns);
        for stage in tree.iter().flat_map(|t| &t.root.children) {
            let dur = stage.dur_ns;
            match stage.name.as_str() {
                "parse" => layers.parse.push(dur),
                "simplify" => layers.simplify.push(dur),
                _ => {}
            }
        }
    }
    prepared.map_err(|e| format!("prepare {query}: {e}"))
}

/// The single closed loop: one `Prepared::eval` per op, answers checked.
struct Loop<'a> {
    prepared: &'a [Prepared],
    docs: &'a [Document],
    expected: &'a [Vec<NodeSet>],
    rounds: Rounds,
}

fn eval_op(l: &mut Loop, tally: &mut Tally) -> bool {
    let i = l.rounds.next_index();
    let (q, d) = (i / l.docs.len(), i % l.docs.len());
    let doc = &l.docs[d];
    let started = Instant::now();
    let answer = l.prepared[q].eval(doc, doc.tree.root());
    tally.latency.push(started.elapsed().as_nanos() as u64);
    tally.ops += 1;
    tally.failed += u64::from(black_box(&answer) != &l.expected[q][d]);
    true
}

/// The update probe: seeded edits through an in-memory corpus over the
/// documents, each receipt's size checked against the edit.
struct Probe {
    corpus: Corpus,
    /// The size each document stays within one node of.
    targets: Vec<usize>,
    rng: SplitMix64,
    burst: Duration,
    tally: Tally,
}

impl Probe {
    fn new(docs: &[Document], rng: SplitMix64, burst: Duration) -> Probe {
        let mut b = Corpus::builder(Arc::new(Catalog::from_names(LABELS)), 1);
        for d in docs {
            b.add_document(d.clone());
        }
        Probe {
            corpus: b.build(),
            targets: docs.iter().map(|d| d.tree.len()).collect(),
            rng,
            burst,
            tally: Tally::default(),
        }
    }

    fn burst(&mut self) {
        let start = Instant::now();
        while start.elapsed() < self.burst {
            let d = self.rng.gen_range(0..self.targets.len());
            let id = DocId(d as u32);
            let current = self.corpus.doc(id).expect("probe documents exist");
            let len = current.tree.len();
            let edit = next_edit(&current.tree, self.targets[d], &mut self.rng);
            // removals always take a leaf
            let expected = match edit {
                Edit::InsertChild { .. } => len + 1,
                Edit::RemoveSubtree { .. } => len - 1,
                Edit::Relabel { .. } => len,
            };
            let started = Instant::now();
            let receipt = self.corpus.update(id, &edit);
            self.tally.updates.push(started.elapsed().as_nanos() as u64);
            self.tally.ops += 1;
            self.tally.failed += u64::from(!receipt.is_ok_and(|r| r.new_len == expected));
        }
    }
}

/// The documents as parent vectors and labels, the form set-up ingests.
fn generate(sizes: &[usize], rng: &mut SplitMix64) -> Vec<(Vec<u32>, Vec<Label>)> {
    sizes
        .iter()
        .map(|&n| {
            let t = random_tree(Shape::Deep(2), n, LABELS.len(), rng);
            let parents = t.nodes().map(|v| t.parent(v).map_or(0, |p| p.0)).collect();
            let labels = t.nodes().map(|v| t.label(v)).collect();
            (parents, labels)
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let sizes = if args.tiny { TINY_SIZES } else { SIZES };
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let inputs = generate(&sizes, &mut rng);
    let mut report = Report::default();
    let mut layers = LayerSamples::default();

    // set-up: build the documents, then a fresh engine prepares the pool
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..args.setups(SETUPS) {
        let started = Instant::now();
        let catalog = Catalog::from_names(LABELS);
        let docs: Vec<Document> = inputs
            .iter()
            .map(|(parents, labels)| {
                Document::new(from_parent_vec(parents, labels), catalog.snapshot())
            })
            .collect();
        let engine = Engine::new();
        let prepared = POOL
            .iter()
            .map(|q| prepare(&engine, &catalog, q, args.trace.then_some(&mut layers)))
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(started.elapsed().as_secs_f64());
        ready = Some((catalog, docs, engine, prepared));
    }
    let (catalog, docs, engine, prepared) = ready.expect("at least one set-up");

    // cross-check every pair against the VM oracle before timing
    let trees: Vec<&Tree> = docs.iter().map(|d| &d.tree).collect();
    let started = Instant::now();
    let expected = oracle_answers(&POOL, &catalog, &trees);
    report.info("check_vm_ms", started.elapsed().as_secs_f64() * 1e3);
    let started = Instant::now();
    let answers: Vec<Vec<NodeSet>> = prepared
        .iter()
        .map(|p| docs.iter().map(|d| p.eval(d, d.tree.root())).collect())
        .collect();
    report.info("check_engine_ms", started.elapsed().as_secs_f64() * 1e3);
    let wrong = answers
        .iter()
        .flatten()
        .zip(expected.iter().flatten())
        .filter(|(got, want)| got != want)
        .count();
    report.count((POOL.len() * docs.len()) as u64, wrong as u64);

    let mut loops = [Loop {
        prepared: &prepared,
        docs: &docs,
        expected: &expected,
        rounds: Rounds::new(POOL.len() * docs.len(), rng.split()),
    }];
    let probe_total = if args.tiny { PROBE / 10 } else { PROBE };
    let mut probe = Probe::new(&docs, rng.split(), probe_total / (SLICES - 1));
    let (first, traced_len) = args.windows();
    let mut window = run_window(&mut loops, first, eval_op, |_| probe.burst());
    report.count(window.ops, window.failed);
    match traced_len {
        None => {
            window.updates = std::mem::take(&mut probe.tally.updates);
            report.end_to_end(&setup_s, &window);
        }
        Some(len) => {
            probe.tally.updates.clear();
            let tw = run_window(&mut loops, len, eval_op, |_| probe.burst());
            report.count(tw.ops, tw.failed);
            report.tracing_overhead(&window, &tw);
            layers.eval_self = tw.latency;
            layers.commit = std::mem::take(&mut probe.tally.updates);
            // exact per-pair work counts; every pair is equally frequent
            for q in &prepared {
                for doc in &docs {
                    let profile = q.explain(doc, doc.tree.root());
                    let counts: HashMap<&str, u64> = profile.counters.iter().collect();
                    layers.add_eval_counts(|c| counts.get(c).copied().unwrap_or(0));
                }
            }
            let plans = engine.cache_stats();
            let counters = Counters {
                plan_hits: plans.hits,
                plan_misses: plans.misses,
                ..Counters::default()
            };
            layers.report(&counters, &mut report);
            report.set("store.journal_bytes_per_update", 0.0);
            report.set("store.snapshot_bytes_per_node", 0.0);
        }
    }
    report.count(probe.tally.ops, probe.tally.failed);
    Ok(report)
}
