//! # twx-frontier — parallel push/pull frontier kernels
//!
//! The paper's evaluation strategy for Regular XPath(W) is iterated
//! images of the four step relations; a Kleene star is a frontier
//! fixpoint over them. This crate parallelises exactly those two
//! primitives over chunks of the preorder id space with
//! `std::thread::scope` — zero dependencies, work split by **node
//! count** (frontier cardinality for push, universe size for pull),
//! not by chunk count.
//!
//! * [`axis_image_into`] — one step image of a dense register, the
//!   parallel path behind the VM's `AxisImage` instruction. Direction
//!   is chosen by frontier density: **push** (iterate the frontier,
//!   insert successors into per-worker sets, merge) when the frontier
//!   is small, **pull** (scan candidate ids, probe predecessors, write
//!   disjoint word ranges of the output — no merge) when it covers at
//!   least a quarter of the universe. Each image ticks
//!   `frontier_push_steps` or `frontier_pull_steps`.
//! * [`par_intersect`] — word-chunked `∩=` behind `FilterJoin`.
//!
//! Chunk counts collapse to 1 below a work grain, so tiny documents
//! take the same code path without spawning threads; at `threads == 1`
//! callers should use their sequential path instead (the VM does). The
//! VM's `Star` closures call these kernels only in their dense rounds;
//! sparse rounds are O(frontier) and run on the calling thread.
//!
//! A thread-local [`FrontierFault`] hook (`drop-chunk`: silently skip
//! the last chunk of every image) lets the conformance harness prove a
//! broken chunk merge would be caught and shrunk; it is never set
//! outside tests.

use std::cell::Cell;

use twx_obs::{self as obs, Counter};
use twx_xtree::frontier::{
    balanced_cuts, dense_threshold, pull_image_words, push_image_ids, push_image_set_range,
    word_chunks,
};
use twx_xtree::{NodeId, NodeSet, Tree};

pub use twx_xtree::frontier::Step;

/// Minimum frontier nodes per push chunk; below `2×` this a single
/// sequential chunk is used.
pub const PUSH_GRAIN: usize = 128;
/// Minimum candidate ids per pull chunk.
pub const PULL_GRAIN: usize = 1024;
/// Minimum words per chunk for the parallel set operations. Word-wise
/// `∩` is so cheap that spawning pays only on multi-million-node sets.
pub const SETOP_GRAIN_WORDS: usize = 1 << 16;

/// A deliberate, test-only corruption of the parallel kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontierFault {
    /// Silently drop the last chunk of every axis image — the result a
    /// broken chunk split or merge would produce.
    DropChunk,
}

impl FrontierFault {
    /// Parses the `--fault frontier=<kind>` suffix.
    pub fn parse(kind: &str) -> Option<FrontierFault> {
        match kind {
            "drop-chunk" => Some(FrontierFault::DropChunk),
            _ => None,
        }
    }
}

thread_local! {
    static FAULT: Cell<Option<FrontierFault>> = const { Cell::new(None) };
}

/// Arms (or disarms, with `None`) the fault hook on this thread. The
/// conformance harness wraps exactly one route's evaluations with it.
pub fn set_fault(f: Option<FrontierFault>) {
    FAULT.with(|c| c.set(f));
}

/// The currently armed fault, if any.
pub fn fault() -> Option<FrontierFault> {
    FAULT.with(|c| c.get())
}

/// `min(threads, ⌈work/grain⌉)`, at least 1: how many chunks a kernel
/// actually splits into. Small inputs collapse to one chunk evaluated
/// inline on the calling thread.
fn chunk_count(work: usize, grain: usize, threads: usize) -> usize {
    if threads <= 1 || work == 0 {
        1
    } else {
        threads.min(work.div_ceil(grain)).max(1)
    }
}

/// The source of one image, as the kernels consume it.
enum View<'a> {
    /// Sorted frontier ids (sparse).
    Ids(&'a [NodeId]),
    /// A dense bitmap.
    Dense(&'a NodeSet),
}

/// `dst ← { u : ∃ v ∈ src, v -step→ u }` over the whole universe,
/// choosing push or pull by the density of `src` and splitting the work
/// across at most `threads` scoped workers. `dst` is overwritten.
pub fn axis_image_into(t: &Tree, step: Step, src: &NodeSet, dst: &mut NodeSet, threads: usize) {
    let card = src.count_ones();
    let scratch;
    let view = if card <= dense_threshold(t.len()) {
        scratch = src.to_vec();
        View::Ids(&scratch)
    } else {
        View::Dense(src)
    };
    image_core(t, step, &view, card, dst, threads);
}

fn image_core(
    t: &Tree,
    step: Step,
    src: &View<'_>,
    card: usize,
    dst: &mut NodeSet,
    threads: usize,
) {
    let n = t.len();
    dst.reset(n);
    let dropped = fault() == Some(FrontierFault::DropChunk);
    // Pull pays only when most candidate probes hit: a quarter of the
    // universe live is the break-even observed in E14.
    let pull = card * 4 >= n && n > 0;
    if pull {
        obs::incr(Counter::FrontierPullSteps);
        let ranges = word_chunks(n, chunk_count(n, PULL_GRAIN, threads));
        let in_src = |v: NodeId| match src {
            View::Ids(ids) => ids.binary_search(&v).is_ok(),
            View::Dense(s) => s.contains(v),
        };
        let live = ranges.len() - usize::from(dropped);
        if live == 0 {
            return;
        }
        if ranges.len() == 1 {
            pull_image_words(t, step, in_src, 0..n, dst.words_mut());
            return;
        }
        std::thread::scope(|s| {
            let mut rest = dst.words_mut();
            for r in &ranges[..live] {
                let take = r.end.div_ceil(64) - r.start / 64;
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let r = r.clone();
                s.spawn(move || pull_image_words(t, step, in_src, r, head));
            }
        });
    } else {
        obs::incr(Counter::FrontierPushSteps);
        match src {
            View::Ids(ids) => {
                let chunks = chunk_count(ids.len(), PUSH_GRAIN, threads);
                let live = chunks - usize::from(dropped);
                if live == 0 || ids.is_empty() {
                    return;
                }
                if chunks == 1 {
                    push_image_ids(t, step, ids, dst);
                    return;
                }
                let per = ids.len().div_ceil(chunks);
                let slices: Vec<&[NodeId]> = ids.chunks(per).take(live).collect();
                merge_push(t, dst, slices, |t, part, out| {
                    push_image_ids(t, step, part, out);
                });
            }
            View::Dense(set) => {
                let chunks = chunk_count(card, PUSH_GRAIN, threads);
                let cuts = balanced_cuts(set, chunks);
                let live = cuts.len() - usize::from(dropped);
                if live == 0 {
                    return;
                }
                if cuts.len() == 1 {
                    push_image_set_range(t, step, set, cuts[0].clone(), dst);
                    return;
                }
                merge_push(
                    t,
                    dst,
                    cuts.into_iter().take(live).collect(),
                    |t, r, out| {
                        push_image_set_range(t, step, set, r, out);
                    },
                );
            }
        }
    }
}

/// Runs `work` on every part in its own scoped worker with a private
/// output set, then ORs the workers' sets into `dst`.
fn merge_push<P: Send>(
    t: &Tree,
    dst: &mut NodeSet,
    parts: Vec<P>,
    work: impl Fn(&Tree, P, &mut NodeSet) + Sync,
) {
    let n = t.len();
    let work = &work;
    let locals: Vec<NodeSet> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|p| {
                s.spawn(move || {
                    let mut out = NodeSet::empty(n);
                    work(t, p, &mut out);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("frontier worker"))
            .collect()
    });
    for l in &locals {
        dst.union_with(l);
    }
}

/// Word-chunked `dst ∩= other` (the `FilterJoin` parallel path). Falls
/// back to the sequential word loop below [`SETOP_GRAIN_WORDS`].
pub fn par_intersect(dst: &mut NodeSet, other: &NodeSet, threads: usize) {
    let words = dst.as_words().len();
    par_intersect_chunked(dst, other, chunk_count(words, SETOP_GRAIN_WORDS, threads));
}

/// [`par_intersect`] with an explicit chunk count (exposed so tests can
/// force multi-chunk execution on small sets).
pub fn par_intersect_chunked(dst: &mut NodeSet, other: &NodeSet, chunks: usize) {
    assert_eq!(dst.universe(), other.universe());
    if chunks <= 1 {
        dst.intersect_with(other);
        return;
    }
    let n_words = dst.as_words().len();
    let per = n_words.div_ceil(chunks).max(1);
    std::thread::scope(|s| {
        let mut rest = dst.words_mut();
        let mut base = 0;
        while !rest.is_empty() {
            let take = per.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let src = &other.as_words()[base..base + take];
            base += take;
            s.spawn(move || {
                for (d, o) in head.iter_mut().zip(src) {
                    *d &= *o;
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_xtree::frontier;
    use twx_xtree::generate::{random_document_in, Shape};
    use twx_xtree::rng::{Rng, SplitMix64};
    use twx_xtree::Catalog;

    fn doc(n: usize, seed: u64) -> twx_xtree::Document {
        let catalog = Catalog::new();
        for l in ["a", "b", "c"] {
            catalog.intern(l);
        }
        let mut rng = SplitMix64::seed_from_u64(seed);
        random_document_in(Shape::DocumentLike, n, &catalog, &mut rng)
    }

    #[test]
    fn parallel_image_matches_sequential_all_steps() {
        let d = doc(5000, 7);
        let t = &d.tree;
        let mut rng = SplitMix64::seed_from_u64(8);
        for round in 0..6 {
            // densities from a few nodes to most of the universe
            let keep = 1 + (round * round * 7) % 64;
            let src = NodeSet::from_iter(
                t.len(),
                t.nodes().filter(|_| (rng.next_u64() % 64) < keep as u64),
            );
            for step in Step::ALL {
                let expect = frontier::axis_image_seq(t, step, &src);
                for threads in [1, 2, 4, 8] {
                    let mut got = NodeSet::empty(t.len());
                    axis_image_into(t, step, &src, &mut got, threads);
                    assert_eq!(got, expect, "step {} threads {threads}", step.name());
                }
            }
        }
    }

    #[test]
    fn drop_chunk_fault_corrupts_the_image() {
        let d = doc(2000, 3);
        let t = &d.tree;
        let src = NodeSet::full(t.len());
        let mut clean = NodeSet::empty(t.len());
        axis_image_into(t, Step::Down, &src, &mut clean, 4);
        set_fault(Some(FrontierFault::DropChunk));
        let mut faulty = NodeSet::empty(t.len());
        axis_image_into(t, Step::Down, &src, &mut faulty, 4);
        set_fault(None);
        assert_ne!(clean, faulty, "dropping a chunk must lose nodes");
        assert!(faulty.is_subset(&clean));
    }

    #[test]
    fn par_intersect_matches_sequential() {
        let mut rng = SplitMix64::seed_from_u64(21);
        let n = 10_000;
        let a0 = NodeSet::from_iter(
            n,
            (0..n as u32)
                .filter(|_| rng.next_u64().is_multiple_of(2))
                .map(NodeId),
        );
        let b = NodeSet::from_iter(
            n,
            (0..n as u32)
                .filter(|_| rng.next_u64().is_multiple_of(3))
                .map(NodeId),
        );
        let mut expect = a0.clone();
        expect.intersect_with(&b);
        for chunks in [2, 3, 8] {
            let mut got = a0.clone();
            par_intersect_chunked(&mut got, &b, chunks);
            assert_eq!(got, expect, "chunks {chunks}");
        }
    }
}
