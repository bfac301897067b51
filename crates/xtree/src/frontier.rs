//! Step relations, sparse/dense switching thresholds and per-chunk
//! step-image kernels over preorder node ids.
//!
//! The paper reduces Regular XPath(W) evaluation to iterated images of
//! the four step relations, and a Kleene-star closure is exactly a
//! breadth-first frontier fixpoint over those images. Following the
//! Ligra push/pull pattern, a frontier is iterated as a **sparse** id
//! vector while few nodes are live and as a **dense** word bitmap when
//! many are; [`dense_threshold`] and [`sparse_threshold`] are the one
//! pair of switching points every evaluator uses.
//!
//! This module provides the *sequential, single-chunk* push and pull
//! image primitives over an explicit id range. The parallel
//! drivers that split the preorder id space into chunks and run these
//! primitives under `std::thread::scope` live in the `twx-frontier`
//! crate; keeping the per-chunk kernels here means the property tests
//! in `tests/frontier.rs` can pin their semantics against [`BitMatrix`]
//! reference relations without any threading in the loop.
//!
//! [`BitMatrix`]: crate::nodeset::BitMatrix

use crate::nodeset::NodeSet;
use crate::tree::{NodeId, Tree};
use std::ops::Range;

/// One primitive step relation of the tree. Mirrors the four axes of
/// Regular XPath (`twx_regxpath::ast::Axis`), but lives here so the
/// zero-dependency tree substrate can name them: `Down` = child,
/// `Up` = parent, `Left` = previous sibling, `Right` = next sibling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// To children.
    Down,
    /// To the parent.
    Up,
    /// To the previous sibling.
    Left,
    /// To the next sibling.
    Right,
}

impl Step {
    /// All four steps, in canonical order.
    pub const ALL: [Step; 4] = [Step::Down, Step::Up, Step::Left, Step::Right];

    /// The converse relation: `u -step→ v` iff `v -inverse→ u`.
    pub fn inverse(self) -> Step {
        match self {
            Step::Down => Step::Up,
            Step::Up => Step::Down,
            Step::Left => Step::Right,
            Step::Right => Step::Left,
        }
    }

    /// Stable lower-case name (diagnostics and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Step::Down => "down",
            Step::Up => "up",
            Step::Left => "left",
            Step::Right => "right",
        }
    }
}

/// Cardinality above which a frontier is held as a dense bitmap rather
/// than an id vector. At `universe / 64` ids, a pass over the ids costs
/// about as many steps as a pass over the bitmap's `universe / 64`
/// words, so below it the id form is the cheaper one to iterate.
#[inline]
pub fn dense_threshold(universe: usize) -> usize {
    universe / 64
}

/// Cardinality below which a dense frontier goes back to ids. Kept
/// strictly under [`dense_threshold`] so the two switches have a
/// hysteresis band: a frontier whose size wanders inside
/// `[universe/128, universe/64]` keeps whatever representation it has.
#[inline]
pub fn sparse_threshold(universe: usize) -> usize {
    universe / 128
}

// ---------------------------------------------------------------------
// Per-chunk image primitives (sequential; the parallel drivers live in
// `twx-frontier`).
// ---------------------------------------------------------------------

/// **Push** direction, sparse source: for every `v` in `ids`, inserts
/// every `u` with `v -step→ u` into `out`. `out` must already range
/// over the tree's universe; it is *not* cleared (workers accumulate).
pub fn push_image_ids(t: &Tree, step: Step, ids: &[NodeId], out: &mut NodeSet) {
    for &v in ids {
        push_one(t, step, v, out);
    }
}

/// **Push** direction, dense source restricted to an id range: pushes
/// from every member of `src` with id in `ids` (the range lets the
/// parallel driver hand each worker a slice of the bitmap).
pub fn push_image_set_range(
    t: &Tree,
    step: Step,
    src: &NodeSet,
    ids: Range<usize>,
    out: &mut NodeSet,
) {
    let words = src.as_words();
    let (w0, w1) = (ids.start / 64, ids.end.div_ceil(64));
    let end = w1.min(words.len());
    for (wi, &word) in words.iter().enumerate().take(end).skip(w0) {
        let mut w = word;
        // mask off ids outside the range in the boundary words
        if wi == ids.start / 64 {
            let lo = ids.start % 64;
            w &= !0u64 << lo;
        }
        if (wi + 1) * 64 > ids.end {
            let hi = ids.end - wi * 64;
            if hi < 64 {
                w &= (1u64 << hi) - 1;
            }
        }
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            push_one(t, step, NodeId((wi * 64 + bit) as u32), out);
            w &= w - 1;
        }
    }
}

#[inline]
fn push_one(t: &Tree, step: Step, v: NodeId, out: &mut NodeSet) {
    match step {
        Step::Down => {
            let mut c = t.first_child(v);
            while let Some(u) = c {
                out.insert(u);
                c = t.next_sibling(u);
            }
        }
        Step::Up => {
            if let Some(p) = t.parent(v) {
                out.insert(p);
            }
        }
        Step::Left => {
            if let Some(p) = t.prev_sibling(v) {
                out.insert(p);
            }
        }
        Step::Right => {
            if let Some(s) = t.next_sibling(v) {
                out.insert(s);
            }
        }
    }
}

/// **Pull** direction over a word-aligned id range: for every candidate
/// `u` in `ids`, sets `u`'s bit in `words` iff some predecessor of `u`
/// under `step` satisfies `in_src`. `words` is the destination
/// sub-slice covering exactly `ids` (so `words[0]` holds id
/// `ids.start`, which must be word-aligned); parallel workers therefore
/// write disjoint words.
///
/// The pull formulation of each step image: `u` is in the image of
/// `src` under `Down` iff `parent(u) ∈ src`; under `Up` iff some child
/// of `u` is in `src` (early-exits on the first hit); under `Left` iff
/// `next_sibling(u) ∈ src`; under `Right` iff `prev_sibling(u) ∈ src`.
pub fn pull_image_words<F: Fn(NodeId) -> bool>(
    t: &Tree,
    step: Step,
    in_src: F,
    ids: Range<usize>,
    words: &mut [u64],
) {
    debug_assert_eq!(ids.start % 64, 0, "pull chunk must be word-aligned");
    debug_assert!(words.len() >= (ids.end - ids.start).div_ceil(64));
    for u in ids.clone() {
        let u = NodeId(u as u32);
        let hit = match step {
            Step::Down => t.parent(u).is_some_and(&in_src),
            Step::Up => {
                let mut c = t.first_child(u);
                let mut any = false;
                while let Some(v) = c {
                    if in_src(v) {
                        any = true;
                        break;
                    }
                    c = t.next_sibling(v);
                }
                any
            }
            Step::Left => t.next_sibling(u).is_some_and(&in_src),
            Step::Right => t.prev_sibling(u).is_some_and(&in_src),
        };
        if hit {
            let off = u.index() - ids.start;
            words[off / 64] |= 1u64 << (off % 64);
        }
    }
}

/// Sequential pull image over an id range into a full-universe set
/// (reference form used by the property tests; the parallel driver uses
/// [`pull_image_words`] on disjoint sub-slices instead).
pub fn pull_image_range(t: &Tree, step: Step, src: &NodeSet, ids: Range<usize>, out: &mut NodeSet) {
    assert_eq!(out.universe(), t.len());
    let aligned = Range {
        start: ids.start,
        end: ids.end,
    };
    assert_eq!(aligned.start % 64, 0, "pull chunk must be word-aligned");
    let w0 = aligned.start / 64;
    let w1 = aligned.end.div_ceil(64);
    let words = &mut out.words_mut()[w0..w1];
    pull_image_words(t, step, |v| src.contains(v), aligned, words);
}

/// Sequential whole-universe reference image (push over everything).
pub fn axis_image_seq(t: &Tree, step: Step, src: &NodeSet) -> NodeSet {
    let mut out = NodeSet::empty(t.len());
    push_image_set_range(t, step, src, 0..t.len(), &mut out);
    out
}

/// Splits `0..universe` into at most `chunks` word-aligned id ranges of
/// near-equal length (the pull driver's partition: work is split by
/// node count, so every range covers `⌈universe/chunks⌉` ids rounded up
/// to a word boundary).
pub fn word_chunks(universe: usize, chunks: usize) -> Vec<Range<usize>> {
    if universe == 0 || chunks <= 1 {
        return std::iter::once(0..universe).collect();
    }
    let per = universe.div_ceil(chunks).div_ceil(64) * 64;
    let mut out = Vec::new();
    let mut start = 0;
    while start < universe {
        let end = (start + per).min(universe);
        out.push(start..end);
        start = end;
    }
    out
}

/// Splits a dense source into at most `chunks` id ranges carrying a
/// near-equal number of *set bits* (the push driver's partition for
/// dense frontiers: work is split by frontier node count, not by id
/// span). Ranges are word-aligned and cover the whole universe.
pub fn balanced_cuts(src: &NodeSet, chunks: usize) -> Vec<Range<usize>> {
    let n = src.universe();
    if n == 0 || chunks <= 1 {
        return std::iter::once(0..n).collect();
    }
    let total = src.count_ones();
    if total == 0 {
        return std::iter::once(0..n).collect();
    }
    let quota = total.div_ceil(chunks);
    let words = src.as_words();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (wi, w) in words.iter().enumerate() {
        acc += w.count_ones() as usize;
        let end = ((wi + 1) * 64).min(n);
        if acc >= quota && end < n {
            out.push(start..end);
            start = end;
            acc = 0;
        }
    }
    out.push(start..n);
    while out.len() > chunks {
        let tail = out.pop().expect("nonempty");
        out.last_mut().expect("nonempty").end = tail.end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_sexp;

    #[test]
    fn step_inverse_involutive() {
        for s in Step::ALL {
            assert_eq!(s.inverse().inverse(), s);
        }
    }

    #[test]
    fn push_equals_pull_on_a_small_doc() {
        let doc = parse_sexp("(a (b d e) (c f (g h)))").unwrap();
        let t = &doc.tree;
        let ids = [NodeId(0), NodeId(2), NodeId(5)];
        let src = NodeSet::from_iter(t.len(), ids);
        for step in Step::ALL {
            let push = axis_image_seq(t, step, &src);
            let mut pull = NodeSet::empty(t.len());
            pull_image_range(t, step, &src, 0..t.len(), &mut pull);
            assert_eq!(push, pull, "step {}", step.name());
            let mut from_ids = NodeSet::empty(t.len());
            push_image_ids(t, step, &ids, &mut from_ids);
            assert_eq!(push, from_ids, "step {}", step.name());
        }
    }

    #[test]
    fn word_chunks_cover_and_align() {
        for n in [0, 1, 63, 64, 65, 1000, 4096] {
            for k in [1, 2, 3, 8] {
                let ranges = word_chunks(n, k);
                assert_eq!(ranges.first().map(|r| r.start), Some(0));
                assert_eq!(ranges.last().map(|r| r.end), Some(n));
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert_eq!(w[0].end % 64, 0);
                }
            }
        }
    }

    #[test]
    fn balanced_cuts_cover() {
        let mut s = NodeSet::empty(1000);
        for i in (0..1000).step_by(3) {
            s.insert(NodeId(i as u32));
        }
        let cuts = balanced_cuts(&s, 4);
        assert_eq!(cuts.first().unwrap().start, 0);
        assert_eq!(cuts.last().unwrap().end, 1000);
        for w in cuts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!(w[0].end % 64, 0);
        }
        assert!(cuts.len() <= 4);
    }
}
