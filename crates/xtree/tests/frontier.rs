//! Seeded property suite for the push/pull step-image primitives (500
//! cases).
//!
//! On random trees, `push-image ≡ pull-image ≡ transpose-image` for all
//! four steps: the push kernels (from a dense source and from sorted
//! ids), the pull kernel and the [`BitMatrix`] step relation give
//! identical images, and the matrix of a step transposed equals the
//! matrix of its inverse. Trees are sized to cross the 64-id word
//! boundaries, and chunked pulls over word-aligned ranges must compose
//! to the whole-universe image.

use twx_xtree::frontier::{self, Step};
use twx_xtree::generate::{random_tree, Shape};
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{BitMatrix, NodeId, NodeSet, Tree};

const CASES: usize = 500;

/// A random subset of `0..n` where each id is kept with probability
/// `keep_num / 64` — drives cardinalities from near-empty to near-full.
fn random_set(n: usize, keep_num: u64, rng: &mut SplitMix64) -> NodeSet {
    NodeSet::from_iter(
        n,
        (0..n as u32)
            .filter(|_| rng.next_u64() % 64 < keep_num)
            .map(NodeId),
    )
}

/// The step relation as an explicit `BitMatrix` (the reference the
/// evaluators are pinned to).
fn step_matrix(t: &Tree, step: Step) -> BitMatrix {
    let mut m = BitMatrix::empty(t.len());
    for v in t.nodes() {
        match step {
            Step::Down => {
                let mut c = t.first_child(v);
                while let Some(u) = c {
                    m.set(v, u);
                    c = t.next_sibling(u);
                }
            }
            Step::Up => {
                if let Some(p) = t.parent(v) {
                    m.set(v, p);
                }
            }
            Step::Left => {
                if let Some(p) = t.prev_sibling(v) {
                    m.set(v, p);
                }
            }
            Step::Right => {
                if let Some(s) = t.next_sibling(v) {
                    m.set(v, s);
                }
            }
        }
    }
    m
}

#[test]
fn push_pull_transpose_images_agree_500_cases() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    const SHAPES: [Shape; 5] = [
        Shape::Recursive,
        Shape::Deep(2),
        Shape::Bounded(3),
        Shape::Wide,
        Shape::DocumentLike,
    ];
    for case in 0..CASES {
        let n = 1 + (case % 97) * 3; // 1..=289 nodes, word boundaries included
        let shape = SHAPES[case % SHAPES.len()];
        let t = random_tree(shape, n, 2, &mut rng);
        let step = Step::ALL[case % 4];
        let src = random_set(t.len(), rng.next_u64() % 65, &mut rng);

        let push = frontier::axis_image_seq(&t, step, &src);
        let mut from_ids = NodeSet::empty(t.len());
        frontier::push_image_ids(&t, step, &src.to_vec(), &mut from_ids);
        assert_eq!(
            push,
            from_ids,
            "case {case}: push ≡ push from ids ({})",
            step.name()
        );

        let mut pull = NodeSet::empty(t.len());
        frontier::pull_image_range(&t, step, &src, 0..t.len(), &mut pull);

        let matrix = step_matrix(&t, step);
        let via_matrix = matrix.image(&src);

        assert_eq!(push, pull, "case {case}: push ≡ pull ({})", step.name());
        assert_eq!(
            push,
            via_matrix,
            "case {case}: push ≡ matrix image ({})",
            step.name()
        );
        // transpose-image: R(step)ᵀ = R(step⁻¹), so the transposed
        // matrix image equals the inverse step's image
        let transposed = matrix.transpose().image(&src);
        let inverse = frontier::axis_image_seq(&t, step.inverse(), &src);
        assert_eq!(
            transposed,
            inverse,
            "case {case}: transpose ≡ inverse step ({})",
            step.name()
        );

        // chunked pull over word-aligned ranges composes to the whole
        let mut chunked = NodeSet::empty(t.len());
        for r in frontier::word_chunks(t.len(), 1 + case % 5) {
            frontier::pull_image_range(&t, step, &src, r, &mut chunked);
        }
        assert_eq!(push, chunked, "case {case}: chunked pull");
    }
}
