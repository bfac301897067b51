//! Tree workload generators.
//!
//! Six random families (chosen to stress different axes of evaluators:
//! depth, width, balance, label skew) plus an exhaustive enumerator of all
//! labelled ordered trees of a given size — the bounded domains over which
//! the equivalence theorems are validated.

use crate::alphabet::Label;
use crate::builder::TreeBuilder;
use crate::rng::Rng;
use crate::tree::Tree;

/// A random-tree workload family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Uniform random recursive tree: each new node attaches to a uniformly
    /// random existing node. Expected depth O(log n); arbitrary arity.
    Recursive,
    /// Each new node attaches to a node chosen among the most recent `w`
    /// nodes, giving depth ~ n / w. `Deep(1)` is a chain.
    Deep(u32),
    /// Arity bounded by `b`; attachment points are nodes with spare arity,
    /// chosen uniformly. `Bounded(2)` gives binary-ish trees.
    Bounded(u32),
    /// Wide: root-heavy, most nodes are shallow (depth ≤ 2).
    Wide,
    /// Document-like: depth bounded around 8, arity geometric, label
    /// distribution Zipf-skewed — mimics real XML.
    DocumentLike,
}

/// Generates a random tree with exactly `n` nodes over `k` labels.
///
/// Labels are uniform except for [`Shape::DocumentLike`], which uses a
/// Zipf(1) skew.
pub fn random_tree<R: Rng>(shape: Shape, n: usize, k: usize, rng: &mut R) -> Tree {
    assert!(n > 0 && k > 0);
    // Choose a parent (index < i) for each node i, per the shape.
    let mut parents = vec![0u32; n];
    match shape {
        Shape::Recursive => {
            for (i, p) in parents.iter_mut().enumerate().skip(1) {
                *p = rng.gen_range(0..i) as u32;
            }
        }
        Shape::Deep(w) => {
            let w = w.max(1) as usize;
            for (i, p) in parents.iter_mut().enumerate().skip(1) {
                let lo = i.saturating_sub(w);
                *p = rng.gen_range(lo..i) as u32;
            }
        }
        Shape::Bounded(b) => {
            let b = b.max(1);
            let mut arity = vec![0u32; n];
            let mut open: Vec<u32> = vec![0];
            for (i, p) in parents.iter_mut().enumerate().skip(1) {
                let idx = rng.gen_range(0..open.len());
                let par = open[idx];
                *p = par;
                arity[par as usize] += 1;
                if arity[par as usize] >= b {
                    open.swap_remove(idx);
                }
                open.push(i as u32);
            }
        }
        Shape::Wide => {
            for (i, p) in parents.iter_mut().enumerate().skip(1) {
                // 70% attach to root, else to a random shallow node
                *p = if rng.gen_bool(0.7) {
                    0
                } else {
                    rng.gen_range(0..i) as u32
                };
            }
        }
        Shape::DocumentLike => {
            let mut depth = vec![0u32; n];
            #[allow(clippy::needless_range_loop)]
            for i in 1..n {
                // geometric walk down from a random recent node, capped depth
                let mut p = rng.gen_range(0..i) as u32;
                while depth[p as usize] >= 8 {
                    p = parents[p as usize];
                }
                parents[i] = p;
                depth[i] = depth[p as usize] + 1;
            }
        }
    }

    // Label distribution.
    let labels: Vec<Label> = if matches!(shape, Shape::DocumentLike) {
        let weights: Vec<f64> = (1..=k).map(|r| 1.0 / r as f64).collect();
        (0..n)
            .map(|_| Label(rng.gen_weighted(&weights) as u32))
            .collect()
    } else {
        (0..n).map(|_| Label(rng.gen_range(0..k) as u32)).collect()
    };

    from_parent_vec(&parents, &labels)
}

/// Generates a random [`Document`](crate::Document) whose labels live in
/// a shared [`Catalog`](crate::Catalog): the tree draws from every label
/// currently interned, and the document carries a catalog snapshot, so
/// query plans compiled against the catalog serve every document
/// generated from it.
///
/// # Panics
/// If the catalog is empty (there would be no labels to draw from).
pub fn random_document_in<R: Rng>(
    shape: Shape,
    n: usize,
    catalog: &crate::Catalog,
    rng: &mut R,
) -> crate::Document {
    let k = catalog.len();
    assert!(k > 0, "cannot generate from an empty catalog");
    let tree = random_tree(shape, n, k, rng);
    crate::Document::new(tree, catalog.snapshot())
}

/// Builds a tree from a parent vector (`parents[0]` ignored; `parents[i] <
/// i`), with children ordered by id.
pub fn from_parent_vec(parents: &[u32], labels: &[Label]) -> Tree {
    let n = parents.len();
    assert_eq!(labels.len(), n);
    // children grouped by parent in one flat array (counting sort), so a
    // large document needs two `u32` columns here, not a `Vec` per node
    let mut start = vec![0u32; n + 1];
    for (i, &p) in parents.iter().enumerate().skip(1) {
        assert!((p as usize) < i, "parent vector not topologically ordered");
        start[p as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut children = vec![0u32; n.saturating_sub(1)];
    let mut next = start.clone();
    for (i, &p) in parents.iter().enumerate().skip(1) {
        children[next[p as usize] as usize] = i as u32;
        next[p as usize] += 1;
    }
    // freed before the builder allocates the tree's columns
    drop(next);
    let mut b = TreeBuilder::with_capacity(n);
    // iterative DFS emitting open/close events
    enum Ev {
        Open(u32),
        Close,
    }
    let mut stack = vec![Ev::Open(0)];
    while let Some(ev) = stack.pop() {
        match ev {
            Ev::Open(v) => {
                b.open(labels[v as usize]);
                stack.push(Ev::Close);
                let (lo, hi) = (start[v as usize] as usize, start[v as usize + 1] as usize);
                for &c in children[lo..hi].iter().rev() {
                    stack.push(Ev::Open(c));
                }
            }
            Ev::Close => b.close(),
        }
    }
    b.finish()
}

/// Enumerates **all** ordered trees with exactly `n` nodes, each node
/// labelled from `0..k` — the bounded domain for exhaustive theorem
/// validation. The count is `Catalan(n-1) · k^n`; keep `n ≤ 6`, `k ≤ 2`.
pub fn enumerate_trees(n: usize, k: usize) -> Vec<Tree> {
    assert!(n > 0 && k > 0);
    let shapes = enumerate_shapes(n);
    let mut out = Vec::new();
    for shape in &shapes {
        let mut labels = vec![Label(0); n];
        loop {
            out.push(from_parent_vec(shape, &labels));
            // increment the label vector in base k
            let mut i = 0;
            loop {
                if i == n {
                    break;
                }
                if labels[i].0 as usize + 1 < k {
                    labels[i].0 += 1;
                    break;
                }
                labels[i] = Label(0);
                i += 1;
            }
            if i == n {
                break;
            }
        }
    }
    out
}

/// Enumerates all trees with **at most** `n` nodes over `k` labels.
pub fn enumerate_trees_up_to(n: usize, k: usize) -> Vec<Tree> {
    (1..=n).flat_map(|m| enumerate_trees(m, k)).collect()
}

/// Enumerates the parent vectors of all ordered tree shapes with `n` nodes
/// (preorder numbering; children of equal parents appear in id order, and a
/// parent vector is a valid preorder shape iff each `parents[i]` lies on
/// the rightmost path of the partial tree over `0..i`).
fn enumerate_shapes(n: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut shape = vec![0u32; n];
    // rightmost path as a stack of candidate parents
    fn rec(i: usize, n: usize, shape: &mut Vec<u32>, path: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if i == n {
            out.push(shape.clone());
            return;
        }
        // node i may attach to any node on the current rightmost path
        for pi in 0..path.len() {
            let p = path[pi];
            shape[i] = p;
            let saved: Vec<u32> = path.drain(pi + 1..).collect();
            path.push(i as u32);
            rec(i + 1, n, shape, path, out);
            path.pop();
            path.extend(saved);
        }
    }
    if n == 1 {
        return vec![vec![0]];
    }
    let mut path = vec![0u32];
    rec(1, n, &mut shape, &mut path, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64 as StdRng;

    #[test]
    fn shapes_count_is_catalan() {
        // number of ordered trees with n nodes = Catalan(n-1): 1,1,2,5,14,42
        let catalan = [1usize, 1, 2, 5, 14, 42];
        for (i, &c) in catalan.iter().enumerate() {
            assert_eq!(enumerate_shapes(i + 1).len(), c, "n={}", i + 1);
        }
    }

    #[test]
    fn enumerate_counts() {
        assert_eq!(enumerate_trees(1, 2).len(), 2);
        assert_eq!(enumerate_trees(2, 2).len(), 4);
        assert_eq!(enumerate_trees(3, 2).len(), 16);
        assert_eq!(enumerate_trees(4, 1).len(), 5);
        assert_eq!(enumerate_trees_up_to(3, 1).len(), 1 + 1 + 2);
    }

    #[test]
    fn enumerated_trees_distinct_and_valid() {
        let trees = enumerate_trees(4, 2);
        assert_eq!(trees.len(), 5 * 16);
        for t in &trees {
            assert!(t.validate().is_ok());
            assert_eq!(t.len(), 4);
        }
        for i in 0..trees.len() {
            for j in i + 1..trees.len() {
                assert_ne!(trees[i], trees[j], "duplicate trees at {i},{j}");
            }
        }
    }

    #[test]
    fn random_documents_share_the_catalog_space() {
        let catalog = crate::Catalog::from_names(["p0", "p1", "p2"]);
        let mut rng = StdRng::seed_from_u64(7);
        let d1 = random_document_in(Shape::DocumentLike, 50, &catalog, &mut rng);
        let d2 = random_document_in(Shape::Wide, 50, &catalog, &mut rng);
        for d in [&d1, &d2] {
            assert!(d.tree.validate().is_ok());
            for v in d.tree.nodes() {
                assert!(d.tree.label(v).index() < catalog.len());
            }
        }
        assert_eq!(d1.alphabet.lookup("p1"), d2.alphabet.lookup("p1"));
    }

    #[test]
    fn random_trees_valid() {
        let mut rng = StdRng::seed_from_u64(42);
        for shape in [
            Shape::Recursive,
            Shape::Deep(1),
            Shape::Deep(4),
            Shape::Bounded(2),
            Shape::Wide,
            Shape::DocumentLike,
        ] {
            for &n in &[1usize, 2, 17, 100] {
                let t = random_tree(shape, n, 3, &mut rng);
                assert_eq!(t.len(), n);
                assert!(t.validate().is_ok(), "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn deep_one_is_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = random_tree(Shape::Deep(1), 50, 2, &mut rng);
        assert_eq!(t.depth(crate::NodeId(49)), 49);
    }

    #[test]
    fn document_like_depth_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = random_tree(Shape::DocumentLike, 500, 5, &mut rng);
        let max_depth = t.nodes().map(|v| t.depth(v)).max().unwrap();
        assert!(max_depth <= 9, "depth {max_depth}");
    }
}
