//! Arena representation of sibling-ordered labelled trees.
//!
//! Node ids are dense `u32` indices assigned in **document order**
//! (preorder): the root is node 0, and every node's id is smaller than the
//! ids of all nodes in its subtree and of all its following siblings'
//! subtrees. Several evaluators rely on this invariant (documented on
//! [`Tree`]); [`Tree::validate`] checks it.

use crate::alphabet::{Alphabet, Label};
use std::fmt;

/// A node identifier: a dense index into the tree arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

const NONE: u32 = u32::MAX;

#[inline]
fn opt(raw: u32) -> Option<NodeId> {
    if raw == NONE {
        None
    } else {
        Some(NodeId(raw))
    }
}

/// A finite sibling-ordered labelled tree.
///
/// Invariants:
/// * non-empty: there is always a root, node `0`;
/// * node ids are assigned in preorder (document order);
/// * the three link arrays are mutually consistent.
///
/// Links are stored struct-of-arrays for cache locality: a parent and
/// both sibling links per node. A first child is not stored, since in
/// preorder it is `v + 1` whenever that node's parent is `v`; navigation
/// accessors are O(1) except [`Tree::last_child`], which follows the
/// sibling chain. Depths are not stored either: [`Tree::depth`] walks
/// the parent links and [`Tree::depths`] computes them all in one pass.
#[derive(Clone, PartialEq, Eq)]
pub struct Tree {
    labels: Vec<Label>,
    parent: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
}

impl Tree {
    /// Creates a single-node tree.
    pub fn leaf(label: Label) -> Self {
        Tree {
            labels: vec![label],
            parent: vec![NONE],
            next_sib: vec![NONE],
            prev_sib: vec![NONE],
        }
    }

    pub(crate) fn from_parts(
        labels: Vec<Label>,
        parent: Vec<u32>,
        next_sib: Vec<u32>,
        prev_sib: Vec<u32>,
    ) -> Self {
        let t = Tree {
            labels,
            parent,
            next_sib,
            prev_sib,
        };
        debug_assert!(t.validate().is_ok(), "inconsistent tree arena");
        t
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Trees are never empty, but the method exists for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (always id 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The label of `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v.index()]
    }

    /// Every node's label, indexed by node id (document order).
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Overwrites the label of `v`. Crate-internal: the only structural
    /// mutation a `Tree` admits in place (everything else rebuilds), used
    /// by `edit::apply_edit` for `Relabel`.
    #[inline]
    pub(crate) fn set_label(&mut self, v: NodeId, l: Label) {
        self.labels[v.index()] = l;
    }

    /// The parent of `v`, if any.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        opt(self.parent[v.index()])
    }

    /// The first (leftmost) child of `v`, if any.
    #[inline]
    pub fn first_child(&self, v: NodeId) -> Option<NodeId> {
        let c = v.0 + 1;
        (self.parent.get(c as usize) == Some(&v.0)).then_some(NodeId(c))
    }

    /// The last (rightmost) child of `v`, if any — O(#children): the
    /// arena stores no last-child link, since the VM and the serving
    /// path never ask for one.
    pub fn last_child(&self, v: NodeId) -> Option<NodeId> {
        let mut c = self.first_child(v)?;
        while let Some(s) = self.next_sibling(c) {
            c = s;
        }
        Some(c)
    }

    /// The next sibling of `v` (the `→` axis), if any.
    #[inline]
    pub fn next_sibling(&self, v: NodeId) -> Option<NodeId> {
        opt(self.next_sib[v.index()])
    }

    /// The previous sibling of `v` (the `←` axis), if any.
    #[inline]
    pub fn prev_sibling(&self, v: NodeId) -> Option<NodeId> {
        opt(self.prev_sib[v.index()])
    }

    /// Depth of `v` (root has depth 0) — O(depth), by walking up.
    pub fn depth(&self, v: NodeId) -> u32 {
        let mut d = 0;
        let mut u = v;
        while let Some(p) = self.parent(u) {
            d += 1;
            u = p;
        }
        d
    }

    /// The depth of every node, indexed by node id, in one pass (a
    /// parent's id is smaller than its children's).
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.len()];
        for i in 1..self.len() {
            depth[i] = depth[self.parent[i] as usize] + 1;
        }
        depth
    }

    /// Whether `v` is the root.
    #[inline]
    pub fn is_root(&self, v: NodeId) -> bool {
        self.parent[v.index()] == NONE
    }

    /// Whether `v` has no children.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.first_child(v).is_none()
    }

    /// Whether `v` is a first child (or the root).
    #[inline]
    pub fn is_first_sibling(&self, v: NodeId) -> bool {
        self.prev_sib[v.index()] == NONE
    }

    /// Whether `v` is a last child (or the root).
    #[inline]
    pub fn is_last_sibling(&self, v: NodeId) -> bool {
        self.next_sib[v.index()] == NONE
    }

    /// Iterates over all nodes in document order.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// Number of children of `v` (O(#children)).
    pub fn arity(&self, v: NodeId) -> usize {
        let mut n = 0;
        let mut c = self.first_child(v);
        while let Some(u) = c {
            n += 1;
            c = self.next_sibling(u);
        }
        n
    }

    /// The maximum id in the subtree rooted at `v` **plus one**; because ids
    /// are preorder, the subtree of `v` is exactly `v.0 .. subtree_end(v)`.
    pub fn subtree_end(&self, v: NodeId) -> u32 {
        // Walk up from v until a node with a next sibling is found; the
        // subtree ends right before that sibling, or at len() at the root.
        let mut u = v;
        loop {
            if let Some(s) = self.next_sibling(u) {
                return s.0;
            }
            match self.parent(u) {
                Some(p) => u = p,
                None => return self.len() as u32,
            }
        }
    }

    /// Whether `anc` is an ancestor of `v` (strict) — O(depth).
    pub fn is_ancestor(&self, anc: NodeId, v: NodeId) -> bool {
        let mut u = self.parent(v);
        while let Some(w) = u {
            if w == anc {
                return true;
            }
            u = self.parent(w);
        }
        false
    }

    /// Extracts the subtree rooted at `v` as a fresh tree (node ids are
    /// renumbered in preorder). Used by the `W` (within) operator.
    pub fn subtree(&self, v: NodeId) -> Tree {
        let start = v.0;
        let end = self.subtree_end(v);
        let n = (end - start) as usize;
        let remap = |raw: u32| -> u32 {
            if raw == NONE || raw < start || raw >= end {
                NONE
            } else {
                raw - start
            }
        };
        let mut labels = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut next_sib = Vec::with_capacity(n);
        let mut prev_sib = Vec::with_capacity(n);
        for i in start..end {
            let i = i as usize;
            labels.push(self.labels[i]);
            parent.push(remap(self.parent[i]));
            // Siblings of v itself are outside the subtree; remap handles it.
            next_sib.push(remap(self.next_sib[i]));
            prev_sib.push(remap(self.prev_sib[i]));
        }
        Tree::from_parts(labels, parent, next_sib, prev_sib)
    }

    /// Checks all arena invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if n == 0 {
            return Err("empty tree".into());
        }
        let arrays = [
            ("parent", &self.parent),
            ("next_sib", &self.next_sib),
            ("prev_sib", &self.prev_sib),
        ];
        for (name, arr) in arrays {
            if arr.len() != n {
                return Err(format!("{name} length {} != {n}", arr.len()));
            }
            for (i, &x) in arr.iter().enumerate() {
                if x != NONE && x as usize >= n {
                    return Err(format!("{name}[{i}] = {x} out of range"));
                }
            }
        }
        if self.parent[0] != NONE {
            return Err("node 0 is not a root".into());
        }
        for i in 1..n {
            if self.parent[i] == NONE {
                return Err(format!("node {i} has no parent (forest?)"));
            }
        }
        for v in self.nodes() {
            // preorder: parent < child, prev_sib < node < next_sib
            if let Some(p) = self.parent(v) {
                if p.0 >= v.0 {
                    return Err(format!("parent {p:?} >= child {v:?} (not preorder)"));
                }
            }
            // preorder: a child without a previous sibling is its
            // parent's first, `parent + 1`, and the first child of a node
            // has no previous sibling; so every child is on its parent's
            // sibling chain
            if let Some(p) = self.parent(v) {
                if self.is_first_sibling(v) != (v.0 == p.0 + 1) {
                    return Err(format!(
                        "{v:?}: first child is not parent + 1 (not preorder)"
                    ));
                }
            }
            if let Some(s) = self.next_sibling(v) {
                if self.prev_sibling(s) != Some(v) {
                    return Err(format!("sibling links broken at {v:?}"));
                }
                if self.parent(s) != self.parent(v) {
                    return Err(format!("siblings {v:?},{s:?} have different parents"));
                }
                if s.0 != self.subtree_end(v) {
                    return Err(format!(
                        "next sibling of {v:?} is not subtree_end (not preorder)"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tree({} nodes)", self.len())
    }
}

/// A tree bundled with the alphabet its labels were interned in —
/// the convenient unit for parsing and printing documents.
#[derive(Clone, Debug)]
pub struct Document {
    /// The tree structure.
    pub tree: Tree,
    /// The label space of `tree` (and of queries run against it).
    pub alphabet: Alphabet,
}

impl Document {
    /// Bundles a tree with its alphabet.
    pub fn new(tree: Tree, alphabet: Alphabet) -> Self {
        Document { tree, alphabet }
    }

    /// The name of the label of `v`.
    pub fn label_name(&self, v: NodeId) -> &str {
        self.alphabet.name(self.tree.label(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    fn sample() -> Tree {
        // (a (b (d) (e)) (c))
        let mut b = TreeBuilder::new();
        b.open(Label(0));
        b.open(Label(1));
        b.open(Label(3));
        b.close();
        b.open(Label(4));
        b.close();
        b.close();
        b.open(Label(2));
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn navigation() {
        let t = sample();
        assert_eq!(t.len(), 5);
        let root = t.root();
        assert!(t.is_root(root));
        let b = t.first_child(root).unwrap();
        assert_eq!(t.label(b), Label(1));
        let c = t.next_sibling(b).unwrap();
        assert_eq!(t.label(c), Label(2));
        assert_eq!(t.last_child(root), Some(c));
        assert_eq!(t.prev_sibling(c), Some(b));
        assert!(t.is_leaf(c));
        assert!(t.is_last_sibling(c));
        assert!(t.is_first_sibling(b));
        let d = t.first_child(b).unwrap();
        assert_eq!(t.depth(d), 2);
        let depths: Vec<u32> = t.nodes().map(|v| t.depth(v)).collect();
        assert_eq!(t.depths(), depths);
        assert_eq!(depths, [0, 1, 2, 2, 1]);
        assert!(t.is_ancestor(root, d));
        assert!(t.is_ancestor(b, d));
        assert!(!t.is_ancestor(c, d));
        assert!(!t.is_ancestor(d, d));
    }

    #[test]
    fn subtree_ranges() {
        let t = sample();
        let b = t.first_child(t.root()).unwrap();
        assert_eq!(t.subtree_end(b), 4);
        assert_eq!(t.subtree_end(t.root()), 5);
        let sub = t.subtree(b);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.label(sub.root()), Label(1));
        assert!(sub.validate().is_ok());
        assert_eq!(sub.arity(sub.root()), 2);
    }

    #[test]
    fn arity_counts_children() {
        let t = sample();
        assert_eq!(t.arity(t.root()), 2);
        let b = t.first_child(t.root()).unwrap();
        assert_eq!(t.arity(b), 2);
        let c = t.last_child(t.root()).unwrap();
        assert_eq!(t.arity(c), 0);
    }

    #[test]
    fn validate_accepts_leaf() {
        assert!(Tree::leaf(Label(7)).validate().is_ok());
    }
}
