//! SAX-style tree construction.
//!
//! [`TreeBuilder`] assigns node ids in the order nodes are opened, which is
//! exactly preorder — establishing the document-order invariant of
//! [`Tree`] by construction.

use crate::alphabet::Label;
use crate::tree::Tree;

const NONE: u32 = u32::MAX;

/// Incremental builder: `open(label)` starts a node (as the next child of
/// the currently open node), `close()` ends it.
///
/// ```
/// use twx_xtree::{TreeBuilder, Label};
/// let mut b = TreeBuilder::new();
/// b.open(Label(0));       // root
/// b.open(Label(1)); b.close();
/// b.open(Label(2)); b.close();
/// b.close();
/// let t = b.finish();
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.arity(t.root()), 2);
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    labels: Vec<Label>,
    parent: Vec<u32>,
    /// Each open node's latest child, to link the next one to (not kept
    /// by the finished tree).
    last_child: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
    stack: Vec<u32>,
    done: bool,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        TreeBuilder {
            labels: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            last_child: Vec::with_capacity(n),
            next_sib: Vec::with_capacity(n),
            prev_sib: Vec::with_capacity(n),
            stack: Vec::new(),
            done: false,
        }
    }

    /// Opens a new node labelled `label` as the next child of the innermost
    /// open node (or as the root if none is open).
    ///
    /// # Panics
    /// If the root has already been closed.
    pub fn open(&mut self, label: Label) -> u32 {
        assert!(!self.done, "root already closed");
        let id = self.labels.len() as u32;
        let par = match self.stack.last() {
            Some(&p) => p,
            None => {
                assert!(self.labels.is_empty(), "second root opened");
                NONE
            }
        };
        self.labels.push(label);
        self.parent.push(par);
        self.last_child.push(NONE);
        self.next_sib.push(NONE);
        if par != NONE {
            let prev = self.last_child[par as usize];
            self.prev_sib.push(prev);
            if prev != NONE {
                self.next_sib[prev as usize] = id;
            }
            self.last_child[par as usize] = id;
        } else {
            self.prev_sib.push(NONE);
        }
        self.stack.push(id);
        id
    }

    /// Closes the innermost open node.
    ///
    /// # Panics
    /// If no node is open.
    pub fn close(&mut self) {
        self.stack.pop().expect("close() without open()");
        if self.stack.is_empty() {
            self.done = true;
        }
    }

    /// Convenience: a leaf child (`open` + `close`).
    pub fn leaf(&mut self, label: Label) -> u32 {
        let id = self.open(label);
        self.close();
        id
    }

    /// Number of nodes opened so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether nothing has been opened yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Finishes the build.
    ///
    /// # Panics
    /// If no node was ever opened or some node is still open.
    pub fn finish(self) -> Tree {
        assert!(!self.labels.is_empty(), "finish() on empty builder");
        assert!(
            self.stack.is_empty(),
            "finish() with {} unclosed node(s)",
            self.stack.len()
        );
        Tree::from_parts(self.labels, self.parent, self.next_sib, self.prev_sib)
    }
}

/// Builds a chain (unary tree) of `n` nodes all labelled `label`.
pub fn chain(n: usize, label: Label) -> Tree {
    assert!(n > 0);
    let mut b = TreeBuilder::with_capacity(n);
    for _ in 0..n {
        b.open(label);
    }
    for _ in 0..n {
        b.close();
    }
    b.finish()
}

/// Builds a star: a root with `n - 1` leaf children, all labelled `label`.
pub fn star(n: usize, label: Label) -> Tree {
    assert!(n > 0);
    let mut b = TreeBuilder::with_capacity(n);
    b.open(label);
    for _ in 1..n {
        b.leaf(label);
    }
    b.close();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preorder_ids() {
        let mut b = TreeBuilder::new();
        let r = b.open(Label(0));
        let x = b.open(Label(1));
        let y = b.open(Label(2));
        b.close();
        b.close();
        let z = b.open(Label(3));
        b.close();
        b.close();
        assert_eq!((r, x, y, z), (0, 1, 2, 3));
        let t = b.finish();
        assert!(t.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "root already closed")]
    fn rejects_forest() {
        let mut b = TreeBuilder::new();
        b.open(Label(0));
        b.close();
        b.open(Label(1));
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn rejects_unclosed() {
        let mut b = TreeBuilder::new();
        b.open(Label(0));
        b.finish();
    }

    #[test]
    fn chain_and_star() {
        let c = chain(5, Label(0));
        assert_eq!(c.len(), 5);
        assert_eq!(c.depth(crate::NodeId(4)), 4);
        assert!(c.validate().is_ok());
        let s = star(5, Label(0));
        assert_eq!(s.arity(s.root()), 4);
        assert!(s.validate().is_ok());
    }
}
