//! Tree shape statistics (used by the benchmark harness to report workload
//! characteristics alongside timings).

use crate::tree::Tree;

/// Summary statistics of a tree's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Maximum depth (root = 0).
    pub max_depth: u32,
    /// Average depth over all nodes.
    pub avg_depth: f64,
    /// Maximum number of children of any node.
    pub max_arity: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Number of distinct labels that occur.
    pub distinct_labels: usize,
}

/// Computes [`TreeStats`] in one pass.
pub fn stats(t: &Tree) -> TreeStats {
    let mut max_depth = 0;
    let mut depth_sum = 0u64;
    let mut leaves = 0;
    let mut max_arity = 0;
    let mut labels_seen = std::collections::HashSet::new();
    let depths = t.depths();
    for v in t.nodes() {
        let d = depths[v.index()];
        max_depth = max_depth.max(d);
        depth_sum += d as u64;
        if t.is_leaf(v) {
            leaves += 1;
        } else {
            max_arity = max_arity.max(t.arity(v));
        }
        labels_seen.insert(t.label(v));
    }
    TreeStats {
        nodes: t.len(),
        max_depth,
        avg_depth: depth_sum as f64 / t.len() as f64,
        max_arity,
        leaves,
        distinct_labels: labels_seen.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{chain, star};
    use crate::parse::parse_sexp;
    use crate::Label;

    #[test]
    fn chain_stats() {
        let s = stats(&chain(5, Label(0)));
        assert_eq!(s.nodes, 5);
        assert_eq!(s.max_depth, 4);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.max_arity, 1);
        assert_eq!(s.distinct_labels, 1);
    }

    #[test]
    fn star_stats() {
        let s = stats(&star(6, Label(0)));
        assert_eq!(s.max_depth, 1);
        assert_eq!(s.leaves, 5);
        assert_eq!(s.max_arity, 5);
    }

    #[test]
    fn mixed_stats() {
        let doc = parse_sexp("(a (b d e) c)").unwrap();
        let s = stats(&doc.tree);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.leaves, 3);
        assert_eq!(s.distinct_labels, 5);
        assert!((s.avg_depth - 6.0 / 5.0).abs() < 1e-12);
    }
}
