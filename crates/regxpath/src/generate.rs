//! Random Regular XPath(W) expression generators.

use crate::ast::{Axis, RNode, RPath};
use twx_xtree::rng::Rng;
use twx_xtree::Label;

/// Configuration for random generation.
#[derive(Clone, Debug)]
pub struct RGenConfig {
    /// Axes allowed.
    pub axes: Vec<Axis>,
    /// Number of labels.
    pub labels: usize,
    /// Whether `*` may appear.
    pub stars: bool,
    /// Whether `W` may appear.
    pub within: bool,
}

impl Default for RGenConfig {
    fn default() -> Self {
        RGenConfig {
            axes: Axis::ALL.to_vec(),
            labels: 2,
            stars: true,
            within: true,
        }
    }
}

/// Generates a random path expression with recursion budget `depth`.
pub fn random_rpath<R: Rng>(cfg: &RGenConfig, depth: usize, rng: &mut R) -> RPath {
    if depth == 0 {
        return match rng.gen_range(0..4) {
            0 => RPath::Eps,
            _ => RPath::Axis(cfg.axes[rng.gen_range(0..cfg.axes.len())]),
        };
    }
    match rng.gen_range(0..10) {
        0 | 1 => RPath::Axis(cfg.axes[rng.gen_range(0..cfg.axes.len())]),
        2 => RPath::Eps,
        3 => RPath::test(random_rnode(cfg, depth - 1, rng)),
        4 | 5 => random_rpath(cfg, depth - 1, rng).seq(random_rpath(cfg, depth - 1, rng)),
        6 => random_rpath(cfg, depth - 1, rng).union(random_rpath(cfg, depth - 1, rng)),
        7 if cfg.stars => random_rpath(&star_body_config(cfg, rng), depth - 1, rng).star(),
        _ => random_rpath(cfg, depth - 1, rng).filter(random_rnode(cfg, depth - 1, rng)),
    }
}

/// A star body's configuration: with equal odds all of `cfg`'s axes, its
/// forward ones (`down`, `right`) or its backward ones (`up`, `left`), so
/// stars the VM runs as one-way passes are drawn on purpose, not only by
/// chance.
fn star_body_config<R: Rng>(cfg: &RGenConfig, rng: &mut R) -> RGenConfig {
    let forward = |a: &Axis| matches!(a, Axis::Down | Axis::Right);
    let axes: Vec<Axis> = match rng.gen_range(0..3) {
        0 => cfg.axes.clone(),
        1 => cfg.axes.iter().copied().filter(forward).collect(),
        _ => cfg.axes.iter().copied().filter(|a| !forward(a)).collect(),
    };
    RGenConfig {
        axes: if axes.is_empty() {
            cfg.axes.clone()
        } else {
            axes
        },
        ..cfg.clone()
    }
}

/// Generates a random node expression with recursion budget `depth`.
pub fn random_rnode<R: Rng>(cfg: &RGenConfig, depth: usize, rng: &mut R) -> RNode {
    if depth == 0 {
        return match rng.gen_range(0..3) {
            0 => RNode::True,
            _ => RNode::Label(Label(rng.gen_range(0..cfg.labels) as u32)),
        };
    }
    match rng.gen_range(0..9) {
        0 => RNode::True,
        1 | 2 => RNode::Label(Label(rng.gen_range(0..cfg.labels) as u32)),
        3 | 4 => RNode::some(random_rpath(cfg, depth - 1, rng)),
        5 => random_rnode(cfg, depth - 1, rng).not(),
        6 => random_rnode(cfg, depth - 1, rng).and(random_rnode(cfg, depth - 1, rng)),
        7 => random_rnode(cfg, depth - 1, rng).or(random_rnode(cfg, depth - 1, rng)),
        _ if cfg.within => random_rnode(cfg, depth - 1, rng).within(),
        _ => random_rnode(cfg, depth - 1, rng).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_xtree::rng::SplitMix64 as StdRng;

    #[test]
    fn respects_flags() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RGenConfig {
            stars: false,
            within: false,
            ..RGenConfig::default()
        };
        for _ in 0..100 {
            let p = random_rpath(&cfg, 5, &mut rng);
            assert_eq!(p.star_height(), 0, "{p:?}");
            assert!(!p.uses_within());
            let f = random_rnode(&cfg, 5, &mut rng);
            assert!(!f.uses_within(), "{f:?}");
        }
    }

    #[test]
    fn produces_varied_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = RGenConfig::default();
        let sizes: Vec<usize> = (0..50)
            .map(|_| random_rpath(&cfg, 5, &mut rng).size())
            .collect();
        assert!(sizes.iter().any(|&s| s > 5));
        assert!(sizes.iter().any(|&s| s <= 3));
    }
}
