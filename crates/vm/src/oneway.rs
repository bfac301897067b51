//! One-way closures: the star of a body whose axis steps all move
//! forward in document order (`down`, `right`) or all move backward
//! (`up`, `left`), run as one pass of the star's walking automaton.
//!
//! The automaton is the star's Thompson NFA (`twx_regxpath::nfa`, the
//! one the product reference runs), ε-closed at compile time. A state
//! set is a `u64` mask over the states that matter after ε-closure:
//! those with a move or a test leaving them, plus the accepting state.
//! Stars nested inside the body are part of the same NFA. Node tests
//! read the hoisted test registers, so a test edge costs one bit probe.
//!
//! Every move of a forward body leads to a larger preorder id, so one
//! preorder pass computes, for each node `v`, the states some walk from
//! a source reaches `v` in:
//!
//! ```text
//! states(v) = close_v( start        if v ∈ S
//!                    ∪ δ_down(states(parent v))
//!                    ∪ δ_right(states(prev_sibling v)) )
//! ```
//!
//! where `close_v` follows the test edges that hold at `v`. The answer
//! is every node whose mask holds the accepting state. A backward body
//! runs the mirror pass in reverse preorder (`δ_up` from every child,
//! `δ_left` from the next sibling).
//!
//! Both passes keep their masks in an arena buffer of one mask per node
//! (two, forward, when the body has a `right` step) — a byte each for
//! automata of at most 8 states, a `u64` for larger ones — that is all
//! zero between passes, so a pass clears only what it wrote. Both skip
//! what no walk reaches:
//!
//! * **forward** — the pass sweeps preorder from the first source. A
//!   node pulls `δ_down` of its parent's states and `δ_right` of its
//!   previous sibling's, stores its own, and notes its next sibling on
//!   a stack when something flows into it. After a node that hands its
//!   children nothing (or a dead leaf), everything up to the nearest
//!   noted node or source is dead: the noted nodes past it are next
//!   siblings of its ancestors, nearer the later they were noted, and
//!   the nodes in between get nothing from a parent or sibling. So the
//!   sweep jumps there, and stops when neither is left. The runs it
//!   swept are cleared at the end;
//! * **backward** — the pass goes down the ids from the last source. A
//!   node pushes `δ_up` into its parent and `δ_left` into its previous
//!   sibling, and is cleared when visited. The next node is the one
//!   just below when that one holds a push or is a source. Otherwise
//!   the subtrees in between get nothing, and the pass jumps to the
//!   next source or toward the nearest node holding a push (the
//!   previous sibling it pushed into, or else the parent), and stops
//!   when no source or push is left.
//!
//! A pass so costs O(n/64) word operations plus O(1) amortized per node
//! it visits, whatever the tree's height. It visits the sources, the
//! nodes a walk reaches, and next to those the first node of each
//! stretch it skips, and (backward) the ancestors on the way to a node
//! holding a push. Each automaton shape (with or without a sibling
//! step, with or without tests) and mask width gets its own copy of the
//! loop.

use crate::Reg;
use twx_regxpath::ast::{Axis, RNode, RPath};
use twx_regxpath::nfa::{self, MoveLabel};
use twx_xtree::{NodeId, NodeSet, Tree};

/// The most automaton states a pass holds in its `u64` masks; a star
/// whose automaton needs more runs in rounds.
pub const MAX_STATES: usize = 64;

/// The compiled automaton of a one-way star: ε-closed successor tables
/// and test edges over a mask of at most [`MAX_STATES`] states.
#[derive(Clone, Debug)]
pub struct OneWay {
    /// Preorder pass (`down`/`right`) or reverse preorder (`up`/`left`).
    forward: bool,
    /// The ε-closure of the start state.
    start: u64,
    /// The accepting state.
    accept: u64,
    /// Number of states in the masks.
    n_states: usize,
    /// Test edges `(from state, test register, ε-closed target)`.
    tests: Vec<(u64, Reg, u64)>,
    /// Every state a test edge leaves.
    test_from: u64,
    /// The ε-closed successors under the parent–child axis (`down`
    /// forward, `up` backward) and the sibling axis (`right` forward,
    /// `left` backward), as byte-indexed tables (see [`table`]); empty
    /// when the axis has no edge.
    vert_tab: Vec<u64>,
    horiz_tab: Vec<u64>,
}

/// The buffers a pass reuses from one evaluation to the next.
#[derive(Default)]
pub(crate) struct Scratch {
    /// State masks, one per node (two forward, when the body has a
    /// `right` step), all zero between passes: a byte each for automata
    /// of at most 8 states, a word each for larger ones.
    narrow: Vec<u8>,
    wide: Vec<u64>,
    sweep: Sweep,
}

/// The forward pass's bookkeeping.
#[derive(Default)]
struct Sweep {
    /// The runs of consecutive nodes the pass visited.
    runs: Vec<(u32, u32)>,
    /// The next siblings that something flows into, in the order they
    /// were found (one slot per node).
    waiting: Vec<u32>,
}

impl OneWay {
    /// The automaton of `body*` — of its converse `(body⁻¹)*` with
    /// `converse`, for preimages — or `None` when the body moves both
    /// ways or the automaton needs more than [`MAX_STATES`] states.
    /// `test_reg` is asked for the register of each node test only once
    /// the star is known to qualify.
    pub(crate) fn compile(
        body: &RPath,
        converse: bool,
        test_reg: impl FnMut(&RNode) -> Reg,
    ) -> Option<OneWay> {
        let star = nfa::compile(&RPath::Star(Box::new(body.clone())));
        let (mut start, mut accept) = (star.nfa.start as usize, star.nfa.accept as usize);
        let mut edges = star.nfa.transitions;
        if converse {
            // the reversed automaton accepts the converse relation
            for e in &mut edges {
                let label = match e.1 {
                    MoveLabel::Axis(a) => MoveLabel::Axis(a.inverse()),
                    other => other,
                };
                *e = (e.2, label, e.0);
            }
            std::mem::swap(&mut start, &mut accept);
        }
        let axes = || {
            edges.iter().filter_map(|e| match e.1 {
                MoveLabel::Axis(a) => Some(a),
                _ => None,
            })
        };
        let forward = axes().all(|a| matches!(a, Axis::Down | Axis::Right));
        if !forward && !axes().all(|a| matches!(a, Axis::Up | Axis::Left)) {
            return None;
        }
        // the states a mask holds: where a move or test starts, and accept
        let n = star.nfa.n_states as usize;
        let mut bit = vec![None; n];
        let mut k = 0;
        let kept = edges.iter().filter(|e| e.1 != MoveLabel::Eps).map(|e| e.0);
        for q in kept.map(|q| q as usize).chain([accept]) {
            if bit[q].is_none() {
                if k == MAX_STATES {
                    return None;
                }
                bit[q] = Some(k);
                k += 1;
            }
        }
        let mut eps = vec![Vec::new(); n];
        for &(p, l, q) in &edges {
            if l == MoveLabel::Eps {
                eps[p as usize].push(q as usize);
            }
        }
        let closed: Vec<u64> = (0..n).map(|q| eps_closure(q, &eps, &bit)).collect();
        let regs: Vec<Reg> = star.tests.iter().map(test_reg).collect();
        let (mut vert, mut horiz, mut tests) = (vec![0; k], vec![0; k], Vec::new());
        for &(p, l, q) in &edges {
            let from = || bit[p as usize].expect("moves and tests leave kept states");
            let to = closed[q as usize];
            match l {
                MoveLabel::Eps => {}
                MoveLabel::Axis(Axis::Down | Axis::Up) => vert[from()] |= to,
                MoveLabel::Axis(Axis::Right | Axis::Left) => horiz[from()] |= to,
                MoveLabel::Test(i) => tests.push((1 << from(), regs[i as usize], to)),
            }
        }
        Some(OneWay {
            forward,
            start: closed[start],
            accept: 1 << bit[accept].expect("accept is kept"),
            n_states: k,
            vert_tab: table(&vert),
            horiz_tab: table(&horiz),
            test_from: tests.iter().fold(0, |m, t| m | t.0),
            tests,
        })
    }

    /// Whether the pass runs in preorder (`down`/`right` bodies).
    pub fn forward(&self) -> bool {
        self.forward
    }

    /// Number of states in the automaton's masks.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Feeds everything that determines the pass into `word`.
    pub(crate) fn hash_into(&self, mut word: impl FnMut(u64)) {
        let (vert, horiz) = (&self.vert_tab, &self.horiz_tab);
        let lens = [vert.len(), horiz.len(), self.tests.len()].map(|l| l as u64);
        for w in [self.forward as u64, self.start, self.accept]
            .into_iter()
            .chain(lens)
        {
            word(w);
        }
        for &w in vert.iter().chain(horiz) {
            word(w);
        }
        for &(from, reg, to) in &self.tests {
            for w in [from, reg as u64, to] {
                word(w);
            }
        }
    }

    /// `dst ← img(A*, src)`, overwriting `dst`; `regs` holds the test
    /// registers and `scratch` the caller's recycled buffers.
    pub(crate) fn run(
        &self,
        t: &Tree,
        src: &NodeSet,
        regs: &[NodeSet],
        dst: &mut NodeSet,
        scratch: &mut Scratch,
    ) {
        dst.reset(t.len());
        if self.n_states <= 8 {
            self.run_in(t, src, regs, dst, &mut scratch.narrow, &mut scratch.sweep);
        } else {
            self.run_in(t, src, regs, dst, &mut scratch.wide, &mut scratch.sweep);
        }
    }

    /// [`OneWay::run`] over masks of type `M`, with one copy of each loop
    /// per shape of automaton, so the common one (no sibling step, no
    /// test) keeps its state in registers.
    fn run_in<M: Mask>(
        &self,
        t: &Tree,
        src: &NodeSet,
        regs: &[NodeSet],
        dst: &mut NodeSet,
        masks: &mut Vec<M>,
        sweep: &mut Sweep,
    ) {
        let sideways = !self.horiz_tab.is_empty();
        let len = if self.forward && sideways { 2 } else { 1 } * t.len();
        if masks.len() < len {
            masks.resize(len, M::default());
        }
        let (m, sw) = (masks.as_mut_slice(), sweep);
        match (self.forward, sideways, !self.tests.is_empty()) {
            (true, false, false) => self.preorder::<M, false, false>(t, src, regs, dst, m, sw),
            (true, false, true) => self.preorder::<M, false, true>(t, src, regs, dst, m, sw),
            (true, true, false) => self.preorder::<M, true, false>(t, src, regs, dst, m, sw),
            (true, true, true) => self.preorder::<M, true, true>(t, src, regs, dst, m, sw),
            (false, false, false) => self.reverse_preorder::<M, false, false>(t, src, regs, m, dst),
            (false, false, true) => self.reverse_preorder::<M, false, true>(t, src, regs, m, dst),
            (false, true, false) => self.reverse_preorder::<M, true, false>(t, src, regs, m, dst),
            (false, true, true) => self.reverse_preorder::<M, true, true>(t, src, regs, m, dst),
        }
    }

    /// The forward pass: `masks[v]` holds `δ_down(states(v))`, what `v`
    /// hands each child, and `masks[n + v]` holds `δ_right(states(v))`
    /// for its next sibling (only when the body has a `right` step). A
    /// node pulls both from its parent and previous sibling. Runs of
    /// consecutive visited nodes are recorded and cleared at the end.
    #[inline(never)]
    fn preorder<M: Mask, const SIDEWAYS: bool, const TESTS: bool>(
        &self,
        t: &Tree,
        src: &NodeSet,
        regs: &[NodeSet],
        dst: &mut NodeSet,
        masks: &mut [M],
        sweep: &mut Sweep,
    ) {
        let Sweep { runs, waiting } = sweep;
        let n = t.len();
        if waiting.len() < n {
            waiting.resize(n, 0);
        }
        // `waiting[..len]`: those past the current node are next siblings
        // of its ancestors, so the last of them is the nearest
        let mut len = 0;
        let (down, right) = masks.split_at_mut(n);
        let mut sources = src.iter();
        let Some(first) = sources.next() else {
            return;
        };
        let mut next_src = Some(first);
        let (mut v, mut run_start) = (first.0, first.0);
        runs.clear();
        loop {
            let node = NodeId(v);
            let inherit = t.parent(node).map_or(0, |p| down[p.index()].wide());
            let mut mask = inherit | self.start & u64::from(src.contains(node)).wrapping_neg();
            if SIDEWAYS {
                if let Some(q) = t.prev_sibling(node) {
                    mask |= right[q.index()].wide();
                }
            }
            let mask = if TESTS {
                self.close(mask, node, regs)
            } else {
                mask
            };
            dst.insert_word(
                v as usize / 64,
                u64::from(mask & self.accept != 0) << (v % 64),
            );
            let to_children = step(&self.vert_tab, mask);
            let to_right = if SIDEWAYS {
                step(&self.horiz_tab, mask)
            } else {
                0
            };
            down[v as usize] = M::narrow(to_children);
            if SIDEWAYS {
                right[v as usize] = M::narrow(to_right);
            }
            // note the next sibling when something flows into it
            let next = t.next_sibling(node);
            waiting[len] = next.map_or(0, |x| x.0);
            len += usize::from(next.is_some() & (inherit | to_right != 0));
            // on into a child that something flows into, or past a live
            // leaf (whatever follows it in preorder is likely live too)
            let on = to_children != 0 || mask != 0 && t.is_leaf(node);
            if on && (v as usize) + 1 < n {
                v += 1;
                continue;
            }
            // nothing flows from `v` into a child: everything up to the
            // next waiting node or source is dead
            while len > 0 && waiting[len - 1] <= v {
                len -= 1;
            }
            while next_src.is_some_and(|s| s.0 <= v) {
                next_src = sources.next();
            }
            let to = match (len.checked_sub(1).map(|i| waiting[i]), next_src) {
                (None, None) => break,
                (Some(w), Some(s)) => w.min(s.0),
                (w, s) => w.or(s.map(|s| s.0)).expect("one is some"),
            };
            if to > v + 1 {
                runs.push((run_start, v + 1));
                run_start = to;
            }
            v = to;
        }
        runs.push((run_start, v + 1));
        for &(lo, hi) in runs.iter() {
            let (lo, hi) = (lo as usize, hi as usize);
            down[lo..hi].fill(M::default());
            if SIDEWAYS {
                right[lo..hi].fill(M::default());
            }
        }
    }

    /// The backward pass: `masks[v]` collects what `v`'s children and
    /// next sibling push into it, and is cleared when `v` is visited.
    /// `pending` counts the nodes holding a push: every one of them is
    /// an ancestor of the node just visited, or its previous sibling.
    #[inline(never)]
    fn reverse_preorder<M: Mask, const SIDEWAYS: bool, const TESTS: bool>(
        &self,
        t: &Tree,
        src: &NodeSet,
        regs: &[NodeSet],
        masks: &mut [M],
        dst: &mut NodeSet,
    ) {
        let mut sources = src.iter_rev();
        let Some(mut node) = sources.next() else {
            return;
        };
        // the largest source below the current node, caught up lazily
        let mut next_src = sources.next();
        let mut pending = 0usize;
        loop {
            let pushed = std::mem::take(&mut masks[node.index()]).wide();
            pending -= usize::from(pushed != 0);
            let mut mask = pushed | self.start & u64::from(src.contains(node)).wrapping_neg();
            if TESTS {
                mask = self.close(mask, node, regs);
            }
            dst.insert_word(
                node.index() / 64,
                u64::from(mask & self.accept != 0) << (node.0 % 64),
            );
            let parent = t.parent(node);
            let up = step(&self.vert_tab, mask);
            if let Some(p) = parent.filter(|_| up != 0) {
                pending += usize::from(masks[p.index()] == M::default());
                masks[p.index()] = M::narrow(masks[p.index()].wide() | up);
            }
            let left = if SIDEWAYS {
                step(&self.horiz_tab, mask)
            } else {
                0
            };
            let prev = t.prev_sibling(node).filter(|_| SIDEWAYS && left != 0);
            if let Some(q) = prev {
                pending += usize::from(masks[q.index()] == M::default());
                masks[q.index()] = M::narrow(masks[q.index()].wide() | left);
            }
            // the node just below, when it waits or is a source, is next
            let Some(below) = node.0.checked_sub(1).map(NodeId) else {
                break;
            };
            if masks[below.index()] != M::default() || src.contains(below) {
                node = below;
                continue;
            }
            // otherwise the subtrees left of `node` get nothing from it
            // (it pushed into none of them, or only into its previous
            // sibling's root): go to the next source, or toward the
            // deepest waiting node
            while next_src.is_some_and(|s| s.0 >= node.0) {
                next_src = sources.next();
            }
            let toward = if pending == 0 { None } else { prev.or(parent) };
            node = match (toward, next_src) {
                (None, None) => break,
                (Some(w), Some(s)) => w.max(s),
                (w, s) => w.or(s).expect("one is some"),
            };
        }
    }

    /// `mask` closed under the test edges that hold at `v`.
    #[inline]
    fn close(&self, mut mask: u64, v: NodeId, regs: &[NodeSet]) -> u64 {
        while mask & self.test_from != 0 {
            let mut add = 0;
            for &(from, reg, to) in &self.tests {
                if mask & from != 0 && regs[reg as usize].contains(v) {
                    add |= to;
                }
            }
            if add & !mask == 0 {
                break;
            }
            mask |= add;
        }
        mask
    }
}

/// A per-node state mask as stored: a byte for automata of at most 8
/// states, a word for larger ones.
trait Mask: Copy + Default + PartialEq {
    fn wide(self) -> u64;
    /// `m` in this width; its set bits are states, so they fit.
    fn narrow(m: u64) -> Self;
}

impl Mask for u8 {
    fn wide(self) -> u64 {
        self.into()
    }
    fn narrow(m: u64) -> u8 {
        m as u8
    }
}

impl Mask for u64 {
    fn wide(self) -> u64 {
        self
    }
    fn narrow(m: u64) -> u64 {
        m
    }
}

/// The ε-closure of state `q`, as a mask over the kept states.
fn eps_closure(q: usize, eps: &[Vec<usize>], bit: &[Option<usize>]) -> u64 {
    let mut seen = vec![false; eps.len()];
    let mut todo = vec![q];
    seen[q] = true;
    let mut mask = 0;
    while let Some(p) = todo.pop() {
        if let Some(b) = bit[p] {
            mask |= 1 << b;
        }
        for &r in &eps[p] {
            if !std::mem::replace(&mut seen[r], true) {
                todo.push(r);
            }
        }
    }
    mask
}

/// Per-state successor masks as byte-indexed tables: for the states
/// `8i .. 8i + 8`, entry `256·i + b` is the union of the successors of
/// the states whose bits are set in `b`. The last byte's table has only
/// as many entries as its states need. Empty when no state has a
/// successor.
fn table(succ: &[u64]) -> Vec<u64> {
    if succ.iter().all(|&s| s == 0) {
        return Vec::new();
    }
    let mut tab = Vec::new();
    for chunk in succ.chunks(8) {
        tab.extend((0..1usize << chunk.len()).map(|b| {
            let states = chunk.iter().enumerate().filter(|&(j, _)| b >> j & 1 == 1);
            states.fold(0, |m, (_, &s)| m | s)
        }));
    }
    tab
}

/// The successors of the states in `mask`, one lookup per non-zero
/// low-to-high byte run of `mask`.
#[inline]
fn step(tab: &[u64], mut mask: u64) -> u64 {
    if tab.is_empty() {
        return 0;
    }
    let (mut out, mut base) = (0, 0);
    while mask != 0 {
        out |= tab[base + (mask & 0xff) as usize];
        mask >>= 8;
        base += 256;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_regxpath::parser::parse_rpath;
    use twx_xtree::Alphabet;

    fn auto(body: &str, converse: bool) -> Option<OneWay> {
        let body = parse_rpath(body, &mut Alphabet::default()).unwrap();
        OneWay::compile(&body, converse, |_| 0)
    }

    #[test]
    fn direction_follows_the_body_and_the_converse_flips_it() {
        let dir = |body, converse| auto(body, converse).map(|a| a.forward());
        assert_eq!(dir("down/down", false), Some(true));
        assert_eq!(dir("down/down", true), Some(false));
        assert_eq!(dir("(up | left[p0])/up*", false), Some(false));
        assert_eq!(dir("(up | left[p0])/up*", true), Some(true));
        assert_eq!(dir("down/right | up", false), None);
        assert_eq!(dir("down*/left", true), None);
    }

    #[test]
    fn masks_hold_only_states_a_move_or_test_leaves_plus_accept() {
        // two `down` sources and the accepting state
        assert_eq!(auto("down/down", false).unwrap().n_states(), 3);
        let steps = |k: usize| vec!["down"; k].join("/");
        assert_eq!(auto(&steps(63), false).unwrap().n_states(), MAX_STATES);
        assert!(auto(&steps(64), false).is_none());
        // the widest body the pass test runs keeps word-wide masks
        let wide = auto(
            "down/right/down/right/down/right/down/right/down[p0]",
            false,
        );
        assert_eq!(wide.unwrap().n_states(), 11);
    }

    #[test]
    fn passes_match_the_product_and_leave_their_masks_clear() {
        use twx_regxpath::{eval_image as product_image, eval_node};
        use twx_xtree::generate::{random_tree, Shape};
        use twx_xtree::rng::{Rng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0x0E7A);
        let mut ab = Alphabet::default();
        let mut scratch = Scratch::default();
        for case in 0..60 {
            let shape = [Shape::Recursive, Shape::Deep(2), Shape::Wide][case % 3];
            let t = random_tree(shape, 1 + case * 7, 2, &mut rng);
            let n = t.len();
            let ctx = NodeSet::from_iter(n, t.nodes().filter(|_| rng.next_u64().is_multiple_of(8)));
            for (body, converse) in [
                ("down/down", false),
                ("down[p0] | right", false),
                ("(down/right*)[p1]", true),
                ("up/left | up[p0]", false),
                ("left*/up[<down>]", true),
                // more than 8 states: word-wide masks
                (
                    "down/right/down/right/down/right/down/right/down[p0]",
                    false,
                ),
                ("up/up/up/up/up/up/up/up/left[p1] | left", true),
            ] {
                let body = parse_rpath(body, &mut ab).unwrap();
                // test registers are numbered in the order they are asked for
                let mut tests = Vec::new();
                let auto = OneWay::compile(&body, converse, |phi| {
                    tests.push(eval_node(&t, phi));
                    (tests.len() - 1) as Reg
                })
                .unwrap();
                let mut out = NodeSet::full(1);
                auto.run(&t, &ctx, &tests, &mut out, &mut scratch);
                let star = RPath::Star(Box::new(body.clone()));
                let want = if converse {
                    // pre(A*, S): the nodes from which a walk reaches S
                    let reaches = |v| product_image(&t, &star, &NodeSet::singleton(n, v));
                    NodeSet::from_iter(n, t.nodes().filter(|&v| reaches(v).intersects(&ctx)))
                } else {
                    product_image(&t, &star, &ctx)
                };
                assert_eq!(out, want, "case {case}: {body:?}, converse {converse}");
                assert!(
                    scratch.narrow.iter().all(|&m| m == 0) && scratch.wide.iter().all(|&m| m == 0),
                    "case {case}: {body:?} left masks set"
                );
            }
        }
    }

    #[test]
    fn tables_union_the_successors_of_every_set_bit() {
        let succ: Vec<u64> = (0..11).map(|i| 1 << (10 - i)).collect();
        let tab = table(&succ);
        assert_eq!(tab.len(), 256 + 8, "a full byte, then three states");
        for mask in [0u64, 1, 0x81, 0x100, 0x7ff, 0x5a5] {
            let want = (0..11)
                .filter(|i| mask >> i & 1 == 1)
                .fold(0, |m, i| m | succ[i]);
            assert_eq!(step(&tab, mask), want, "{mask:#x}");
        }
        assert!(table(&[0, 0]).is_empty());
        assert_eq!(step(&[], 3), 0);
    }
}
