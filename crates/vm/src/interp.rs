//! Interpreter: straight-line dispatch over arena-recycled set registers.
//!
//! A register file is a `Vec<NodeSet>` borrowed from a thread-local
//! `Arena` and returned when evaluation finishes. [`twx_xtree::NodeSet::reset`]
//! keeps the word buffers, so a hot `eval_cached` loop touches the
//! allocator only when a document is larger than anything the thread has
//! evaluated before.
//!
//! [`Instr::AxisClosure`] — the star of a union of bare axis steps —
//! runs one kernel, [`axis_closure`], with no rounds:
//!
//! * **sets containing `down`** add one preorder interval per source,
//!   filled a word at a time: `[v, end(v))` for `{down}`,
//!   `[parent(v)+1, end(v))` with `left`, `[v, end(parent v))` with
//!   `right`, both widenings with both, the root's interval is always
//!   `[0, n)`, and a set with `down` and `up` reaches every node.
//!   Sources are taken in ascending order and one below the covered end
//!   is skipped, so the processed sources' `subtree_end` walks are
//!   disjoint: at most `2n + |S|` link reads and O(n/64) word writes.
//!   The intervals are laminar (nested or disjoint), so one kept in a
//!   stack of spans is dropped when a later, wider one contains it, and
//!   each answer word is written once;
//! * **sets without `down`** walk sibling and parent links from each
//!   source, with the accumulator as the visited set: a walk stops at
//!   the first node already present, whose own closure is then already
//!   in the accumulator. At most `3·|answer|` link reads.
//!
//! [`Instr::OneWayClosure`] — the star of a body whose axis steps all
//! move forward (`down`, `right`) or all backward (`up`, `left`) — runs
//! one pass of its compiled automaton ([`crate::oneway`]): a preorder
//! or reverse-preorder sweep that jumps over what no walk reaches, with
//! its per-node state masks in a buffer the arena keeps zeroed between
//! passes.
//!
//! Every other `Star` closure — a body that moves both ways, or one
//! whose automaton needs more than [`crate::oneway::MAX_STATES`] states
//! — runs in **hybrid rounds**. While the
//! frontier is small it is a vector of node ids and the loop body runs on
//! id vectors (*sparse rounds*, O(frontier) each), testing bits against
//! the hoisted dense test registers and finding new nodes by test-and-set
//! in the dense accumulator. A sparse round that would hold more than
//! [`dense_threshold`] ids in one register is abandoned and rerun on the
//! dense registers (*dense rounds*, O(n/64) words each); a dense round
//! that finds fewer than [`sparse_threshold`] new nodes hands a sparse
//! frontier back. A deep tree needs one round per level, so sparse rounds
//! are what keep a closure such as `(down/down)*` linear in the tree
//! instead of O(height·n/64).
//!
//! Dispatch counters (`vm_closure_iters` counts rounds only,
//! `vm_axis_closures` counts kernel runs, `vm_one_way_passes` automaton
//! passes) are accumulated in a local
//! `Stats` and flushed to the thread-local obs slots once per top-level
//! evaluation, keeping the inner loop free of instrumentation cost (the
//! overhead gate in ci.sh measures exactly this).

use crate::oneway::Scratch;
use crate::{AxisSet, Instr, Program, Reg};
use twx_obs::{self as obs, Counter};
use twx_regxpath::ast::Axis;
use twx_xtree::{NodeId, NodeSet, Tree};

/// Cardinality above which a closure frontier is held as a dense bitmap
/// rather than an id vector. At `universe / 64` ids, a pass over the ids
/// costs about as many steps as a pass over the bitmap's `universe / 64`
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

/// A pool of recycled `NodeSet` registers, sparse-round id files, the
/// interval stack of [`axis_closure`] and the per-node state masks of
/// one-way passes.
#[derive(Default)]
pub struct Arena {
    pool: Vec<NodeSet>,
    sparse: Vec<SparseFile>,
    spans: Vec<(u32, u32)>,
    one_way: Scratch,
}

impl Arena {
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Number of pooled registers (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    fn file(&mut self, n_regs: usize, universe: usize, stats: &mut Stats) -> Vec<NodeSet> {
        let mut file = Vec::with_capacity(n_regs);
        for _ in 0..n_regs {
            let mut s = self.pool.pop().unwrap_or_else(|| {
                stats.arena_allocs += 1;
                NodeSet::empty(0)
            });
            s.reset(universe);
            file.push(s);
        }
        file
    }

    fn put_back(&mut self, file: Vec<NodeSet>) {
        self.pool.extend(file);
    }

    /// A sparse file for a program with `n_regs` registers over
    /// `universe` nodes, with a clear mark bitmap and `ids` as the
    /// frontier register's contents.
    fn sparse_file(
        &mut self,
        n_regs: usize,
        universe: usize,
        frontier: usize,
        ids: impl Iterator<Item = NodeId>,
    ) -> SparseFile {
        let mut f = self.sparse.pop().unwrap_or_else(|| SparseFile {
            ids: Vec::new(),
            mark: NodeSet::empty(0),
        });
        if f.ids.len() < n_regs {
            f.ids.resize_with(n_regs, Vec::new);
        }
        f.mark.reset(universe);
        f.ids[frontier].clear();
        f.ids[frontier].extend(ids);
        f
    }
}

/// The registers of a sparse closure round: one id vector per register
/// (only the body's loop-variant ones are used), each duplicate-free,
/// plus a scratch bitmap that is all clear between instructions and
/// deduplicates `up` images and unions.
struct SparseFile {
    ids: Vec<Vec<NodeId>>,
    mark: NodeSet,
}

thread_local! {
    static ARENA: std::cell::RefCell<Arena> = std::cell::RefCell::new(Arena::new());
}

#[derive(Default)]
struct Stats {
    instrs: u64,
    closure_iters: u64,
    axis_closures: u64,
    one_way_passes: u64,
    arena_allocs: u64,
    switches: u64,
    subtree_extractions: u64,
}

impl Stats {
    fn flush(&self) {
        obs::add(Counter::VmInstructions, self.instrs);
        obs::add(Counter::VmClosureIters, self.closure_iters);
        obs::add(Counter::VmAxisClosures, self.axis_closures);
        obs::add(Counter::VmOneWayPasses, self.one_way_passes);
        obs::add(Counter::VmArenaAllocs, self.arena_allocs);
        obs::add(Counter::FrontierSwitches, self.switches);
        obs::add(Counter::SubtreeExtractions, self.subtree_extractions);
    }
}

/// Runs a path program: the image of `ctx` under the compiled expression.
pub fn eval_image(t: &Tree, prog: &Program, ctx: &NodeSet) -> NodeSet {
    assert_eq!(ctx.universe(), t.len(), "context set universe mismatch");
    let mut stats = Stats::default();
    let out = ARENA.with(|a| run(prog, t, Some(ctx), &mut a.borrow_mut(), &mut stats));
    stats.flush();
    out
}

/// Runs a node-expression program: the set of nodes where `φ` holds.
pub fn eval_node_set(t: &Tree, prog: &Program) -> NodeSet {
    let mut stats = Stats::default();
    let out = ARENA.with(|a| run(prog, t, None, &mut a.borrow_mut(), &mut stats));
    stats.flush();
    out
}

fn run(
    prog: &Program,
    t: &Tree,
    ctx: Option<&NodeSet>,
    arena: &mut Arena,
    stats: &mut Stats,
) -> NodeSet {
    let mut regs = arena.file(prog.n_regs as usize, t.len(), stats);
    exec_block(prog, 0, t, ctx, &mut regs, arena, stats);
    let out = std::mem::replace(&mut regs[prog.out as usize], NodeSet::empty(0));
    arena.put_back(regs);
    out
}

fn exec_block(
    prog: &Program,
    block: usize,
    t: &Tree,
    ctx: Option<&NodeSet>,
    regs: &mut [NodeSet],
    arena: &mut Arena,
    stats: &mut Stats,
) {
    let n = t.len();
    for instr in &prog.blocks[block] {
        stats.instrs += 1;
        match *instr {
            Instr::LoadEmpty { dst } => regs[dst as usize].reset(n),
            Instr::LoadFull { dst } => {
                let d = &mut regs[dst as usize];
                d.reset(n);
                d.set_full();
            }
            Instr::LoadLabel { dst, label } => {
                regs[dst as usize].assign_where(t.labels(), |&l| l == label);
            }
            Instr::LoadCtx { dst } => {
                let c = ctx.expect("vm: LoadCtx in a context-free (nested) program");
                regs[dst as usize].copy_from(c);
            }
            Instr::Copy { dst, src } => {
                let (d, s) = pair_mut(regs, dst, src);
                d.copy_from(s);
            }
            Instr::Union { dst, src } => {
                let (d, s) = pair_mut(regs, dst, src);
                d.union_with(s);
            }
            Instr::Intersect { dst, src } => {
                let (d, s) = pair_mut(regs, dst, src);
                d.intersect_with(s);
            }
            Instr::Difference { dst, src } => {
                let (d, s) = pair_mut(regs, dst, src);
                d.difference_with(s);
            }
            Instr::Complement { dst } => regs[dst as usize].complement(),
            Instr::AxisImage { dst, src, axis } => {
                let (d, s) = pair_mut(regs, dst, src);
                axis_image(t, axis, s, d);
            }
            Instr::AxisClosure { dst, src, axes } => {
                let (d, s) = pair_mut(regs, dst, src);
                closure_kernel(t, axes, s, d, &mut arena.spans);
                stats.axis_closures += 1;
            }
            Instr::OneWayClosure { dst, src, auto } => {
                // the pass reads `src` and the test registers, never `dst`
                let mut d = std::mem::take(&mut regs[dst as usize]);
                let auto = &prog.autos[auto as usize];
                auto.run(t, &regs[src as usize], regs, &mut d, &mut arena.one_way);
                regs[dst as usize] = d;
                stats.one_way_passes += 1;
            }
            Instr::FilterJoin { dst, test } => {
                let (d, s) = pair_mut(regs, dst, test);
                d.intersect_with(s);
            }
            Instr::Star {
                dst,
                src,
                frontier,
                step,
                body,
            } => {
                let star = StarRegs {
                    dst: dst as usize,
                    src: src as usize,
                    frontier: frontier as usize,
                    step: step as usize,
                    body: body as usize,
                };
                closure(prog, star, t, ctx, regs, arena, stats);
            }
            Instr::Within { dst, sub } => {
                let nested = &prog.subs[sub as usize];
                let d = &mut regs[dst as usize];
                d.reset(n);
                for v in t.nodes() {
                    stats.subtree_extractions += 1;
                    let subtree = t.subtree(v);
                    let set = run(nested, &subtree, None, arena, stats);
                    if set.contains(subtree.root()) {
                        d.insert(v);
                    }
                    arena.put_back(vec![set]);
                }
            }
        }
    }
}

/// `dst ← src ∪ img((a₁ | … | aₖ)⁺, src)` for the axes in `axes`,
/// overwriting `dst`: the kernel behind [`Instr::AxisClosure`] (see the
/// module docs). It reads at most `2n + |src|` tree links for a set
/// containing `down` and at most `3·|dst|` for one without.
pub fn axis_closure(t: &Tree, axes: AxisSet, src: &NodeSet, dst: &mut NodeSet) {
    closure_kernel(t, axes, src, dst, &mut Vec::new());
}

/// [`axis_closure`] with a caller-owned interval stack.
fn closure_kernel(
    t: &Tree,
    axes: AxisSet,
    src: &NodeSet,
    dst: &mut NodeSet,
    spans: &mut Vec<(u32, u32)>,
) {
    dst.reset(t.len());
    if !axes.contains(Axis::Down) {
        return walk_closure(t, axes, src, dst);
    }
    if axes.contains(Axis::Up) {
        // up to the root, down to everything
        if !src.is_empty() {
            dst.set_full();
        }
        return;
    }
    let (left, right) = (axes.contains(Axis::Left), axes.contains(Axis::Right));
    let mut covered = 0;
    spans.clear();
    for v in src.iter() {
        if v.0 < covered {
            // inside the last interval: v's closure lies inside it too
            continue;
        }
        // siblings widen the interval to the parent's other children;
        // the root has none, so its interval is its subtree, [0, n)
        let parent = if left || right { t.parent(v) } else { None };
        let lo = match parent {
            Some(p) if left => p.0 + 1,
            _ => v.0,
        };
        let last = match parent {
            Some(p) if right => p,
            _ => v,
        };
        let hi = t.subtree_end(last);
        // the intervals are laminar: every kept span starting at or
        // after `lo` lies inside the new one
        while spans.last().is_some_and(|&(l, _)| l >= lo) {
            spans.pop();
        }
        spans.push((lo, hi));
        covered = hi;
    }
    for &(lo, hi) in spans.iter() {
        dst.insert_range(lo as usize, hi as usize);
    }
}

/// The closure of an axis set without `down`, by link walks from each
/// source into `dst` (which starts empty). `dst` only ever holds whole
/// closures plus the current walk, which has not reached the node it is
/// about to test, so a walk stops at the first node already present.
fn walk_closure(t: &Tree, axes: AxisSet, src: &NodeSet, dst: &mut NodeSet) {
    let [up, left, right] = [Axis::Up, Axis::Left, Axis::Right].map(|a| axes.contains(a));
    for v in src.iter() {
        let mut u = v;
        while dst.insert(u) {
            if left {
                walk(t, u, Tree::prev_sibling, dst);
            }
            if right {
                walk(t, u, Tree::next_sibling, dst);
            }
            if !up {
                break;
            }
            match t.parent(u) {
                Some(p) => u = p,
                None => break,
            }
        }
    }
}

/// Follows `step` links from `from`, inserting each node into `dst`,
/// until a link is missing or leads to a node already present.
fn walk(t: &Tree, from: NodeId, step: fn(&Tree, NodeId) -> Option<NodeId>, dst: &mut NodeSet) {
    let mut w = from;
    while let Some(x) = step(t, w) {
        if !dst.insert(x) {
            break;
        }
        w = x;
    }
}

/// The operands of one `Star` instruction, as register-file indices.
#[derive(Clone, Copy)]
struct StarRegs {
    dst: usize,
    src: usize,
    frontier: usize,
    step: usize,
    body: usize,
}

/// `dst ← src ∪ img(A⁺, src)`: rounds of the body block (`step ←
/// img(A, frontier)`) until a round finds nothing new. Each round is
/// sparse or dense by the frontier's size (see the module docs); both
/// count one closure iteration and one instruction per body instruction,
/// so the accounting is the same whichever representation runs. After the
/// loop only `dst` is defined: the frontier, step and body scratch
/// registers are dead.
fn closure(
    prog: &Program,
    r: StarRegs,
    t: &Tree,
    ctx: Option<&NodeSet>,
    regs: &mut [NodeSet],
    arena: &mut Arena,
    stats: &mut Stats,
) {
    let n = t.len();
    let sparse_ok = prog.sparse_body(r.body);
    let body = &prog.blocks[r.body];
    let (d, s) = pair_mut(regs, r.dst, r.src);
    d.copy_from(s);
    let mut live = s.count_ones();
    let n_regs = prog.n_regs as usize;
    let (sparse_max, dense_min) = (dense_threshold(n), sparse_threshold(n));
    // `Some` while rounds run sparse; the frontier is then `ids[frontier]`
    let mut sparse = None;
    if sparse_ok && live <= sparse_max {
        sparse = Some(arena.sparse_file(n_regs, n, r.frontier, regs[r.src].iter()));
    } else {
        let (f, s) = pair_mut(regs, r.frontier, r.src);
        f.copy_from(s);
    }
    while live > 0 {
        stats.closure_iters += 1;
        if let Some(f) = &mut sparse {
            if exec_sparse(body, t, regs, f, sparse_max) {
                stats.instrs += body.len() as u64;
                let (front, step) = pair_mut(&mut f.ids, r.frontier, r.step);
                let acc = &mut regs[r.dst];
                front.clear();
                front.extend(step.iter().copied().filter(|&v| acc.insert(v)));
                live = front.len();
                continue;
            }
            // the round outgrew sparse ids: rerun it dense (its
            // instructions count once, in `exec_block`)
            let dense = &mut regs[r.frontier];
            dense.reset(n);
            for &v in &f.ids[r.frontier] {
                dense.insert(v);
            }
            arena.sparse.extend(sparse.take());
            stats.switches += 1;
        }
        exec_block(prog, r.body, t, ctx, regs, arena, stats);
        let (acc, step) = pair_mut(regs, r.dst, r.step);
        live = acc.absorb(step);
        if sparse_ok && live > 0 && live < dense_min {
            sparse = Some(arena.sparse_file(n_regs, n, r.frontier, step.iter()));
            stats.switches += 1;
        } else {
            regs.swap(r.frontier, r.step);
        }
    }
    if let Some(f) = sparse {
        arena.sparse.push(f);
    }
}

/// Whether a `Star` body can run sparse rounds: every instruction has an
/// id-vector form, every register it reads as ids is the frontier or was
/// written earlier in the same round, every register it tests bits
/// against is loop-invariant (neither the frontier nor written by the
/// body), the frontier itself is only read, and the body writes `step`.
/// Anything else — a nested `Star`, `Complement`, loads — runs dense.
pub(crate) fn sparse_body(body: &[Instr], frontier: Reg, step: Reg) -> bool {
    let written: Vec<Reg> = body.iter().map(Instr::dst).collect();
    if written.contains(&frontier) {
        return false;
    }
    let mut defined = vec![frontier];
    for instr in body {
        let ok = match *instr {
            Instr::LoadEmpty { .. } => true,
            Instr::Copy { src, .. } | Instr::AxisImage { src, .. } => defined.contains(&src),
            Instr::Union { dst, src } => defined.contains(&dst) && defined.contains(&src),
            Instr::FilterJoin { dst, test: src }
            | Instr::Intersect { dst, src }
            | Instr::Difference { dst, src } => {
                defined.contains(&dst) && src != frontier && !written.contains(&src)
            }
            _ => false,
        };
        if !ok {
            return false;
        }
        defined.push(instr.dst());
    }
    defined.contains(&step)
}

/// One sparse round of a body [`sparse_body`] accepted: id-vector
/// registers in `f`, bit tests against the loop-invariant dense `regs`.
/// Returns `false`, abandoning the round, as soon as an id vector holds
/// more than `limit` ids; the body only writes registers it defines
/// before reading, so the round can then be rerun dense from the same
/// frontier.
fn exec_sparse(
    body: &[Instr],
    t: &Tree,
    regs: &[NodeSet],
    f: &mut SparseFile,
    limit: usize,
) -> bool {
    let SparseFile { ids, mark } = f;
    for instr in body {
        match *instr {
            Instr::LoadEmpty { dst } => ids[dst as usize].clear(),
            Instr::Copy { dst, src } => {
                let (d, s) = pair_mut(ids, dst, src);
                d.clone_from(s);
            }
            Instr::Union { dst, src } => {
                let (d, s) = pair_mut(ids, dst, src);
                if d.is_empty() {
                    d.clone_from(s);
                } else if !s.is_empty() {
                    // mark `s`, unmark what `d` already holds, append the
                    // rest; every mark is cleared again on the way
                    for &v in s.iter() {
                        mark.insert(v);
                    }
                    for &v in d.iter() {
                        mark.remove(v);
                    }
                    d.extend(s.iter().copied().filter(|&v| mark.remove(v)));
                }
            }
            Instr::AxisImage { dst, src, axis } => {
                let (d, s) = pair_mut(ids, dst, src);
                if !axis_image_ids(t, axis, s, d, mark, limit) {
                    return false;
                }
            }
            Instr::FilterJoin { dst, test: src } | Instr::Intersect { dst, src } => {
                let keep = &regs[src as usize];
                ids[dst as usize].retain(|&v| keep.contains(v));
            }
            Instr::Difference { dst, src } => {
                let drop = &regs[src as usize];
                ids[dst as usize].retain(|&v| !drop.contains(v));
            }
            _ => unreachable!("vm: {instr:?} in a sparse round"),
        }
        if ids[instr.dst() as usize].len() > limit {
            return false;
        }
    }
    true
}

/// `dst ← { u : ∃ v ∈ src, v -axis→ u }` over duplicate-free id vectors.
/// `down`, `left` and `right` are injective on distinct sources; `up`
/// images are deduplicated through `mark`, which is left clear. Only
/// `down` can outgrow its source, so it alone stops early, returning
/// `false`, once `dst` holds more than `limit` ids.
fn axis_image_ids(
    t: &Tree,
    axis: Axis,
    src: &[NodeId],
    dst: &mut Vec<NodeId>,
    mark: &mut NodeSet,
    limit: usize,
) -> bool {
    dst.clear();
    match axis {
        Axis::Down => {
            for &v in src {
                let mut c = t.first_child(v);
                while let Some(u) = c {
                    dst.push(u);
                    if dst.len() > limit {
                        return false;
                    }
                    c = t.next_sibling(u);
                }
            }
        }
        Axis::Up => {
            dst.extend(
                src.iter()
                    .filter_map(|&v| t.parent(v))
                    .filter(|&p| mark.insert(p)),
            );
            for &p in dst.iter() {
                mark.remove(p);
            }
        }
        Axis::Left => dst.extend(src.iter().filter_map(|&v| t.prev_sibling(v))),
        Axis::Right => dst.extend(src.iter().filter_map(|&v| t.next_sibling(v))),
    }
    true
}

/// `dst ← { u : ∃ v ∈ src, v -axis→ u }`, overwriting `dst`.
fn axis_image(t: &Tree, axis: Axis, src: &NodeSet, dst: &mut NodeSet) {
    dst.reset(t.len());
    match axis {
        Axis::Down => {
            for v in src.iter() {
                let mut c = t.first_child(v);
                while let Some(u) = c {
                    dst.insert(u);
                    c = t.next_sibling(u);
                }
            }
        }
        Axis::Up => {
            for v in src.iter() {
                if let Some(p) = t.parent(v) {
                    dst.insert(p);
                }
            }
        }
        Axis::Left => {
            for v in src.iter() {
                if let Some(p) = t.prev_sibling(v) {
                    dst.insert(p);
                }
            }
        }
        Axis::Right => {
            for v in src.iter() {
                if let Some(s) = t.next_sibling(v) {
                    dst.insert(s);
                }
            }
        }
    }
}

/// Disjoint mutable access to two registers of a file.
fn pair_mut<T>(regs: &mut [T], a: impl Into<usize>, b: impl Into<usize>) -> (&mut T, &mut T) {
    let (a, b) = (a.into(), b.into());
    debug_assert_ne!(a, b, "vm: aliased register operands");
    if a < b {
        let (lo, hi) = regs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_node, compile_path};
    use twx_regxpath::parser::{parse_rnode, parse_rpath};
    use twx_regxpath::{eval_image as product_image, eval_node};
    use twx_xtree::generate::{random_tree, Shape};
    use twx_xtree::parse::parse_sexp;
    use twx_xtree::rng::{Rng, SplitMix64};
    use twx_xtree::BitMatrix;

    #[test]
    fn vm_agrees_with_product_on_basics() {
        let doc = parse_sexp("(a (b d e) (c f))").unwrap();
        let t = &doc.tree;
        let mut ab = doc.alphabet.clone();
        for q in [
            "down",
            "down*",
            "down/right",
            "(up | down)*",
            "down*[b]",
            "down[<down>]*",
            "(down[b] | down/down)*",
        ] {
            let p = parse_rpath(q, &mut ab).unwrap();
            let prog = compile_path(&p);
            for v in t.nodes() {
                let ctx = NodeSet::singleton(t.len(), v);
                assert_eq!(
                    eval_image(t, &prog, &ctx),
                    product_image(t, &p, &ctx),
                    "query {q} from {v:?}"
                );
            }
        }
    }

    #[test]
    fn vm_node_programs_agree() {
        let doc = parse_sexp("(a (b d e) (c f))").unwrap();
        let t = &doc.tree;
        let mut ab = doc.alphabet.clone();
        for q in [
            "b",
            "<down*[d]>",
            "!<up>",
            "W(<up>)",
            "<down> and !<down/down>",
        ] {
            let f = parse_rnode(q, &mut ab).unwrap();
            let prog = compile_node(&f);
            assert_eq!(eval_node_set(t, &prog), eval_node(t, &f), "node expr {q}");
        }
    }

    /// `down` and `right` as explicit relations, built from parent and
    /// sibling pointers; `up` and `left` are their converses.
    fn step_matrix(t: &Tree, axis: Axis) -> BitMatrix {
        let mut m = BitMatrix::empty(t.len());
        for u in t.nodes() {
            let pred = match axis {
                Axis::Down | Axis::Up => t.parent(u),
                Axis::Right | Axis::Left => t.prev_sibling(u),
            };
            if let Some(v) = pred {
                m.set(v, u);
            }
        }
        match axis {
            Axis::Down | Axis::Right => m,
            Axis::Up | Axis::Left => m.transpose(),
        }
    }

    #[test]
    fn dense_and_sparse_images_match_step_relations_500_cases() {
        const SHAPES: [Shape; 5] = [
            Shape::Recursive,
            Shape::Deep(2),
            Shape::Bounded(3),
            Shape::Wide,
            Shape::DocumentLike,
        ];
        // one node short of, exactly at, and one node past one and two words
        const SIZES: [usize; 6] = [63, 64, 65, 127, 128, 129];
        let mut rng = SplitMix64::seed_from_u64(0xBEEF);
        for case in 0..500 {
            let t = random_tree(SHAPES[case % 5], SIZES[case % 6], 2, &mut rng);
            let n = t.len();
            let keep = rng.next_u64() % 65;
            let src = NodeSet::from_iter(n, t.nodes().filter(|_| rng.next_u64() % 64 < keep));
            let ids = src.to_vec();
            let mut mark = NodeSet::empty(n);
            for axis in [Axis::Down, Axis::Up, Axis::Left, Axis::Right] {
                let want = step_matrix(&t, axis).image(&src);
                let mut dense = NodeSet::full(n);
                axis_image(&t, axis, &src, &mut dense);
                assert_eq!(dense, want, "case {case}: dense {axis:?}");
                let mut sparse = vec![NodeId(0)];
                assert!(axis_image_ids(&t, axis, &ids, &mut sparse, &mut mark, n));
                assert_eq!(
                    sparse.len(),
                    want.count(),
                    "case {case}: {axis:?} duplicates"
                );
                assert_eq!(
                    NodeSet::from_iter(n, sparse),
                    want,
                    "case {case}: sparse {axis:?}"
                );
                assert!(mark.is_empty(), "case {case}: {axis:?} left marks set");
                if axis == Axis::Down && !want.is_empty() {
                    // `down` stops as soon as it holds one id past `limit`
                    let limit = want.count() - 1;
                    let mut out = Vec::new();
                    assert!(!axis_image_ids(&t, axis, &ids, &mut out, &mut mark, limit));
                    assert_eq!(out.len(), limit + 1, "case {case}: down overran its limit");
                    assert!(axis_image_ids(
                        &t,
                        axis,
                        &ids,
                        &mut out,
                        &mut mark,
                        limit + 1
                    ));
                }
            }
        }
    }

    #[test]
    fn star_free_bodies_run_sparse_and_nested_stars_dense() {
        let mut ab = parse_sexp("(a b c)").unwrap().alphabet;
        // bare-axis bodies need no loop at all
        for q in ["down*", "(down | right)*", "(left | up)*"] {
            let prog = compile_path(&parse_rpath(q, &mut ab).unwrap());
            assert_eq!(prog.blocks.len(), 1, "{q}");
            assert!(
                matches!(prog.blocks[0].last(), Some(Instr::AxisClosure { .. })),
                "{q}"
            );
        }
        // one-way bodies run one automaton pass, no loop either
        for q in ["(down/down)*", "(down[b] | down[c])*", "(up[<down[c]>])*"] {
            let prog = compile_path(&parse_rpath(q, &mut ab).unwrap());
            assert_eq!(prog.blocks.len(), 1, "{q}");
            assert!(
                matches!(prog.blocks[0].last(), Some(Instr::OneWayClosure { .. })),
                "{q}"
            );
        }
        // bodies that move both ways run rounds
        for (q, sparse) in [
            ("(down/up)*", true),
            ("(down[b] | up[c])*", true),
            ("(down[<down[c]>] | up)*", true),
            ("(down/right | up)*", true),
            ("(down*/up)*", false),
        ] {
            let prog = compile_path(&parse_rpath(q, &mut ab).unwrap());
            let body = prog.blocks[0]
                .iter()
                .find_map(|i| match *i {
                    Instr::Star { body, .. } => Some(body as usize),
                    _ => None,
                })
                .expect("a top-level star");
            assert_eq!(prog.sparse_body(body), sparse, "{q}");
        }
    }

    #[test]
    fn arena_reuses_registers_across_evals() {
        let doc = parse_sexp("(a (b d e) (c f))").unwrap();
        let t = &doc.tree;
        let prog = compile_path(&parse_rpath("down*", &mut doc.alphabet.clone()).unwrap());
        let ctx = NodeSet::singleton(t.len(), NodeId(0));
        let _warm = eval_image(t, &prog, &ctx);
        let pooled = ARENA.with(|a| a.borrow().pooled());
        for _ in 0..10 {
            let _ = eval_image(t, &prog, &ctx);
        }
        // steady state: the pool neither grows nor shrinks across evals
        assert_eq!(ARENA.with(|a| a.borrow().pooled()), pooled);
    }
}
