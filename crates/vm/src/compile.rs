//! Compiler: simplified Regular XPath(W) AST → register bytecode.
//!
//! Two emission directions mirror the two reachability directions of the
//! relational semantics:
//!
//! * `Compiler::path_image` emits `dst ← img(path, src)`;
//! * `Compiler::path_pre` emits `dst ← pre(path, src)` — every axis
//!   inverted, every `Seq` flipped — used for `⟨path⟩` (= `pre(path, ⊤)`)
//!   and exercised by `Filter` in the preimage direction.
//!
//! A `Star` whose body is a union of bare axis steps compiles to one
//! [`Instr::AxisClosure`] (with the axes inverted in the preimage
//! direction). A `Star` whose body's axis steps all move forward in
//! document order (`down`, `right`) or all backward (`up`, `left`)
//! compiles to one [`Instr::OneWayClosure`]: its Thompson NFA — of the
//! converse in the preimage direction — becomes a [`OneWay`] automaton
//! in [`Program::autos`], and its node tests are hoisted like any
//! other. Every other body — one that moves both ways, or whose
//! automaton needs more than [`crate::oneway::MAX_STATES`] states —
//! becomes a loop block run in rounds.
//!
//! Node expressions are **hoisted**: `⟦φ⟧` depends only on the tree, never
//! on loop state, so its computation is always emitted into block 0 (the
//! main sequence) and `Star` bodies merely [`Instr::FilterJoin`] against the
//! precomputed register. That makes every closure iteration a pure
//! word-level pass.
//!
//! Registers come from a free list, but releases are **block-aware**
//! (`Compiler::release_in`): only registers whose last emitted use is in
//! block 0 straight-line code may be recycled. Anything touched while
//! emitting a loop body — scratch or hoisted test set — stays pinned for
//! the program's lifetime, because a later allocation could hand the same
//! register to a block-0 hoisted set that the loop reads on *every*
//! iteration, and the body's overwrite would clobber it between
//! iterations.

use crate::{AxisSet, Instr, OneWay, Program, Reg};
use twx_obs::{self as obs, Counter};
use twx_regxpath::ast::{RNode, RPath};

/// Compiles a path expression to a program computing the forward image of
/// the context set; `Program::out` holds the answer.
pub fn compile_path(path: &RPath) -> Program {
    let mut c = Compiler::new();
    let ctx = c.alloc();
    c.emit(0, Instr::LoadCtx { dst: ctx });
    let out = c.alloc();
    c.path_image(0, path, ctx, out);
    c.finish(out)
}

/// Compiles a node expression to a program computing `⟦φ⟧` (no context
/// register; used for nested `W` programs and for tests).
pub fn compile_node(phi: &RNode) -> Program {
    let mut c = Compiler::new();
    let out = c.node_set(phi);
    c.finish(out)
}

struct Compiler {
    blocks: Vec<Vec<Instr>>,
    subs: Vec<Program>,
    autos: Vec<OneWay>,
    n_regs: u16,
    free: Vec<Reg>,
}

impl Compiler {
    fn new() -> Compiler {
        Compiler {
            blocks: vec![Vec::new()],
            subs: Vec::new(),
            autos: Vec::new(),
            n_regs: 0,
            free: Vec::new(),
        }
    }

    fn finish(self, out: Reg) -> Program {
        let p = Program::new(self.blocks, self.subs, self.autos, self.n_regs, out);
        obs::add(Counter::CompiledVmInstrs, p.n_instrs() as u64);
        p
    }

    fn alloc(&mut self) -> Reg {
        self.free.pop().unwrap_or_else(|| {
            let r = self.n_regs;
            self.n_regs = self
                .n_regs
                .checked_add(1)
                .expect("vm: register file exceeds u16");
            r
        })
    }

    fn release(&mut self, r: Reg) {
        self.free.push(r);
    }

    /// Frees `r` only when emitting at block 0. A register consumed inside
    /// a loop body is read (or overwritten-then-read) on *every* iteration;
    /// recycling it could hand the same slot to a later hoisted test set,
    /// which the next iteration's body writes would then clobber. So
    /// everything released from inside a loop body stays pinned.
    fn release_in(&mut self, block: usize, r: Reg) {
        if block == 0 {
            self.release(r);
        }
    }

    fn emit(&mut self, block: usize, i: Instr) {
        self.blocks[block].push(i);
    }

    /// Emits `dst ← img(path, src)` into `block`. Invariant: `dst ≠ src`,
    /// and the emitted code fully overwrites `dst` before reading it (so
    /// stale cross-iteration contents of scratch registers are harmless).
    fn path_image(&mut self, block: usize, path: &RPath, src: Reg, dst: Reg) {
        debug_assert_ne!(src, dst);
        match path {
            RPath::Axis(a) => self.emit(block, Instr::AxisImage { dst, src, axis: *a }),
            RPath::Eps => self.emit(block, Instr::Copy { dst, src }),
            RPath::Test(phi) => {
                let test = self.node_set(phi);
                self.emit(block, Instr::Copy { dst, src });
                self.emit(block, Instr::FilterJoin { dst, test });
                self.release_in(block, test);
            }
            RPath::Seq(_, _) => {
                // flatten the chain so a left-nested a/b/c/… ping-pongs
                // between two scratch registers instead of pinning one
                // intermediate per sequencing depth
                let mut parts = Vec::new();
                flatten_seq(path, &mut parts);
                let last = parts.len() - 1;
                let mut cur = src;
                for (i, part) in parts.iter().enumerate() {
                    let target = if i == last { dst } else { self.alloc() };
                    self.path_image(block, part, cur, target);
                    if cur != src {
                        self.release_in(block, cur);
                    }
                    cur = target;
                }
            }
            RPath::Union(a, b) => {
                self.path_image(block, a, src, dst);
                let alt = self.alloc();
                self.path_image(block, b, src, alt);
                self.emit(block, Instr::Union { dst, src: alt });
                self.release_in(block, alt);
            }
            RPath::Star(a) => {
                if let Some(axes) = axis_union(a) {
                    self.emit(block, Instr::AxisClosure { dst, src, axes });
                    return;
                }
                if self.one_way_closure(block, a, false, src, dst) {
                    return;
                }
                let frontier = self.alloc();
                let step = self.alloc();
                let body = self.blocks.len() as u16;
                self.blocks.push(Vec::new());
                self.path_image(body as usize, a, frontier, step);
                self.emit(
                    block,
                    Instr::Star {
                        dst,
                        src,
                        frontier,
                        step,
                        body,
                    },
                );
                self.release_in(block, step);
                self.release_in(block, frontier);
            }
            RPath::Filter(a, phi) => {
                self.path_image(block, a, src, dst);
                let test = self.node_set(phi);
                self.emit(block, Instr::FilterJoin { dst, test });
                self.release_in(block, test);
            }
        }
    }

    /// Emits `dst ← pre(path, src)` — nodes from which `path` reaches
    /// something in `src`. Axes invert, `Seq` flips, and `A[φ]` becomes
    /// `pre(A, src ∩ ⟦φ⟧)`.
    fn path_pre(&mut self, block: usize, path: &RPath, src: Reg, dst: Reg) {
        debug_assert_ne!(src, dst);
        match path {
            RPath::Axis(a) => self.emit(
                block,
                Instr::AxisImage {
                    dst,
                    src,
                    axis: a.inverse(),
                },
            ),
            RPath::Eps => self.emit(block, Instr::Copy { dst, src }),
            RPath::Test(phi) => {
                let test = self.node_set(phi);
                self.emit(block, Instr::Copy { dst, src });
                self.emit(block, Instr::FilterJoin { dst, test });
                self.release_in(block, test);
            }
            RPath::Seq(_, _) => {
                // as in the image direction, but the chain runs backwards
                let mut parts = Vec::new();
                flatten_seq(path, &mut parts);
                let last = parts.len() - 1;
                let mut cur = src;
                for (i, part) in parts.iter().rev().enumerate() {
                    let target = if i == last { dst } else { self.alloc() };
                    self.path_pre(block, part, cur, target);
                    if cur != src {
                        self.release_in(block, cur);
                    }
                    cur = target;
                }
            }
            RPath::Union(a, b) => {
                self.path_pre(block, a, src, dst);
                let alt = self.alloc();
                self.path_pre(block, b, src, alt);
                self.emit(block, Instr::Union { dst, src: alt });
                self.release_in(block, alt);
            }
            RPath::Star(a) => {
                if let Some(axes) = axis_union(a) {
                    let axes = axes.inverse();
                    self.emit(block, Instr::AxisClosure { dst, src, axes });
                    return;
                }
                if self.one_way_closure(block, a, true, src, dst) {
                    return;
                }
                let frontier = self.alloc();
                let step = self.alloc();
                let body = self.blocks.len() as u16;
                self.blocks.push(Vec::new());
                self.path_pre(body as usize, a, frontier, step);
                self.emit(
                    block,
                    Instr::Star {
                        dst,
                        src,
                        frontier,
                        step,
                        body,
                    },
                );
                self.release_in(block, step);
                self.release_in(block, frontier);
            }
            RPath::Filter(a, phi) => {
                let test = self.node_set(phi);
                let mid = self.alloc();
                self.emit(block, Instr::Copy { dst: mid, src });
                self.emit(block, Instr::FilterJoin { dst: mid, test });
                self.release_in(block, test);
                self.path_pre(block, a, mid, dst);
                self.release_in(block, mid);
            }
        }
    }

    /// Emits `dst ← img(body*, src)` — of `(body⁻¹)*` with `converse` —
    /// as one [`Instr::OneWayClosure`] and returns `true` when the body
    /// moves one way only; otherwise emits nothing and returns `false`.
    fn one_way_closure(
        &mut self,
        block: usize,
        body: &RPath,
        converse: bool,
        src: Reg,
        dst: Reg,
    ) -> bool {
        let mut tests = Vec::new();
        let Some(auto) = OneWay::compile(body, converse, |phi| {
            let test = self.node_set(phi);
            tests.push(test);
            test
        }) else {
            return false;
        };
        let id = u16::try_from(self.autos.len()).expect("vm: automata exceed u16");
        self.autos.push(auto);
        self.emit(block, Instr::OneWayClosure { dst, src, auto: id });
        for test in tests {
            self.release_in(block, test);
        }
        true
    }

    /// Emits code computing `⟦φ⟧` into a fresh register — always into
    /// block 0, because test sets are loop-invariant (they depend only on
    /// the tree). Returns the register holding the set.
    fn node_set(&mut self, phi: &RNode) -> Reg {
        match phi {
            RNode::True => {
                let dst = self.alloc();
                self.emit(0, Instr::LoadFull { dst });
                dst
            }
            RNode::Label(l) => {
                let dst = self.alloc();
                self.emit(0, Instr::LoadLabel { dst, label: *l });
                dst
            }
            RNode::Some(a) => {
                // ⟨A⟩ = domain of the relation = pre(A, ⊤)
                let full = self.alloc();
                self.emit(0, Instr::LoadFull { dst: full });
                let dst = self.alloc();
                self.path_pre(0, a, full, dst);
                self.release(full);
                dst
            }
            RNode::Not(f) => {
                let dst = self.node_set(f);
                self.emit(0, Instr::Complement { dst });
                dst
            }
            RNode::And(f, g) => {
                let dst = self.node_set(f);
                let rhs = self.node_set(g);
                self.emit(0, Instr::Intersect { dst, src: rhs });
                self.release(rhs);
                dst
            }
            RNode::Or(f, g) => {
                let dst = self.node_set(f);
                let rhs = self.node_set(g);
                self.emit(0, Instr::Union { dst, src: rhs });
                self.release(rhs);
                dst
            }
            RNode::Within(f) => {
                let sub = self.subs.len() as u16;
                self.subs.push(compile_node(f));
                let dst = self.alloc();
                self.emit(0, Instr::Within { dst, sub });
                dst
            }
        }
    }
}

/// The axes of a `Star` body that is a union of bare axis steps
/// (`down`, `down | right`, `(left | up) | left`, …), or `None` for any
/// other body.
fn axis_union(p: &RPath) -> Option<AxisSet> {
    match p {
        RPath::Axis(a) => Some(AxisSet::of([*a])),
        RPath::Union(a, b) => {
            let (a, b) = (axis_union(a)?, axis_union(b)?);
            Some(AxisSet::of(a.iter().chain(b.iter())))
        }
        _ => None,
    }
}

/// Collects the leaves of a left/right-nested `Seq` chain in order.
fn flatten_seq<'a>(p: &'a RPath, out: &mut Vec<&'a RPath>) {
    match p {
        RPath::Seq(a, b) => {
            flatten_seq(a, out);
            flatten_seq(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instr;
    use twx_regxpath::parser::parse_rpath;
    use twx_xtree::Alphabet;

    fn path(s: &str) -> RPath {
        parse_rpath(s, &mut Alphabet::default()).unwrap()
    }

    #[test]
    fn tests_inside_stars_are_hoisted() {
        // (down[p0] | up)* — the p0 set must be loaded in block 0, and the
        // loop body must contain no Load instructions at all.
        let p = compile_path(&path("(down[p0] | up)*"));
        assert_eq!(p.blocks.len(), 2);
        assert!(p.blocks[0]
            .iter()
            .any(|i| matches!(i, Instr::LoadLabel { .. })));
        assert!(p.blocks[1]
            .iter()
            .all(|i| !matches!(i, Instr::LoadLabel { .. } | Instr::LoadFull { .. })));
    }

    #[test]
    fn bare_axis_stars_compile_to_one_axis_closure() {
        use twx_regxpath::ast::Axis::{Down, Right, Up};
        let closures = |q: &str| -> Vec<AxisSet> {
            let p = compile_path(&path(q));
            assert_eq!(p.blocks.len(), 1, "{q}: no loop body");
            p.blocks[0]
                .iter()
                .filter_map(|i| match *i {
                    Instr::AxisClosure { axes, .. } => Some(axes),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(closures("down*"), [AxisSet::of([Down])]);
        assert_eq!(
            closures("(down | (right | down))*"),
            [AxisSet::of([Down, Right])]
        );
        // `<…>` is a preimage: the axes are inverted
        assert_eq!(
            closures("down*[<(down | left)*[p0]>]"),
            [AxisSet::of([Down]), AxisSet::of([Up, Right])]
        );
        // a body that moves both ways keeps its loop block
        for q in ["(down/up)*", "(down[p0] | left)*", "(down | up/.)*"] {
            assert_eq!(compile_path(&path(q)).blocks.len(), 2, "{q}");
        }
    }

    #[test]
    fn one_way_stars_compile_to_one_pass_and_fold_nested_stars() {
        // (auto index, forward) of every OneWayClosure, in emission order
        let passes = |q: &str| -> Vec<bool> {
            let p = compile_path(&path(q));
            assert_eq!(p.blocks.len(), 1, "{q}: no loop body");
            let mut ids = Vec::new();
            for i in &p.blocks[0] {
                if let Instr::OneWayClosure { auto, .. } = *i {
                    ids.push(p.autos[auto as usize].forward());
                }
            }
            assert_eq!(ids.len(), p.autos.len(), "{q}: one automaton per pass");
            ids
        };
        assert_eq!(passes("(down/down)*[p0]"), [true]);
        assert_eq!(passes("(down[p0] | right)*"), [true]);
        assert_eq!(passes("(up/left*)*"), [false], "the nested star folds in");
        assert_eq!(passes("(down | .)*"), [true]);
        // `<…>` is a preimage: a forward body runs the backward pass
        assert_eq!(passes("down*[<(down/down)*[p1]>]"), [false]);
        assert_eq!(passes("(down/down)*/(up/up)*"), [true, false]);
        // the test sets are loaded in block 0, before the pass
        let p = compile_path(&path("(down[p0] | right[p1])*"));
        let loads = p.blocks[0]
            .iter()
            .filter(|i| matches!(i, Instr::LoadLabel { .. }))
            .count();
        assert_eq!(loads, 2);
        assert!(matches!(
            p.blocks[0].last(),
            Some(Instr::OneWayClosure { .. })
        ));
    }

    #[test]
    fn automata_past_the_state_bound_run_rounds() {
        // k `down` steps: k states a move leaves, plus accept
        let steps = |k: usize| format!("({})*", vec!["down"; k].join("/"));
        for (k, pass) in [(62, true), (63, true), (64, false)] {
            let p = compile_path(&path(&steps(k)));
            assert_eq!(p.autos.len(), usize::from(pass), "{k} steps");
            assert_eq!(p.blocks.len(), if pass { 1 } else { 2 }, "{k} steps");
        }
    }

    #[test]
    fn register_file_stays_small_on_deep_seqs() {
        // a/a/a/.../a reuses the freed mid registers instead of growing
        let p = compile_path(&path("down/down/down/down/down/down/down/down"));
        assert!(p.n_regs <= 4, "free-list reuse failed: {} regs", p.n_regs);
    }

    #[test]
    fn loop_body_scratch_is_never_recycled_into_a_hoisted_set() {
        // regression: in ((right/up)[!p1])* the Seq's body-block scratch
        // used to be released and immediately reused for the hoisted ¬p1
        // set, so the first closure iteration clobbered the test. No
        // instruction in a loop body may write a register that block 0
        // loads as a test set.
        let p = compile_path(&path("((right/up)[!p1])*"));
        let mut hoisted = Vec::new();
        for i in &p.blocks[0] {
            if let Instr::LoadLabel { dst, .. } | Instr::LoadFull { dst } = i {
                hoisted.push(*dst);
            }
        }
        for body in &p.blocks[1..] {
            for i in body {
                let written = i.dst();
                assert!(
                    !hoisted.contains(&written),
                    "body instruction {i:?} clobbers hoisted register {written}"
                );
            }
        }
    }

    #[test]
    fn within_compiles_to_nested_program() {
        let mut ab = Alphabet::default();
        let p = parse_rpath("down*[<down*[W(p0)]>]", &mut ab).unwrap();
        let prog = compile_path(&p);
        fn has_within(p: &Program) -> bool {
            !p.subs.is_empty()
                || p.blocks
                    .iter()
                    .any(|b| b.iter().any(|i| matches!(i, Instr::Within { .. })))
        }
        assert!(has_within(&prog));
    }
}
