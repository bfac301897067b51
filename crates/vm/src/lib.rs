//! # twx-vm — bytecode VM over dense bitset registers
//!
//! The engine's one evaluator: Regular XPath(W) plans compiled to a flat
//! **register machine** whose values are [`twx_xtree::NodeSet`]s — one dense word-level
//! bitset per register. Path expressions are relation-algebraic
//! compositions, so their *image semantics* maps directly onto straight-line
//! code over set registers:
//!
//! ```text
//! img(a, S)        = one tree step            → AxisImage
//! img(?φ, S)       = S ∩ ⟦φ⟧                  → FilterJoin
//! img(A/B, S)      = img(B, img(A, S))        → sequential code
//! img(A ∪ B, S)    = img(A,S) ∪ img(B,S)      → Union (in place)
//! img(A*, S)       = least fixpoint ⊇ S       → Star (frontier closure)
//! img((a|b|…)*, S) = the same, for bare axes  → AxisClosure (one pass)
//! img(A*, S)       = the same, A one-way      → OneWayClosure (one pass)
//! img(A[φ], S)     = img(A,S) ∩ ⟦φ⟧           → FilterJoin
//! ```
//!
//! `⟨A⟩` is the *domain* of the relation — compiled as the preimage of the
//! full set under `A` with every axis inverted and every `Seq` flipped.
//! `W φ` keeps the subtree-extraction semantics shared by every other
//! evaluator in the workspace: a nested [`Program`] run on the subtree of
//! each node ([`Instr::Within`]).
//!
//! Three properties make this the fast route:
//!
//! * **in-place word ops** — every `∪ ∩ \ ¬` is an `O(n/64)` pass over the
//!   destination register, no temporaries ([`twx_xtree::NodeSet::union_with`] and
//!   friends added for exactly this);
//! * **arena-recycled registers** — evaluation borrows a register file from
//!   a thread-local `Arena` and returns it afterwards, so a plan-cache-hot
//!   `eval_cached` loop performs no allocation at all (registers are
//!   [`twx_xtree::NodeSet::reset`], keeping their word buffers);
//! * **closures without rounds where the tree allows it** — the star of
//!   a union of bare axis steps (`down*`, `(down | right)*`,
//!   `(left | up)*`, …) is [`Instr::AxisClosure`]: one kernel that adds
//!   one preorder interval per source when the set contains `down`, and
//!   otherwise walks parent and sibling links with the accumulator as
//!   its visited set. A closure over a deep tree then costs O(|S| + n)
//!   link reads and O(n/64) word writes, not one round per level. A
//!   star whose body's axis steps all move forward in document order
//!   (`down`, `right`) or all backward (`up`, `left`) is
//!   [`Instr::OneWayClosure`]: the star's walking automaton, compiled
//!   to `u64` state masks, run in one preorder (or reverse preorder)
//!   pass that jumps over what no walk reaches (see [`oneway`]). Every
//!   other `Star` body — one that moves both ways, or whose automaton
//!   has more than [`oneway::MAX_STATES`] states — runs **hybrid
//!   rounds**: it iterates
//!   `frontier → step` until a round finds nothing new; a small
//!   frontier runs the loop body on node-id vectors (O(frontier) per
//!   round), a large one on the dense registers, where folding `step`
//!   into the accumulator and counting what was new is one word pass.
//!   See [`interp`].
//!
//! Programs carry a stable FNV-1a [`Program::fingerprint`] over their
//! instruction encoding, so they drop into the engine's `PlanCache` and
//! span-invalidated `ResultCache` like any other compiled artifact.

pub mod compile;
pub mod interp;
pub mod oneway;

pub use compile::{compile_node, compile_path};
pub use interp::{eval_image, eval_node_set, Arena};
pub use oneway::OneWay;

use twx_regxpath::ast::Axis;
use twx_xtree::Label;

/// A register index into the program's register file.
pub type Reg = u16;

/// One VM instruction. Registers hold [`twx_xtree::NodeSet`]s over the
/// document's node universe; every binary operation is in place on `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// `dst ← ∅`
    LoadEmpty { dst: Reg },
    /// `dst ← all nodes`
    LoadFull { dst: Reg },
    /// `dst ← { v : label(v) = label }`
    LoadLabel { dst: Reg, label: Label },
    /// `dst ← context set` (the evaluation input; main program only)
    LoadCtx { dst: Reg },
    /// `dst ← src`
    Copy { dst: Reg, src: Reg },
    /// `dst ← dst ∪ src`
    Union { dst: Reg, src: Reg },
    /// `dst ← dst ∩ src`
    Intersect { dst: Reg, src: Reg },
    /// `dst ← dst \ src`
    Difference { dst: Reg, src: Reg },
    /// `dst ← ¬dst`
    Complement { dst: Reg },
    /// `dst ← { u : ∃ v ∈ src, v -axis→ u }` — the one-step tree move.
    AxisImage { dst: Reg, src: Reg, axis: Axis },
    /// `dst ← src ∪ img((a₁ | … | aₖ)⁺, src)` for the axes in `axes` —
    /// a closure of bare axis steps, run as one kernel with no rounds.
    AxisClosure { dst: Reg, src: Reg, axes: AxisSet },
    /// `dst ← img(A*, src)` for a star whose body moves one way only —
    /// one pass of the automaton `Program::autos[auto]`, no rounds.
    OneWayClosure { dst: Reg, src: Reg, auto: u16 },
    /// `dst ← dst ∩ test` — the relational filter-join (`A[φ]`, `?φ`).
    /// Semantically an intersect; a distinct opcode because `test` holds a
    /// hoisted, loop-invariant node-expression set.
    FilterJoin { dst: Reg, test: Reg },
    /// Kleene-star closure to fixpoint: `dst ← src`, then repeatedly run
    /// block `body` (which computes `step ← img(A, frontier)`) and fold
    /// `step \ dst` into `dst` until nothing new appears. Afterwards only
    /// `dst` is defined: `frontier`, `step` and the body's scratch
    /// registers are dead.
    Star {
        dst: Reg,
        src: Reg,
        frontier: Reg,
        step: Reg,
        body: u16,
    },
    /// `dst ← { v : sub-program holds at the root of subtree(v) }` — the
    /// `W` (within) operator via subtree extraction, matching the product
    /// and relational evaluators node for node.
    Within { dst: Reg, sub: u16 },
}

/// A compiled register program.
///
/// `blocks[0]` is the main instruction sequence; further blocks are
/// `Star` loop bodies sharing the same register file. `subs` are nested
/// programs for `W` with their own (subtree-sized) register files, and
/// `autos` the automata of the `OneWayClosure` instructions.
#[derive(Clone, Debug)]
pub struct Program {
    pub blocks: Vec<Vec<Instr>>,
    pub subs: Vec<Program>,
    pub autos: Vec<OneWay>,
    pub n_regs: u16,
    pub out: Reg,
    fingerprint: u64,
    /// Per block: whether it is a `Star` body that can run sparse rounds
    /// (derived from `blocks`, so not part of the fingerprint).
    sparse_bodies: Vec<bool>,
}

impl Program {
    pub(crate) fn new(
        blocks: Vec<Vec<Instr>>,
        subs: Vec<Program>,
        autos: Vec<OneWay>,
        n_regs: u16,
        out: Reg,
    ) -> Program {
        let mut sparse_bodies = vec![false; blocks.len()];
        for instr in blocks.iter().flatten() {
            if let Instr::Star {
                frontier,
                step,
                body,
                ..
            } = *instr
            {
                sparse_bodies[body as usize] =
                    interp::sparse_body(&blocks[body as usize], frontier, step);
            }
        }
        let mut p = Program {
            blocks,
            subs,
            autos,
            n_regs,
            out,
            fingerprint: 0,
            sparse_bodies,
        };
        let mut h = Fnv::new();
        p.hash_into(&mut h);
        p.fingerprint = h.finish();
        p
    }

    /// Stable 64-bit FNV-1a fingerprint of the instruction encoding
    /// (including nested sub-programs). Identical plans — even compiled in
    /// different processes — fingerprint identically, so the value is a
    /// sound result-cache key component.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether block `body` is a `Star` body that can run sparse rounds.
    pub(crate) fn sparse_body(&self, body: usize) -> bool {
        self.sparse_bodies[body]
    }

    /// Total instruction count across all blocks and nested programs.
    pub fn n_instrs(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum::<usize>()
            + self.subs.iter().map(Program::n_instrs).sum::<usize>()
    }

    /// Registers in this program's file plus the widest nested file.
    pub fn n_regs_total(&self) -> usize {
        self.n_regs as usize
            + self
                .subs
                .iter()
                .map(Program::n_regs_total)
                .max()
                .unwrap_or(0)
    }

    fn hash_into(&self, h: &mut Fnv) {
        h.u64(self.n_regs as u64);
        h.u64(self.out as u64);
        h.u64(self.blocks.len() as u64);
        for b in &self.blocks {
            h.u64(b.len() as u64);
            for i in b {
                i.hash_into(h);
            }
        }
        h.u64(self.subs.len() as u64);
        for s in &self.subs {
            s.hash_into(h);
        }
        h.u64(self.autos.len() as u64);
        for a in &self.autos {
            a.hash_into(|w| h.u64(w));
        }
    }
}

impl Instr {
    /// The register this instruction writes.
    pub(crate) fn dst(&self) -> Reg {
        match *self {
            Instr::LoadEmpty { dst }
            | Instr::LoadFull { dst }
            | Instr::LoadLabel { dst, .. }
            | Instr::LoadCtx { dst }
            | Instr::Copy { dst, .. }
            | Instr::Union { dst, .. }
            | Instr::Intersect { dst, .. }
            | Instr::Difference { dst, .. }
            | Instr::Complement { dst }
            | Instr::AxisImage { dst, .. }
            | Instr::AxisClosure { dst, .. }
            | Instr::OneWayClosure { dst, .. }
            | Instr::FilterJoin { dst, .. }
            | Instr::Star { dst, .. }
            | Instr::Within { dst, .. } => dst,
        }
    }

    fn hash_into(&self, h: &mut Fnv) {
        match *self {
            Instr::LoadEmpty { dst } => h.op(0, &[dst as u64]),
            Instr::LoadFull { dst } => h.op(1, &[dst as u64]),
            Instr::LoadLabel { dst, label } => h.op(2, &[dst as u64, label.0 as u64]),
            Instr::LoadCtx { dst } => h.op(3, &[dst as u64]),
            Instr::Copy { dst, src } => h.op(4, &[dst as u64, src as u64]),
            Instr::Union { dst, src } => h.op(5, &[dst as u64, src as u64]),
            Instr::Intersect { dst, src } => h.op(6, &[dst as u64, src as u64]),
            Instr::Difference { dst, src } => h.op(7, &[dst as u64, src as u64]),
            Instr::Complement { dst } => h.op(8, &[dst as u64]),
            Instr::AxisImage { dst, src, axis } => {
                h.op(9, &[dst as u64, src as u64, axis_code(axis)])
            }
            Instr::FilterJoin { dst, test } => h.op(10, &[dst as u64, test as u64]),
            Instr::Star {
                dst,
                src,
                frontier,
                step,
                body,
            } => h.op(
                11,
                &[
                    dst as u64,
                    src as u64,
                    frontier as u64,
                    step as u64,
                    body as u64,
                ],
            ),
            Instr::Within { dst, sub } => h.op(12, &[dst as u64, sub as u64]),
            Instr::AxisClosure { dst, src, axes } => {
                h.op(13, &[dst as u64, src as u64, axes.0 as u64])
            }
            Instr::OneWayClosure { dst, src, auto } => {
                h.op(14, &[dst as u64, src as u64, auto as u64])
            }
        }
    }
}

fn axis_code(a: Axis) -> u64 {
    match a {
        Axis::Down => 0,
        Axis::Up => 1,
        Axis::Left => 2,
        Axis::Right => 3,
    }
}

/// A set of the four basic axes, one bit each (bit `axis_code(a)`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AxisSet(u8);

impl AxisSet {
    const ALL: [Axis; 4] = [Axis::Down, Axis::Up, Axis::Left, Axis::Right];

    /// The set holding exactly `axes`.
    pub fn of(axes: impl IntoIterator<Item = Axis>) -> AxisSet {
        axes.into_iter()
            .fold(AxisSet(0), |s, a| AxisSet(s.0 | 1 << axis_code(a)))
    }

    /// Whether `a` is in the set.
    pub fn contains(self, a: Axis) -> bool {
        self.0 & 1 << axis_code(a) != 0
    }

    /// The set of the inverse axes (`down` ↔ `up`, `left` ↔ `right`).
    pub fn inverse(self) -> AxisSet {
        AxisSet::of(self.iter().map(Axis::inverse))
    }

    /// The axes in the set, in `down, up, left, right` order.
    pub fn iter(self) -> impl Iterator<Item = Axis> {
        AxisSet::ALL.into_iter().filter(move |&a| self.contains(a))
    }
}

impl std::fmt::Debug for AxisSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// FNV-1a, 64-bit — tiny, dependency-free, and stable across platforms
/// (unlike `DefaultHasher`, whose output is unspecified between releases).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn op(&mut self, opcode: u8, operands: &[u64]) {
        self.u64(opcode as u64);
        for &v in operands {
            self.u64(v);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_regxpath::parser::parse_rpath;
    use twx_xtree::Alphabet;

    fn path(ab: &mut Alphabet, s: &str) -> twx_regxpath::RPath {
        parse_rpath(s, ab).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        // one shared alphabet: p0 and p1 must intern to distinct labels
        let mut ab = Alphabet::default();
        let a = compile_path(&path(&mut ab, "down*[p0]"));
        let b = compile_path(&path(&mut ab, "down*[p0]"));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = compile_path(&path(&mut ab, "down*[p1]"));
        assert_ne!(a.fingerprint(), c.fingerprint(), "labels must be hashed");
        let d = compile_path(&path(&mut ab, "up*[p0]"));
        assert_ne!(a.fingerprint(), d.fingerprint(), "axes must be hashed");
        // one-way stars differing only in their automaton
        let e = compile_path(&path(&mut ab, "(down/down)*"));
        let f = compile_path(&path(&mut ab, "(down/down/down)*"));
        assert_eq!(e.blocks, f.blocks, "same instructions");
        assert_ne!(e.fingerprint(), f.fingerprint(), "automata must be hashed");
    }

    #[test]
    fn program_reports_sizes() {
        let p = compile_path(&path(&mut Alphabet::default(), "(down/right | up)*[p0]"));
        assert!(p.n_instrs() >= 5);
        assert!(p.n_regs >= 3);
        assert!(p.blocks.len() >= 2, "a star compiles to a loop body block");
    }
}
