//! # twx-regxpath — Regular XPath(W)
//!
//! The query language at the centre of the paper: Core XPath closed under
//! the **Kleene star of arbitrary path expressions** (Regular XPath), plus
//! the **subtree relativisation operator `W`** ("within"):
//!
//! ```text
//! pexpr ::=  ↓ | ↑ | ← | → | ε | ?nexpr
//!         |  pexpr/pexpr | pexpr ∪ pexpr | pexpr* | pexpr[nexpr]
//! nexpr ::=  p | ⊤ | ⟨pexpr⟩ | ¬nexpr | nexpr ∧ nexpr | nexpr ∨ nexpr
//!         |  W nexpr
//! ```
//!
//! `W φ` holds at a node `v` iff `φ` holds at `v` in the subtree rooted at
//! `v` — the operator that closes Regular XPath under the FO(MTC)
//! translation and gives the equivalence with nested tree walking automata
//! (ten Cate & Segoufin 2008).
//!
//! Provided here:
//!
//! * the AST ([`ast`]), surface parser ([`parser`]) and printer ([`mod@print`]);
//! * Glushkov/Thompson-style compilation of path expressions to NFAs over
//!   the *move alphabet* `{↓, ↑, ←, →} ∪ {?φ}` ([`nfa`]) — the word-shaped
//!   view of tree walking that underlies both evaluation and the
//!   translation to tree walking automata;
//! * the **product evaluator** ([`eval`]): reachability in the product of
//!   the tree and the NFA, `O(|T| · |A|)` per context set;
//! * a naive relational baseline using `n × n` bit matrices and matrix
//!   star ([`eval_naive`]), `O(|A| · n³ log n / 64)`;
//! * random expression generation ([`generate`]) for differential testing.

pub mod ast;
pub mod eval;
pub mod eval_naive;
pub mod generate;
pub mod nfa;
pub mod parser;
pub mod print;
pub mod shrink;
pub mod simplify;

pub use ast::{RNode, RPath};
pub use eval::{eval_image, eval_node, eval_preimage, eval_rel, query};
pub use eval_naive::{eval_node_naive, eval_rel_naive};
pub use nfa::{Nfa, PathNfa};
pub use parser::{
    parse_rnode, parse_rnode_catalog, parse_rnode_resolved, parse_rpath, parse_rpath_bound,
    parse_rpath_catalog, parse_rpath_resolved, ResolveError,
};
pub use simplify::{simplify_rnode, simplify_rpath};
