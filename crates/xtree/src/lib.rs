//! # twx-xtree — sibling-ordered labelled tree substrate
//!
//! The data model of the paper: finite, sibling-ordered, node-labelled,
//! unranked trees — the standard abstraction of an XML document
//! ("we are too blind to see actual text content").
//!
//! A tree is a tuple `T = (N, R_child, R_nextsib, V)` where `N` is a finite
//! set of nodes, `R_child` and `R_nextsib` are the child and next-sibling
//! relations of a finite ordered tree, and `V : N -> Σ` assigns each node a
//! label (we use the unique-labelling convention; multi-label predicates can
//! be simulated with products of alphabets).
//!
//! This crate provides:
//!
//! * [`Tree`]: an arena (struct-of-arrays) representation with `u32` node
//!   ids assigned in **document (preorder) order**;
//! * [`Alphabet`]: a label interner shared between trees and queries, and
//!   [`Catalog`]: its thread-safe, append-only, `Arc`-shareable form — the
//!   label space many documents and compiled query plans share;
//! * [`TreeBuilder`]: SAX-style open/close construction;
//! * parsers for a subset of XML and for s-expressions ([`parse`]);
//! * serializers to XML, s-expressions and Graphviz DOT ([`serialize`]);
//! * traversal iterators covering all XPath axes ([`traverse`]);
//! * the first-child/next-sibling binary encoding ([`fcns`]) used by
//!   bottom-up tree automata;
//! * the balanced-parentheses structure codec ([`bp`]): two bits of tree
//!   shape per node, the compact layout of the `twx-store` snapshots;
//! * random tree generators for six workload families and an exhaustive
//!   enumerator of all trees of a given size ([`generate`]), driven by the
//!   dependency-free deterministic PRNG in [`rng`];
//! * dense [`NodeSet`] bitsets and [`BitMatrix`] binary relations used by
//!   every evaluator in the workspace ([`nodeset`]).

pub mod alphabet;
pub mod bp;
pub mod builder;
pub mod catalog;
pub mod edit;
pub mod fcns;
pub mod generate;
pub mod nodeset;
pub mod parse;
pub mod rng;
pub mod serialize;
pub mod shrink;
pub mod traverse;
pub mod tree;

pub use alphabet::{Alphabet, Label};
pub use bp::{BpError, StructureBits};
pub use builder::TreeBuilder;
pub use catalog::Catalog;
pub use edit::{apply_edit, DocVersion, Edit, EditError, EditReceipt, Span, VersionedDocument};
pub use fcns::BinTree;
pub use nodeset::{BitMatrix, NodeSet};
pub use tree::{Document, NodeId, Tree};
