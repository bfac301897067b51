//! Balanced-parentheses structure encoding.
//!
//! A sibling-ordered tree of `n` nodes is exactly a balanced string of
//! `n` parenthesis pairs: emit `1` when a node opens and `0` when it
//! closes, in document order. Two bits of structure per node — against
//! the 16 bytes per node of the arena [`Tree`] (four `u32` link/label
//! arrays) this is the ~100× shape compression that lets the on-disk
//! snapshot format of `twx-store` aim at 100M-node corpora, in the
//! succinct-representation tradition (Jacobson bit-vectors with
//! rank/select reconstruction).
//!
//! The codec here is deliberately minimal: [`StructureBits`] is a packed
//! word-level bitvector, [`Tree::structure_bits`] produces it in one
//! preorder pass, and [`Tree::from_structure_bits`] rebuilds the arena by
//! replaying the parentheses through [`TreeBuilder`] — the open/close
//! events *are* the SAX stream, so child/parent links are reconstructed
//! exactly (the builder assigns preorder ids by construction, which is a
//! rank-over-open-bits computation in the succinct literature). Labels
//! travel separately, one per open bit in document order.

use crate::alphabet::Label;
use crate::builder::TreeBuilder;
use crate::tree::{Document, Tree};
use std::fmt;

/// A packed balanced-parentheses bitvector: bit `i` (LSB-first within
/// each `u64` word) is `1` if the `i`-th parenthesis in document order
/// opens a node and `0` if it closes one. A tree of `n` nodes has
/// exactly `2n` bits, `n` of them set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructureBits {
    words: Vec<u64>,
    /// Number of meaningful bits (`2 × nodes`).
    len: usize,
}

impl StructureBits {
    /// An empty bitvector to push into.
    fn with_capacity(bits: usize) -> StructureBits {
        StructureBits {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Wraps raw words (e.g. read back from a snapshot section). Bits at
    /// and beyond `len` are ignored by [`Tree::from_structure_bits`], but
    /// `len` must fit inside `words`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<StructureBits, BpError> {
        if len > words.len() * 64 {
            return Err(BpError::LengthOutOfRange {
                len,
                capacity: words.len() * 64,
            });
        }
        Ok(StructureBits { words, len })
    }

    /// The packed words, LSB-first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of meaningful bits (always `2 × nodes` for encoder output).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitvector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of set (open) bits — the node count of the encoded
    /// tree. Word-level popcount.
    pub fn count_ones(&self) -> usize {
        let mut total = 0usize;
        for (w, &word) in self.words.iter().enumerate() {
            let base = w * 64;
            if base >= self.len {
                break;
            }
            let avail = self.len - base;
            let masked = if avail >= 64 {
                word
            } else {
                word & ((1u64 << avail) - 1)
            };
            total += masked.count_ones() as usize;
        }
        total
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    fn push(&mut self, bit: bool) {
        let slot = self.len / 64;
        if slot == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[slot] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }
}

/// Why a balanced-parentheses decode failed. Decoding never panics: a
/// corrupted snapshot section must surface as a typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BpError {
    /// The declared bit length exceeds the backing words.
    LengthOutOfRange {
        /// Declared length in bits.
        len: usize,
        /// Bits actually backed by words.
        capacity: usize,
    },
    /// The bit string has odd length or zero length.
    BadLength {
        /// The offending length.
        len: usize,
    },
    /// A close bit appeared with no node open (unbalanced), at bit `at`.
    Unbalanced {
        /// Offset of the offending bit.
        at: usize,
    },
    /// The string closed the root before its end, or never closed it —
    /// the parentheses do not describe exactly one tree.
    NotOneTree,
    /// Fewer labels than open bits (or more).
    LabelCountMismatch {
        /// Open (node) bits in the structure.
        nodes: usize,
        /// Labels supplied.
        labels: usize,
    },
}

impl fmt::Display for BpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BpError::LengthOutOfRange { len, capacity } => {
                write!(f, "bit length {len} exceeds backing capacity {capacity}")
            }
            BpError::BadLength { len } => {
                write!(f, "structure bit string of length {len} cannot be a tree")
            }
            BpError::Unbalanced { at } => write!(f, "unbalanced close bit at offset {at}"),
            BpError::NotOneTree => write!(f, "parentheses do not describe exactly one tree"),
            BpError::LabelCountMismatch { nodes, labels } => {
                write!(
                    f,
                    "structure has {nodes} nodes but {labels} labels were supplied"
                )
            }
        }
    }
}

impl std::error::Error for BpError {}

impl Tree {
    /// Encodes the tree shape as a balanced-parentheses bitvector: one
    /// open (`1`) and one close (`0`) bit per node, document order,
    /// `2 × len()` bits total.
    pub fn structure_bits(&self) -> StructureBits {
        let mut bits = StructureBits::with_capacity(2 * self.len());
        // Document-order walk emitting opens on the way down and closes
        // on the way back up — iterative, so deep chains cannot overflow
        // the call stack.
        let mut v = Some(self.root());
        let mut open_depth = 0usize;
        while let Some(u) = v {
            bits.push(true);
            open_depth += 1;
            if let Some(c) = self.first_child(u) {
                v = Some(c);
                continue;
            }
            // close u, then walk up until a next sibling exists
            let mut w = u;
            loop {
                bits.push(false);
                open_depth -= 1;
                if let Some(s) = self.next_sibling(w) {
                    v = Some(s);
                    break;
                }
                match self.parent(w) {
                    Some(p) => w = p,
                    None => {
                        v = None;
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(open_depth, 0);
        debug_assert_eq!(bits.len(), 2 * self.len());
        bits
    }

    /// Rebuilds a tree from its balanced-parentheses structure and the
    /// per-node labels in document order — the exact inverse of
    /// [`Tree::structure_bits`] paired with the label column. Returns a
    /// typed [`BpError`] (never panics) on any malformed input, which is
    /// how snapshot decoding rejects corrupted sections.
    pub fn from_structure_bits(bits: &StructureBits, labels: &[Label]) -> Result<Tree, BpError> {
        let len = bits.len();
        if len == 0 || !len.is_multiple_of(2) {
            return Err(BpError::BadLength { len });
        }
        let nodes = len / 2;
        if bits.count_ones() != nodes {
            // more opens than closes (or vice versa) — cannot balance
            return Err(BpError::NotOneTree);
        }
        if labels.len() != nodes {
            return Err(BpError::LabelCountMismatch {
                nodes,
                labels: labels.len(),
            });
        }
        let mut b = TreeBuilder::with_capacity(nodes);
        let mut next_label = 0usize;
        let mut depth = 0usize;
        for i in 0..len {
            if bits.get(i) {
                if depth == 0 && next_label > 0 {
                    // a second root opened after the first closed
                    return Err(BpError::NotOneTree);
                }
                b.open(labels[next_label]);
                next_label += 1;
                depth += 1;
            } else {
                if depth == 0 {
                    return Err(BpError::Unbalanced { at: i });
                }
                b.close();
                depth -= 1;
            }
        }
        if depth != 0 {
            return Err(BpError::NotOneTree);
        }
        Ok(b.finish())
    }

    /// The label column: one label per node in document order, the
    /// companion of [`Tree::structure_bits`].
    pub fn label_column(&self) -> Vec<Label> {
        self.nodes().map(|v| self.label(v)).collect()
    }
}

impl Document {
    /// Balanced-parentheses encoding of the document's tree shape (see
    /// [`Tree::structure_bits`]).
    pub fn structure_bits(&self) -> StructureBits {
        self.tree.structure_bits()
    }

    /// Rebuilds a document from structure bits, a document-order label
    /// column, and the alphabet the labels belong to.
    pub fn from_structure_bits(
        bits: &StructureBits,
        labels: &[Label],
        alphabet: crate::alphabet::Alphabet,
    ) -> Result<Document, BpError> {
        Ok(Document::new(
            Tree::from_structure_bits(bits, labels)?,
            alphabet,
        ))
    }
}

/// Resident bytes per node of the arena [`Tree`] representation: four
/// `u32` columns (label + three links). The baseline the compact snapshot
/// layout is measured against in E13.
pub const ARENA_BYTES_PER_NODE: usize = 4 * 4;

/// Approximate resident bytes per node of the compact layout for a tree
/// of `n` nodes over a `palette_len`-label palette: 2 structure bits plus
/// `ceil(log2(palette_len))` label bits, rounded up to whole words.
pub fn compact_bytes_per_node(n: usize, palette_len: usize) -> f64 {
    let label_bits = bits_for_palette(palette_len);
    let structure_words = (2 * n).div_ceil(64);
    let label_words = (n * label_bits).div_ceil(64);
    ((structure_words + label_words) * 8) as f64 / n.max(1) as f64
}

/// Bits needed to index a palette of `len` entries (0 for a single-label
/// palette: the column is implicit).
pub fn bits_for_palette(len: usize) -> usize {
    if len <= 1 {
        0
    } else {
        (usize::BITS - (len - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_sexp;

    #[test]
    fn leaf_roundtrips() {
        let t = Tree::leaf(Label(3));
        let bits = t.structure_bits();
        assert_eq!(bits.len(), 2);
        assert!(bits.get(0) && !bits.get(1));
        assert_eq!(bits.count_ones(), 1);
        let back = Tree::from_structure_bits(&bits, &t.label_column()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn sample_structure_is_the_paren_string() {
        // (a (b c) d) = 1 1 1 0 0 1 0 0
        let d = parse_sexp("(a (b c) d)").unwrap();
        let bits = d.structure_bits();
        let s: String = (0..bits.len())
            .map(|i| if bits.get(i) { '1' } else { '0' })
            .collect();
        assert_eq!(s, "11100100");
        let back = Document::from_structure_bits(&bits, &d.tree.label_column(), d.alphabet.clone())
            .unwrap();
        assert_eq!(back.tree, d.tree);
    }

    #[test]
    fn malformed_bits_are_typed_errors() {
        let mk = |s: &str| {
            let mut words = vec![0u64];
            for (i, c) in s.chars().enumerate() {
                if c == '1' {
                    words[i / 64] |= 1 << (i % 64);
                }
            }
            StructureBits::from_words(words, s.len()).unwrap()
        };
        let l = [Label(0)];
        let ll = [Label(0), Label(1)];
        assert_eq!(
            Tree::from_structure_bits(&mk("10"), &[]),
            Err(BpError::LabelCountMismatch {
                nodes: 1,
                labels: 0
            })
        );
        assert_eq!(
            Tree::from_structure_bits(&mk("1"), &l),
            Err(BpError::BadLength { len: 1 })
        );
        assert!(matches!(
            Tree::from_structure_bits(&mk("01"), &l),
            Err(BpError::Unbalanced { at: 0 })
        ));
        // two separate roots
        assert_eq!(
            Tree::from_structure_bits(&mk("1010"), &ll),
            Err(BpError::NotOneTree)
        );
        // three opens, one close: cannot balance
        assert_eq!(
            Tree::from_structure_bits(&mk("1110"), &ll),
            Err(BpError::NotOneTree)
        );
        // a valid chain still decodes (the guard rejects only bad input)
        assert!(Tree::from_structure_bits(&mk("1100"), &ll).is_ok());
        assert!(StructureBits::from_words(vec![0], 65).is_err());
    }

    #[test]
    fn palette_width_and_compression_model() {
        assert_eq!(bits_for_palette(0), 0);
        assert_eq!(bits_for_palette(1), 0);
        assert_eq!(bits_for_palette(2), 1);
        assert_eq!(bits_for_palette(4), 2);
        assert_eq!(bits_for_palette(5), 3);
        assert_eq!(bits_for_palette(256), 8);
        // 4-label documents: 2 + 2 bits/node ≈ 0.5 bytes → far beyond 4×
        assert!(ARENA_BYTES_PER_NODE as f64 / compact_bytes_per_node(10_000, 4) > 4.0);
    }
}
