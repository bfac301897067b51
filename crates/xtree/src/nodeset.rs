//! Dense bitsets over node ids and bit-matrix binary relations.
//!
//! Every evaluator in the workspace manipulates node sets and node relations
//! of a fixed, known universe size (the tree); dense bit representations
//! make the set algebra word-parallel and allocation-free in the hot loops.

use crate::tree::NodeId;
use std::fmt;

const WORD: usize = 64;

#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// A set of nodes of a tree with `universe` nodes, as a bitset. The
/// default is the empty set over no nodes.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NodeSet {
    bits: Vec<u64>,
    universe: usize,
}

impl NodeSet {
    /// The empty set over a universe of `n` nodes.
    pub fn empty(n: usize) -> Self {
        NodeSet {
            bits: vec![0; words_for(n)],
            universe: n,
        }
    }

    /// The full set over a universe of `n` nodes.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for w in &mut s.bits {
            *w = !0;
        }
        s.trim();
        s
    }

    /// A singleton set.
    pub fn singleton(n: usize, v: NodeId) -> Self {
        let mut s = Self::empty(n);
        s.insert(v);
        s
    }

    /// Builds a set from an iterator of nodes.
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(n: usize, it: I) -> Self {
        let mut s = Self::empty(n);
        for v in it {
            s.insert(v);
        }
        s
    }

    /// The universe size this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Re-targets this set at a universe of `n` nodes, emptying it while
    /// **keeping the word buffer's allocation**. This is the register
    /// recycling primitive behind the `twx-vm` arena: a pooled register
    /// is `reset` to the current document width instead of reallocated.
    #[inline]
    pub fn reset(&mut self, n: usize) {
        self.universe = n;
        self.bits.clear();
        self.bits.resize(words_for(n), 0);
    }

    /// Overwrites this set with `other`'s contents, word for word, without
    /// allocating. Panics if universes differ.
    #[inline]
    pub fn copy_from(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe);
        self.bits.copy_from_slice(&other.bits);
    }

    /// Sets every bit of the universe in place (the `⊤` load).
    pub fn set_full(&mut self) {
        for w in &mut self.bits {
            *w = !0;
        }
        self.trim();
    }

    /// Overwrites this set with `{ i : pred(&items[i]) }` over a universe
    /// of `items.len()` nodes, keeping the word buffer's allocation. Each
    /// word is assembled from 64 predicate results without branching on
    /// them.
    pub fn assign_where<T>(&mut self, items: &[T], mut pred: impl FnMut(&T) -> bool) {
        self.reset(items.len());
        for (w, chunk) in self.bits.iter_mut().zip(items.chunks(WORD)) {
            *w = chunk
                .iter()
                .enumerate()
                .fold(0, |acc, (i, x)| acc | (pred(x) as u64) << i);
        }
    }

    /// Inserts every node with id in `lo..hi`, a word at a time.
    pub fn insert_range(&mut self, lo: usize, hi: usize) {
        assert!(
            lo <= hi && hi <= self.universe,
            "range outside the universe"
        );
        if lo == hi {
            return;
        }
        let (first, last) = (lo / WORD, (hi - 1) / WORD);
        let head = !0u64 << (lo % WORD);
        let tail = !0u64 >> (WORD - 1 - (hi - 1) % WORD);
        if first == last {
            self.bits[first] |= head & tail;
        } else {
            self.bits[first] |= head;
            for w in &mut self.bits[first + 1..last] {
                *w = !0;
            }
            self.bits[last] |= tail;
        }
    }

    /// Clears excess bits beyond the universe.
    #[inline]
    fn trim(&mut self) {
        let rem = self.universe % WORD;
        if rem != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `v`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let i = v.index();
        debug_assert!(i < self.universe);
        let w = &mut self.bits[i / WORD];
        let mask = 1u64 << (i % WORD);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Inserts the nodes `64·word + i` for every bit `i` set in `bits`
    /// (which must lie inside the universe): a word of members at once.
    #[inline]
    pub fn insert_word(&mut self, word: usize, bits: u64) {
        debug_assert!(
            bits == 0 || word * WORD + (WORD - 1 - bits.leading_zeros() as usize) < self.universe
        );
        self.bits[word] |= bits;
    }

    /// Removes `v`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let i = v.index();
        let w = &mut self.bits[i / WORD];
        let mask = 1u64 << (i % WORD);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        i < self.universe && self.bits[i / WORD] & (1u64 << (i % WORD)) != 0
    }

    /// Number of elements: the word-level popcount fast path. One
    /// `count_ones` per 64-bit word — no per-element iteration.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of elements (alias of [`count_ones`](NodeSet::count_ones)).
    #[inline]
    pub fn count(&self) -> usize {
        self.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.bits {
            *w = 0;
        }
    }

    /// In-place union. Panics if universes differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// In-place union that reports whether any bit was **newly** set —
    /// the fixpoint-detection primitive: closure loops terminate on
    /// `!union_with_changed(..)` instead of cloning and comparing whole
    /// sets per iteration. Panics if universes differ.
    pub fn union_with_changed(&mut self, other: &NodeSet) -> bool {
        assert_eq!(self.universe, other.universe);
        let mut grew = 0u64;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            grew |= b & !*a;
            *a |= b;
        }
        grew != 0
    }

    /// The closure-fold primitive: removes from `step` every node already
    /// in `self`, adds the rest to `self`, and returns how many were new.
    /// `step \= self; self ∪= step; |step|` in one word pass. Panics if
    /// universes differ.
    pub fn absorb(&mut self, step: &mut NodeSet) -> usize {
        assert_eq!(self.universe, step.universe);
        let mut fresh = 0;
        for (a, s) in self.bits.iter_mut().zip(&mut step.bits) {
            *s &= !*a;
            *a |= *s;
            fresh += s.count_ones() as usize;
        }
        fresh
    }

    /// In-place intersection. Panics if universes differ.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`). Panics if universes differ.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }

    /// In-place complement w.r.t. the universe.
    pub fn complement(&mut self) {
        for w in &mut self.bits {
            *w = !*w;
        }
        self.trim();
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        assert_eq!(self.universe, other.universe);
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Whether the sets intersect.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        assert_eq!(self.universe, other.universe);
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> SetIter<'_> {
        SetIter {
            bits: &self.bits,
            word_idx: 0,
            current: self.bits.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over members in decreasing id order.
    pub fn iter_rev(&self) -> RevSetIter<'_> {
        RevSetIter {
            bits: &self.bits,
            word_idx: self.bits.len(),
            current: 0,
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// Collects into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`NodeSet`].
pub struct SetIter<'a> {
    bits: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.bits.len() {
                return None;
            }
            self.current = self.bits[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId((self.word_idx * WORD + bit) as u32))
    }
}

/// Iterator over the members of a [`NodeSet`], largest id first.
pub struct RevSetIter<'a> {
    bits: &'a [u64],
    /// The word `current` was taken from (`bits.len()` before the first).
    word_idx: usize,
    current: u64,
}

impl Iterator for RevSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx = self.word_idx.checked_sub(1)?;
            self.current = self.bits[self.word_idx];
        }
        let bit = WORD - 1 - self.current.leading_zeros() as usize;
        self.current &= !(1 << bit);
        Some(NodeId((self.word_idx * WORD + bit) as u32))
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = SetIter<'a>;
    fn into_iter(self) -> SetIter<'a> {
        self.iter()
    }
}

/// A binary relation over the nodes of a tree, as an n×n bit matrix
/// (row-major; row `i` is the image of node `i`).
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    bits: Vec<u64>,
    n: usize,
    row_words: usize,
}

impl BitMatrix {
    /// The empty relation on `n` nodes.
    pub fn empty(n: usize) -> Self {
        let row_words = words_for(n);
        BitMatrix {
            bits: vec![0; row_words * n],
            n,
            row_words,
        }
    }

    /// The identity relation on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::empty(n);
        for i in 0..n {
            m.set(NodeId(i as u32), NodeId(i as u32));
        }
        m
    }

    /// The full relation on `n` nodes.
    pub fn full(n: usize) -> Self {
        let mut m = Self::empty(n);
        for w in &mut m.bits {
            *w = !0;
        }
        m.trim();
        m
    }

    fn trim(&mut self) {
        let rem = self.n % WORD;
        if rem == 0 {
            return;
        }
        let mask = (1u64 << rem) - 1;
        for i in 0..self.n {
            self.bits[i * self.row_words + self.row_words - 1] &= mask;
        }
    }

    /// Universe size.
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Adds `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: NodeId, y: NodeId) {
        let (i, j) = (x.index(), y.index());
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.row_words + j / WORD] |= 1u64 << (j % WORD);
    }

    /// Membership test.
    #[inline]
    pub fn get(&self, x: NodeId, y: NodeId) -> bool {
        let (i, j) = (x.index(), y.index());
        i < self.n
            && j < self.n
            && self.bits[i * self.row_words + j / WORD] & (1u64 << (j % WORD)) != 0
    }

    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.row_words..(i + 1) * self.row_words]
    }

    /// Number of pairs in the relation.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitMatrix) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// In-place union that reports whether any cell was newly set (see
    /// [`NodeSet::union_with_changed`]).
    pub fn union_with_changed(&mut self, other: &BitMatrix) -> bool {
        assert_eq!(self.n, other.n);
        let mut grew = 0u64;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            grew |= b & !*a;
            *a |= b;
        }
        grew != 0
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &BitMatrix) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// In-place complement (w.r.t. the full n×n relation).
    pub fn complement(&mut self) {
        for w in &mut self.bits {
            *w = !*w;
        }
        self.trim();
    }

    /// Relational composition `self ; other`: `(x, z)` iff `∃y. self(x,y) ∧
    /// other(y,z)`. O(n³/64) via row-wise unions.
    pub fn compose(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.n, other.n);
        let mut out = BitMatrix::empty(self.n);
        for i in 0..self.n {
            let dst_start = i * self.row_words;
            for j in SetBitsIter::new(self.row(i)) {
                let src = other.row(j);
                let dst = &mut out.bits[dst_start..dst_start + self.row_words];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d |= s;
                }
            }
        }
        out
    }

    /// Reflexive-transitive closure, computed by repeated squaring on top of
    /// `self ∪ id` (O(n³/64 · log n)). The fixpoint test rides on the
    /// change bit of the in-place union — no per-iteration clone/compare
    /// temporaries.
    pub fn star(&self) -> BitMatrix {
        let mut r = self.clone();
        r.union_with(&BitMatrix::identity(self.n));
        loop {
            let r2 = r.compose(&r);
            if !r.union_with_changed(&r2) {
                return r;
            }
        }
    }

    /// Strict transitive closure: `self ; self*`.
    pub fn plus(&self) -> BitMatrix {
        self.compose(&self.star())
    }

    /// Converse relation (transpose).
    pub fn transpose(&self) -> BitMatrix {
        let mut out = BitMatrix::empty(self.n);
        for i in 0..self.n {
            for j in SetBitsIter::new(self.row(i)) {
                out.set(NodeId(j as u32), NodeId(i as u32));
            }
        }
        out
    }

    /// The image of a node set: `{ y | ∃x ∈ s. (x, y) ∈ self }`.
    pub fn image(&self, s: &NodeSet) -> NodeSet {
        assert_eq!(self.n, s.universe());
        let mut out = NodeSet::empty(self.n);
        for x in s.iter() {
            let src = self.row(x.index());
            for (d, s) in out.bits.iter_mut().zip(src) {
                *d |= s;
            }
        }
        out
    }

    /// The domain of the relation: `{ x | ∃y. (x, y) ∈ self }`.
    pub fn domain(&self) -> NodeSet {
        let mut out = NodeSet::empty(self.n);
        for i in 0..self.n {
            if self.row(i).iter().any(|&w| w != 0) {
                out.insert(NodeId(i as u32));
            }
        }
        out
    }

    /// The codomain (range) of the relation.
    pub fn codomain(&self) -> NodeSet {
        let mut out = NodeSet::empty(self.n);
        for i in 0..self.n {
            for (d, s) in out.bits.iter_mut().zip(self.row(i)) {
                *d |= s;
            }
        }
        out
    }

    /// Restricts the codomain: keeps `(x, y)` only when `y ∈ s`
    /// (the semantics of an XPath filter `A[φ]` given `[[φ]] = s`).
    pub fn filter_codomain(&mut self, s: &NodeSet) {
        assert_eq!(self.n, s.universe());
        for i in 0..self.n {
            let row = &mut self.bits[i * self.row_words..(i + 1) * self.row_words];
            for (d, m) in row.iter_mut().zip(&s.bits) {
                *d &= m;
            }
        }
    }

    /// Restricts the domain: keeps `(x, y)` only when `x ∈ s`.
    pub fn filter_domain(&mut self, s: &NodeSet) {
        assert_eq!(self.n, s.universe());
        for i in 0..self.n {
            if !s.contains(NodeId(i as u32)) {
                let row = &mut self.bits[i * self.row_words..(i + 1) * self.row_words];
                for d in row.iter_mut() {
                    *d = 0;
                }
            }
        }
    }

    /// Builds the diagonal relation `{(x, x) | x ∈ s}` (the `?φ` test).
    pub fn diagonal(s: &NodeSet) -> BitMatrix {
        let mut m = BitMatrix::empty(s.universe());
        for x in s.iter() {
            m.set(x, x);
        }
        m
    }

    /// Iterates over all pairs in the relation.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |i| {
            SetBitsIter::new(self.row(i)).map(move |j| (NodeId(i as u32), NodeId(j as u32)))
        })
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.pairs()).finish()
    }
}

/// Iterator over set bit positions of a word slice.
struct SetBitsIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> SetBitsIter<'a> {
    fn new(words: &'a [u64]) -> Self {
        SetBitsIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for SetBitsIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn set_basics() {
        let mut s = NodeSet::empty(100);
        assert!(s.is_empty());
        assert!(s.insert(nid(3)));
        assert!(!s.insert(nid(3)));
        assert!(s.insert(nid(99)));
        assert!(s.contains(nid(3)));
        assert!(!s.contains(nid(4)));
        assert_eq!(s.count(), 2);
        assert_eq!(s.to_vec(), vec![nid(3), nid(99)]);
        assert!(s.remove(nid(3)));
        assert!(!s.remove(nid(3)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn set_algebra() {
        let n = 70;
        let a = NodeSet::from_iter(n, [nid(1), nid(2), nid(65)]);
        let b = NodeSet::from_iter(n, [nid(2), nid(3)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![nid(2)]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![nid(1), nid(65)]);
        let mut c = a.clone();
        c.complement();
        assert_eq!(c.count(), n - 3);
        assert!(i.is_subset(&a));
        assert!(a.intersects(&b));
        assert!(!i.intersects(&d));
        let mut acc = a.clone();
        let mut step = NodeSet::from_iter(n, [nid(2), nid(3), nid(66)]);
        assert_eq!(acc.absorb(&mut step), 2);
        assert_eq!(
            step.to_vec(),
            vec![nid(3), nid(66)],
            "step keeps only the new nodes"
        );
        assert_eq!(acc.count(), 5);
    }

    #[test]
    fn in_place_word_level_api() {
        // union_with_changed reports growth exactly once per new bit-run
        let n = 130; // three words, last partial
        let mut a = NodeSet::from_iter(n, [nid(0), nid(64)]);
        let b = NodeSet::from_iter(n, [nid(64), nid(129)]);
        assert!(a.union_with_changed(&b));
        assert_eq!(a.count_ones(), 3);
        assert!(!a.union_with_changed(&b), "second union is a fixpoint");

        // reset recycles the allocation for a new universe
        let cap_before = a.bits.capacity();
        a.reset(70);
        assert!(a.is_empty());
        assert_eq!(a.universe(), 70);
        a.set_full();
        assert_eq!(a.count_ones(), 70);
        a.reset(130);
        assert!(a.bits.capacity() >= cap_before);

        // copy_from overwrites without reallocating
        a.copy_from(&b);
        assert_eq!(a.to_vec(), vec![nid(64), nid(129)]);
    }

    #[test]
    fn ranges_and_predicates_fill_whole_words() {
        // every range over 0..=3 words, against bit-by-bit insertion
        for n in [1, 63, 64, 65, 129, 192] {
            for lo in 0..=n {
                for hi in lo..=n {
                    let mut s = NodeSet::from_iter(n, [nid(0)]);
                    s.insert_range(lo, hi);
                    let want = NodeSet::from_iter(
                        n,
                        (0..n as u32)
                            .filter(|&i| i == 0 || (lo as u32..hi as u32).contains(&i))
                            .map(nid),
                    );
                    assert_eq!(s, want, "insert_range({lo}, {hi}) over {n}");
                }
            }
            let items: Vec<u32> = (0..n as u32).map(|i| i * 7 % 5).collect();
            let mut s = NodeSet::full(3 * n);
            s.assign_where(&items, |&x| x == 2);
            assert_eq!(s.universe(), n);
            let want = (0..n as u32).filter(|&i| items[i as usize] == 2).map(nid);
            assert_eq!(s, NodeSet::from_iter(n, want), "assign_where over {n}");
        }
    }

    #[test]
    fn reverse_iteration_mirrors_forward() {
        for n in [0, 1, 63, 64, 65, 129, 192] {
            for stride in [1, 3, 64] {
                let s = NodeSet::from_iter(n, (0..n as u32).step_by(stride).map(nid));
                let mut want = s.to_vec();
                want.reverse();
                assert_eq!(s.iter_rev().collect::<Vec<_>>(), want, "{n}/{stride}");
            }
        }
    }

    #[test]
    fn matrix_union_with_changed_fixpoint() {
        let mut m = BitMatrix::empty(4);
        m.set(nid(0), nid(1));
        let mut n2 = BitMatrix::empty(4);
        n2.set(nid(1), nid(2));
        assert!(m.union_with_changed(&n2));
        assert!(!m.union_with_changed(&n2));
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn full_trims_excess_bits() {
        let s = NodeSet::full(65);
        assert_eq!(s.count(), 65);
        let mut e = NodeSet::empty(65);
        e.complement();
        assert_eq!(e, s);
    }

    #[test]
    fn matrix_compose_star() {
        // chain relation 0->1->2->3 on 4 nodes
        let mut m = BitMatrix::empty(4);
        for i in 0..3 {
            m.set(nid(i), nid(i + 1));
        }
        let m2 = m.compose(&m);
        assert!(m2.get(nid(0), nid(2)));
        assert!(!m2.get(nid(0), nid(1)));
        let s = m.star();
        assert!(s.get(nid(0), nid(0)));
        assert!(s.get(nid(0), nid(3)));
        assert!(!s.get(nid(3), nid(0)));
        let p = m.plus();
        assert!(!p.get(nid(0), nid(0)));
        assert!(p.get(nid(0), nid(3)));
        assert_eq!(p.count(), 6);
    }

    #[test]
    fn matrix_image_domain() {
        let mut m = BitMatrix::empty(5);
        m.set(nid(0), nid(2));
        m.set(nid(0), nid(3));
        m.set(nid(1), nid(4));
        let img = m.image(&NodeSet::singleton(5, nid(0)));
        assert_eq!(img.to_vec(), vec![nid(2), nid(3)]);
        assert_eq!(m.domain().to_vec(), vec![nid(0), nid(1)]);
        assert_eq!(m.codomain().to_vec(), vec![nid(2), nid(3), nid(4)]);
        let t = m.transpose();
        assert!(t.get(nid(2), nid(0)));
        assert_eq!(t.count(), 3);
    }

    #[test]
    fn matrix_filters_and_diag() {
        let mut m = BitMatrix::full(4);
        let s = NodeSet::from_iter(4, [nid(1), nid(2)]);
        m.filter_codomain(&s);
        assert_eq!(m.count(), 8);
        m.filter_domain(&s);
        assert_eq!(m.count(), 4);
        let d = BitMatrix::diagonal(&s);
        assert!(d.get(nid(1), nid(1)));
        assert!(!d.get(nid(1), nid(2)));
        assert_eq!(d.count(), 2);
    }

    #[test]
    fn matrix_complement_trims() {
        let mut m = BitMatrix::empty(65);
        m.complement();
        assert_eq!(m.count(), 65 * 65);
    }
}
