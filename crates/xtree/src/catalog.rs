//! Shared, append-only label catalogs.
//!
//! An [`Alphabet`] is an explicit mutable value: interning needs `&mut`,
//! so a document and the queries compiled against it must thread one
//! `&mut Alphabet` around — which welds compilation to a single mutable
//! document and rules out concurrent serving. A [`Catalog`] lifts the
//! same interner behind a `RwLock` so that many documents, parsers and
//! engines can resolve labels against **one shared label space** through
//! `&self` (typically via an `Arc<Catalog>`).
//!
//! The catalog is *append-only*: labels are never removed or renumbered,
//! so a [`Label`] obtained from a catalog is valid forever, and an
//! [`Alphabet`] snapshot taken at any time agrees with the catalog on
//! every label the snapshot contains. This is the property that makes
//! plans compiled against a catalog servable across every document built
//! from it.
//!
//! ```
//! use std::sync::Arc;
//! use twx_xtree::Catalog;
//!
//! let catalog = Arc::new(Catalog::new());
//! let a = catalog.intern("a");
//! let handle = Arc::clone(&catalog);
//! std::thread::spawn(move || assert_eq!(handle.intern("a"), a))
//!     .join()
//!     .unwrap();
//! assert_eq!(catalog.lookup("a"), Some(a));
//! ```

use crate::alphabet::{Alphabet, Label};
use std::fmt;
use std::sync::RwLock;

/// A thread-safe, append-only label interner shared between documents
/// and queries (see the [module docs](self)).
#[derive(Default)]
pub struct Catalog {
    inner: RwLock<Alphabet>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing alphabet (its labels keep their indices).
    pub fn from_alphabet(alphabet: Alphabet) -> Self {
        Catalog {
            inner: RwLock::new(alphabet),
        }
    }

    /// A catalog seeded with names in order (see [`Alphabet::from_names`]).
    pub fn from_names<I: IntoIterator<Item = S>, S: AsRef<str>>(names: I) -> Self {
        Self::from_alphabet(Alphabet::from_names(names))
    }

    /// Interns `name`, returning its label (existing or fresh).
    pub fn intern(&self, name: &str) -> Label {
        self.inner
            .write()
            .expect("catalog lock poisoned")
            .intern(name)
    }

    /// Looks up a name without interning.
    pub fn lookup(&self, name: &str) -> Option<Label> {
        self.inner
            .read()
            .expect("catalog lock poisoned")
            .lookup(name)
    }

    /// The name of a label (owned, because the underlying storage is
    /// behind a lock).
    ///
    /// # Panics
    /// If the label was not produced by this catalog.
    pub fn name(&self, l: Label) -> String {
        self.inner
            .read()
            .expect("catalog lock poisoned")
            .name(l)
            .to_owned()
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.inner.read().expect("catalog lock poisoned").len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time [`Alphabet`] copy. Because the catalog is
    /// append-only, every label in the snapshot stays valid against the
    /// live catalog (the catalog may only know *more* labels).
    pub fn snapshot(&self) -> Alphabet {
        self.inner.read().expect("catalog lock poisoned").clone()
    }

    /// Runs `f` with shared access to the underlying alphabet (no copy).
    pub fn with_read<R>(&self, f: impl FnOnce(&Alphabet) -> R) -> R {
        f(&self.inner.read().expect("catalog lock poisoned"))
    }

    /// Runs `f` with exclusive access to the underlying alphabet — the
    /// bridge to the existing `&mut Alphabet` parser entry points. The
    /// only mutation an [`Alphabet`] offers is interning, so this cannot
    /// violate the append-only contract.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Alphabet) -> R) -> R {
        f(&mut self.inner.write().expect("catalog lock poisoned"))
    }
}

impl From<Alphabet> for Catalog {
    fn from(alphabet: Alphabet) -> Self {
        Catalog::from_alphabet(alphabet)
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Catalog({} labels)", self.len())
    }
}

impl Clone for Catalog {
    /// Clones the *label space* into an independent catalog (labels keep
    /// their indices). To share one space, clone an `Arc<Catalog>`.
    fn clone(&self) -> Self {
        Catalog::from_alphabet(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn intern_and_lookup_agree_with_alphabet() {
        let c = Catalog::from_names(["a", "b"]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("b"), Some(Label(1)));
        assert_eq!(c.intern("c"), Label(2));
        assert_eq!(c.name(Label(2)), "c");
        assert!(!c.is_empty());
    }

    #[test]
    fn snapshot_is_stable_under_later_interning() {
        let c = Catalog::new();
        let a = c.intern("a");
        let snap = c.snapshot();
        let b = c.intern("b");
        assert_eq!(snap.lookup("a"), Some(a));
        assert_eq!(snap.lookup("b"), None);
        assert_eq!(c.lookup("a"), Some(a));
        assert_eq!(c.lookup("b"), Some(b));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let c = Arc::new(Catalog::new());
        let names: Vec<String> = (0..16).map(|i| format!("l{}", i % 4)).collect();
        std::thread::scope(|s| {
            for chunk in names.chunks(4) {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for n in chunk {
                        let l = c.intern(n);
                        assert_eq!(c.lookup(n), Some(l));
                    }
                });
            }
        });
        // 4 distinct names → 4 labels, no duplicates
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn clone_forks_the_space() {
        let c = Catalog::from_names(["x"]);
        let fork = c.clone();
        c.intern("y");
        assert_eq!(fork.len(), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(fork.lookup("x"), c.lookup("x"), "labels keep their indices");
        assert_eq!(
            fork.lookup("y"),
            None,
            "the fork does not see later interns"
        );
    }
}
