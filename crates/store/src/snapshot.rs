//! The compact per-shard snapshot format.
//!
//! One snapshot file holds one shard's documents at one commit sequence
//! number. The layout (all integers little-endian):
//!
//! ```text
//! magic      8 B   b"TWXSNAP1"
//! format     4 B   u32, currently 1
//! shard      4 B   u32 shard id
//! seq        8 B   u64 commit sequence at snapshot time
//! n_docs     4 B   u32
//! header_fnv 8 B   FNV-1a over the 20 bytes format..n_docs
//! n_docs × document section:
//!   len      4 B   u32 payload bytes
//!   fnv      8 B   FNV-1a over the payload
//!   payload:
//!     doc_id   u32
//!     version  u64
//!     n_nodes  u32
//!     palette  u32 count + count × u32 global catalog label ids
//!     labels   packed palette indices, ⌈log₂|palette|⌉ bits per node
//!     shape    balanced-parentheses structure bits, 2 bits per node
//! ```
//!
//! Tree *shape* costs 2 bits/node and labels cost `⌈log₂|palette|⌉`
//! bits/node against a per-document palette of global catalog ids — for
//! a 4-label document that is 0.5 bytes/node, vs the 16-byte arena node
//! of the in-memory [`Tree`]. Every section carries its
//! own checksum so a torn or bit-flipped snapshot is rejected as a
//! whole, never half-loaded.

use crate::wire::{fnv1a, pack_indices, unpack_index, Dec, Enc};
use crate::StoreError;
use std::path::Path;
use twx_xtree::bp::{bits_for_palette, StructureBits};
use twx_xtree::{Alphabet, Document, Label, Tree};

/// File magic for shard snapshots.
pub const SNAP_MAGIC: &[u8; 8] = b"TWXSNAP1";
/// Current snapshot format version.
pub const SNAP_FORMAT: u32 = 1;

/// One document as stored in (or decoded from) a snapshot section.
#[derive(Clone, Debug)]
pub struct SnapshotDoc {
    /// Corpus-wide document id.
    pub doc_id: u32,
    /// The document's version at snapshot time.
    pub version: u64,
    /// The decoded document.
    pub doc: Document,
}

/// Encodes one document section payload (without the len/fnv framing).
pub fn encode_doc(doc_id: u32, version: u64, doc: &Document) -> Vec<u8> {
    let labels = doc.tree.label_column();
    // Per-document palette: distinct global label ids, in first-use order.
    let mut palette: Vec<u32> = Vec::new();
    let mut slot = vec![usize::MAX; doc.alphabet.len().max(1)];
    let mut indices = Vec::with_capacity(labels.len());
    for &l in &labels {
        let s = slot
            .get_mut(l.index())
            .expect("label id within the document alphabet");
        if *s == usize::MAX {
            *s = palette.len();
            palette.push(l.0);
        }
        indices.push(*s);
    }
    let width = bits_for_palette(palette.len());
    let packed = pack_indices(indices.into_iter(), labels.len(), width);
    let bits = doc.tree.structure_bits();

    let mut e = Enc::new();
    e.u32(doc_id);
    e.u64(version);
    e.u32(doc.tree.len() as u32);
    e.u32(palette.len() as u32);
    for &p in &palette {
        e.u32(p);
    }
    e.words(&packed);
    e.u32(bits.len() as u32);
    e.words(bits.words());
    e.0
}

/// Decodes one document section payload. `alphabet` is the recovered
/// catalog snapshot the document will carry; palette ids must resolve
/// inside it.
pub fn decode_doc(payload: &[u8], alphabet: &Alphabet) -> Result<SnapshotDoc, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        what: "snapshot document section",
        detail,
    };
    let mut d = Dec::new(payload);
    let step = |r: Result<u64, crate::wire::WireError>| r.map_err(|e| corrupt(e.to_string()));
    let doc_id = step(d.u32().map(u64::from))? as u32;
    let version = step(d.u64())?;
    let n_nodes = step(d.u32().map(u64::from))? as usize;
    let palette_len = step(d.u32().map(u64::from))? as usize;
    let mut palette = Vec::with_capacity(palette_len.min(payload.len() / 4 + 1));
    for _ in 0..palette_len {
        let id = step(d.u32().map(u64::from))? as u32;
        if id as usize >= alphabet.len() {
            return Err(corrupt(format!(
                "palette label id {id} outside the catalog ({} labels)",
                alphabet.len()
            )));
        }
        palette.push(id);
    }
    let packed = d.words().map_err(|e| corrupt(e.to_string()))?;
    let width = bits_for_palette(palette.len());
    if packed.len() * 64 < n_nodes * width {
        return Err(corrupt(format!(
            "packed label words too short: {} words for {n_nodes} nodes × {width} bits",
            packed.len()
        )));
    }
    let bit_len = step(d.u32().map(u64::from))? as usize;
    if bit_len != 2 * n_nodes {
        return Err(corrupt(format!(
            "structure bit length {bit_len} does not match {n_nodes} nodes"
        )));
    }
    let words = d.words().map_err(|e| corrupt(e.to_string()))?;
    let bits = StructureBits::from_words(words, bit_len).map_err(StoreError::Bp)?;
    if n_nodes == 0 {
        return Err(corrupt("zero-node document".to_string()));
    }
    let mut labels = Vec::with_capacity(n_nodes);
    for i in 0..n_nodes {
        let idx = unpack_index(&packed, i, width);
        let &id = palette.get(idx).ok_or_else(|| {
            corrupt(format!(
                "label index {idx} outside palette of {palette_len}"
            ))
        })?;
        labels.push(Label(id));
    }
    let tree = Tree::from_structure_bits(&bits, &labels).map_err(StoreError::Bp)?;
    Ok(SnapshotDoc {
        doc_id,
        version,
        doc: Document::new(tree, alphabet.clone()),
    })
}

/// Encodes a whole shard snapshot file.
pub fn encode_shard(shard: u32, seq: u64, docs: &[(u32, u64, &Document)]) -> Vec<u8> {
    let mut header = Enc::new();
    header.u32(SNAP_FORMAT);
    header.u32(shard);
    header.u64(seq);
    header.u32(docs.len() as u32);
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    let hfnv = fnv1a(&header.0);
    out.extend_from_slice(&header.0);
    out.extend_from_slice(&hfnv.to_le_bytes());
    for &(doc_id, version, doc) in docs {
        let payload = encode_doc(doc_id, version, doc);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// A decoded shard snapshot.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Shard id from the header.
    pub shard: u32,
    /// Commit sequence the snapshot was taken at.
    pub seq: u64,
    /// The shard's documents, in entry order.
    pub docs: Vec<SnapshotDoc>,
}

/// Decodes and fully validates a shard snapshot file. Any checksum or
/// framing violation is a typed [`StoreError::Corrupt`] — never a panic,
/// never a partial result.
pub fn decode_shard(bytes: &[u8], alphabet: &Alphabet) -> Result<ShardSnapshot, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        what: "snapshot file",
        detail,
    };
    if bytes.len() < 8 + 20 + 8 {
        return Err(corrupt("file shorter than the header".to_string()));
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt("bad magic".to_string()));
    }
    let header = &bytes[8..28];
    let stored = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
    if fnv1a(header) != stored {
        return Err(corrupt("header checksum mismatch".to_string()));
    }
    let mut d = Dec::new(header);
    let format = d.u32().expect("header length checked");
    if format != SNAP_FORMAT {
        return Err(corrupt(format!("unsupported format version {format}")));
    }
    let shard = d.u32().expect("header length checked");
    let seq = d.u64().expect("header length checked");
    let n_docs = d.u32().expect("header length checked") as usize;
    let mut docs = Vec::with_capacity(n_docs.min(bytes.len() / 12 + 1));
    let mut pos = 36usize;
    for k in 0..n_docs {
        if bytes.len() < pos + 12 {
            return Err(corrupt(format!("section {k} framing truncated")));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let want = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        pos += 12;
        if bytes.len() < pos + len {
            return Err(corrupt(format!("section {k} payload truncated")));
        }
        let payload = &bytes[pos..pos + len];
        if fnv1a(payload) != want {
            return Err(corrupt(format!("section {k} checksum mismatch")));
        }
        docs.push(decode_doc(payload, alphabet)?);
        pos += len;
    }
    if pos != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            bytes.len() - pos
        )));
    }
    Ok(ShardSnapshot { shard, seq, docs })
}

/// The snapshot filename for `(shard, seq)`; lexicographic order on the
/// zero-padded hex seq equals numeric order, so directory listings sort
/// newest-last.
pub fn snapshot_file_name(shard: u32, seq: u64) -> String {
    format!("shard-{shard:04}-{seq:016x}.snap")
}

/// Parses `(shard, seq)` back out of a snapshot filename.
pub fn parse_snapshot_file_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".snap")?;
    let (shard, seq) = rest.split_once('-')?;
    Some((shard.parse().ok()?, u64::from_str_radix(seq, 16).ok()?))
}

/// Lists `(seq, path)` of every snapshot file for `shard` in `dir`,
/// newest first.
pub fn list_snapshots(dir: &Path, shard: u32) -> std::io::Result<Vec<(u64, std::path::PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((s, seq)) = parse_snapshot_file_name(name) {
            if s == shard {
                found.push((seq, entry.path()));
            }
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_xtree::parse::parse_sexp_catalog;
    use twx_xtree::Catalog;

    fn doc(catalog: &Catalog, sexp: &str) -> Document {
        parse_sexp_catalog(sexp, catalog).unwrap()
    }

    #[test]
    fn shard_round_trip() {
        let cat = Catalog::from_names(["a", "b", "c"]);
        let d0 = doc(&cat, "(a (b c) b)");
        let d1 = doc(&cat, "(c)");
        let bytes = encode_shard(3, 17, &[(0, 2, &d0), (5, 0, &d1)]);
        let back = decode_shard(&bytes, &cat.snapshot()).unwrap();
        assert_eq!(back.shard, 3);
        assert_eq!(back.seq, 17);
        assert_eq!(back.docs.len(), 2);
        assert_eq!(back.docs[0].doc_id, 0);
        assert_eq!(back.docs[0].version, 2);
        assert_eq!(back.docs[0].doc.tree, d0.tree);
        assert_eq!(back.docs[1].doc_id, 5);
        assert_eq!(back.docs[1].doc.tree, d1.tree);
    }

    #[test]
    fn empty_shard_round_trips() {
        let cat = Catalog::from_names(["a"]);
        let bytes = encode_shard(0, 0, &[]);
        let back = decode_shard(&bytes, &cat.snapshot()).unwrap();
        assert!(back.docs.is_empty());
    }

    #[test]
    fn every_flipped_byte_is_rejected_not_panicking() {
        let cat = Catalog::from_names(["a", "b"]);
        let d0 = doc(&cat, "(a (b) (a b))");
        let bytes = encode_shard(0, 9, &[(0, 1, &d0)]);
        let alphabet = cat.snapshot();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            // decoding either fails with a typed error or — only if the
            // flip landed somewhere truly redundant — returns the exact
            // original; it must never panic or return a different tree.
            if let Ok(s) = decode_shard(&bad, &alphabet) {
                assert_eq!(s.docs[0].doc.tree, d0.tree, "byte {i}");
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let cat = Catalog::from_names(["a", "b"]);
        let d0 = doc(&cat, "(a b b)");
        let bytes = encode_shard(0, 1, &[(0, 0, &d0)]);
        let alphabet = cat.snapshot();
        for n in 0..bytes.len() {
            assert!(decode_shard(&bytes[..n], &alphabet).is_err(), "len {n}");
        }
    }

    #[test]
    fn file_names_round_trip_and_sort() {
        let n = snapshot_file_name(12, 0x1_0000);
        assert_eq!(parse_snapshot_file_name(&n), Some((12, 0x1_0000)));
        assert!(snapshot_file_name(0, 9) < snapshot_file_name(0, 10));
        assert_eq!(parse_snapshot_file_name("journal.log"), None);
    }
}
