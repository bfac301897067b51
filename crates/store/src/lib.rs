//! # twx-store — durable corpus storage
//!
//! The persistence tier under the live corpus
//! (`twx-corpus`): compact per-shard **snapshots**, an append-only
//! **edit journal**, and **crash recovery** that reconstructs the exact
//! pre-crash shard states.
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   meta.bin                  shard count (checksummed header)
//!   catalog.bin               the shared label space, name per line id
//!   journal.log               checksummed, length-prefixed edit records
//!   shard-0000-<seq16>.snap   newest snapshot of shard 0 …
//!   shard-0001-<seq16>.snap   … one file per shard per generation
//! ```
//!
//! * **Snapshots** ([`snapshot`]) store tree shape as a
//!   balanced-parentheses bitvector (2 bits/node) and labels as packed
//!   indices into a per-document palette of catalog ids — a fraction of
//!   a byte per node against the 16-byte in-memory arena node. Every
//!   section is FNV-1a checksummed; a snapshot either decodes exactly or
//!   fails with a typed [`StoreError`].
//! * **The journal** ([`journal`]) records every committed edit with its
//!   commit sequence number and post-edit version, fsync'd on a
//!   configurable group-commit interval ([`StoreConfig::fsync_every`]).
//!   Labels travel by name so replay interns them idempotently.
//! * **Recovery** ([`Store::recover`]) loads the newest *valid* snapshot
//!   per shard (falling back past corrupt generations), truncates any
//!   torn journal tail, replays the surviving records in sequence order,
//!   and returns fully reconstructed shard contents with versions and
//!   the global commit sequence intact.
//!
//! The deliberate [`StoreFault::SkipFsync`] hook acknowledges appends
//! without making them durable — the crash-recovery fuzzer
//! (`twx-fuzz --crash`) uses it to prove that the conformance oracle
//! catches lost-ack divergence, and [`Store::simulate_crash`] models the
//! kernel dropping the un-synced tail (cut mid-record to exercise torn
//! truncation).

pub mod journal;
pub mod snapshot;
pub mod wire;

use journal::JournalRecord;
use snapshot::SnapshotDoc;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use twx_xtree::edit::{apply_edit, EditError};
use twx_xtree::{BpError, Catalog, Document};

/// File magic for `meta.bin`.
const META_MAGIC: &[u8; 8] = b"TWXMETA1";
/// File magic for `catalog.bin`.
const CATALOG_MAGIC: &[u8; 8] = b"TWXCATL1";
/// Store format version shared by meta and catalog files.
const STORE_FORMAT: u32 = 1;

/// Why a store operation failed. Corruption is always a typed error —
/// recovery never panics on bad bytes and never silently half-loads.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error, with the path it hit.
    Io {
        /// What the store was doing.
        what: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A file failed validation (magic, checksum, framing, or an
    /// impossible value).
    Corrupt {
        /// Which structure was being decoded.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A shard has no loadable snapshot at all.
    NoSnapshot {
        /// The shard in question.
        shard: u32,
    },
    /// A journal record names a document no snapshot contains.
    UnknownDoc {
        /// The record's document id.
        doc_id: u32,
        /// The record's commit sequence.
        seq: u64,
    },
    /// A journal record's version does not chain onto the recovered
    /// document (`post_version > have + 1`): an intermediate edit is
    /// missing, so replaying would silently corrupt the document.
    VersionGap {
        /// The document.
        doc_id: u32,
        /// The version recovery currently has.
        have: u64,
        /// The record's post-edit version.
        record: u64,
        /// The record's commit sequence.
        seq: u64,
    },
    /// A journalled edit failed to re-apply during replay.
    Replay {
        /// The record's commit sequence.
        seq: u64,
        /// The document.
        doc_id: u32,
        /// The underlying edit error.
        source: EditError,
    },
    /// A snapshot's structure bitvector failed to decode.
    Bp(BpError),
    /// The store was crashed by [`Store::simulate_crash`] and rejects
    /// further writes.
    Crashed,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { what, path, source } => {
                write!(f, "{what}: {}: {source}", path.display())
            }
            StoreError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            StoreError::NoSnapshot { shard } => {
                write!(f, "shard {shard} has no loadable snapshot")
            }
            StoreError::UnknownDoc { doc_id, seq } => {
                write!(f, "journal record seq {seq} names unknown doc {doc_id}")
            }
            StoreError::VersionGap {
                doc_id,
                have,
                record,
                seq,
            } => write!(
                f,
                "journal record seq {seq} for doc {doc_id} jumps to version {record} \
                 but recovery has version {have}"
            ),
            StoreError::Replay {
                seq,
                doc_id,
                source,
            } => write!(f, "replay of seq {seq} on doc {doc_id} failed: {source}"),
            StoreError::Bp(e) => write!(f, "corrupt structure bits: {e}"),
            StoreError::Crashed => write!(f, "store has been crashed (simulate_crash)"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Replay { source, .. } => Some(source),
            StoreError::Bp(e) => Some(e),
            _ => None,
        }
    }
}

/// Injected misbehaviour for crash testing (see the crate docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreFault {
    /// Honest operation.
    #[default]
    None,
    /// Acknowledge journal appends without ever fsyncing them: a crash
    /// then loses acknowledged edits — the divergence the crash fuzzer
    /// must catch.
    SkipFsync,
}

impl StoreFault {
    /// Parses the `--fault store=…` forms used by `twx-fuzz`.
    pub fn parse(s: &str) -> Option<StoreFault> {
        match s {
            "store=skip-fsync" => Some(StoreFault::SkipFsync),
            _ => None,
        }
    }

    /// Stable name for JSON summaries; the inverse of [`StoreFault::parse`]
    /// for the non-`None` variants.
    pub fn name(self) -> &'static str {
        match self {
            StoreFault::None => "none",
            StoreFault::SkipFsync => "store=skip-fsync",
        }
    }
}

/// Store tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Group-commit interval: fsync the journal after every `n`
    /// appends. `1` makes every acknowledged edit durable; larger
    /// values trade a bounded window of loss for throughput.
    pub fsync_every: u64,
    /// Injected fault, [`StoreFault::None`] in production.
    pub fault: StoreFault,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            fsync_every: 1,
            fault: StoreFault::None,
        }
    }
}

/// What recovery did, for logs, metrics, and the crash fuzzer.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Snapshot generations that failed validation and were skipped.
    pub stale_snapshots_skipped: usize,
    /// Journal records applied onto snapshots.
    pub records_replayed: usize,
    /// Journal records already contained in a snapshot (skipped).
    pub records_skipped: usize,
    /// Torn journal bytes truncated.
    pub truncated_bytes: u64,
    /// Why the journal scan stopped early, if it did.
    pub torn_reason: Option<String>,
    /// Wall-clock nanoseconds the whole recovery took.
    pub recovery_ns: u64,
}

/// A fully recovered store: everything `twx-corpus` needs to rebuild a
/// live `Corpus` with versions, placement, and sequence intact.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered shared label space (snapshot palette ids resolve
    /// against it; journal label names have been interned into it).
    pub catalog: Arc<Catalog>,
    /// Per shard, the documents in entry order, post-replay. The outer
    /// index is the shard id; the inner order is the exact pre-crash
    /// placement.
    pub shards: Vec<Vec<SnapshotDoc>>,
    /// The recovered global commit sequence.
    pub seq: u64,
    /// What happened along the way.
    pub report: RecoveryReport,
}

#[derive(Debug)]
struct JournalState {
    file: File,
    /// Bytes written (durable or not).
    len: u64,
    /// Bytes known fsync'd.
    durable_len: u64,
    /// Appends since the last fsync.
    pending: u64,
    /// Set by [`Store::simulate_crash`]; all writes refuse afterwards.
    crashed: bool,
}

struct Meters {
    journal_bytes: Arc<twx_obs::metrics::Gauge>,
    snapshot_bytes: Arc<twx_obs::metrics::Gauge>,
    fsync_ns: Arc<twx_obs::AtomicHistogram>,
    recovery_ns: Arc<twx_obs::AtomicHistogram>,
}

impl Meters {
    fn new() -> Meters {
        let reg = twx_obs::metrics::global();
        Meters {
            journal_bytes: reg.gauge("twx_store_journal_bytes", &[]),
            snapshot_bytes: reg.gauge("twx_store_snapshot_bytes", &[]),
            fsync_ns: reg.histogram("twx_store_fsync_ns", &[]),
            recovery_ns: reg.histogram("twx_store_recovery_ns", &[]),
        }
    }
}

/// A handle on one store directory (see the crate docs).
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    n_shards: u32,
    journal: Mutex<JournalState>,
    meters: Meters,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .field("n_shards", &self.n_shards)
            .finish()
    }
}

fn io_err<'a>(
    what: &'static str,
    path: &'a Path,
) -> impl FnOnce(std::io::Error) -> StoreError + 'a {
    move |source| StoreError::Io {
        what,
        path: path.to_path_buf(),
        source,
    }
}

impl Store {
    /// Whether `dir` already holds a store (checked by marker file, not
    /// validated — recovery does the validation).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join("meta.bin").is_file()
    }

    /// Creates a fresh store for `n_shards` shards in `dir` (created if
    /// missing; must not already contain a store).
    pub fn create(
        dir: impl Into<PathBuf>,
        n_shards: u32,
        cfg: StoreConfig,
    ) -> Result<Store, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err("create store dir", &dir))?;
        let meta = dir.join("meta.bin");
        if meta.exists() {
            return Err(StoreError::Corrupt {
                what: "store directory",
                detail: format!("{} already holds a store", dir.display()),
            });
        }
        let mut e = wire::Enc::new();
        e.u32(STORE_FORMAT);
        e.u32(n_shards);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(META_MAGIC);
        bytes.extend_from_slice(&wire::fnv1a(&e.0).to_le_bytes());
        bytes.extend_from_slice(&e.0);
        write_atomic(&dir, "meta.bin", &bytes)?;
        // an empty journal, so open-for-append always succeeds later
        File::create(dir.join("journal.log"))
            .map_err(io_err("create journal", &dir.join("journal.log")))?;
        Store::open(dir, cfg)
    }

    /// Opens an existing store (or one just created).
    pub fn open(dir: impl Into<PathBuf>, cfg: StoreConfig) -> Result<Store, StoreError> {
        let dir = dir.into();
        let n_shards = read_meta(&dir)?;
        let jpath = dir.join("journal.log");
        let file = OpenOptions::new()
            .append(true)
            .open(&jpath)
            .map_err(io_err("open journal", &jpath))?;
        let len = file
            .metadata()
            .map_err(io_err("stat journal", &jpath))?
            .len();
        let store = Store {
            dir,
            cfg,
            n_shards,
            journal: Mutex::new(JournalState {
                file,
                len,
                // bytes already on disk predate this process: assume the
                // previous owner synced what it acknowledged
                durable_len: len,
                pending: 0,
                crashed: false,
            }),
            meters: Meters::new(),
        };
        store.refresh_gauges();
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured shard count.
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// Current journal length in bytes (including not-yet-synced tail).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.lock().expect("journal poisoned").len
    }

    /// Total bytes across current snapshot files.
    pub fn snapshot_bytes(&self) -> u64 {
        let mut total = 0;
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for entry in rd.flatten() {
                let name = entry.file_name();
                if name
                    .to_str()
                    .and_then(snapshot::parse_snapshot_file_name)
                    .is_some()
                {
                    total += entry.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        total
    }

    fn refresh_gauges(&self) {
        // the directory scan feeds only the gauge, a no-op when disabled
        if twx_obs::ENABLED {
            self.meters.journal_bytes.set(self.journal_bytes());
            self.meters.snapshot_bytes.set(self.snapshot_bytes());
        }
    }

    /// Appends one committed edit to the journal. Returns once the
    /// record is written; it is *durable* once the group-commit interval
    /// fsyncs (every append when `fsync_every == 1`).
    pub fn append(&self, rec: &JournalRecord) -> Result<(), StoreError> {
        let jpath = self.dir.join("journal.log");
        let mut j = self.journal.lock().expect("journal poisoned");
        if j.crashed {
            return Err(StoreError::Crashed);
        }
        let bytes = rec.encode();
        j.file
            .write_all(&bytes)
            .map_err(io_err("append journal record", &jpath))?;
        j.len += bytes.len() as u64;
        j.pending += 1;
        if j.pending >= self.cfg.fsync_every.max(1) {
            self.sync_locked(&mut j)?;
        }
        self.meters.journal_bytes.set(j.len);
        Ok(())
    }

    /// Forces the journal durable up to everything appended so far.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut j = self.journal.lock().expect("journal poisoned");
        if j.crashed {
            return Err(StoreError::Crashed);
        }
        self.sync_locked(&mut j)
    }

    fn sync_locked(&self, j: &mut JournalState) -> Result<(), StoreError> {
        j.pending = 0;
        if self.cfg.fault == StoreFault::SkipFsync {
            // the injected fault: pretend the group committed; durable_len
            // deliberately stays behind, so a simulated crash loses the tail
            return Ok(());
        }
        let t0 = Instant::now();
        j.file
            .sync_data()
            .map_err(io_err("fsync journal", &self.dir.join("journal.log")))?;
        self.meters.fsync_ns.record(t0.elapsed().as_nanos() as u64);
        j.durable_len = j.len;
        Ok(())
    }

    /// Simulates the machine dying: everything past the last real fsync
    /// is dropped, except the first `keep_unsynced` bytes of the
    /// un-synced tail (modelling a torn page flushed by the kernel at an
    /// arbitrary byte — cut it mid-record and recovery must truncate).
    /// The handle refuses all further writes; re-open the directory to
    /// recover.
    pub fn simulate_crash(&self, keep_unsynced: u64) -> Result<(), StoreError> {
        let jpath = self.dir.join("journal.log");
        let mut j = self.journal.lock().expect("journal poisoned");
        j.crashed = true;
        let keep = j.durable_len + keep_unsynced.min(j.len - j.durable_len);
        j.file
            .set_len(keep)
            .map_err(io_err("truncate journal at crash", &jpath))?;
        j.len = keep;
        Ok(())
    }

    /// Writes one shard snapshot at commit sequence `seq` (atomic:
    /// temp file + fsync + rename). Returns the snapshot's byte size.
    pub fn write_snapshot(
        &self,
        shard: u32,
        seq: u64,
        docs: &[(u32, u64, &Document)],
    ) -> Result<u64, StoreError> {
        if self.journal.lock().expect("journal poisoned").crashed {
            return Err(StoreError::Crashed);
        }
        let bytes = snapshot::encode_shard(shard, seq, docs);
        write_atomic(&self.dir, &snapshot::snapshot_file_name(shard, seq), &bytes)?;
        self.refresh_gauges();
        Ok(bytes.len() as u64)
    }

    /// Persists the current catalog (atomic replace of `catalog.bin`).
    pub fn write_catalog(&self, catalog: &Catalog) -> Result<(), StoreError> {
        let names: Vec<String> =
            catalog.with_read(|a| a.iter().map(|(_, name)| name.to_string()).collect());
        let mut e = wire::Enc::new();
        e.u32(STORE_FORMAT);
        e.u32(names.len() as u32);
        for n in &names {
            e.str(n);
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CATALOG_MAGIC);
        bytes.extend_from_slice(&wire::fnv1a(&e.0).to_le_bytes());
        bytes.extend_from_slice(&e.0);
        write_atomic(&self.dir, "catalog.bin", &bytes)
    }

    /// Drops journal records with `seq <= upto_seq` (they are covered by
    /// snapshots) and removes snapshot generations older than the newest
    /// per shard. Call only after a full successful snapshot pass at
    /// `upto_seq`. Returns the bytes reclaimed from the journal.
    pub fn compact(&self, upto_seq: u64) -> Result<u64, StoreError> {
        let jpath = self.dir.join("journal.log");
        let mut j = self.journal.lock().expect("journal poisoned");
        if j.crashed {
            return Err(StoreError::Crashed);
        }
        let mut bytes = Vec::new();
        File::open(&jpath)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(io_err("read journal for compaction", &jpath))?;
        bytes.truncate(j.len as usize);
        let scanned = journal::scan(&bytes);
        let mut kept = Vec::new();
        for rec in &scanned.records {
            if rec.seq > upto_seq {
                kept.extend_from_slice(&rec.encode());
            }
        }
        let reclaimed = (bytes.len() as u64).saturating_sub(kept.len() as u64);
        write_atomic(&self.dir, "journal.log", &kept)?;
        // the old append handle points at the unlinked inode; reopen
        j.file = OpenOptions::new()
            .append(true)
            .open(&jpath)
            .map_err(io_err("reopen journal after compaction", &jpath))?;
        j.len = kept.len() as u64;
        j.durable_len = j.len;
        j.pending = 0;
        drop(j);
        // older generations are now redundant: the newest snapshot per
        // shard plus the compacted journal reconstruct everything
        for shard in 0..self.n_shards {
            let files = snapshot::list_snapshots(&self.dir, shard)
                .map_err(io_err("list snapshots", &self.dir))?;
            for (_, path) in files.iter().skip(1) {
                let _ = fs::remove_file(path);
            }
        }
        self.refresh_gauges();
        Ok(reclaimed)
    }

    /// Recovers the whole store: newest valid snapshot per shard, torn
    /// journal tail truncated, surviving records replayed in order (see
    /// the crate docs for the exact rules).
    pub fn recover(&self) -> Result<Recovered, StoreError> {
        let t0 = Instant::now();
        let mut report = RecoveryReport::default();
        let catalog = Arc::new(read_catalog(&self.dir)?);

        // journal first: scan + physically truncate the torn tail so
        // post-recovery appends extend a valid prefix
        let jpath = self.dir.join("journal.log");
        let mut bytes = Vec::new();
        File::open(&jpath)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(io_err("read journal", &jpath))?;
        let scanned = journal::scan(&bytes);
        report.truncated_bytes = scanned.torn_bytes;
        report.torn_reason = scanned.torn_reason.clone();
        if scanned.torn_bytes > 0 {
            let mut j = self.journal.lock().expect("journal poisoned");
            j.file
                .set_len(scanned.valid_len)
                .map_err(io_err("truncate torn journal tail", &jpath))?;
            j.len = scanned.valid_len;
            j.durable_len = j.durable_len.min(scanned.valid_len);
        }
        // intern every journalled label before snapshotting the alphabet,
        // so recovered documents can carry labels newer than catalog.bin
        let edits: Vec<_> = scanned
            .records
            .iter()
            .map(|r| (r.clone(), r.to_edit(&catalog)))
            .collect();
        let alphabet = catalog.snapshot();

        // newest valid snapshot per shard, skipping corrupt generations
        let mut shards: Vec<Vec<SnapshotDoc>> = Vec::with_capacity(self.n_shards as usize);
        let mut seq = 0u64;
        for shard in 0..self.n_shards {
            let files = snapshot::list_snapshots(&self.dir, shard)
                .map_err(io_err("list snapshots", &self.dir))?;
            let mut loaded = None;
            for (file_seq, path) in &files {
                let mut buf = Vec::new();
                let ok = File::open(path)
                    .and_then(|mut f| f.read_to_end(&mut buf))
                    .is_ok();
                if !ok {
                    report.stale_snapshots_skipped += 1;
                    continue;
                }
                match snapshot::decode_shard(&buf, &alphabet) {
                    Ok(s) if s.shard == shard && s.seq == *file_seq => {
                        loaded = Some(s);
                        break;
                    }
                    _ => report.stale_snapshots_skipped += 1,
                }
            }
            let s = loaded.ok_or(StoreError::NoSnapshot { shard })?;
            seq = seq.max(s.seq);
            shards.push(s.docs);
        }

        // doc id → (shard, index): the exact persisted placement
        let mut place = std::collections::HashMap::new();
        for (si, docs) in shards.iter().enumerate() {
            for (di, d) in docs.iter().enumerate() {
                place.insert(d.doc_id, (si, di));
            }
        }

        // replay the journal tail in append (= sequence) order
        for (rec, edit) in &edits {
            seq = seq.max(rec.seq);
            let &(si, di) = place.get(&rec.doc_id).ok_or(StoreError::UnknownDoc {
                doc_id: rec.doc_id,
                seq: rec.seq,
            })?;
            let entry = &mut shards[si][di];
            if rec.post_version <= entry.version {
                report.records_skipped += 1; // already inside the snapshot
                continue;
            }
            if rec.post_version != entry.version + 1 {
                return Err(StoreError::VersionGap {
                    doc_id: rec.doc_id,
                    have: entry.version,
                    record: rec.post_version,
                    seq: rec.seq,
                });
            }
            let (tree, _span) =
                apply_edit(&entry.doc.tree, edit).map_err(|source| StoreError::Replay {
                    seq: rec.seq,
                    doc_id: rec.doc_id,
                    source,
                })?;
            entry.doc = Document::new(tree, alphabet.clone());
            entry.version = rec.post_version;
            report.records_replayed += 1;
        }

        report.recovery_ns = t0.elapsed().as_nanos() as u64;
        self.meters.recovery_ns.record(report.recovery_ns);
        self.refresh_gauges();
        Ok(Recovered {
            catalog,
            shards,
            seq,
            report,
        })
    }
}

/// Writes `bytes` to `dir/name` atomically: temp file, fsync, rename,
/// best-effort directory fsync.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let dst = dir.join(name);
    let mut f = File::create(&tmp).map_err(io_err("create temp file", &tmp))?;
    f.write_all(bytes)
        .map_err(io_err("write temp file", &tmp))?;
    f.sync_data().map_err(io_err("fsync temp file", &tmp))?;
    drop(f);
    fs::rename(&tmp, &dst).map_err(io_err("rename into place", &dst))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn read_meta(dir: &Path) -> Result<u32, StoreError> {
    let path = dir.join("meta.bin");
    let bytes = fs::read(&path).map_err(io_err("read meta", &path))?;
    let corrupt = |detail: String| StoreError::Corrupt {
        what: "meta file",
        detail,
    };
    if bytes.len() < 16 || &bytes[..8] != META_MAGIC {
        return Err(corrupt("bad magic or length".to_string()));
    }
    let want = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload = &bytes[16..];
    if wire::fnv1a(payload) != want {
        return Err(corrupt("checksum mismatch".to_string()));
    }
    let mut d = wire::Dec::new(payload);
    let format = d.u32().map_err(|e| corrupt(e.to_string()))?;
    if format != STORE_FORMAT {
        return Err(corrupt(format!("unsupported format version {format}")));
    }
    let n_shards = d.u32().map_err(|e| corrupt(e.to_string()))?;
    if n_shards == 0 {
        return Err(corrupt("zero shards".to_string()));
    }
    Ok(n_shards)
}

fn read_catalog(dir: &Path) -> Result<Catalog, StoreError> {
    let path = dir.join("catalog.bin");
    let bytes = fs::read(&path).map_err(io_err("read catalog", &path))?;
    let corrupt = |detail: String| StoreError::Corrupt {
        what: "catalog file",
        detail,
    };
    if bytes.len() < 16 || &bytes[..8] != CATALOG_MAGIC {
        return Err(corrupt("bad magic or length".to_string()));
    }
    let want = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload = &bytes[16..];
    if wire::fnv1a(payload) != want {
        return Err(corrupt("checksum mismatch".to_string()));
    }
    let mut d = wire::Dec::new(payload);
    let mut err = |e: wire::WireError| corrupt(e.to_string());
    let format = d.u32().map_err(&mut err)?;
    if format != STORE_FORMAT {
        return Err(corrupt(format!("unsupported format version {format}")));
    }
    let n = d.u32().map_err(&mut err)? as usize;
    let mut names = Vec::with_capacity(n.min(bytes.len() / 4 + 1));
    for _ in 0..n {
        names.push(d.str().map_err(&mut err)?);
    }
    Ok(Catalog::from_names(names))
}
