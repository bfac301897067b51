//! Small shared pieces: percentiles, seeded orders, the answer oracle,
//! edit generation, JSON access, host tags, and the scratch directory.

use crate::Args;
use std::path::{Path, PathBuf};
use std::process::Command;
use twx_obs::json::Json;
use twx_regxpath::parser::parse_rpath_catalog;
use twx_xtree::edit::Edit;
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::{Catalog, Label, NodeId, NodeSet, Tree};

/// The label space every workload draws from.
pub const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// The `q`-quantile (nearest rank) of nanosecond samples, in µs; 0 when
/// there are none.
pub fn pct_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e3
}

/// The median of a few measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An endless seeded order over `0..n`: every index once per round, each
/// round freshly shuffled, so every run sees the same mix whatever its
/// length.
pub struct Rounds {
    order: Vec<usize>,
    pos: usize,
    rng: SplitMix64,
}

impl Rounds {
    pub fn new(n: usize, rng: SplitMix64) -> Rounds {
        Rounds {
            order: (0..n).collect(),
            pos: n,
            rng,
        }
    }

    pub fn next_index(&mut self) -> usize {
        if self.pos == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.order.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// The answer oracle: every pool query through the bytecode VM, compiled
/// straight from the parsed (unsimplified) path, evaluated from each
/// tree's root. The serving stack answers through the engine's default
/// pipeline, so the two share only the parser.
pub fn oracle_answers(pool: &[&str], catalog: &Catalog, trees: &[&Tree]) -> Vec<Vec<NodeSet>> {
    pool.iter()
        .map(|q| {
            let path = parse_rpath_catalog(q, catalog).expect("pool queries parse");
            let program = twx_vm::compile_path(&path);
            trees
                .iter()
                .map(|t| twx_vm::eval_image(t, &program, &NodeSet::singleton(t.len(), t.root())))
                .collect()
        })
        .collect()
}

/// Match counts of [`oracle_answers`].
pub fn oracle_counts(pool: &[&str], catalog: &Catalog, trees: &[&Tree]) -> Vec<Vec<u64>> {
    oracle_answers(pool, catalog, trees)
        .into_iter()
        .map(|row| row.iter().map(|s| s.count() as u64).collect())
        .collect()
}

/// A seeded edit that keeps the tree's size within one node of `target`:
/// a third are relabels, the rest insert a child while the tree is below
/// `target` and remove a leaf while above (a coin decides at `target`).
pub fn next_edit(t: &Tree, target: usize, rng: &mut SplitMix64) -> Edit {
    let node = NodeId(rng.gen_range(0..t.len()) as u32);
    let label = Label(rng.gen_range(0..LABELS.len()) as u32);
    let grow = t.len() < target || (t.len() == target && rng.gen_bool(0.5));
    if rng.gen_range(0..3) == 0 || (!grow && t.len() < 2) {
        Edit::Relabel { node, label }
    } else if grow {
        Edit::InsertChild {
            parent: node,
            position: rng.gen_range(0..t.arity(node) + 1),
            label,
        }
    } else {
        // descend from a random non-root node to a leaf
        let mut leaf = NodeId(rng.gen_range(1..t.len()) as u32);
        while let Some(c) = t.first_child(leaf) {
            leaf = c;
        }
        Edit::RemoveSubtree { node: leaf }
    }
}

/// The `update` request for `edit` on document `doc`.
pub fn update_request(doc: usize, edit: &Edit) -> String {
    let edit = match *edit {
        Edit::Relabel { node, label } => Json::obj()
            .field("op", "relabel")
            .field("node", node.0)
            .field("label", LABELS[label.index()]),
        Edit::InsertChild {
            parent,
            position,
            label,
        } => Json::obj()
            .field("op", "insert-child")
            .field("parent", parent.0)
            .field("position", position)
            .field("label", LABELS[label.index()]),
        Edit::RemoveSubtree { node } => Json::obj()
            .field("op", "remove-subtree")
            .field("node", node.0),
    };
    Json::obj()
        .field("op", "update")
        .field("doc", doc)
        .field("edit", edit)
        .render()
}

/// The `query` request for `query`, traced or not.
pub fn query_request(query: &str, traced: bool) -> String {
    let req = Json::obj().field("op", "query").field("query", query);
    if traced {
        req.field("trace", true)
    } else {
        req
    }
    .render()
}

// -- JSON access over the hand-rolled `Json` enum --

pub fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn get_u64(j: &Json, key: &str) -> Option<u64> {
    match get(j, key)? {
        Json::Int(n) => Some(*n),
        _ => None,
    }
}

pub fn get_bool(j: &Json, key: &str) -> Option<bool> {
    match get(j, key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

pub fn get_str<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    match get(j, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn get_arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match get(j, key) {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// Checks a query reply's per-document answers: every document present
/// in id order, each with the expected match count and version.
pub fn answers_match(reply: &Json, counts: &[u64], versions: &[u64]) -> bool {
    let docs = get_arr(reply, "docs");
    get_bool(reply, "ok") == Some(true)
        && get_bool(reply, "timed_out") == Some(false)
        && docs.len() == counts.len()
        && docs.iter().enumerate().all(|(i, d)| {
            get_u64(d, "doc") == Some(i as u64)
                && get_u64(d, "matches") == Some(counts[i])
                && get_u64(d, "version") == Some(versions[i])
        })
}

/// A directory for the run's files under `.bench_tmp/` in the working
/// directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::current_dir()?
            .join(".bench_tmp")
            .join(format!("{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, not yet existing path inside this directory.
    pub fn child(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the shared parent goes too once no run uses it
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git revision of the working directory, when it is the top of a
/// git checkout; git may not look above it for a repository.
fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The filesystem type of the mount holding `path`.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            let mnt = mnt.replace("\\040", " ");
            path.starts_with(&mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
}

/// The host a result was measured on.
pub fn host_tags(args: &Args, store_dir: &Path) -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut tags = Json::obj()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("tiny", args.tiny)
        .field("nproc", nproc)
        .field("git_rev", git_rev().unwrap_or_else(unknown))
        .field(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        .field("store_fs", fs_type(store_dir).unwrap_or_else(unknown));
    if let Ok(v) = std::env::var("TWX_EVAL_THREADS") {
        tags = tags.field("twx_eval_threads", v);
    }
    tags
}
