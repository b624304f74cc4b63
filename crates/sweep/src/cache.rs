//! Content-addressed result cache.
//!
//! Every job's result is stored under the job's content hash (see
//! [`crate::grid::Job::canonical_bytes`] for what the hash covers —
//! resolved parameters, sweep-level settings and the engine version).
//! Because the address *is* the content key:
//!
//! * re-running the same spec is served entirely from cache;
//! * a sweep whose grid merely overlaps an earlier one reuses the
//!   overlapping points and computes only the new ones;
//! * results produced by a different engine version can never be served
//!   (the version is hashed in), so stale entries die silently.
//!
//! # Layout
//!
//! A cache directory holds 16 append-only pack files, `<d>.pack`, where
//! `d` is the job hash's first hex digit. Every record is one line,
//! appended with one `write` on an `O_APPEND` descriptor, so concurrent
//! writers (threads or processes) never interleave:
//!
//! * a result line, `<hash> <unix_ns> <len> <entry>`, where `<entry>` is
//!   the compact JSON object `{"error": …, "metrics": {…}}` and `<len>`
//!   its length in bytes (JSON strings escape newlines, so an entry stays
//!   on its line);
//! * a touch line, `<hash> <unix_ns>`, appended on every hit: with the
//!   newest store, the recency [`ResultCache::gc`] evicts by.
//!
//! The newest complete result line of a hash wins, so a store over a
//! corrupt entry heals it. A line without its newline is still being
//! written, and a line whose entry is not `<len>` bytes was torn (its
//! writer died or the disk filled): both read as misses. Nothing is
//! synced to disk; the cache is an accelerator, never a correctness
//! dependency. The per-entry `<xx>/<hash>.json` files of earlier versions
//! are not read, and `gc` deletes them.
//!
//! A process keeps one index per cache directory, shared by every handle
//! [`ResultCache::at`] returns for it: per pack, where each hash's newest
//! result line is. A lookup first indexes what was appended since its
//! last look, and rescans a pack that a `gc` rewrite replaced or that
//! shrank. Every read checks the line it finds, so a stale index costs a
//! rescan, never a wrong answer.
//!
//! Corrupt entries are *reported* ([`CacheError`]) rather than silently
//! conflated with misses: batch callers (sweeps, searches) treat them as
//! misses and recompute, while serving callers (`nd-serve`) surface them
//! as an internal error instead of quietly rewriting history.

use crate::value::{parse_json, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs::{File, Metadata};
use std::io::{self, Read, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Pack files per cache directory: one per first hex digit of the hash.
const PACKS: usize = 16;

/// How many times an append or a `gc` rewrite reopens a pack that a
/// concurrent `gc` replaced before it gives up.
const ATTEMPTS: usize = 8;

/// A job hash as the 32 bytes its 64 hex digits spell.
type Key = [u8; 32];

/// A cached job result: metric values, or the error the job produced.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// The job's error, if it failed (failed jobs are cached too: a job
    /// that deterministically errors will deterministically error again).
    pub error: Option<String>,
}

/// A present-but-unparseable cache entry (see [`ResultCache::load`]).
///
/// Distinct from a miss so callers can choose a policy: batch pipelines
/// recompute (`load(h).unwrap_or(None)`), a serving read path refuses to
/// answer. The entry stays on disk — `gc` or an overwriting `store` are
/// the remedies — so repeated loads keep failing deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheError {
    /// The job content hash whose entry is corrupt.
    pub hash: String,
    /// Path of the pack holding the entry.
    pub path: PathBuf,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt cache entry {} ({})",
            self.hash,
            self.path.display()
        )
    }
}

impl std::error::Error for CacheError {}

/// One pack's in-process state (see the module docs).
#[derive(Default)]
struct Pack {
    /// The pack file, open for reading and appending.
    file: Option<File>,
    /// Device and inode of `file`.
    id: (u64, u64),
    /// Bytes of `file` indexed so far; always the end of a complete line.
    scanned: u64,
    /// Each hash's newest complete result line: offset and length
    /// without the newline.
    index: HashMap<Key, (u64, u32)>,
}

/// The packs of one cache directory, shared by every handle onto it.
type Packs = [Mutex<Pack>; PACKS];

/// Every cache directory this process has opened.
static DIRS: Mutex<BTreeMap<PathBuf, Arc<Packs>>> = Mutex::new(BTreeMap::new());

/// The on-disk cache.
pub struct ResultCache {
    dir: PathBuf,
    packs: Arc<Packs>,
}

impl ResultCache {
    /// Open (lazily — the directory is created on first store) a cache
    /// rooted at `dir`. Every handle onto one directory shares this
    /// process's index of its packs.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let packs = DIRS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(dir.clone())
            .or_insert_with(|| Arc::new(std::array::from_fn(|_| Mutex::default())))
            .clone();
        ResultCache { dir, packs }
    }

    /// The default cache location: `$ND_SWEEP_CACHE` or
    /// `target/nd-sweep-cache` under the current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("ND_SWEEP_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/nd-sweep-cache"))
    }

    /// Where this cache lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn pack_path(&self, d: usize) -> PathBuf {
        self.dir.join(format!("{d:x}.pack"))
    }

    /// Pack `d`'s state. A panic under the lock leaves at worst a stale
    /// index, which every read checks.
    fn pack(&self, d: usize) -> MutexGuard<'_, Pack> {
        self.packs[d].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look a job hash up: `Ok(Some(_))` on a hit, `Ok(None)` on a miss
    /// (no complete result line, or an unreadable pack), `Err(CacheError)`
    /// when the newest complete result line does not parse. A hit appends
    /// a touch line, the recency the LRU sweep ([`ResultCache::gc`])
    /// evicts by — entries no sweep or search has touched lately go
    /// first.
    ///
    /// Callers that only want acceleration treat corruption as a miss
    /// (`load(h).unwrap_or(None)` — the sweep engine and the optimizer
    /// do); callers that *serve* cached answers propagate the error.
    ///
    /// Outcomes feed the metrics registry: `cache.hit`, `cache.miss`
    /// (absent entry), and `cache.corrupt` (present but unparseable —
    /// also counted as a miss, since batch callers recompute).
    pub fn load(&self, hash: &str) -> Result<Option<CachedResult>, CacheError> {
        let found = key_of(hash.as_bytes()).and_then(|key| Some((key, self.lookup(&key)?)));
        let Some((key, entry)) = found else {
            nd_obs::metrics::inc("cache.miss");
            return Ok(None);
        };
        match Self::parse_entry(&entry) {
            Some(result) => {
                nd_obs::metrics::inc("cache.hit");
                // failure (read-only cache) costs recency, not correctness
                let _ = self.append(pack_of(&key), format!("{hash} {}\n", unix_ns()).as_bytes());
                Ok(Some(result))
            }
            None => {
                nd_obs::metrics::inc("cache.corrupt");
                nd_obs::metrics::inc("cache.miss");
                Err(CacheError {
                    hash: hash.to_string(),
                    path: self.pack_path(pack_of(&key)),
                })
            }
        }
    }

    /// The entry of `key`'s newest complete result line. When the line
    /// the index points at is not that (the pack was replaced or changed
    /// in place), the index is rebuilt once.
    fn lookup(&self, key: &Key) -> Option<Vec<u8>> {
        let path = self.pack_path(pack_of(key));
        let mut pack = self.pack(pack_of(key));
        for _ in 0..2 {
            pack.refresh(&path);
            let &(offset, len) = pack.index.get(key)?;
            let mut line = vec![0; len as usize];
            let read = pack.file.as_ref()?.read_exact_at(&mut line, offset);
            if read.is_ok() && !line.contains(&b'\n') {
                if let Some(Record {
                    key: found,
                    entry: Some(entry),
                    ..
                }) = parse_line(&line)
                {
                    if found == *key {
                        return Some(entry.to_vec());
                    }
                }
            }
            *pack = Pack::default();
        }
        None
    }

    /// Decode one entry; `None` when it is not a valid entry (the
    /// corruption-is-a-miss path).
    fn parse_entry(entry: &[u8]) -> Option<CachedResult> {
        let v = parse_json(std::str::from_utf8(entry).ok()?).ok()?;
        let table = v.as_table()?;
        let metrics = table
            .get("metrics")?
            .as_table()?
            .iter()
            .map(|(k, v)| match v {
                // NaN metrics (e.g. a mean over zero successes) serialize
                // as JSON null; map them back
                Value::Null => Some((k.clone(), f64::NAN)),
                _ => Some((k.clone(), v.as_f64()?)),
            })
            .collect::<Option<BTreeMap<_, _>>>()?;
        let error = match table.get("error") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_str()?.to_string()),
        };
        Some(CachedResult { metrics, error })
    }

    /// Store a job result under its hash: one result line appended to
    /// its pack. Errors are swallowed — an unwritable cache degrades to a
    /// slower sweep, not a failed one — and counted as
    /// `cache.store_failed`.
    pub fn store(&self, hash: &str, result: &CachedResult) {
        let mut table = BTreeMap::new();
        table.insert(
            "metrics".to_string(),
            Value::Table(
                result
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        );
        table.insert(
            "error".to_string(),
            match &result.error {
                None => Value::Null,
                Some(e) => Value::Str(e.clone()),
            },
        );
        let entry = Value::Table(table).to_json();
        let stored = match key_of(hash.as_bytes()) {
            Some(key) => self.append(
                pack_of(&key),
                &result_line(hash, unix_ns(), entry.as_bytes()),
            ),
            None => Err(io::ErrorKind::InvalidInput.into()),
        };
        nd_obs::metrics::inc(match stored {
            Ok(()) => "cache.store",
            Err(_) => "cache.store_failed",
        });
    }

    /// Append one line to pack `d` with one write, under the file's
    /// shared lock so that a `gc` rewrite (which takes it exclusively)
    /// keeps it. When the path names a newer file than the one held (a
    /// rewrite was renamed over it), reopen and retry.
    fn append(&self, d: usize, line: &[u8]) -> io::Result<()> {
        let path = self.pack_path(d);
        let mut pack = self.pack(d);
        for _ in 0..ATTEMPTS {
            if pack.file.is_none() {
                std::fs::create_dir_all(&self.dir)?;
                pack.reopen(&path, true)?;
            }
            match pack.append(&path, line) {
                Ok(true) => return Ok(()),
                // replaced: reopen whatever the path names now
                Ok(false) => pack.file = None,
                Err(e) => {
                    // closing the file drops any lock still held
                    pack.file = None;
                    return Err(e);
                }
            }
        }
        Err(io::Error::other("the pack kept being replaced"))
    }

    /// Every live entry as `(last use, hash, bytes of its rewritten
    /// line)`, and the packs' total size.
    fn live(&self) -> (Vec<(u64, Key, u64)>, u64) {
        let (mut live, mut bytes) = (Vec::new(), 0);
        for d in 0..PACKS {
            let Ok(text) = std::fs::read(self.pack_path(d)) else {
                continue;
            };
            bytes += text.len() as u64;
            live.extend(fold(&text).into_iter().map(|(key, (entry, used))| {
                let line = result_line(&hex(&key), used, entry);
                (used, key, line.len() as u64)
            }));
        }
        (live, bytes)
    }

    /// Live entry count (hashes with a valid result) and pack bytes.
    pub fn stats(&self) -> CacheStats {
        let (live, bytes) = self.live();
        CacheStats {
            entries: live.len(),
            bytes,
        }
    }

    /// Shrink the cache to at most `max_bytes` of packs, evicting least
    /// recently used entries first (recency = the newest store or hit).
    /// While the packs fit the budget nothing is rewritten; otherwise
    /// every pack is rewritten once with its survivors. With `dry_run`
    /// nothing changes on disk — the report says what *would* go. A real
    /// pass also deletes stale temp files and the per-entry directories
    /// of the earlier layout.
    pub fn gc(&self, max_bytes: u64, dry_run: bool) -> GcReport {
        let (mut live, bytes) = self.live();
        let mut report = GcReport {
            entries: live.len(),
            bytes,
            evicted_entries: 0,
            evicted_bytes: 0,
        };
        if bytes > max_bytes {
            // oldest first; ties broken by hash for determinism
            live.sort_unstable();
            let mut kept: u64 = live.iter().map(|l| l.2).sum();
            let mut evict = HashSet::new();
            for (_, key, line) in &live {
                if kept <= max_bytes {
                    break;
                }
                evict.insert(*key);
                kept -= line;
            }
            report.evicted_entries = evict.len();
            report.evicted_bytes = bytes.saturating_sub(kept);
            if !dry_run {
                for d in 0..PACKS {
                    let _ = self.rewrite(d, &evict);
                }
            }
        }
        if !dry_run {
            self.sweep_leftovers();
        }
        report
    }

    /// Rewrite pack `d` with its live entries outside `evict`, each
    /// stamped with its last use, under the pack's lock and the file's
    /// exclusive lock: into `<d>.pack.tmp.<pid>`, renamed over the pack.
    /// Superseded, touch, torn and corrupt lines are dropped.
    fn rewrite(&self, d: usize, evict: &HashSet<Key>) -> io::Result<()> {
        let path = self.pack_path(d);
        let mut pack = self.pack(d);
        for _ in 0..ATTEMPTS {
            let mut file = match File::open(&path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
                opened => opened?,
            };
            file.lock()?;
            // a concurrent gc may have replaced the pack while this one
            // waited for the lock
            let held = identity(&file.metadata()?);
            if std::fs::metadata(&path).map(|m| identity(&m)).ok() != Some(held) {
                continue;
            }
            let mut text = Vec::new();
            file.read_to_end(&mut text)?;
            let mut survivors: Vec<_> = fold(&text)
                .into_iter()
                .filter(|(key, _)| !evict.contains(key))
                .map(|(key, (entry, used))| (used, key, entry))
                .collect();
            survivors.sort_unstable();
            let out: Vec<u8> = survivors
                .iter()
                .flat_map(|(used, key, entry)| result_line(&hex(key), *used, entry))
                .collect();
            let tmp = self
                .dir
                .join(format!("{d:x}.pack.tmp.{}", std::process::id()));
            let replaced = std::fs::write(&tmp, out).and_then(|()| std::fs::rename(&tmp, &path));
            if replaced.is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
            *pack = Pack::default();
            return replaced;
        }
        Err(io::Error::other("the pack kept being replaced"))
    }

    /// Remove what earlier writers left behind: `*.tmp.<pid>` files (a
    /// rewrite killed before its rename; they are never read) and the
    /// per-entry `<xx>/` directories of the earlier layout. Only *stale*
    /// temp files go: a concurrent gc's rewrite is seconds old at most,
    /// so an age threshold keeps this from racing it.
    fn sweep_leftovers(&self) {
        const ORPHAN_AGE: Duration = Duration::from_secs(600);
        let Ok(files) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for file in files.flatten() {
            let (path, name) = (file.path(), file.file_name());
            let name = name.to_string_lossy();
            let Ok(meta) = file.metadata() else { continue };
            let old_shard = name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit());
            let stale = meta
                .modified()
                .is_ok_and(|t| t.elapsed().unwrap_or_default() >= ORPHAN_AGE);
            if meta.is_dir() && old_shard {
                let _ = std::fs::remove_dir_all(&path);
            } else if name.contains(".tmp.") && stale {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

impl Pack {
    /// Open the file `path` names now, created when `create`, and return
    /// its length. The index carries over only when that is the file
    /// indexed so far and it did not shrink. A pack that cannot be opened
    /// for appending (a read-only cache) is opened for reading.
    fn reopen(&mut self, path: &Path, create: bool) -> io::Result<u64> {
        self.file = None;
        let file = File::options()
            .read(true)
            .append(true)
            .create(create)
            .open(path)
            .or_else(|e| if create { Err(e) } else { File::open(path) })?;
        let meta = file.metadata()?;
        if identity(&meta) != self.id || meta.len() < self.scanned {
            *self = Pack {
                id: identity(&meta),
                ..Pack::default()
            };
        }
        self.file = Some(file);
        Ok(meta.len())
    }

    /// Append `line` to the held file under its shared lock; `Ok(false)`
    /// when `path` no longer names that file.
    fn append(&self, path: &Path, line: &[u8]) -> io::Result<bool> {
        let Some(file) = &self.file else {
            return Ok(false);
        };
        file.lock_shared()?;
        let written = (|| {
            let len = match std::fs::metadata(path) {
                Ok(meta) if identity(&meta) == self.id => meta.len(),
                _ => return Ok(false),
            };
            // a torn tail has no newline: start this line after it
            let mut last = [b'\n'];
            if len > 0 {
                file.read_exact_at(&mut last, len - 1)?;
            }
            let mut writer = file;
            if last == [b'\n'] {
                writer.write_all(line)?;
            } else {
                writer.write_all(&[b"\n", line].concat())?;
            }
            Ok(true)
        })();
        file.unlock()?;
        written
    }

    /// Index what was appended to the pack since the last look, after
    /// starting over when the path names another file or the file shrank.
    fn refresh(&mut self, path: &Path) {
        let Ok(meta) = std::fs::metadata(path) else {
            *self = Pack::default();
            return;
        };
        let mut len = meta.len();
        if self.file.is_none() || self.id != identity(&meta) || len < self.scanned {
            let Ok(reopened) = self.reopen(path, false) else {
                return;
            };
            len = reopened;
        }
        let Some(file) = &self.file else { return };
        if len <= self.scanned {
            return;
        }
        let mut text = vec![0; (len - self.scanned) as usize];
        if file.read_exact_at(&mut text, self.scanned).is_err() {
            *self = Pack::default();
            return;
        }
        // a last line without its newline is in flight: the next look
        // reads it again
        let Some(end) = text.iter().rposition(|&b| b == b'\n') else {
            return;
        };
        let mut offset = self.scanned;
        for line in text[..end].split(|&b| b == b'\n') {
            let result = parse_line(line).filter(|r| r.entry.is_some());
            if let (Some(result), Ok(len)) = (result, u32::try_from(line.len())) {
                self.index.insert(result.key, (offset, len));
            }
            offset += line.len() as u64 + 1;
        }
        self.scanned += end as u64 + 1;
    }
}

/// One parsed pack line.
struct Record<'a> {
    key: Key,
    /// When the line was appended, in ns since the Unix epoch.
    at: u64,
    /// A result line's entry; `None` on a touch line.
    entry: Option<&'a [u8]>,
}

/// Parse one pack line (without its newline); `None` when it is torn: a
/// malformed header, or an entry that is not `<len>` bytes.
fn parse_line(line: &[u8]) -> Option<Record<'_>> {
    let number = |field: &[u8]| std::str::from_utf8(field).ok()?.parse::<u64>().ok();
    let mut fields = line.splitn(4, |&b| b == b' ');
    let key = key_of(fields.next()?)?;
    let at = number(fields.next()?)?;
    let entry = match fields.next() {
        None => None,
        Some(len) => {
            let entry = fields.next()?;
            if number(len)? != entry.len() as u64 {
                return None;
            }
            Some(entry)
        }
    };
    Some(Record { key, at, entry })
}

/// Fold a pack's complete lines to each hash's newest valid entry and
/// last use (its newest store or touch); hashes without a valid entry are
/// left out.
fn fold(text: &[u8]) -> HashMap<Key, (&[u8], u64)> {
    let mut seen: HashMap<Key, (Option<&[u8]>, u64)> = HashMap::new();
    let end = text.iter().rposition(|&b| b == b'\n').unwrap_or(0);
    for record in text[..end].split(|&b| b == b'\n').filter_map(parse_line) {
        let (entry, used) = seen.entry(record.key).or_default();
        *used = (*used).max(record.at);
        if let Some(valid) = record
            .entry
            .filter(|e| ResultCache::parse_entry(e).is_some())
        {
            *entry = Some(valid);
        }
    }
    seen.into_iter()
        .filter_map(|(key, (entry, used))| Some((key, (entry?, used))))
        .collect()
}

/// One result line: `<hash> <at> <len> <entry>\n`.
fn result_line(hash: &str, at: u64, entry: &[u8]) -> Vec<u8> {
    let mut line = format!("{hash} {at} {} ", entry.len()).into_bytes();
    line.extend_from_slice(entry);
    line.push(b'\n');
    line
}

/// The key a 64-hex-digit job hash spells; `None` for anything else.
fn key_of(hash: &[u8]) -> Option<Key> {
    let nibble = |c: u8| (c as char).to_digit(16);
    let mut key = [0; 32];
    if hash.len() != 2 * key.len() {
        return None;
    }
    for (byte, pair) in key.iter_mut().zip(hash.chunks_exact(2)) {
        *byte = ((nibble(pair[0])? << 4) | nibble(pair[1])?) as u8;
    }
    Some(key)
}

fn hex(key: &Key) -> String {
    key.iter().map(|b| format!("{b:02x}")).collect()
}

/// The pack a key lives in: its first hex digit.
fn pack_of(key: &Key) -> usize {
    usize::from(key[0] >> 4)
}

fn identity(meta: &Metadata) -> (u64, u64) {
    (meta.dev(), meta.ino())
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Cache size accounting (see [`ResultCache::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of stored results.
    pub entries: usize,
    /// Total size of the packs in bytes.
    pub bytes: u64,
}

/// Parse a [`ResultCache::gc`] budget: a byte count with an optional
/// `K`/`M`/`G` suffix (powers of 1024, either case). `None` when the
/// text is not a count or the product does not fit in a `u64`.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// What a [`ResultCache::gc`] pass did (or, dry-run, would do).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcReport {
    /// Entries present before the sweep.
    pub entries: usize,
    /// Pack bytes present before the sweep.
    pub bytes: u64,
    /// Entries evicted (or reclaimable, on a dry run).
    pub evicted_entries: usize,
    /// Pack bytes the rewrite frees (or would, on a dry run): evicted
    /// entries, plus superseded, touch, torn and corrupt lines.
    pub evicted_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nd-sweep-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Collection on, for tests that read the `cache.*` counters or make
    /// them move while another test reads them.
    fn metrics_on() -> MutexGuard<'static, ()> {
        let guard = crate::METRICS_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        nd_obs::metrics::set_enabled(true);
        guard
    }

    fn count(name: &str) -> u64 {
        nd_obs::metrics::counter(name).get()
    }

    /// A result whose one metric is `i`: equal-length lines for `i` < 10.
    fn numbered(i: usize) -> CachedResult {
        CachedResult {
            metrics: BTreeMap::from([("worst_s".to_string(), i as f64)]),
            error: None,
        }
    }

    /// Shorten `pack` by `by` bytes in place.
    fn cut(pack: &Path, by: u64) {
        let file = File::options().write(true).open(pack).unwrap();
        file.set_len(file.metadata().unwrap().len() - by).unwrap();
    }

    /// Overwrite the entry of every result line in `pack` with `byte`, in
    /// place: each line keeps its length, so it reads as corrupt, not torn.
    fn vandalize(pack: &Path, byte: u8) {
        let mut text = std::fs::read(pack).unwrap();
        for line in text.split_mut(|&b| b == b'\n') {
            let spaces: Vec<usize> = (0..line.len()).filter(|&i| line[i] == b' ').collect();
            if let Some(&third) = spaces.get(2) {
                line[third + 1..].fill(byte);
            }
        }
        std::fs::write(pack, text).unwrap();
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::at(&dir);
        let hash = "ab".to_string() + &"0".repeat(62);
        assert_eq!(cache.load(&hash), Ok(None), "absent entry is a miss");

        let result = CachedResult {
            metrics: BTreeMap::from([
                ("worst_s".to_string(), 0.0576),
                ("undiscovered_prob".to_string(), 0.0),
            ]),
            error: None,
        };
        cache.store(&hash, &result);
        assert_eq!(cache.load(&hash), Ok(Some(result)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_cached_and_corruption_is_reported() {
        // the corrupt loads below must not land inside the race test
        let _metrics = metrics_on();
        let dir = temp_dir("corrupt");
        let cache = ResultCache::at(&dir);
        let hash = "cd".to_string() + &"1".repeat(62);
        let failed = CachedResult {
            metrics: BTreeMap::new(),
            error: Some("no such protocol".into()),
        };
        cache.store(&hash, &failed);
        assert_eq!(cache.load(&hash), Ok(Some(failed)));

        // corrupt the entry, keeping its line complete and its length
        // (not JSON, then not UTF-8): load must report it — distinguishable
        // from a miss — and never panic; batch callers map this back to a
        // miss
        let path = dir.join("c.pack");
        for garbage in [b'{', 0xff] {
            vandalize(&path, garbage);
            let err = cache.load(&hash).unwrap_err();
            assert_eq!(err.hash, hash);
            assert_eq!(err.path, path);
            assert!(err.to_string().contains("corrupt cache entry"));
            assert_eq!(cache.stats().entries, 0, "a corrupt entry is not live");
        }
        // a fresh store over the corrupt entry heals it
        let healed = CachedResult {
            metrics: BTreeMap::new(),
            error: None,
        };
        cache.store(&hash, &healed);
        assert_eq!(cache.load(&hash), Ok(Some(healed)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_truncated_records_are_misses_and_a_later_store_is_readable() {
        let dir = temp_dir("torn");
        let cache = ResultCache::at(&dir);
        let hashes: Vec<String> = (0..4).map(|i| format!("a{i}") + &"0".repeat(62)).collect();
        for (i, h) in hashes[..3].iter().enumerate() {
            cache.store(h, &numbered(i));
        }
        let pack = dir.join("a.pack");
        // a miss indexes the three records
        assert_eq!(cache.load(&hashes[3]), Ok(None));

        // cut inside the last record: that line has lost its newline, and
        // the pack is shorter than the index has read, so the next look
        // reads it from the start
        cut(&pack, 5);
        assert_eq!(cache.load(&hashes[3]), Ok(None));
        // a store straight after the cut starts on a line of its own
        cache.store(&hashes[3], &numbered(3));
        assert_eq!(cache.load(&hashes[3]), Ok(Some(numbered(3))));
        assert_eq!(cache.load(&hashes[2]), Ok(None));
        cache.store(&hashes[2], &numbered(2));
        assert_eq!(cache.load(&hashes[2]), Ok(Some(numbered(2))));
        assert_eq!(cache.load(&hashes[0]), Ok(Some(numbered(0))));
        assert_eq!(cache.load(&hashes[1]), Ok(Some(numbered(1))));

        // a complete line whose entry is not `<len>` bytes is torn: the
        // older entry still wins
        let mut file = File::options().append(true).open(&pack).unwrap();
        writeln!(file, "{} 1 999 {{}}", hashes[0]).unwrap();
        assert_eq!(cache.load(&hashes[0]), Ok(Some(numbered(0))));
        assert_eq!(cache.stats().entries, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pack_changed_in_place_is_rescanned_not_misread() {
        let dir = temp_dir("in-place");
        let cache = ResultCache::at(&dir);
        let hashes: Vec<String> = (0..2).map(|i| format!("b{i}") + &"0".repeat(62)).collect();
        let absent = "b".to_string() + &"f".repeat(63);
        let pack = dir.join("b.pack");
        for (i, h) in hashes.iter().enumerate() {
            cache.store(h, &numbered(i));
        }
        // a miss indexes both lines without appending a touch line
        assert_eq!(cache.load(&absent), Ok(None));

        // two lines of one length swap places: where the index has the
        // first hash's line, the second hash's line now is
        let text = std::fs::read(&pack).unwrap();
        let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), lines[1].len());
        std::fs::write(&pack, [lines[1], lines[0]].concat()).unwrap();
        assert_eq!(cache.load(&hashes[0]), Ok(Some(numbered(0))));
        assert_eq!(cache.load(&hashes[1]), Ok(Some(numbered(1))));

        // the last record is cut and a store makes the pack longer than
        // the index has read: the indexed line now runs into the new one
        cache.store(&hashes[1], &numbered(1));
        assert_eq!(cache.load(&absent), Ok(None));
        cut(&pack, 5);
        cache.store(&hashes[1], &numbered(1));
        assert_eq!(cache.load(&hashes[1]), Ok(Some(numbered(1))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_after_another_process_rewrote_the_pack_lands_in_the_new_one() {
        let dir = temp_dir("rewritten");
        std::fs::create_dir_all(&dir).unwrap();
        // a second spelling of the directory gets its own index and
        // descriptors, as another process would
        let alias = dir.with_extension("alias");
        let _ = std::fs::remove_file(&alias);
        std::os::unix::fs::symlink(&dir, &alias).unwrap();
        let (writer, other) = (ResultCache::at(&dir), ResultCache::at(&alias));
        let hashes: Vec<String> = (0..3).map(|i| format!("c{i}") + &"0".repeat(62)).collect();
        writer.store(&hashes[0], &numbered(0));
        writer.store(&hashes[1], &numbered(1));

        // the other side evicts one entry, renaming a new pack over the one
        // the writer holds open
        let per_entry = other.stats().bytes / 2;
        assert_eq!(other.gc(per_entry, false).evicted_entries, 1);
        writer.store(&hashes[2], &numbered(2));
        assert_eq!(other.load(&hashes[2]), Ok(Some(numbered(2))));
        assert_eq!(other.load(&hashes[1]), Ok(Some(numbered(1))));
        assert_eq!(writer.load(&hashes[0]), Ok(None));
        let _ = std::fs::remove_file(&alias);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_hash_stores_never_tear_a_concurrent_load() {
        let _metrics = metrics_on();
        let dir = temp_dir("race");
        let cache = ResultCache::at(&dir);
        let hash = "5e".to_string() + &"7".repeat(62);
        let result = CachedResult {
            metrics: BTreeMap::from([("worst_s".to_string(), 0.0576)]),
            error: None,
        };
        let corrupt = count("cache.corrupt");
        let (start, writers_done) = (Barrier::new(3), AtomicUsize::new(0));
        let (loads, errors) = std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..3000 {
                        cache.store(&hash, &result);
                    }
                    writers_done.fetch_add(1, Ordering::SeqCst);
                });
            }
            s.spawn(|| {
                start.wait();
                let (mut loads, mut errors) = (0u64, 0u64);
                while writers_done.load(Ordering::SeqCst) < 2 {
                    loads += 1;
                    errors += u64::from(cache.load(&hash).is_err());
                }
                (loads, errors)
            })
            .join()
            .unwrap()
        });
        assert_eq!(errors, 0, "{errors} of {loads} loads read a torn entry");
        assert_eq!(count("cache.corrupt"), corrupt);
        assert_eq!(cache.load(&hash), Ok(Some(result)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_handles_read_back_every_entry_bit_for_bit() {
        let dir = temp_dir("handles");
        let handles = [ResultCache::at(&dir), ResultCache::at(&dir)];
        // the multiplier spreads the first hex digit over every pack
        let hash = |i: u64| format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).repeat(4);
        let result = |i: u64| CachedResult {
            metrics: BTreeMap::from([
                ("worst_s".to_string(), i as f64 * 0.1 + 1e-9),
                (
                    "mean_s".to_string(),
                    if i.is_multiple_of(3) {
                        f64::NAN
                    } else {
                        -(i as f64) / 7.0
                    },
                ),
            ]),
            error: i
                .is_multiple_of(5)
                .then(|| format!("job {i}: \"quoted\"\nnext line\tü")),
        };
        let same = |a: &CachedResult, b: &CachedResult| {
            a.error == b.error
                && a.metrics.len() == b.metrics.len()
                && a.metrics
                    .iter()
                    .zip(&b.metrics)
                    .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &handles[t as usize % 2];
                s.spawn(move || {
                    for i in (t..800).step_by(4) {
                        cache.store(&hash(i), &result(i));
                        let back = cache.load(&hash(i)).unwrap().expect("just stored");
                        assert!(same(&back, &result(i)), "entry {i}");
                    }
                });
            }
        });
        for i in 0..800 {
            for cache in &handles {
                let back = cache.load(&hash(i)).unwrap().expect("stored");
                assert!(same(&back, &result(i)), "entry {i}");
            }
        }
        assert_eq!(handles[0].stats().entries, 800);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let dir = temp_dir("gc");
        let cache = ResultCache::at(&dir);
        let result = CachedResult {
            metrics: BTreeMap::from([("worst_s".to_string(), 1.0)]),
            error: None,
        };
        let hashes: Vec<String> = (0..4)
            .map(|i| format!("{i}{i}") + &"0".repeat(62))
            .collect();
        // recency is store order: hashes[0] was used least recently
        for h in &hashes {
            cache.store(h, &result);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        let per_entry = stats.bytes / 4;

        // dry run reports reclaimable bytes but deletes nothing
        let dry = cache.gc(per_entry * 2, true);
        assert_eq!(dry.evicted_entries, 2);
        assert_eq!(dry.evicted_bytes, per_entry * 2);
        assert_eq!(cache.stats().entries, 4);

        // a real pass evicts the two oldest, keeps the two newest
        let real = cache.gc(per_entry * 2, false);
        assert_eq!(real.evicted_entries, 2);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.load(&hashes[0]), Ok(None), "oldest evicted");
        assert!(cache.load(&hashes[3]).unwrap().is_some(), "newest kept");

        // a cache-hit refreshes recency: loading the older survivor
        // makes the newer one the eviction candidate
        assert!(cache.load(&hashes[2]).unwrap().is_some());
        let lru = cache.gc(per_entry, false);
        assert_eq!(lru.evicted_entries, 1);
        assert!(
            cache.load(&hashes[2]).unwrap().is_some(),
            "recently hit entry kept"
        );
        assert_eq!(cache.load(&hashes[3]), Ok(None));

        // gc to zero clears everything
        cache.gc(0, false);
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 0,
                bytes: 0
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_orphaned_temp_files() {
        let dir = temp_dir("gc-tmp");
        let cache = ResultCache::at(&dir);
        let hash = "ab".to_string() + &"3".repeat(62);
        cache.store(
            &hash,
            &CachedResult {
                metrics: BTreeMap::new(),
                error: None,
            },
        );
        let orphan = dir.join("a.pack.tmp.999");
        std::fs::write(&orphan, "torn write").unwrap();
        // an entry in the earlier per-entry layout is never read
        let old_hash = "ab".to_string() + &"4".repeat(62);
        std::fs::create_dir_all(dir.join("ab")).unwrap();
        std::fs::write(
            dir.join("ab").join(format!("{old_hash}.json")),
            r#"{"error": null, "metrics": {}}"#,
        )
        .unwrap();
        assert_eq!(cache.load(&old_hash), Ok(None));
        // temp files are invisible to stats…
        assert_eq!(cache.stats().entries, 1);
        // …but a *fresh* temp file survives gc: it may belong to a
        // concurrent gc about to rename it into place
        let report = cache.gc(u64::MAX, false);
        assert_eq!(report.evicted_entries, 0);
        assert!(orphan.exists(), "fresh temp file kept (live-writer race)");
        assert!(!dir.join("ab").exists(), "earlier layout deleted");
        // backdated past the orphan age threshold, gc sweeps it
        File::options()
            .append(true)
            .open(&orphan)
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(3600))
            .unwrap();
        cache.gc(u64::MAX, false);
        assert!(!orphan.exists(), "stale orphan swept");
        assert!(cache.load(&hash).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_counts_take_binary_suffixes_and_refuse_overflow() {
        assert_eq!(parse_bytes("0"), Some(0));
        assert_eq!(parse_bytes("1500"), Some(1500));
        assert_eq!(parse_bytes("4K"), Some(4 << 10));
        assert_eq!(parse_bytes("4k"), Some(4 << 10));
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("64m"), Some(64 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        for bad in ["", "G", "-1", "1.5G", "1T", "K4", " 4K"] {
            assert_eq!(parse_bytes(bad), None, "{bad:?}");
        }
        // 2^34 G is 2^64 bytes: one past u64::MAX, refused rather than
        // wrapped to a zero budget that would evict everything
        assert_eq!(parse_bytes("17179869183G"), Some(u64::MAX - (1 << 30) + 1));
        assert_eq!(parse_bytes("17179869184G"), None);
        assert_eq!(parse_bytes("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_bytes("18446744073709551616"), None);
    }

    #[test]
    fn unwritable_cache_is_silent() {
        // a cache rooted inside a file path cannot create directories;
        // store must not panic, and counts the failure
        let _metrics = metrics_on();
        let file = std::env::temp_dir().join(format!("nd-sweep-flat-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        let cache = ResultCache::at(file.join("sub"));
        let failed = count("cache.store_failed");
        cache.store(
            &("ef".to_string() + &"2".repeat(62)),
            &CachedResult {
                metrics: BTreeMap::new(),
                error: None,
            },
        );
        assert_eq!(count("cache.store_failed"), failed + 1);
        let _ = std::fs::remove_file(
            std::env::temp_dir().join(format!("nd-sweep-flat-{}", std::process::id())),
        );
    }
}
