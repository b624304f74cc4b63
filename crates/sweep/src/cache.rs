//! Content-addressed result cache.
//!
//! Every job's result is stored in one JSON file named by the job's
//! content hash (see [`crate::grid::Job::canonical_bytes`] for what the
//! hash covers — resolved parameters, sweep-level settings and the engine
//! version). Because the address *is* the content key:
//!
//! * re-running the same spec is served entirely from cache;
//! * a sweep whose grid merely overlaps an earlier one reuses the
//!   overlapping points and computes only the new ones;
//! * results produced by a different engine version can never be served
//!   (the version is hashed in), so stale entries die silently.
//!
//! Corrupt entries are *reported* ([`CacheError`]) rather than silently
//! conflated with misses: batch callers (sweeps, searches) treat them as
//! misses and recompute — the cache is an accelerator, never a
//! correctness dependency — while serving callers (`nd-serve`) surface
//! them as an internal error instead of quietly rewriting history.

use crate::value::{parse_json, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

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
    /// Path of the offending file.
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

/// The on-disk cache.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (lazily — the directory is created on first store) a cache
    /// rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
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

    fn path_for(&self, hash: &str) -> PathBuf {
        // shard by the first byte to keep directories small at scale
        self.dir.join(&hash[..2]).join(format!("{hash}.json"))
    }

    /// Look a job hash up: `Ok(Some(_))` on a hit, `Ok(None)` on a miss
    /// (absent or unreadable file), `Err(CacheError)` when the entry is
    /// present but unparseable. A hit refreshes the entry's modification
    /// time, which is the recency the LRU sweep ([`ResultCache::gc`])
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
        let path = self.path_for(hash);
        let Ok(text) = std::fs::read_to_string(&path) else {
            nd_obs::metrics::inc("cache.miss");
            return Ok(None);
        };
        // touch for LRU; failure (read-only cache) costs recency, not
        // correctness
        let _ = std::fs::File::options()
            .append(true)
            .open(&path)
            .and_then(|f| f.set_modified(std::time::SystemTime::now()));
        match Self::parse_entry(&text) {
            Some(result) => {
                nd_obs::metrics::inc("cache.hit");
                Ok(Some(result))
            }
            None => {
                nd_obs::metrics::inc("cache.corrupt");
                nd_obs::metrics::inc("cache.miss");
                Err(CacheError {
                    hash: hash.to_string(),
                    path,
                })
            }
        }
    }

    /// Decode one on-disk entry; `None` when the file is not a valid
    /// entry (the corruption-is-a-miss path).
    fn parse_entry(text: &str) -> Option<CachedResult> {
        let v = parse_json(text).ok()?;
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

    /// Store a job result under its hash. Atomic (write + rename), so a
    /// concurrent reader never sees a torn entry; errors are swallowed —
    /// an unwritable cache degrades to a slower sweep, not a failed one.
    pub fn store(&self, hash: &str, result: &CachedResult) {
        let path = self.path_for(hash);
        let Some(parent) = path.parent() else { return };
        if std::fs::create_dir_all(parent).is_err() {
            return;
        }
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
        let body = Value::Table(table).to_json_pretty();
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let write = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(body.as_bytes()))
            .and_then(|()| std::fs::rename(&tmp, &path));
        match write {
            Ok(()) => nd_obs::metrics::inc("cache.store"),
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Every file in the two-level shard layout (entries *and* leftover
    /// temp files). The single walk both accountings share.
    fn files(&self) -> Vec<std::fs::DirEntry> {
        let mut out = Vec::new();
        if let Ok(shards) = std::fs::read_dir(&self.dir) {
            for shard in shards.flatten() {
                if let Ok(files) = std::fs::read_dir(shard.path()) {
                    out.extend(files.flatten());
                }
            }
        }
        out
    }

    /// Every entry on disk: `(hash path, size in bytes, last use)`.
    /// Unreadable metadata is skipped — consistent with load's
    /// corruption-is-a-miss stance.
    fn entries(&self) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
        self.files()
            .into_iter()
            .filter_map(|file| {
                let path = file.path();
                if path.extension().is_none_or(|e| e != "json") {
                    return None; // leftover .tmp.* from a killed writer
                }
                let meta = file.metadata().ok()?;
                let used = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                Some((path, meta.len(), used))
            })
            .collect()
    }

    /// Entry count and total size in bytes.
    pub fn stats(&self) -> CacheStats {
        let entries = self.entries();
        CacheStats {
            entries: entries.len(),
            bytes: entries.iter().map(|(_, b, _)| b).sum(),
        }
    }

    /// Shrink the cache to at most `max_bytes`, evicting least-recently
    /// used entries first (recency = mtime, refreshed on every cache
    /// hit). With `dry_run` nothing is deleted — the report says what
    /// *would* go. Also sweeps temp files left behind by killed writers.
    pub fn gc(&self, max_bytes: u64, dry_run: bool) -> GcReport {
        let mut entries = self.entries();
        // oldest first; ties broken by path for determinism
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let total: u64 = entries.iter().map(|(_, b, _)| b).sum();
        let mut report = GcReport {
            entries: entries.len(),
            bytes: total,
            evicted_entries: 0,
            evicted_bytes: 0,
        };
        let mut live = total;
        for (path, bytes, _) in &entries {
            if live <= max_bytes {
                break;
            }
            if dry_run || std::fs::remove_file(path).is_ok() {
                report.evicted_entries += 1;
                report.evicted_bytes += bytes;
                live -= bytes;
            }
        }
        if !dry_run {
            self.sweep_temp_files();
        }
        report
    }

    /// Remove orphaned `*.tmp.<pid>` files (a writer killed between
    /// create and rename leaves one behind; they are never read). Only
    /// *stale* temp files go: a concurrent sweep's in-flight write is
    /// seconds old at most, so an age threshold keeps gc from racing
    /// live writers (whose rename would silently fail, costing a
    /// recompute).
    fn sweep_temp_files(&self) {
        const ORPHAN_AGE: std::time::Duration = std::time::Duration::from_secs(600);
        for file in self.files() {
            let path = file.path();
            let is_temp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp."));
            let is_stale = file
                .metadata()
                .and_then(|m| m.modified())
                .map(|t| t.elapsed().unwrap_or_default() >= ORPHAN_AGE)
                .unwrap_or(false);
            if is_temp && is_stale {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// Cache size accounting (see [`ResultCache::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of stored results.
    pub entries: usize,
    /// Total size in bytes.
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
    /// Bytes present before the sweep.
    pub bytes: u64,
    /// Entries evicted (or reclaimable, on a dry run).
    pub evicted_entries: usize,
    /// Bytes evicted (or reclaimable, on a dry run).
    pub evicted_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nd-sweep-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
        let dir = temp_dir("corrupt");
        let cache = ResultCache::at(&dir);
        let hash = "cd".to_string() + &"1".repeat(62);
        let failed = CachedResult {
            metrics: BTreeMap::new(),
            error: Some("no such protocol".into()),
        };
        cache.store(&hash, &failed);
        assert_eq!(cache.load(&hash), Ok(Some(failed)));

        // corrupt the entry: load must report it — distinguishable from a
        // miss — and never panic; batch callers map this back to a miss
        let path = dir.join(&hash[..2]).join(format!("{hash}.json"));
        std::fs::write(&path, "{ not json").unwrap();
        let err = cache.load(&hash).unwrap_err();
        assert_eq!(err.hash, hash);
        assert_eq!(err.path, path);
        assert!(err.to_string().contains("corrupt cache entry"));
        // a fresh store over the corrupt entry heals it
        cache.store(
            &hash,
            &CachedResult {
                metrics: BTreeMap::new(),
                error: None,
            },
        );
        assert!(cache.load(&hash).is_ok());
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
        for (i, h) in hashes.iter().enumerate() {
            cache.store(h, &result);
            // stagger mtimes well beyond filesystem timestamp granularity
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64 * 1000);
            std::fs::File::options()
                .append(true)
                .open(dir.join(&h[..2]).join(format!("{h}.json")))
                .unwrap()
                .set_modified(t)
                .unwrap();
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
        let orphan = dir.join("ab").join(format!("{hash}.tmp.999"));
        std::fs::write(&orphan, "torn write").unwrap();
        // temp files are invisible to stats…
        assert_eq!(cache.stats().entries, 1);
        // …but a *fresh* temp file survives gc: it may belong to a
        // concurrent writer about to rename it into place
        let report = cache.gc(u64::MAX, false);
        assert_eq!(report.evicted_entries, 0);
        assert!(orphan.exists(), "fresh temp file kept (live-writer race)");
        // backdated past the orphan age threshold, gc sweeps it
        std::fs::File::options()
            .append(true)
            .open(&orphan)
            .unwrap()
            .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(3600))
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
        // store must not panic
        let file = std::env::temp_dir().join(format!("nd-sweep-flat-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        let cache = ResultCache::at(file.join("sub"));
        cache.store(
            &("ef".to_string() + &"2".repeat(62)),
            &CachedResult {
                metrics: BTreeMap::new(),
                error: None,
            },
        );
        let _ = std::fs::remove_file(
            std::env::temp_dir().join(format!("nd-sweep-flat-{}", std::process::id())),
        );
    }
}
