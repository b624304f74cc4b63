//! The background pass: **ingest → execute → prune**, run every
//! `--stage-interval` seconds by [`spawn`].
//!
//! - **ingest** takes the planning specs dropped into a spool directory
//!   (TOML or `.json`, the grammar of `nd-opt --spec`); consumed files are
//!   deleted, and unparseable ones — or ones over the request-body cap
//!   of 1 MiB, which are not read at all — renamed `<name>.rejected` so
//!   they are inspected, not retried forever.
//! - **execute** runs every ingested spec through the [`Planner`] — the
//!   results land in the on-disk cache and the response memo, so the
//!   specs clients will ask for are warm before they ask.
//! - **prune** is `nd-sweep cache gc` on a schedule: it LRU-evicts the
//!   shared result cache down to a byte budget.
//!
//! Each step runs only when configured (ingest and execute with a spool,
//! prune with a byte budget), under a `serve.stage` span, and counts
//! `serve.stage.<id>.runs` and `serve.stage.<id>.processed`.

use crate::http::MAX_BODY;
use crate::service::{Health, Planner};
use nd_opt::OptSpec;
use nd_sweep::ResultCache;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Spool files parsed into specs.
    pub ingested: usize,
    /// Spool files renamed `.rejected`.
    pub rejected: usize,
    /// Specs whose search completed.
    pub executed: usize,
    /// Specs whose search failed.
    pub failed: usize,
    /// Cache entries evicted.
    pub pruned: usize,
}

/// The pending files in `spool`: every file not yet renamed
/// `.rejected`. `None` when the directory cannot be read.
pub(crate) fn spool_files(spool: &Path) -> Option<Vec<PathBuf>> {
    let entries = std::fs::read_dir(spool).ok()?;
    Some(
        entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().is_none_or(|e| e != "rejected"))
            .collect(),
    )
}

/// Run one pass: ingest `spool` and execute what it held when a spool is
/// given, then prune the cache to its byte budget when one is given.
pub fn run_pass(
    planner: &Planner,
    spool: Option<&Path>,
    prune: Option<&(ResultCache, u64)>,
) -> Pass {
    let steps = 2 * usize::from(spool.is_some()) + usize::from(prune.is_some());
    let _span = nd_obs::span!("serve.pipeline", stages = steps);
    let mut pass = Pass::default();
    if let Some(spool) = spool {
        let mut specs = Vec::new();
        step("ingest", || {
            let mut paths = spool_files(spool).unwrap_or_default();
            paths.sort(); // deterministic pick-up order
            for path in paths {
                match read_spec(&path) {
                    Ok(spec) => {
                        specs.push(spec);
                        let _ = std::fs::remove_file(&path);
                    }
                    Err(err) => {
                        pass.rejected += 1;
                        eprintln!("nd-serve: rejecting spool file {}: {err}", path.display());
                        let mut rejected = path.clone().into_os_string();
                        rejected.push(".rejected");
                        let _ = std::fs::rename(&path, rejected);
                    }
                }
            }
            pass.ingested = specs.len();
            pass.ingested
        });
        step("execute", || {
            for spec in &specs {
                match planner.search(spec).0 {
                    Ok(_) => pass.executed += 1,
                    Err(err) => {
                        pass.failed += 1;
                        eprintln!("nd-serve: spooled spec `{}` failed: {err}", spec.base.name);
                    }
                }
            }
            pass.executed
        });
    }
    if let Some((cache, max_bytes)) = prune {
        step("prune", || {
            let gc = cache.gc(*max_bytes, false);
            nd_obs::metrics::add("serve.pruned_bytes", gc.evicted_bytes);
            pass.pruned = gc.evicted_entries;
            pass.pruned
        });
    }
    pass
}

/// Run one step under its `serve.stage` span; `f` returns the items it
/// processed.
fn step(id: &'static str, f: impl FnOnce() -> usize) {
    let _span = nd_obs::span!("serve.stage", id = id);
    let processed = f();
    nd_obs::metrics::inc(&format!("serve.stage.{id}.runs"));
    nd_obs::metrics::add(&format!("serve.stage.{id}.processed"), processed as u64);
}

/// Parse one spool file; one over [`MAX_BODY`] bytes is refused unread.
fn read_spec(path: &Path) -> Result<OptSpec, String> {
    let len = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    if len > MAX_BODY as u64 {
        return Err(format!("{len} bytes, over the {MAX_BODY}-byte cap"));
    }
    OptSpec::from_file(path).map_err(|e| e.to_string())
}

/// Run [`run_pass`] every `interval` on a background thread until
/// `shutdown` flips (checked once a second so shutdown is prompt even
/// with long intervals), marking each pass on `health`. Join the
/// returned handle on exit.
pub fn spawn(
    planner: Arc<Planner>,
    spool: Option<PathBuf>,
    prune: Option<(ResultCache, u64)>,
    health: Arc<Health>,
    interval: Duration,
    shutdown: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut waited = Duration::ZERO;
        while !shutdown.load(Ordering::SeqCst) {
            if waited < interval {
                let step = Duration::from_secs(1).min(interval - waited);
                std::thread::sleep(step);
                waited += step;
            } else {
                run_pass(&planner, spool.as_deref(), prune.as_ref());
                health.mark_cycle();
                waited = Duration::ZERO;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Served;
    use nd_opt::OptOptions;

    /// The `spec` object of the serve-smoke front request.
    const SPEC: &str = r#"{"name": "ci", "backend": "exact", "metric": "two-way",
        "opt": {"protocols": ["optimal"], "seeds_per_axis": 3, "rounds": 1}}"#;

    #[test]
    fn one_pass_ingests_executes_and_prunes() {
        let dir = std::env::temp_dir().join(format!("nd-serve-stages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spool, cache_dir) = (dir.join("spool"), dir.join("cache"));
        std::fs::create_dir_all(&spool).unwrap();
        std::fs::write(spool.join("front.json"), SPEC).unwrap();
        std::fs::write(spool.join("broken.json"), "{ not json").unwrap();
        // one byte over the cap: refused unread, whatever it holds
        std::fs::write(spool.join("huge.json"), vec![b' '; MAX_BODY + 1]).unwrap();

        let planner = Planner::new(
            OptOptions {
                threads: Some(1),
                cache_dir: Some(cache_dir.clone()),
                ..OptOptions::default()
            },
            16,
        );
        let prune = (ResultCache::at(&cache_dir), 1);
        let pass = run_pass(&planner, Some(&spool), Some(&prune));

        assert_eq!((pass.ingested, pass.rejected), (1, 2));
        assert!(
            !spool.join("front.json").exists(),
            "consumed spec is deleted"
        );
        for name in ["broken.json", "huge.json"] {
            assert!(!spool.join(name).exists());
            assert!(spool.join(format!("{name}.rejected")).exists());
        }
        assert_eq!(spool_files(&spool), Some(vec![]), "nothing left pending");
        assert_eq!((pass.executed, pass.failed), (1, 0));
        assert!(pass.pruned > 0, "the front's rows were cached");
        assert_eq!(ResultCache::at(&cache_dir).stats().entries, 0);

        // the memo outlives the pruned cache: the front is served warm
        let spec = OptSpec::from_json_str(SPEC).unwrap();
        let (result, served) = planner.search(&spec);
        assert!(result.is_ok());
        assert_eq!(
            served,
            Served {
                memo: true,
                coalesced: false
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
