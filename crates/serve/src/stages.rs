//! The background stage pipeline: **ingest → execute → prune**.
//!
//! Layout after reth's staged-sync design (`crates/stages`): each stage
//! is a small unit with an id and an `execute` step, and a `Pipeline`
//! runs them in order — either once ([`Pipeline::run_once`]) or on an
//! interval from a background thread ([`Pipeline::spawn`]).
//!
//! - **ingest** scans a spool directory for dropped-off planning specs
//!   (TOML or `.json`, same grammar as `nd-opt run`) and parses them;
//!   consumed files are deleted, unparseable ones renamed to
//!   `<name>.rejected` so they are inspected, not retried forever.
//! - **execute** runs every ingested spec through the [`Planner`] — the
//!   results land in the on-disk cache and the response memo, so the
//!   specs clients will ask for are warm before they ask.
//! - **prune** is `nd-sweep cache gc` wearing a stage id: it LRU-evicts
//!   the shared result cache down to a byte budget.

use crate::service::Planner;
use nd_opt::OptSpec;
use nd_sweep::ResultCache;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a stage run accomplished, for the caller's log line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Items the stage processed (specs ingested / executed, cache
    /// entries evicted).
    pub processed: usize,
    /// Items that failed (unparseable spool files, failed searches).
    pub failed: usize,
}

/// Shared state flowing through one pipeline pass.
#[derive(Default)]
pub struct StageContext {
    /// Specs picked up by ingest, awaiting execute.
    pub pending: Vec<OptSpec>,
}

/// One pipeline stage.
pub trait Stage: Send {
    /// Stable identifier, used for metrics (`serve.stage.<id>.runs`) and
    /// trace spans.
    fn id(&self) -> &'static str;
    /// Run the stage once.
    fn execute(&self, ctx: &mut StageContext) -> StageReport;
}

/// Scan a spool directory for planning specs.
pub struct IngestStage {
    spool: PathBuf,
}

impl IngestStage {
    /// Watch `spool` for spec files.
    pub fn new(spool: impl Into<PathBuf>) -> IngestStage {
        IngestStage {
            spool: spool.into(),
        }
    }
}

impl Stage for IngestStage {
    fn id(&self) -> &'static str {
        "ingest"
    }

    fn execute(&self, ctx: &mut StageContext) -> StageReport {
        let mut report = StageReport::default();
        let Ok(entries) = std::fs::read_dir(&self.spool) else {
            return report; // no spool directory yet: nothing to do
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().is_none_or(|e| e != "rejected"))
            .collect();
        paths.sort(); // deterministic pick-up order
        for path in paths {
            match OptSpec::from_file(&path) {
                Ok(spec) => {
                    ctx.pending.push(spec);
                    report.processed += 1;
                    let _ = std::fs::remove_file(&path);
                }
                Err(err) => {
                    report.failed += 1;
                    eprintln!("nd-serve: rejecting spool file {}: {err}", path.display());
                    let mut rejected = path.clone().into_os_string();
                    rejected.push(".rejected");
                    let _ = std::fs::rename(&path, rejected);
                }
            }
        }
        report
    }
}

/// Run ingested specs through the planner to pre-warm cache and memo.
pub struct ExecuteStage {
    planner: Arc<Planner>,
}

impl ExecuteStage {
    /// Execute against `planner` (the same one serving requests, so the
    /// memo warms too).
    pub fn new(planner: Arc<Planner>) -> ExecuteStage {
        ExecuteStage { planner }
    }
}

impl Stage for ExecuteStage {
    fn id(&self) -> &'static str {
        "execute"
    }

    fn execute(&self, ctx: &mut StageContext) -> StageReport {
        let mut report = StageReport::default();
        for spec in ctx.pending.drain(..) {
            let (result, _served) = self.planner.front_document(&spec);
            match result {
                Ok(_) => report.processed += 1,
                Err(err) => {
                    report.failed += 1;
                    eprintln!("nd-serve: spooled spec `{}` failed: {err}", spec.base.name);
                }
            }
        }
        report
    }
}

/// LRU-evict the result cache down to a byte budget (`cache gc` as a
/// pipeline stage).
pub struct PruneStage {
    cache: ResultCache,
    max_bytes: u64,
}

impl PruneStage {
    /// Prune `cache` down to `max_bytes`.
    pub fn new(cache: ResultCache, max_bytes: u64) -> PruneStage {
        PruneStage { cache, max_bytes }
    }
}

impl Stage for PruneStage {
    fn id(&self) -> &'static str {
        "prune"
    }

    fn execute(&self, _ctx: &mut StageContext) -> StageReport {
        let gc = self.cache.gc(self.max_bytes, false);
        nd_obs::metrics::add("serve.pruned_bytes", gc.evicted_bytes);
        StageReport {
            processed: gc.evicted_entries,
            failed: 0,
        }
    }
}

/// An ordered list of stages plus the run loop.
pub struct Pipeline {
    stages: Vec<Box<dyn Stage>>,
    health: Option<Arc<crate::service::Health>>,
}

impl Pipeline {
    /// Build a pipeline from stages, run in the given order.
    pub fn new(stages: Vec<Box<dyn Stage>>) -> Pipeline {
        Pipeline {
            stages,
            health: None,
        }
    }

    /// Mark completed passes on `health`, so `/healthz` reports the
    /// cycle count and the age of the last pass.
    pub fn with_health(mut self, health: Arc<crate::service::Health>) -> Pipeline {
        self.health = Some(health);
        self
    }

    /// Run every stage once, in order, threading a fresh context
    /// through. Returns `(id, report)` per stage.
    pub fn run_once(&self) -> Vec<(&'static str, StageReport)> {
        let _span = nd_obs::span!("serve.pipeline", stages = self.stages.len());
        let mut ctx = StageContext::default();
        let mut reports = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let _span = nd_obs::span!("serve.stage", id = stage.id());
            let report = stage.execute(&mut ctx);
            nd_obs::metrics::inc(&format!("serve.stage.{}.runs", stage.id()));
            nd_obs::metrics::add(
                &format!("serve.stage.{}.processed", stage.id()),
                report.processed as u64,
            );
            reports.push((stage.id(), report));
        }
        if let Some(health) = &self.health {
            health.mark_cycle();
        }
        reports
    }

    /// Run the pipeline every `interval` on a background thread until
    /// `shutdown` flips (checked once a second so shutdown is prompt
    /// even with long intervals). Join the returned handle on exit.
    pub fn spawn(
        self,
        interval: Duration,
        shutdown: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let tick = Duration::from_secs(1);
            loop {
                let mut waited = Duration::ZERO;
                while waited < interval {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let step = tick.min(interval - waited);
                    std::thread::sleep(step);
                    waited += step;
                }
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                self.run_once();
            }
        })
    }
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

        let planner = Arc::new(Planner::new(
            OptOptions {
                threads: Some(1),
                cache_dir: Some(cache_dir.clone()),
                ..OptOptions::default()
            },
            16,
        ));
        let pipeline = Pipeline::new(vec![
            Box::new(IngestStage::new(&spool)),
            Box::new(ExecuteStage::new(Arc::clone(&planner))),
            Box::new(PruneStage::new(ResultCache::at(&cache_dir), 1)),
        ]);
        let reports = pipeline.run_once();

        let report = |id: &str| &reports.iter().find(|(s, _)| *s == id).unwrap().1;
        let ingest = report("ingest");
        assert_eq!((ingest.processed, ingest.failed), (1, 1));
        assert!(
            !spool.join("front.json").exists(),
            "consumed spec is deleted"
        );
        assert!(!spool.join("broken.json").exists());
        assert!(spool.join("broken.json.rejected").exists());
        assert_eq!(report("execute").processed, 1);
        assert!(
            report("prune").processed > 0,
            "the front's rows were cached"
        );
        assert_eq!(ResultCache::at(&cache_dir).stats().entries, 0);

        // the memo outlives the pruned cache: the front is served warm
        let spec = OptSpec::from_json_str(SPEC).unwrap();
        let (result, served) = planner.front_document(&spec);
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
