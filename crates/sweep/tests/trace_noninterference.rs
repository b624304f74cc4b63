//! Turning tracing on must not change *what* a sweep computes: spec and
//! job content hashes feed the result cache and the optimizer's
//! provenance lines, so instrumentation that perturbed them would
//! invalidate caches (or worse, silently fork result identities), and
//! exports are byte-for-byte deterministic by contract.
//!
//! Single test in its own file: the trace sink is process-global.

use nd_sweep::{expand, run_sweep, ScenarioSpec, SweepOptions};
use std::io::Write;
use std::sync::{Arc, Mutex};

const SPEC: &str = r#"
name = "trace-noninterference"
backend = "exact"

[grid]
protocol = ["optimal-slotless", "disco"]
eta = [0.15]
"#;

/// A trace sink the test can read back.
#[derive(Clone)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Fingerprint {
    spec_hash: String,
    job_hashes: Vec<String>,
    csv: String,
    json: String,
}

fn fingerprint() -> Fingerprint {
    let spec = ScenarioSpec::from_toml_str(SPEC).unwrap();
    let job_hashes = expand(&spec)
        .iter()
        .map(|j| j.content_hash(&spec))
        .collect();
    let outcome = run_sweep(&spec, &SweepOptions::uncached()).unwrap();
    Fingerprint {
        spec_hash: spec.content_hash(),
        job_hashes,
        csv: nd_sweep::to_csv(&outcome),
        json: nd_sweep::to_json(&outcome),
    }
}

#[test]
fn nd_trace_changes_no_hashes_and_no_exports() {
    let baseline = fingerprint();

    let buf = Shared(Arc::new(Mutex::new(Vec::new())));
    nd_obs::trace::init_writer(Box::new(buf.clone()));
    nd_obs::metrics::set_enabled(true);
    let traced = fingerprint();
    nd_obs::metrics::set_enabled(false);
    nd_obs::trace::shutdown();

    assert_eq!(
        baseline.spec_hash, traced.spec_hash,
        "tracing changed the spec content hash"
    );
    assert_eq!(
        baseline.job_hashes, traced.job_hashes,
        "tracing changed job content hashes"
    );
    assert_eq!(baseline.csv, traced.csv, "tracing changed the CSV export");
    assert_eq!(
        baseline.json, traced.json,
        "tracing changed the JSON export"
    );

    // and the trace itself is well-formed: parses as JSONL, spans nest,
    // and every job got a span
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let report = nd_sweep::tracecheck::check_trace(&text).expect("trace must validate");
    assert_eq!(report.by_name["sweep.run"], 1);
    assert_eq!(report.by_name["sweep.job"], 2);
    assert_eq!(report.by_name["backend.exact"], 2);

    // each exact evaluation explains its cost: how many phases and beacon
    // images the kernel ran and why it stopped (the uniform optimal
    // tiling covers, Disco's slot-boundary strips saturate)
    let exact: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"name\": \"backend.exact\""))
        .collect();
    for line in &exact {
        for field in ["phases", "images", "beacons_needed", "exit"] {
            assert!(
                line.contains(&format!("\"{field}\": ")),
                "{field} missing: {line}"
            );
        }
    }
    for exit in ["covered", "saturated"] {
        assert!(
            exact
                .iter()
                .any(|l| l.contains(&format!("\"exit\": \"{exit}\""))),
            "no {exit} exit in {exact:?}"
        );
    }
    assert!(nd_obs::metrics::counter("exact.images").get() > 0);
}
