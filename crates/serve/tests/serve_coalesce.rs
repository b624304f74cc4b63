//! Request coalescing, asserted through the metrics registry: a
//! thundering herd of identical cache-miss requests costs exactly one
//! evaluation.
//!
//! This lives in its own test binary (one `#[test]`) because the
//! registry is process-global — any concurrently-running test would
//! pollute the counters.

use nd_opt::{run_opt, OptOptions, OptSpec};
use nd_serve::Planner;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const HERD: usize = 32;

/// Wait until `n` followers have found a pending slot (`serve.coalesced`
/// counts them before they block); false after 60 s without them.
fn followers_wait(n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    while nd_obs::metrics::counter("serve.coalesced").get() < n as u64 {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn herd_of_identical_requests_coalesces_to_one_evaluation() {
    nd_obs::metrics::set_enabled(true);
    let spec = Arc::new(
        OptSpec::from_json_str(
            r#"{"name": "herd", "backend": "exact", "metric": "two-way",
                "opt": {"protocols": ["optimal"], "seeds_per_axis": 3, "rounds": 1}}"#,
        )
        .unwrap(),
    );
    // the leader's search waits until every follower has found its slot
    // pending, so coalescing does not depend on scheduler timing; a herd
    // that never gathers fails the test instead of hanging it
    let gathered = Arc::new(AtomicBool::new(false));
    let planner = Arc::new({
        let gathered = Arc::clone(&gathered);
        Planner::with_compute(1024, move |spec| {
            gathered.store(followers_wait(HERD - 1), Ordering::SeqCst);
            run_opt(spec, &OptOptions::uncached())
        })
    });

    let barrier = Arc::new(Barrier::new(HERD));
    let threads: Vec<_> = (0..HERD)
        .map(|_| {
            let planner = Arc::clone(&planner);
            let spec = Arc::clone(&spec);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                planner.search(&spec)
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(
        gathered.load(Ordering::SeqCst),
        "the herd did not gather within 60 s"
    );

    let mut fresh = 0;
    let mut coalesced = 0;
    for (outcome, served) in &results {
        let outcome = outcome.as_ref().expect("every request succeeds");
        assert!(!outcome.fronts[0].front.is_empty());
        match (served.memo, served.coalesced) {
            (false, false) => fresh += 1,
            (false, true) => coalesced += 1,
            (true, false) => panic!("a follower read the memo while the leader was held"),
            (true, true) => panic!("memo and coalesced are exclusive"),
        }
    }
    assert_eq!(fresh, 1, "exactly one leader computed");
    assert_eq!(coalesced, HERD - 1, "everyone else coalesced onto it");

    let snapshot = nd_obs::metrics::snapshot().to_json();
    assert!(
        snapshot.contains("\"serve.computed\": 1"),
        "one computation: {snapshot}"
    );
    assert!(
        snapshot.contains(&format!("\"serve.coalesced\": {}", HERD - 1)),
        "herd minus leader coalesced: {snapshot}"
    );

    // one more identical request: a plain memo hit, still zero work
    let (_, served) = planner.search(&spec);
    assert!(served.memo && !served.coalesced);
    let snapshot = nd_obs::metrics::snapshot().to_json();
    assert!(snapshot.contains("\"serve.computed\": 1"), "{snapshot}");
    assert!(snapshot.contains("\"serve.memo_hits\": 1"), "{snapshot}");
}
