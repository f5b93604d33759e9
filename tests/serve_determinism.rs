//! Serve-layer determinism: a replayed request trace must produce a
//! byte-identical response ledger under a 1-thread and a 4-thread pool,
//! the schedule-invariant cache counters must agree exactly, a serial
//! replay must skip the simulator on every cached response, a tight
//! cache budget must evict without shelving the evicted artifacts in the
//! engine pools, and the single-flight cache must collapse N concurrent
//! identical requests into one plan computation. In-process counterpart
//! of the CI `serve` job's 1-vs-4-thread `cmp` legs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spmm_nmt::obs::ObsContext;
use spmm_nmt::serve::{
    serve_trace, synth_trace, Acquire, BrokerConfig, PlanCache, ServeLedger, SynthSpec,
};

/// Re-point the global pool (the shim allows overriding, unlike real
/// rayon) and run `f` under exactly `n` workers.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim pool re-points");
    let out = f();
    assert_eq!(rayon::current_num_threads(), n);
    out
}

fn replay(with_stats: bool) -> ServeLedger {
    let trace = synth_trace(&SynthSpec::quick(0x5E12));
    serve_trace(
        &trace,
        &BrokerConfig::test_small(),
        &ObsContext::disabled(),
        with_stats,
    )
    .expect("replay serves")
}

// One test function on purpose: `build_global` is process-wide state,
// and the test harness runs sibling tests concurrently.
#[test]
fn serve_replay_is_thread_count_invariant() {
    // 1. Byte-identical response ledgers at 1 vs 4 workers — both the
    // canonical form (what CI byte-compares) and, because neither run
    // attaches stats, the full serialized artifact.
    let serial = with_threads(1, || replay(false));
    let parallel = with_threads(4, || replay(false));
    assert_eq!(
        serial.canonical_json(),
        parallel.canonical_json(),
        "canonical serve ledgers must not depend on the worker count"
    );
    assert_eq!(serial.to_json(), parallel.to_json());
    serial
        .gate(&parallel)
        .expect("the ledger gate must agree with byte equality");

    // 2. Schedule-invariant counters: wait episodes depend on the
    // interleaving, but computes == unique fingerprints and hits ==
    // admitted - computes hold at any worker count.
    let s1 = with_threads(1, || replay(true));
    let s4 = with_threads(4, || replay(true));
    let (a, b) = (s1.stats.as_ref().unwrap(), s4.stats.as_ref().unwrap());
    assert_eq!(a.cache_computes, s1.counts.unique_plans);
    assert_eq!(b.cache_computes, s4.counts.unique_plans);
    assert_eq!(a.cache_computes, b.cache_computes);
    assert_eq!(
        a.cache_hits, b.cache_hits,
        "every non-leader resolves to a hit, so hit counts are pinned"
    );
    assert_eq!(a.cache_hits + a.cache_computes, s1.counts.admitted);
    assert_eq!(a.cache_evictions, b.cache_evictions);
    // A single-threaded pool cannot overlap two computations of one key.
    assert_eq!(a.cache_waits, 0, "serial replay never waits on itself");
    // Serially, each plan's first run memoizes its stats before any
    // later request reaches it, so every cached response replays (the
    // trace uses one k). In parallel a waiter may beat the memo.
    assert_eq!(
        a.sim_replays, s1.counts.cached_responses,
        "a serial replay simulates each plan once"
    );
    assert!(b.sim_replays <= s4.counts.cached_responses);
    // A one-byte budget keeps only the newest plan (the budget is soft by
    // one entry). An evicted plan's memo goes with it, so a recomputed
    // plan simulates again: only hits on the resident plan replay.
    let starved = with_threads(1, || {
        let cfg = BrokerConfig {
            cache_budget_bytes: 1,
            ..BrokerConfig::test_small()
        };
        let trace = synth_trace(&SynthSpec::quick(0x5E12));
        serve_trace(&trace, &cfg, &ObsContext::disabled(), true).expect("replay serves")
    });
    let st = starved.stats.as_ref().unwrap();
    assert_eq!(st.sim_replays, st.cache_hits);
    assert!(st.sim_replays < starved.counts.cached_responses);
    assert_eq!(
        starved.responses, s1.responses,
        "the memo must not move a response byte"
    );

    // 3. Eviction under a tight budget: the replay must not depend on the
    // worker count while entries are evicted.
    let trace = synth_trace(&SynthSpec::quick(0x5E12));
    let tight = BrokerConfig {
        cache_budget_bytes: 16 << 10,
        ..BrokerConfig::test_small()
    };
    let evicting: Vec<ServeLedger> = [1, 4]
        .into_iter()
        .map(|threads| {
            with_threads(threads, || {
                let ledger = serve_trace(&trace, &tight, &ObsContext::disabled(), true)
                    .expect("replay serves");
                let stats = ledger.stats.as_ref().expect("stats were requested");
                assert!(
                    stats.cache_evictions > 0,
                    "{threads} thread(s): the budget must evict"
                );
                ledger
            })
        })
        .collect();
    assert_eq!(
        evicting[0].canonical_json(),
        evicting[1].canonical_json(),
        "evicting replays must not depend on the worker count"
    );

    // 4. Single-flight under real contention: N concurrent identical
    // requests perform exactly one plan computation.
    let cache: Arc<PlanCache<u64>> = Arc::new(PlanCache::new(1 << 20));
    let computes = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            std::thread::spawn(move || {
                let got = cache
                    .get_or_compute("same-matrix", || -> Result<(u64, u64), String> {
                        computes.fetch_add(1, Ordering::Relaxed);
                        // Hold the flight open long enough that every
                        // follower really contends with the leader.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        Ok((0xC0FFEE, 64))
                    })
                    .expect("compute succeeds");
                assert_eq!(*got.value, 0xC0FFEE);
                got.how
            })
        })
        .collect();
    let hows: Vec<Acquire> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(
        computes.load(Ordering::Relaxed),
        1,
        "N concurrent identical requests must compute the plan exactly once"
    );
    assert_eq!(
        hows.iter().filter(|h| **h == Acquire::Computed).count(),
        1,
        "exactly one caller is the leader"
    );
    let stats = cache.stats();
    assert_eq!(stats.computes, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.hits, 7,
        "every follower resolves to the single computed plan"
    );
}
