//! The broker's operand memo is exact: a request whose spec was seen
//! before takes its plan key from the memo instead of regenerating and
//! fingerprinting A, and no response byte may move because of it.
//!
//! The trace repeats eight operand specs, two of which differ only in
//! `density`. It is replayed at 1 and 4 workers under a 16 KiB budget,
//! which evicts, so plans are rebuilt from a regenerated A, and under the
//! 4 MiB default, which does not. Every response is checked against a
//! reference computed independently for that request alone.

mod common;

use common::{reference, with_threads};
use nmt::SpmmPlanner;
use nmt_obs::ObsContext;
use nmt_serve::{serve_trace, BrokerConfig, Request, ServeLedger};

/// `(gen, density, exponent, seed)` of the eight specs; the first two
/// differ only in `density`.
const SPECS: [(&str, f64, f64, u64); 8] = [
    ("uniform", 0.03, 0.0, 5),
    ("uniform", 0.04, 0.0, 5),
    ("zipf-rows", 0.02, 1.3, 7),
    ("row-bursts", 0.03, 4.0, 11),
    ("banded", 0.5, 3.0, 13),
    ("uniform", 0.05, 0.0, 17),
    ("zipf-rows", 0.03, 1.1, 19),
    ("banded", 0.5, 5.0, 23),
];

/// Five passes over the specs in a rotating order, so a spec recurs
/// after others have pushed its plan out of a small cache.
fn trace() -> Vec<Request> {
    (0..5 * SPECS.len())
        .map(|i| {
            let pass = i / SPECS.len();
            let (gen, density, exponent, seed) = SPECS[(i + 3 * pass) % SPECS.len()];
            Request {
                id: i as u64,
                tick: (i / 4) as u64,
                tenant: format!("t{}", i % 3),
                gen: gen.into(),
                n: 96,
                density,
                exponent,
                seed,
                k: if i % 2 == 0 { 8 } else { 12 },
                b_seed: 100 + i as u64,
            }
        })
        .collect()
}

// One test function on purpose: `build_global` is process-wide state,
// and the test harness runs sibling tests concurrently.
#[test]
fn operand_memo_moves_no_response_byte() {
    let trace = trace();
    let planner = SpmmPlanner::new(BrokerConfig::test_small().planner);
    let expected: Vec<(String, u64, u64)> = trace.iter().map(|r| reference(r, &planner)).collect();
    let distinct_keys: std::collections::BTreeSet<&String> =
        expected.iter().map(|(key, _, _)| key).collect();
    assert_eq!(
        distinct_keys.len(),
        SPECS.len(),
        "the two density-only specs must be different matrices"
    );

    let replay = |threads: usize, budget: u64| -> ServeLedger {
        let cfg = BrokerConfig {
            cache_budget_bytes: budget,
            ..BrokerConfig::test_small()
        };
        with_threads(threads, || {
            serve_trace(&trace, &cfg, &ObsContext::disabled(), true).expect("replay serves")
        })
    };
    let mut ledgers = Vec::new();
    for budget in [16 << 10, 4 << 20] {
        for threads in [1, 4] {
            let ledger = replay(threads, budget);
            let what = format!("{threads} thread(s), {budget} B budget");
            assert_eq!(ledger.counts.admitted, trace.len() as u64, "{what}");
            for (row, (key, sim_ns, sum)) in ledger.responses.iter().zip(&expected) {
                assert_eq!(&row.key, key, "{what}: request {} key", row.id);
                assert_eq!(
                    (row.sim_ns, row.checksum),
                    (*sim_ns, *sum),
                    "{what}: request {} sim_ns and checksum",
                    row.id
                );
            }
            let stats = ledger.stats.as_ref().expect("stats were requested");
            let reuses_serially = trace.len() - SPECS.len();
            if threads == 1 {
                assert_eq!(stats.operand_reuses, reuses_serially as u64, "{what}");
            } else {
                assert!(stats.operand_reuses <= reuses_serially as u64, "{what}");
            }
            if budget == 16 << 10 && threads == 1 {
                // Serially every spec is memoized before its plan can be
                // evicted, so each compute past the first per key rebuilt
                // an evicted plan from a regenerated A.
                assert!(stats.cache_evictions > 0, "{what}: the budget must evict");
                assert!(
                    stats.cache_computes > SPECS.len() as u64,
                    "{what}: no evicted plan was rebuilt"
                );
            }
            ledgers.push(ledger);
        }
    }
    for ledger in &ledgers[1..] {
        assert_eq!(
            ledger.responses, ledgers[0].responses,
            "responses must not depend on the budget or the worker count"
        );
    }
}
