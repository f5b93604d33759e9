//! The broker checksums the C's of dispatch-order pairs of requests in
//! one interleaved pass, and no response byte may move because of it.
//!
//! Two traces pin the edges of the pairing: one admits an odd number of
//! requests, so the last one has no partner, and one alternates two `k`
//! values, so a pair's C's differ in length and the longer one finishes
//! alone. Each is replayed at 1 and 4 workers under the 4 MiB default
//! budget and under 16 KiB, which evicts. The responses must be the same
//! in all four replays, and every response must match a reference
//! computed for its request alone with a byte-serial checksum.

mod common;

use common::{reference, with_threads};
use nmt::SpmmPlanner;
use nmt_obs::ObsContext;
use nmt_serve::{serve_trace, BrokerConfig, Request, ResponseRow};

/// `(gen, density, exponent, seed)` of the operands both traces cycle
/// through.
const SPECS: [(&str, f64, f64, u64); 4] = [
    ("uniform", 0.03, 0.0, 5),
    ("zipf-rows", 0.02, 1.3, 7),
    ("banded", 0.5, 3.0, 13),
    ("row-bursts", 0.03, 4.0, 11),
];

/// `len` requests from one tenant, so dispatch order is id order; request
/// `i` names spec `i % 4` with width `k(i)`.
fn trace(len: usize, k: impl Fn(usize) -> u64) -> Vec<Request> {
    (0..len)
        .map(|i| {
            let (gen, density, exponent, seed) = SPECS[i % SPECS.len()];
            Request {
                id: i as u64,
                tick: (i / 4) as u64,
                tenant: "t".into(),
                gen: gen.into(),
                n: 192,
                density,
                exponent,
                seed,
                k: k(i),
                b_seed: 200 + i as u64,
            }
        })
        .collect()
}

/// The responses in dispatch order, chunked as the broker pairs them.
fn pairs(rows: &[ResponseRow]) -> Vec<Vec<&ResponseRow>> {
    let mut by_dispatch: Vec<&ResponseRow> = rows.iter().collect();
    by_dispatch.sort_by_key(|r| r.dispatch);
    by_dispatch.chunks(2).map(<[_]>::to_vec).collect()
}

/// Replay `trace` four ways and check every response against its
/// reference; returns the responses.
fn check(name: &str, trace: &[Request], planner: &SpmmPlanner) -> Vec<ResponseRow> {
    let expected: Vec<(String, u64, u64)> = trace.iter().map(|r| reference(r, planner)).collect();
    let mut replays: Vec<Vec<ResponseRow>> = Vec::new();
    for budget in [4 << 20, 16 << 10] {
        for threads in [1, 4] {
            let cfg = BrokerConfig {
                cache_budget_bytes: budget,
                ..BrokerConfig::test_small()
            };
            let ledger = with_threads(threads, || {
                serve_trace(trace, &cfg, &ObsContext::disabled(), true).expect("replay serves")
            });
            let what = format!("{name}: {threads} thread(s), {budget} B budget");
            assert_eq!(ledger.counts.admitted, trace.len() as u64, "{what}");
            for (row, (key, sim_ns, sum)) in ledger.responses.iter().zip(&expected) {
                assert_eq!(
                    (&row.key, row.sim_ns, row.checksum),
                    (key, *sim_ns, *sum),
                    "{what}: request {}",
                    row.id
                );
            }
            let evictions = ledger
                .stats
                .as_ref()
                .expect("stats were requested")
                .cache_evictions;
            assert_eq!(
                evictions > 0,
                budget == 16 << 10,
                "{what}: evictions {evictions}"
            );
            replays.push(ledger.responses);
        }
    }
    for responses in &replays[1..] {
        assert_eq!(
            responses, &replays[0],
            "{name}: responses must not depend on the budget or the worker count"
        );
    }
    replays.swap_remove(0)
}

// One test function on purpose: `build_global` is process-wide state,
// and the test harness runs sibling tests concurrently.
#[test]
fn paired_checksums_move_no_response_byte() {
    let planner = SpmmPlanner::new(BrokerConfig::test_small().planner);

    let odd = trace(11, |_| 8);
    let rows = check("odd", &odd, &planner);
    let last = pairs(&rows).pop().expect("requests were served");
    assert_eq!(last.len(), 1, "the last request must be unpaired");

    let mixed = trace(12, |i| if i % 2 == 0 { 8 } else { 12 });
    let rows = check("mixed k", &mixed, &planner);
    let k_of = |row: &ResponseRow| mixed[row.id as usize].k;
    assert!(
        pairs(&rows)
            .iter()
            .all(|pair| pair.len() == 2 && k_of(pair[0]) != k_of(pair[1])),
        "every pair must checksum C's of two lengths"
    );
}
