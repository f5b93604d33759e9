//! Mutation property tests for every reader of outside input: Matrix
//! Market files, JSONL request traces, bench and serve ledgers, and the
//! diagnostics bundles `nmt-cli doctor` reads.
//!
//! Each property starts from a valid input and applies one mutation —
//! truncation, byte flips, a duplicated key, deep nesting, a huge number,
//! a non-finite token, or an unpaired `\u` surrogate — and requires the
//! reader to return `Ok` or `Err`, never to panic. Hostile input must
//! surface as a typed error, not abort the process.

use proptest::prelude::*;
use spmm_nmt::bench::Ledger;
use spmm_nmt::formats::market::{self, MAX_MARKET_DIM};
use spmm_nmt::formats::SparseMatrix;
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc};
use spmm_nmt::obs::{build_bundle, DiagnosticsBundle, ObsContext};
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};
use spmm_nmt::serve::{
    parse_jsonl, serve_trace, synth_trace, to_jsonl, BrokerConfig, ServeLedger, SynthSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

const HUGE: [&str; 8] = [
    "1e999",
    "-1e999",
    "99999999999999999999999999999",
    "18446744073709551616",
    "-9223372036854775809",
    "4294967297",
    "1.7976931348623157e308",
    "1e-400",
];
/// Row or column counts just past the reader's limit, at and past the
/// `u32` index space, and past `u64`.
const HUGE_DIMS: [&str; 4] = [
    "16777217",
    "4294967295",
    "99999999999",
    "18446744073709551616",
];
const NON_FINITE: [&str; 6] = ["NaN", "Infinity", "-Infinity", "inf", "nan", "null"];
const DUP_VALUES: [&str; 6] = ["0", "null", "\"x\"", "[]", "{}", "-1.5"];
const DEPTHS: [usize; 4] = [64, 129, 10_000, 100_000];

/// One mutation: its kind, two raw draws that pick positions and
/// variants, and byte flips as (raw position, XOR mask).
type Mutation = (usize, usize, usize, Vec<(usize, u8)>);

fn mutation(kinds: usize) -> impl Strategy<Value = Mutation> {
    (
        0..kinds,
        0usize..1 << 30,
        0usize..1 << 30,
        proptest::collection::vec((0usize..1 << 30, 1u8..=255), 1..8),
    )
}

/// Byte ranges of every number token (a digit run, with an optional
/// leading `-`, fraction and exponent).
fn numbers(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        let starts = text[i].is_ascii_digit()
            || (text[i] == b'-' && text.get(i + 1).is_some_and(u8::is_ascii_digit));
        let glued = i > 0 && (text[i - 1].is_ascii_alphanumeric() || text[i - 1] == b'_');
        if starts && !glued {
            let start = i;
            i += 1;
            while i < text.len()
                && matches!(text[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// Start offsets of every JSON object key (`"name":`).
fn keys(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        if text[i] == b'"' {
            let end = text[i + 1..]
                .iter()
                .position(|&b| b == b'"')
                .map(|p| i + 1 + p);
            let Some(end) = end else { break };
            let colon = text[end + 1..]
                .iter()
                .position(|&b| b != b' ')
                .is_some_and(|p| text[end + 1 + p] == b':');
            if colon {
                out.push((i, end + 1));
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

fn splice(text: &[u8], (start, end): (usize, usize), with: &[u8]) -> Vec<u8> {
    [&text[..start], with, &text[end..]].concat()
}

/// Replace a number token picked by `pick` with `with`; unchanged when
/// the text has no numbers.
fn replace_number(text: &[u8], pick: usize, with: &str) -> Vec<u8> {
    let spans = numbers(text);
    match spans.get(pick % spans.len().max(1)) {
        Some(&span) => splice(text, span, with.as_bytes()),
        None => text.to_vec(),
    }
}

/// The mutations common to every format: 0 truncation, 1 byte flips,
/// 2 a huge number, 3 a non-finite token.
fn mutate_common(text: &[u8], (kind, x, y, flips): &Mutation) -> Vec<u8> {
    match kind {
        0 => text[..x % (text.len() + 1)].to_vec(),
        1 => {
            let mut out = text.to_vec();
            for &(p, mask) in flips {
                if !out.is_empty() {
                    let n = out.len();
                    out[p % n] ^= mask;
                }
            }
            out
        }
        2 => replace_number(text, *x, HUGE[y % HUGE.len()]),
        _ => replace_number(text, *x, NON_FINITE[y % NON_FINITE.len()]),
    }
}

/// JSON mutations: the common four, then 4 a duplicated key, 5 deep
/// nesting in a value position, 6 a key holding an unpaired surrogate.
fn mutate_json(text: &str, m: &Mutation) -> String {
    let bytes = text.as_bytes();
    let (kind, x, y, _) = m;
    let spans = keys(bytes);
    let key = spans.get(x % spans.len().max(1)).copied();
    let out = match (kind, key) {
        (0..=3, _) => mutate_common(bytes, m),
        (_, None) => bytes.to_vec(),
        (4, Some((start, end))) => {
            let dup = format!(
                "{}: {}, ",
                &text[start..end],
                DUP_VALUES[y % DUP_VALUES.len()]
            );
            splice(bytes, (start, start), dup.as_bytes())
        }
        (5, Some((_, end))) => {
            let depth = DEPTHS[y % DEPTHS.len()];
            let colon = end + bytes[end..].iter().position(|&b| b == b':').unwrap_or(0) + 1;
            let nest = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            splice(bytes, (colon, colon), nest.as_bytes())
        }
        (_, Some((start, _))) => splice(bytes, (start, start), br#""k\ud800\u0041": 1, "#),
    };
    String::from_utf8_lossy(&out).into_owned()
}

/// Run `read` on `input`, turning a panic into a failed case that names
/// the mutation.
fn no_panic<T, E>(m: &Mutation, read: impl FnOnce() -> Result<T, E>) -> Result<(), TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| drop(read())))
        .map_err(|_| TestCaseError::fail(format!("reader panicked on mutation {m:?}")))
}

fn valid_market() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let a = generators::generate(&MatrixDesc::new(
            "mtx",
            24,
            GenKind::Uniform { density: 0.1 },
            3,
        ));
        let mut buf = Vec::new();
        market::write_market(&mut buf, &a.to_coo()).expect("writes");
        String::from_utf8(buf).expect("utf8")
    })
}

fn valid_trace() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| to_jsonl(&synth_trace(&SynthSpec::quick(3))))
}

fn valid_serve_ledger() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut spec = SynthSpec::quick(4);
        spec.requests = 12;
        spec.n = 48;
        let trace = synth_trace(&spec);
        serve_trace(
            &trace,
            &BrokerConfig::test_small(),
            &ObsContext::disabled(),
            true,
        )
        .expect("replay serves")
        .to_json()
    })
}

fn valid_bundle() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let a = generators::generate(&MatrixDesc::new(
            "bundle",
            48,
            GenKind::Uniform { density: 0.05 },
            5,
        ));
        let b = random_dense(48, 8, 6);
        let obs = ObsContext::enabled();
        SpmmPlanner::new(PlannerConfig::test_small())
            .execute_with_obs(&a, &b, &obs)
            .expect("runs");
        build_bundle("mutation seed", "bundle", &obs, Some(7), Some(50_000)).to_json()
    })
}

#[test]
fn valid_seeds_parse() {
    let (coo, _) = market::read_market(valid_market().as_bytes()).expect("market");
    assert!(coo.nnz() > 0);
    // The first three number tokens are the size line.
    let size_line = valid_market().lines().nth(2).expect("size line");
    let spans = numbers(valid_market().as_bytes());
    let first = &valid_market()[spans[0].0..spans[2].1];
    assert_eq!(first, size_line);
    assert!(!parse_jsonl(valid_trace()).expect("trace").is_empty());
    Ledger::from_json(include_str!("../results/BENCH_small.json")).expect("bench ledger");
    ServeLedger::from_json(valid_serve_ledger()).expect("serve ledger");
    DiagnosticsBundle::from_json(valid_bundle()).expect("bundle");
}

// One `proptest!` block per property: the runner seeds each case from
// the block's line, so properties sharing a block would draw the same
// mutations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Matrix Market mutations: the common four, then 4 a duplicated
    /// entry line and 5 a huge row or column count on the size line (the
    /// format has no keys or nesting). A stream that still parses never
    /// exceeds the dimension limit.
    #[test]
    fn read_market_survives_mutations(m in mutation(6)) {
        let text = valid_market();
        let out = match m.0 {
            4 => {
                let lines: Vec<&str> = text.lines().collect();
                let at = 3 + m.1 % (lines.len() - 3);
                let mut dup = lines.clone();
                dup.insert(at, lines[at]);
                dup.join("\n").into_bytes()
            }
            5 => replace_number(text.as_bytes(), m.1 % 2, HUGE_DIMS[m.2 % HUGE_DIMS.len()]),
            _ => mutate_common(text.as_bytes(), &m),
        };
        let read = catch_unwind(|| market::read_market(out.as_slice()))
            .map_err(|_| TestCaseError::fail(format!("reader panicked on mutation {m:?}")))?;
        if let Ok((coo, _)) = read {
            let shape = coo.shape();
            prop_assert!(shape.nrows <= MAX_MARKET_DIM && shape.ncols <= MAX_MARKET_DIM);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parse_jsonl_survives_mutations(m in mutation(7)) {
        let text = mutate_json(valid_trace(), &m);
        no_panic(&m, || parse_jsonl(&text))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serve_ledger_from_json_survives_mutations(m in mutation(7)) {
        let text = mutate_json(valid_serve_ledger(), &m);
        no_panic(&m, || ServeLedger::from_json(&text))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bundle_from_json_survives_mutations(m in mutation(7)) {
        let text = mutate_json(valid_bundle(), &m);
        no_panic(&m, || DiagnosticsBundle::from_json(&text))?;
    }
}

proptest! {
    // The committed ledger is ~200 KB, so fewer cases keep this cheap.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bench_ledger_from_json_survives_mutations(m in mutation(7)) {
        let text = mutate_json(include_str!("../results/BENCH_small.json"), &m);
        no_panic(&m, || Ledger::from_json(&text))?;
    }
}

/// A JSON mutation must actually change the text, or the properties
/// above test nothing.
#[test]
fn json_mutations_change_the_input() {
    let text = valid_trace();
    for kind in 0..7 {
        let m = (kind, 12_345, 3, vec![(77, 0x20)]);
        assert_ne!(mutate_json(text, &m), text, "mutation kind {kind}");
    }
    let numbers_only = numbers(b"{\"a1\": -12.5e3, \"b\": [7]}");
    assert_eq!(numbers_only, [(7, 14), (22, 23)]);
}
