//! Request traces: the service's replayable input.
//!
//! A trace is a JSONL file, one [`Request`] per line, sorted by logical
//! arrival `(tick, id)`. Requests name their matrix by *generator spec*
//! (kind + dimension + seed), not by payload: the matgen suite is
//! deterministic, so the spec IS the matrix, the trace stays tiny, and a
//! replay regenerates bit-identical operands on any machine — the same
//! discipline the bench suite uses. Production traffic would carry real
//! matrices; the fingerprint layer is payload-based either way. The
//! plan key is still derived from the generated payload, once per
//! distinct spec per replay: the broker remembers each spec's key, so a
//! repeated spec is neither regenerated nor re-fingerprinted.
//!
//! [`synth_trace`] builds seeded schedules whose matrix pool is smaller
//! than the request count, so replayed workloads exercise the plan cache
//! with a controlled repeat ratio (the acceptance workload keeps ≥ 50%
//! repeats).

use nmt_matgen::{GenKind, MatrixDesc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One SpMM job: `(matrix spec, B seed, k, tenant)` at a logical arrival
/// tick. `gen`/`n`/`density`/`exponent`/`seed` pin the sparse operand;
/// `k`/`b_seed` pin the dense one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique request id; response rows are keyed and sorted by it.
    pub id: u64,
    /// Logical arrival tick (admission is resolved tick by tick).
    pub tick: u64,
    /// Tenant the deficit-round-robin scheduler is fair across.
    pub tenant: String,
    /// Generator kind: `uniform`, `zipf-rows`, `row-bursts`, or `banded`.
    pub gen: String,
    /// Matrix dimension (square, like the suite).
    pub n: u64,
    /// Generator density / fill knob.
    pub density: f64,
    /// Second generator knob: Zipf exponent (`zipf-rows`), burst length
    /// (`row-bursts`), band half-width (`banded`); ignored by `uniform`.
    pub exponent: f64,
    /// Matrix generator seed.
    pub seed: u64,
    /// Dense-operand width (columns of B).
    pub k: u64,
    /// Dense-operand seed.
    pub b_seed: u64,
}

impl Request {
    /// Resolve the generator spec into a [`MatrixDesc`], or explain why
    /// it is malformed (the broker's typed `Malformed` rejection).
    pub fn desc(&self) -> Result<MatrixDesc, String> {
        if self.n == 0 {
            return Err("matrix dimension must be > 0".into());
        }
        if self.k == 0 {
            return Err("dense width k must be > 0".into());
        }
        if !(self.density > 0.0 && self.density <= 1.0) {
            return Err(format!("density {} outside (0, 1]", self.density));
        }
        let kind = match self.gen.as_str() {
            "uniform" => GenKind::Uniform {
                density: self.density,
            },
            "zipf-rows" => GenKind::ZipfRows {
                density: self.density,
                exponent: self.exponent,
            },
            "row-bursts" => GenKind::RowBursts {
                density: self.density,
                burst_len: (self.exponent as usize).max(1),
            },
            "banded" => GenKind::Banded {
                bandwidth: (self.exponent as usize).max(1),
                fill: self.density,
            },
            other => return Err(format!("unknown generator kind `{other}`")),
        };
        let name = format!("{}-n{}-s{}", self.gen, self.n, self.seed);
        let desc = MatrixDesc::new(name, self.n as usize, kind, self.seed);
        desc.validate().map_err(|e| e.to_string())?;
        Ok(desc)
    }
}

/// Serialize a trace as JSONL (one request per line, trailing newline).
pub fn to_jsonl(trace: &[Request]) -> String {
    let mut out = String::new();
    for req in trace {
        // nmt-lint: allow(panic) — named-struct serialization is total
        out.push_str(&serde_json::to_string(req).expect("request serializes"));
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace. Blank lines are skipped; a malformed line is an
/// error naming its line number (traces are inputs, so a torn line means
/// the trace is wrong — unlike history files, it must not be papered
/// over). The result is re-sorted by `(tick, id)` and rejects duplicate
/// ids, so hand-edited traces cannot smuggle in ambiguous schedules.
pub fn parse_jsonl(text: &str) -> Result<Vec<Request>, String> {
    let mut trace = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let req: Request =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e:?}", lineno + 1))?;
        trace.push(req);
    }
    trace.sort_by_key(|r| (r.tick, r.id));
    for pair in trace.windows(2) {
        if let [left, right] = pair {
            if left.id == right.id {
                return Err(format!("duplicate request id {}", left.id));
            }
        }
    }
    Ok(trace)
}

/// Knobs for [`synth_trace`].
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Schedule seed: everything below is a pure function of it.
    pub seed: u64,
    /// Total requests.
    pub requests: usize,
    /// Distinct matrices in the pool (`requests / unique` ≈ repeat
    /// factor; keep `unique <= requests / 2` for the ≥ 50%-repeat
    /// acceptance workload).
    pub unique_matrices: usize,
    /// Tenants `t0 .. t{tenants-1}`.
    pub tenants: usize,
    /// Matrix dimension.
    pub n: usize,
    /// Dense-operand width.
    pub k: usize,
    /// Arrivals per tick (burstiness; admission queues fill when this
    /// exceeds the broker's service rate).
    pub arrivals_per_tick: usize,
}

impl SynthSpec {
    /// A small, cache-heavy default: 48 requests over 8 matrices
    /// (6× repeat factor), 3 tenants, 4 arrivals per tick.
    pub fn quick(seed: u64) -> Self {
        SynthSpec {
            seed,
            requests: 48,
            unique_matrices: 8,
            tenants: 3,
            n: 96,
            k: 8,
            arrivals_per_tick: 4,
        }
    }
}

/// Generate a seeded request schedule over a fixed matrix pool. The
/// pool cycles through the generator kinds with per-matrix densities
/// and seeds derived from the pool index, so fingerprints are distinct;
/// request→matrix assignment, tenants, and B seeds come from one
/// `StdRng`, so the whole trace is a pure function of `spec`.
pub fn synth_trace(spec: &SynthSpec) -> Vec<Request> {
    let kinds = ["uniform", "zipf-rows", "row-bursts", "banded"];
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let unique = spec.unique_matrices.max(1);
    let per_tick = spec.arrivals_per_tick.max(1);
    (0..spec.requests)
        .map(|i| {
            let m = rng.random_range(0..unique);
            let gen = kinds.get(m % kinds.len()).copied().unwrap_or("uniform");
            let (density, exponent) = match gen {
                "uniform" => (0.02 + 0.01 * (m / kinds.len()) as f64, 0.0),
                "zipf-rows" => (0.02, 1.1 + 0.2 * (m / kinds.len()) as f64),
                "row-bursts" => (0.03, 4.0),
                _ => (0.5, 3.0 + (m / kinds.len()) as f64),
            };
            Request {
                id: i as u64,
                tick: (i / per_tick) as u64,
                tenant: format!("t{}", rng.random_range(0..spec.tenants.max(1))),
                gen: gen.to_string(),
                n: spec.n as u64,
                density,
                exponent,
                seed: spec.seed ^ (0x9e37_79b9 + m as u64),
                k: spec.k as u64,
                b_seed: spec.seed ^ (0x7f4a_7c15 + m as u64),
            }
        })
        .collect()
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn synth_is_a_pure_function_of_the_spec() {
        let a = synth_trace(&SynthSpec::quick(11));
        let b = synth_trace(&SynthSpec::quick(11));
        assert_eq!(a, b);
        let c = synth_trace(&SynthSpec::quick(12));
        assert_ne!(a, c, "different seeds must shuffle the schedule");
    }

    #[test]
    fn synth_meets_the_repeat_ratio() {
        let spec = SynthSpec::quick(7);
        let trace = synth_trace(&spec);
        assert_eq!(trace.len(), spec.requests);
        let mut seeds: Vec<u64> = trace.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert!(seeds.len() <= spec.unique_matrices);
        assert!(
            seeds.len() * 2 <= spec.requests,
            "≥ 50% of requests must repeat a pooled matrix"
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = synth_trace(&SynthSpec::quick(3));
        let text = to_jsonl(&trace);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parse_rejects_torn_lines_and_duplicate_ids() {
        assert!(parse_jsonl("{not json}\n").is_err());
        let mut trace = synth_trace(&SynthSpec::quick(3));
        trace[1].id = trace[0].id;
        let err = parse_jsonl(&to_jsonl(&trace)).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn descs_resolve_and_generate() {
        let trace = synth_trace(&SynthSpec::quick(5));
        for req in &trace {
            let desc = req.desc().expect("synth specs are well-formed");
            let a = nmt_matgen::generators::generate(&desc);
            assert_eq!(nmt_formats::SparseMatrix::shape(&a).nrows, req.n as usize);
        }
    }

    #[test]
    fn malformed_specs_are_typed() {
        let mut req = synth_trace(&SynthSpec::quick(5)).remove(0);
        req.gen = "mystery".into();
        assert!(req.desc().unwrap_err().contains("unknown generator"));
        req.gen = "uniform".into();
        req.density = 0.0;
        assert!(req.desc().unwrap_err().contains("density"));
    }
}
