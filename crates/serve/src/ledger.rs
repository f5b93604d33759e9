//! The response ledger: the service's deterministic output artifact.
//!
//! A replayed trace produces one [`ServeLedger`]. Its deterministic
//! sections — config echo, admission counts, per-request response and
//! rejection rows — are pure functions of `(trace, broker config)` and
//! must serialize **byte-identically at any thread count**; CI replays
//! the same trace at 1 and 4 rayon threads and `cmp`s the files.
//!
//! Schedule-dependent measurements (actual cache hits vs. single-flight
//! waits, latency and allocation percentiles, pool occupancy) live in
//! the optional [`stats`](ServeLedger::stats) section, excluded from
//! [`canonical_json`](ServeLedger::canonical_json) and from the
//! [`gate`](ServeLedger::gate) — the same discipline as the bench
//! ledger's `perf: null` default. The *canonical* `plan_source` label on
//! each response row is schedule-invariant by construction: the first
//! occurrence of a fingerprint in dispatch order is `cold`, every later
//! one `cached`, regardless of which worker actually populated the
//! cache first.

use serde::{Deserialize, Serialize};

/// Bump when any serialized field changes meaning; the gate refuses to
/// compare ledgers across versions.
pub const SERVE_SCHEMA_VERSION: u32 = 1;

/// The broker knobs a ledger was produced under. Thread count is
/// deliberately absent: it must not influence any gated byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfigEcho {
    /// Admission queue capacity (requests).
    pub queue_depth: u64,
    /// Deficit-round-robin quantum (requests of credit per pass).
    pub quantum: u64,
    /// Dispatches per tick once admitted.
    pub service_rate: u64,
    /// Plan-cache byte budget.
    pub cache_budget_bytes: u64,
    /// Strip/tile width plans are profiled and converted under.
    pub tile_w: u64,
    /// Tile height for B-stationary conversions.
    pub tile_h: u64,
}

/// One served request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseRow {
    /// Request id (rows are sorted by it).
    pub id: u64,
    /// Requesting tenant.
    pub tenant: String,
    /// Plan-cache key ([`MatrixFingerprint::key`] form).
    ///
    /// [`MatrixFingerprint::key`]: nmt::MatrixFingerprint::key
    pub key: String,
    /// Cached artifact kind: `dcsr` or `tiled-dcsr`.
    pub kind: String,
    /// Planner decision: `b-stationary` or `c-stationary`.
    pub choice: String,
    /// Canonical provenance: `cold` for the first dispatch of this key,
    /// `cached` after — a function of dispatch order, not of which
    /// worker won the single-flight race.
    pub plan_source: String,
    /// Position in the deterministic dispatch order.
    pub dispatch: u64,
    /// Simulated kernel time (deterministic; from [`KernelStats`]).
    ///
    /// [`KernelStats`]: nmt_sim::KernelStats
    pub sim_ns: u64,
    /// FNV-1a digest over the result matrix's f32 bit patterns.
    pub checksum: u64,
}

/// One rejected request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectionRow {
    /// Request id.
    pub id: u64,
    /// Requesting tenant.
    pub tenant: String,
    /// Arrival tick at which admission failed.
    pub tick: u64,
    /// Typed reason: `queue-full` or `malformed: <detail>`.
    pub reason: String,
}

/// Deterministic admission/dispatch tallies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeCounts {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests admitted and served.
    pub admitted: u64,
    /// Typed rejections: bounded queue overflow.
    pub rejected_queue_full: u64,
    /// Typed rejections: unresolvable request spec.
    pub rejected_malformed: u64,
    /// Distinct fingerprints among served requests — exactly the number
    /// of plan computations any correct schedule performs.
    pub unique_plans: u64,
    /// Responses labelled `cached` (= `admitted - unique_plans`).
    pub cached_responses: u64,
    /// High-water mark of the admission queue.
    pub max_queue_depth: u64,
    /// Ticks the broker ran for (arrival span + drain).
    pub ticks: u64,
}

/// Schedule-dependent observability — **never gated, never canonical**.
/// `hits + computes` always equals `admitted` (a waiter that resolves
/// counts as a hit), and absent evictions `computes == unique_plans`;
/// both are schedule-invariant and the determinism test asserts exactly
/// that. `waits` counts wait *episodes* behind an in-flight compute and
/// genuinely depends on thread interleaving (0 on a serial replay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Lookups that found a ready entry.
    pub cache_hits: u64,
    /// Lookups that found a miss and computed the plan.
    pub cache_computes: u64,
    /// Lookups that blocked on another worker's in-flight compute.
    pub cache_waits: u64,
    /// Entries evicted by the byte budget.
    pub cache_evictions: u64,
    /// Bytes resident in the cache after the run.
    pub resident_bytes: u64,
    /// Idle capacity shelved in the serve-side slice pools after the run.
    pub pool_idle_capacity: u64,
    /// Median wall-clock of hit-path requests (ns).
    pub hit_p50_ns: u64,
    /// Median wall-clock of miss-path (compute) requests (ns).
    pub miss_p50_ns: u64,
    /// Median allocation count on the hit path.
    pub hit_p50_allocs: u64,
    /// Median allocation count on the miss path.
    pub miss_p50_allocs: u64,
    /// Responses whose kernel replayed values-only against its plan's
    /// memoized `KernelStats` instead of simulating.
    pub sim_replays: u64,
    /// Responses whose plan key came from the broker's per-spec operand
    /// memo, so A was neither generated nor fingerprinted for them. A
    /// serial replay has `admitted - distinct specs`; workers racing on a
    /// new spec may each build it. Absent in ledgers written before the
    /// memo, which parse as 0.
    #[serde(default)]
    pub operand_reuses: u64,
}

/// A full service replay: what `nmt-cli serve` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLedger {
    /// [`SERVE_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Broker knobs (no thread count).
    pub config: ServeConfigEcho,
    /// Deterministic tallies.
    pub counts: ServeCounts,
    /// Served requests, sorted by id.
    pub responses: Vec<ResponseRow>,
    /// Rejected requests, sorted by id.
    pub rejections: Vec<RejectionRow>,
    /// Schedule-dependent measurements; `None` unless `--stats` asked
    /// for them, and stripped by [`canonical_json`](Self::canonical_json)
    /// either way.
    pub stats: Option<ServeStats>,
}

impl ServeLedger {
    /// Pretty JSON, stats included when present.
    pub fn to_json(&self) -> String {
        // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
        let mut s = serde_json::to_string_pretty(self).expect("ledger serializes");
        s.push('\n');
        s
    }

    /// Parse a ledger back, refusing other schema versions.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let ledger: ServeLedger =
            serde_json::from_str(json).map_err(|e| format!("serve ledger parse: {e:?}"))?;
        if ledger.schema_version != SERVE_SCHEMA_VERSION {
            return Err(format!(
                "serve ledger schema v{} (this binary reads v{})",
                ledger.schema_version, SERVE_SCHEMA_VERSION
            ));
        }
        Ok(ledger)
    }

    /// The byte-compared form: stats stripped, so two replays of the same
    /// trace agree byte-for-byte whatever the thread count.
    pub fn canonical_json(&self) -> String {
        let mut canon = self.clone();
        canon.stats = None;
        canon.to_json()
    }

    /// Compare every deterministic section against `baseline`, reporting
    /// each divergence (row-level, field-level) rather than a bare
    /// boolean — the serve analogue of the bench ledger gate, with zero
    /// tolerance: replay determinism admits no drift.
    pub fn gate(&self, baseline: &ServeLedger) -> Result<(), Vec<String>> {
        let mut diffs = Vec::new();
        if self.schema_version != baseline.schema_version {
            diffs.push(format!(
                "schema version {} vs baseline {}",
                self.schema_version, baseline.schema_version
            ));
            return Err(diffs);
        }
        if self.config != baseline.config {
            diffs.push(format!(
                "config mismatch: {:?} vs baseline {:?}",
                self.config, baseline.config
            ));
        }
        if self.counts != baseline.counts {
            diffs.push(format!(
                "counts mismatch: {:?} vs baseline {:?}",
                self.counts, baseline.counts
            ));
        }
        diff_rows(
            "response",
            self.responses.len(),
            baseline.responses.len(),
            &mut diffs,
        );
        for (ours, theirs) in self.responses.iter().zip(&baseline.responses) {
            if ours != theirs {
                diffs.push(response_diff(ours, theirs));
            }
        }
        diff_rows(
            "rejection",
            self.rejections.len(),
            baseline.rejections.len(),
            &mut diffs,
        );
        for (ours, theirs) in self.rejections.iter().zip(&baseline.rejections) {
            if ours != theirs {
                diffs.push(format!(
                    "rejection id {}: {:?} vs baseline {:?}",
                    ours.id, ours, theirs
                ));
            }
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs)
        }
    }

    /// Human-readable run summary for the CLI.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let c = &self.counts;
        out.push_str(&format!(
            "serve: {} requests — {} served ({} cold plans, {} cached), {} rejected ({} queue-full, {} malformed)\n",
            c.requests,
            c.admitted,
            c.unique_plans,
            c.cached_responses,
            c.rejected_queue_full + c.rejected_malformed,
            c.rejected_queue_full,
            c.rejected_malformed,
        ));
        out.push_str(&format!(
            "  queue high-water {} / {}, {} ticks, cache budget {} B\n",
            c.max_queue_depth, self.config.queue_depth, c.ticks, self.config.cache_budget_bytes
        ));
        if let Some(s) = &self.stats {
            out.push_str(&format!(
                "  cache: {} hits, {} computes, {} waits, {} evictions, {} B resident; {} sim replays, {} operand reuses\n",
                s.cache_hits,
                s.cache_computes,
                s.cache_waits,
                s.cache_evictions,
                s.resident_bytes,
                s.sim_replays,
                s.operand_reuses
            ));
            out.push_str(&format!(
                "  latency p50: hit {} ns / miss {} ns; allocs p50: hit {} / miss {}; pool idle {} B\n",
                s.hit_p50_ns, s.miss_p50_ns, s.hit_p50_allocs, s.miss_p50_allocs, s.pool_idle_capacity
            ));
        }
        out
    }
}

fn diff_rows(what: &str, ours: usize, theirs: usize, diffs: &mut Vec<String>) {
    if ours != theirs {
        diffs.push(format!("{what} rows: {ours} vs baseline {theirs}"));
    }
}

fn response_diff(ours: &ResponseRow, theirs: &ResponseRow) -> String {
    let mut fields = Vec::new();
    if ours.tenant != theirs.tenant {
        fields.push(format!("tenant {} vs {}", ours.tenant, theirs.tenant));
    }
    if ours.key != theirs.key {
        fields.push(format!("key {} vs {}", ours.key, theirs.key));
    }
    if ours.kind != theirs.kind {
        fields.push(format!("kind {} vs {}", ours.kind, theirs.kind));
    }
    if ours.choice != theirs.choice {
        fields.push(format!("choice {} vs {}", ours.choice, theirs.choice));
    }
    if ours.plan_source != theirs.plan_source {
        fields.push(format!(
            "plan_source {} vs {}",
            ours.plan_source, theirs.plan_source
        ));
    }
    if ours.dispatch != theirs.dispatch {
        fields.push(format!("dispatch {} vs {}", ours.dispatch, theirs.dispatch));
    }
    if ours.sim_ns != theirs.sim_ns {
        fields.push(format!("sim_ns {} vs {}", ours.sim_ns, theirs.sim_ns));
    }
    if ours.checksum != theirs.checksum {
        fields.push(format!(
            "checksum {:016x} vs {:016x}",
            ours.checksum, theirs.checksum
        ));
    }
    format!("response id {}: {}", ours.id, fields.join("; "))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn sample() -> ServeLedger {
        ServeLedger {
            schema_version: SERVE_SCHEMA_VERSION,
            config: ServeConfigEcho {
                queue_depth: 16,
                quantum: 2,
                service_rate: 4,
                cache_budget_bytes: 1 << 20,
                tile_w: 16,
                tile_h: 16,
            },
            counts: ServeCounts {
                requests: 3,
                admitted: 2,
                rejected_queue_full: 1,
                rejected_malformed: 0,
                unique_plans: 1,
                cached_responses: 1,
                max_queue_depth: 2,
                ticks: 3,
            },
            responses: vec![
                ResponseRow {
                    id: 0,
                    tenant: "t0".into(),
                    key: "fp-8x8-nnz5-w4-0000000000000001".into(),
                    kind: "dcsr".into(),
                    choice: "c-stationary".into(),
                    plan_source: "cold".into(),
                    dispatch: 0,
                    sim_ns: 100,
                    checksum: 7,
                },
                ResponseRow {
                    id: 2,
                    tenant: "t1".into(),
                    key: "fp-8x8-nnz5-w4-0000000000000001".into(),
                    kind: "dcsr".into(),
                    choice: "c-stationary".into(),
                    plan_source: "cached".into(),
                    dispatch: 1,
                    sim_ns: 100,
                    checksum: 7,
                },
            ],
            rejections: vec![RejectionRow {
                id: 1,
                tenant: "t1".into(),
                tick: 0,
                reason: "queue-full".into(),
            }],
            stats: None,
        }
    }

    #[test]
    fn json_round_trips() {
        let ledger = sample();
        let parsed = ServeLedger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(parsed, ledger);
    }

    #[test]
    fn wrong_schema_version_is_refused() {
        let mut ledger = sample();
        ledger.schema_version += 1;
        let err = ServeLedger::from_json(&ledger.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    fn sample_stats() -> ServeStats {
        ServeStats {
            cache_hits: 1,
            cache_computes: 1,
            cache_waits: 0,
            cache_evictions: 0,
            resident_bytes: 64,
            pool_idle_capacity: 0,
            hit_p50_ns: 10,
            miss_p50_ns: 90,
            hit_p50_allocs: 0,
            miss_p50_allocs: 12,
            sim_replays: 1,
            operand_reuses: 1,
        }
    }

    #[test]
    fn canonical_json_strips_stats() {
        let mut ledger = sample();
        ledger.stats = Some(sample_stats());
        let without = sample();
        assert_eq!(ledger.canonical_json(), without.canonical_json());
        assert_ne!(ledger.to_json(), without.to_json());
    }

    #[test]
    fn stats_written_before_the_operand_memo_parse_with_zero_reuses() {
        let mut ledger = sample();
        ledger.stats = Some(sample_stats());
        let json = ledger.to_json();
        let old = json.replace(",\n    \"operand_reuses\": 1\n", "\n");
        assert_ne!(old, json, "the field must be present to strip");
        let parsed = ServeLedger::from_json(&old).unwrap();
        let stats = parsed.stats.expect("stats parse");
        assert_eq!(stats.operand_reuses, 0);
        assert_eq!(stats.sim_replays, 1);
    }

    #[test]
    fn gate_accepts_stats_divergence_and_reports_field_diffs() {
        let mut ours = sample();
        ours.stats = Some(ServeStats {
            cache_hits: 99,
            cache_computes: 1,
            cache_waits: 0,
            cache_evictions: 0,
            resident_bytes: 0,
            pool_idle_capacity: 0,
            hit_p50_ns: 1,
            miss_p50_ns: 2,
            hit_p50_allocs: 0,
            miss_p50_allocs: 0,
            sim_replays: 99,
            operand_reuses: 99,
        });
        assert!(ours.gate(&sample()).is_ok(), "stats must never gate");

        ours.responses[1].checksum = 8;
        ours.responses[1].plan_source = "cold".into();
        let diffs = ours.gate(&sample()).unwrap_err();
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("id 2"), "{diffs:?}");
        assert!(diffs[0].contains("plan_source"), "{diffs:?}");
        assert!(diffs[0].contains("checksum"), "{diffs:?}");
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let text = sample().render_summary();
        assert!(text.contains("3 requests"));
        assert!(text.contains("1 cold plans"));
        assert!(text.contains("queue-full"));
    }
}
