//! Cycle-level discrete simulation of the conversion unit's pipeline —
//! the validation layer under the analytic [`EngineTiming`](crate::EngineTiming) model.
//!
//! §5.3 sizes the prefetch buffer with a worst-case argument: one column
//! can demand one element every cycle, and resupplying a column costs
//! 3.3 ns of bookkeeping plus 15 ns of DRAM CL, so 256 B (32 fp32
//! elements) of per-column buffer hides the gap. This module *simulates*
//! that mechanism cycle by cycle: per-lane FIFOs, a fixed-latency refill
//! channel delivering one element per cycle (the pseudo-channel rate), and
//! a comparator that stalls when any lane with remaining work has an empty
//! FIFO. The tests confirm the paper-sized buffer sustains full
//! throughput even in the adversarial single-column case, and that
//! undersized buffers stall — i.e. the §5.3 sizing is necessary and
//! sufficient, not just plausible.

use crate::timing::{COLUMN_DEMAND_NS, DRAM_CL_NS, ELEM_BYTES_FP32};
use nmt_formats::{Csc, SparseMatrix};
use std::collections::VecDeque;

/// Configuration of the simulated pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Engine lanes (strip width), 1..=64.
    pub lanes: usize,
    /// Per-lane prefetch FIFO capacity in elements (paper: 256 B / 8 B = 32).
    pub buffer_elems: usize,
    /// Cycle time in ns (0.588 for fp32 on one HBM2 pseudo-channel).
    pub cycle_ns: f64,
    /// Refill latency in cycles: column-demand bookkeeping + DRAM CL.
    pub refill_latency_cycles: usize,
    /// Elements delivered per cycle by the channel (1 at the matched rate).
    pub refill_per_cycle: usize,
}

impl PipelineConfig {
    /// The paper's fp32 configuration for a `lanes`-wide strip.
    pub fn paper_fp32(lanes: usize) -> Self {
        let cycle_ns = ELEM_BYTES_FP32 as f64 / 13.6;
        Self {
            lanes,
            buffer_elems: 256 / ELEM_BYTES_FP32 as usize,
            cycle_ns,
            refill_latency_cycles: ((COLUMN_DEMAND_NS + DRAM_CL_NS) / cycle_ns).ceil() as usize,
            refill_per_cycle: 1,
        }
    }
}

/// Outcome of a cycle-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineResult {
    /// Total cycles from first fetch to last emission.
    pub cycles: u64,
    /// Cycles the comparator stalled waiting for a lane refill.
    pub stall_cycles: u64,
    /// Elements converted.
    pub elements: u64,
    /// DCSR rows emitted.
    pub rows: u64,
}

impl PipelineResult {
    /// Converted elements per cycle (≤ 1 at the matched channel rate).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.elements as f64 / self.cycles as f64
        }
    }

    /// Wall-clock time at `cycle_ns` per cycle.
    pub fn time_ns(&self, config: &PipelineConfig) -> f64 {
        self.cycles as f64 * config.cycle_ns
    }
}

/// One lane's state: buffered elements (their row coordinates), the number
/// still in DRAM, and refills in flight.
struct Lane {
    fifo: VecDeque<u32>,
    /// Row coordinates not yet requested, in column order.
    remaining: VecDeque<u32>,
    /// Completion cycles of outstanding refill requests.
    in_flight: VecDeque<(u64, u32)>,
}

impl Lane {
    fn exhausted(&self) -> bool {
        self.fifo.is_empty() && self.remaining.is_empty() && self.in_flight.is_empty()
    }
}

/// Simulate converting one strip of `csc` (columns `strip_id*lanes ..`)
/// cycle by cycle under `config`.
pub fn simulate_strip(csc: &Csc, strip_id: usize, config: &PipelineConfig) -> PipelineResult {
    assert!((1..=64).contains(&config.lanes), "lanes must be 1..=64");
    assert!(
        config.buffer_elems >= 1,
        "buffer must hold at least one element"
    );
    let ncols = csc.shape().ncols;
    let col_lo = strip_id * config.lanes;
    assert!(col_lo < ncols.max(1), "strip beyond matrix");
    let width = config.lanes.min(ncols - col_lo);

    let mut lanes: Vec<Lane> = (0..width)
        .map(|i| {
            let (rows, _) = csc.col(col_lo + i);
            Lane {
                fifo: VecDeque::new(),
                remaining: rows.iter().copied().collect(),
                in_flight: VecDeque::new(),
            }
        })
        .collect();

    let mut cycle = 0u64;
    let mut stalls = 0u64;
    let mut elements = 0u64;
    let mut rows_emitted = 0u64;
    // Guard against configuration-induced livelock.
    let budget = 1_000_000u64 + 100 * csc.nnz() as u64;

    while lanes.iter().any(|l| !l.exhausted()) {
        cycle += 1;
        assert!(
            cycle < budget,
            "pipeline livelock: configuration cannot drain the strip"
        );

        // 1. Refill: the channel delivers up to `refill_per_cycle` new
        //    requests' worth of data; issue to the hungriest lanes first.
        for _ in 0..config.refill_per_cycle {
            if let Some(lane) = lanes
                .iter_mut()
                .filter(|l| {
                    !l.remaining.is_empty()
                        && l.fifo.len() + l.in_flight.len() < config.buffer_elems
                })
                .min_by_key(|l| l.fifo.len() + l.in_flight.len())
            {
                if let Some(coord) = lane.remaining.pop_front() {
                    lane.in_flight
                        .push_back((cycle + config.refill_latency_cycles as u64, coord));
                }
            }
        }
        // 2. Arrivals: requests whose latency elapsed land in the FIFO.
        for lane in &mut lanes {
            while let Some(&(ready, coord)) = lane.in_flight.front() {
                if ready > cycle {
                    break;
                }
                lane.in_flight.pop_front();
                lane.fifo.push_back(coord);
            }
        }
        // 3. Compare & emit: every non-exhausted lane must present its
        //    frontier coordinate; if one is still in flight the comparator
        //    cannot prove it has the minimum and must stall.
        let any_waiting = lanes
            .iter()
            .any(|l| l.fifo.is_empty() && !(l.remaining.is_empty() && l.in_flight.is_empty()));
        if any_waiting {
            stalls += 1;
            continue;
        }
        let min = lanes.iter().filter_map(|l| l.fifo.front().copied()).min();
        let Some(min) = min else { continue };
        for lane in &mut lanes {
            if lane.fifo.front() == Some(&min) {
                lane.fifo.pop_front();
                elements += 1;
            }
        }
        rows_emitted += 1;
    }
    PipelineResult {
        cycles: cycle,
        stall_cycles: stalls,
        elements,
        rows: rows_emitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::ComparatorTree;
    use crate::farm::{convert_matrix_farm, FarmConfig};
    use crate::timing::EngineTiming;
    use nmt_formats::{Coo, Csr};

    /// Adversarial single-column workload: every element lives in one
    /// column, so that lane demands one element per cycle — the §5.3
    /// worst case the 256 B buffer was sized for.
    fn single_column(n: usize) -> Csc {
        let rows: Vec<u32> = (0..n as u32).collect();
        let cols = vec![0u32; n];
        let vals = vec![1.0f32; n];
        Csr::from_coo(&Coo::from_triplets(n, 8, &rows, &cols, &vals).unwrap()).to_csc()
    }

    fn uniform(n: usize, per_col: usize) -> Csc {
        let mut r = Vec::new();
        let mut c = Vec::new();
        for col in 0..8u32 {
            for i in 0..per_col as u32 {
                r.push((i * 7 + col) % n as u32);
                c.push(col);
            }
        }
        let mut coo = Coo::new(n, 8).unwrap();
        for (&row, &col) in r.iter().zip(&c) {
            coo.push(row, col, 1.0).unwrap();
        }
        coo.canonicalize();
        Csr::from_coo(&coo).to_csc()
    }

    #[test]
    fn paper_buffer_sustains_worst_case() {
        // One hot column, paper-sized buffer: after the initial fill the
        // comparator never starves — throughput ~1 element/cycle.
        let csc = single_column(2000);
        let config = PipelineConfig::paper_fp32(8);
        let r = simulate_strip(&csc, 0, &config);
        assert_eq!(r.elements, 2000);
        assert_eq!(r.rows, 2000);
        // Stalls: the initial latency window plus a small credit-return
        // bubble (the paper's 18.8 ns buffer covers the 18.3 ns demand
        // with almost no slack — the sizing is tight by design).
        assert!(
            r.stall_cycles <= config.refill_latency_cycles as u64 + r.elements / 20,
            "steady-state stalls: {} (latency {})",
            r.stall_cycles,
            config.refill_latency_cycles
        );
        assert!(r.throughput() > 0.93, "throughput {}", r.throughput());
    }

    #[test]
    fn undersized_buffer_stalls() {
        // With a 2-element buffer the single-column demand cannot be
        // hidden: the pipeline spends most cycles stalled.
        let csc = single_column(2000);
        let mut config = PipelineConfig::paper_fp32(8);
        config.buffer_elems = 2;
        let r = simulate_strip(&csc, 0, &config);
        assert_eq!(r.elements, 2000);
        assert!(
            r.throughput() < 0.5,
            "a starved pipeline cannot sustain rate: {}",
            r.throughput()
        );
        assert!(r.stall_cycles > r.elements / 2);
    }

    #[test]
    fn buffer_sizing_threshold_matches_timing_model() {
        // The minimal non-stalling buffer is exactly the refill latency's
        // worth of elements — the §5.3 sizing rule.
        let csc = single_column(4000);
        let base = PipelineConfig::paper_fp32(8);
        let sized = PipelineConfig {
            buffer_elems: base.refill_latency_cycles + 1,
            ..base
        };
        let r = simulate_strip(&csc, 0, &sized);
        assert!(r.throughput() > 0.95, "latency-sized buffer sustains rate");
        let undersized = PipelineConfig {
            buffer_elems: base.refill_latency_cycles / 2,
            ..base
        };
        let r = simulate_strip(&csc, 0, &undersized);
        assert!(
            r.throughput() < 0.95,
            "half-sized buffer cannot: {}",
            r.throughput()
        );
    }

    #[test]
    fn cycle_simulation_agrees_with_analytic_model() {
        // The discrete simulation and EngineTiming must agree within the
        // pipeline-fill margin on a balanced workload.
        let csc = uniform(64, 100);
        let config = PipelineConfig::paper_fp32(8);
        let r = simulate_strip(&csc, 0, &config);
        let farm = convert_matrix_farm(&csc, 8, 64, FarmConfig::for_partitions(1)).unwrap();
        let analytic = EngineTiming::fp32(13.6, &ComparatorTree::new(8).unwrap().structure())
            .conversion_time_ns(&farm.per_strip[0]);
        let simulated = r.time_ns(&config);
        let rel = (simulated - analytic).abs() / analytic;
        assert!(
            rel < 0.25,
            "cycle sim {simulated:.1} ns vs analytic {analytic:.1} ns ({rel:.2} off)"
        );
    }

    #[test]
    fn rows_merge_lanes_in_one_cycle() {
        // A full row across all 8 lanes retires 8 elements in one
        // comparator pass: cycles ≈ rows, throughput ≈ lanes.
        let mut coo = Coo::new(100, 8).unwrap();
        for r in 0..100u32 {
            for c in 0..8u32 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let csc = Csr::from_coo(&coo).to_csc();
        let config = PipelineConfig::paper_fp32(8);
        let res = simulate_strip(&csc, 0, &config);
        assert_eq!(res.elements, 800);
        assert_eq!(res.rows, 100);
        // One row per cycle once full; channel refill (1 elem/cycle)
        // becomes the bottleneck: 800 refills dominate.
        assert!(res.cycles >= 800);
    }

    #[test]
    fn empty_strip_finishes_immediately() {
        let csc = Csc::new(4, 8, vec![0; 9], vec![], vec![]).unwrap();
        let r = simulate_strip(&csc, 0, &PipelineConfig::paper_fp32(8));
        assert_eq!(r.elements, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn result_accessors() {
        let r = PipelineResult {
            cycles: 100,
            stall_cycles: 10,
            elements: 90,
            rows: 45,
        };
        assert!((r.throughput() - 0.9).abs() < 1e-12);
        let cfg = PipelineConfig::paper_fp32(8);
        assert!((r.time_ns(&cfg) - 100.0 * cfg.cycle_ns).abs() < 1e-9);
        let zero = PipelineResult {
            cycles: 0,
            stall_cycles: 0,
            elements: 0,
            rows: 0,
        };
        assert_eq!(zero.throughput(), 0.0);
    }
}
