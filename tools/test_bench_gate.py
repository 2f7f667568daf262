#!/usr/bin/env python3
"""Unit tests for the bench regression gate itself (tools/bench_gate.py).

The gate guards CI; these tests guard the gate — in particular that a
workload key silently disappearing from a fresh run hard-fails instead of
being skipped, and that each per-variant scaling pair is actually
enforced.

Run: python3 tools/test_bench_gate.py
"""

import copy
import unittest

import bench_gate
from bench_gate import GateFailure, VARIANT_SCALING, run_gate

BASE_WORKLOADS = [
    "thick_pram_flow",
    "thin_numa_flow",
    "mixed_multitasking",
    "broadcast_stride_sweep",
    "lane_id_reduction",
    "branchy_divergence",
    "obs_overhead_off",
    "obs_overhead_record",
    "obs_overhead_stream",
]


def entry(steps=1_000_000.0, instrs=2_000_000.0):
    return {
        "steps": 100,
        "instrs": 200,
        "elapsed_sec": 0.001,
        "steps_per_sec": steps,
        "instrs_per_sec": instrs,
    }


def healthy_doc():
    """A doc that passes every gate when compared against itself."""
    workloads = {name: entry() for name in BASE_WORKLOADS}
    # The compressed path must beat branchy_divergence >= 10x on
    # instrs/sec.
    workloads["branchy_divergence"] = entry(steps=1_000_000.0, instrs=100_000.0)
    for base, scaled, _metric in VARIANT_SCALING:
        workloads[base] = entry()
        workloads[scaled] = entry()
    return {"schema": "tcf-bench-hotpath/v1", "workloads": workloads}


class GateTests(unittest.TestCase):
    def test_healthy_doc_passes(self):
        doc = healthy_doc()
        lines = run_gate(doc, copy.deepcopy(doc))
        self.assertTrue(any("ok" not in l for l in lines))  # report emitted
        self.assertTrue(any("divergent_spmd_100x" in l for l in lines))

    def test_bad_schema_fails(self):
        doc = healthy_doc()
        bad = copy.deepcopy(doc)
        bad["schema"] = "tcf-bench-hotpath/v0"
        with self.assertRaisesRegex(GateFailure, "schema"):
            run_gate(bad, doc)

    def test_dropped_workload_key_hard_fails(self):
        committed = healthy_doc()
        fresh = copy.deepcopy(committed)
        del fresh["workloads"]["divergent_balanced_100x"]
        with self.assertRaisesRegex(GateFailure, "divergent_balanced_100x"):
            run_gate(fresh, committed)

    def test_new_fresh_workload_is_allowed(self):
        committed = healthy_doc()
        fresh = copy.deepcopy(committed)
        fresh["workloads"]["brand_new_probe"] = entry()
        run_gate(fresh, committed)  # no reference yet: measured, not gated

    def test_regression_beyond_hard_gate_fails(self):
        committed = healthy_doc()
        fresh = copy.deepcopy(committed)
        fresh["workloads"]["thin_numa_flow"] = entry(
            steps=500_000.0, instrs=1_000_000.0
        )  # 0.5x < 0.65 hard gate
        with self.assertRaisesRegex(GateFailure, "35% hard gate"):
            run_gate(fresh, committed)

    def test_warning_band_regression_passes(self):
        committed = healthy_doc()
        fresh = copy.deepcopy(committed)
        fresh["workloads"]["thin_numa_flow"] = entry(
            steps=750_000.0, instrs=1_500_000.0
        )  # 0.75x: warn, don't fail
        lines = run_gate(fresh, committed)
        self.assertTrue(any("::warning" in l for l in lines))

    def test_each_variant_scaling_pair_is_enforced(self):
        for base, scaled, metric in VARIANT_SCALING:
            # Degrade the committed reference identically so the
            # fresh-vs-committed regression gate stays quiet and the
            # flatness gate is what trips.
            committed = healthy_doc()
            committed["workloads"][scaled][metric] = (
                committed["workloads"][base][metric] * 0.4
            )
            fresh = copy.deepcopy(committed)
            with self.assertRaisesRegex(GateFailure, "not flat in size"):
                run_gate(fresh, committed)

    def test_halted_flows_must_cost_nothing(self):
        # What the table walk did: every step of the 100x leg visited 10^4
        # dead slots, a step rate some fifty times below the baseline's.
        committed = healthy_doc()
        self.assertIn(
            ("resident_flows", "resident_flows_100x", "steps_per_sec"),
            VARIANT_SCALING,
        )
        committed["workloads"]["resident_flows_100x"] = entry(
            steps=20_000.0, instrs=40_000.0
        )
        fresh = copy.deepcopy(committed)
        with self.assertRaisesRegex(GateFailure, "resident_flows cost is not flat in size"):
            run_gate(fresh, committed)
        # Half the baseline's rate is the line: just above it passes.
        fresh["workloads"]["resident_flows_100x"] = entry(
            steps=510_000.0, instrs=1_020_000.0
        )
        lines = run_gate(fresh, copy.deepcopy(fresh))
        self.assertTrue(any(l.startswith("resident_flows_100x:") for l in lines))

    def test_obs_overhead_budget_enforced(self):
        committed = healthy_doc()
        fresh = copy.deepcopy(committed)
        fresh["workloads"]["obs_overhead_off"] = entry(
            steps=900_000.0, instrs=1_800_000.0
        )  # 0.9x of thick_pram_flow < the 5% budget
        with self.assertRaisesRegex(GateFailure, "overhead exceeds 5%"):
            run_gate(fresh, committed)

    def test_recording_and_streaming_budgets_enforced(self):
        # Recording stores runs: 1.5x of disabled sinks is the budget
        # (one record per unit read 2.6x), 2x for the live stream.
        committed = healthy_doc()
        for key, rate, message in [
            ("obs_overhead_record", 600_000.0, "recording .* exceeds 1.5x"),
            ("obs_overhead_stream", 450_000.0, "live-stream .* exceeds 2.0x"),
        ]:
            fresh = copy.deepcopy(committed)
            fresh["workloads"][key] = entry(steps=rate, instrs=2 * rate)
            with self.assertRaisesRegex(GateFailure, message):
                run_gate(fresh, copy.deepcopy(fresh))
        # Just inside both budgets passes and is reported.
        fresh = copy.deepcopy(committed)
        fresh["workloads"]["obs_overhead_record"] = entry(
            steps=700_000.0, instrs=1_400_000.0
        )
        fresh["workloads"]["obs_overhead_stream"] = entry(
            steps=520_000.0, instrs=1_040_000.0
        )
        lines = run_gate(fresh, copy.deepcopy(fresh))
        self.assertTrue(any(l.startswith("obs_overhead_record:") for l in lines))
        self.assertTrue(any(l.startswith("obs_overhead_stream:") for l in lines))

    def test_recording_must_cost_runs_not_lanes(self):
        self.assertIn(
            ("recorded_compressed", "recorded_compressed_100x", "steps_per_sec"),
            VARIANT_SCALING,
        )

    def test_nonpositive_rate_fails(self):
        committed = healthy_doc()
        fresh = copy.deepcopy(committed)
        fresh["workloads"]["thin_numa_flow"] = entry(steps=0.0)
        with self.assertRaisesRegex(GateFailure, "non-positive"):
            run_gate(fresh, committed)


if __name__ == "__main__":
    unittest.main()
