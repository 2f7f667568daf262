#!/usr/bin/env python3
"""Hot-path bench regression gate (CI `bench-smoke` legs).

Compares a fresh `repro bench-json` run against the committed
`BENCH_hotpath.json` reference on both steps/sec and instrs/sec for every
workload, and enforces the observability overhead budgets on the fresh
run alone (docs/OBSERVABILITY.md "Measured overhead"):

* a committed workload key missing from the fresh run FAILS the job —
  a probe that silently disappears would otherwise dodge every gate;
* a drop of more than 20% below the committed rate prints a ::warning;
* more than 35% below on either metric FAILS the job;
* disabled sinks (`obs_overhead_off`) must stay within 5% of the plain
  hot path (`thick_pram_flow`);
* recording (`obs_overhead_record`) must stay within 1.5x of disabled
  sinks, and live streaming (`obs_overhead_stream`) within 2x — the
  trace stores a thick instruction's issue as runs and the wire carries
  one line per run, so observing costs O(#runs), not O(thickness);
* every `divergent_*_100x` leg must hold at least half the rate of its
  baseline leg — per-step (or per-instruction, for the SPMD-shaped
  variants) cost of a divergent-but-compressed flow stays flat in
  thickness on all six execution variants (docs/PERFORMANCE.md
  "Compression across variants");
* `recorded_compressed_100x` must hold at least half the step rate of
  `recorded_compressed` — the same flat-cost pair with both sinks
  recording: recording is O(#runs) (docs/OBSERVABILITY.md "Events are
  runs");
* `resident_flows_100x` must hold at least half the step rate of
  `resident_flows` — a step costs what its runnable flows cost, however
  many halted flows the table holds (docs/PERFORMANCE.md "What a step
  costs when flows are thin").

Usage: bench_gate.py FRESH_JSON [COMMITTED_JSON]

Both bench-smoke legs (portable codegen and `-C target-cpu=native`) run
this same gate: rates are compared fresh-vs-committed per leg, so the
committed portable reference only has to be beaten up to the gate margin,
which native codegen comfortably clears.

Unit-tested by tools/test_bench_gate.py (run in the CI `tests` job).
"""

import json
import sys


class GateFailure(Exception):
    """A hard gate violation; the message is the exit diagnostic."""


# The scaling pairs: (baseline leg, 100x leg, compared metric). The
# thick-instruction variants are compared on step rate (same per-step work
# at both sizes if compression holds); the SPMD-shaped variants
# materialize one unit flow per thread, so their honest flat metric is
# per-instruction throughput. `resident_flows` runs one scalar loop behind
# 10^2 and 10^4 halted flows: halted flows cost nothing.
# `recorded_compressed` is `divergent_compressed` with both sinks
# recording: a recorded step costs its runs, not its lanes.
VARIANT_SCALING = [
    ("divergent_compressed", "divergent_compressed_100x", "steps_per_sec"),
    ("recorded_compressed", "recorded_compressed_100x", "steps_per_sec"),
    ("divergent_balanced", "divergent_balanced_100x", "steps_per_sec"),
    ("divergent_async", "divergent_async_100x", "steps_per_sec"),
    ("divergent_fixed", "divergent_fixed_100x", "steps_per_sec"),
    ("divergent_numa", "divergent_numa_100x", "instrs_per_sec"),
    ("divergent_spmd", "divergent_spmd_100x", "instrs_per_sec"),
    ("resident_flows", "resident_flows_100x", "steps_per_sec"),
]


# What observing may cost against disabled sinks: (probe, budget, name).
# Recording stores runs and streaming writes a line per run, so neither
# depends on thickness (ROADMAP item 5(a)).
OBS_BUDGETS = [
    ("obs_overhead_record", 1.5, "recording"),
    ("obs_overhead_stream", 2.0, "live-stream"),
]


def run_gate(fresh: dict, committed: dict) -> list:
    """Applies every gate; returns the report lines, raises GateFailure on
    the first hard violation."""
    lines = []
    if fresh.get("schema") != "tcf-bench-hotpath/v1":
        raise GateFailure(f"unexpected fresh schema: {fresh.get('schema')!r}")

    # Key-drop gate: every committed workload must still be measured.
    missing = sorted(set(committed["workloads"]) - set(fresh["workloads"]))
    if missing:
        raise GateFailure(
            "committed workloads missing from the fresh bench-json run: "
            + ", ".join(missing)
            + " — a dropped probe dodges every regression gate; if the "
            "removal is intentional, regenerate BENCH_hotpath.json"
        )

    failed = False
    for w, entry in fresh["workloads"].items():
        ref = committed["workloads"].get(w)
        for metric in ("steps_per_sec", "instrs_per_sec"):
            if entry[metric] <= 0:
                raise GateFailure(f"{w} reports non-positive {metric}")
            if ref is None:
                continue  # new workload, no reference yet
            ratio = entry[metric] / ref[metric]
            line = (
                f"{w} {metric}: {entry[metric]:.0f} "
                f"vs committed {ref[metric]:.0f} ({ratio:.2f}x)"
            )
            if ratio < 0.65:
                lines.append(f"::error title=bench regression::{line}")
                failed = True
            elif ratio < 0.8:
                lines.append(f"::warning title=bench regression::{line}")
            else:
                lines.append(line)
    if failed:
        raise GateFailure(
            "bench regression beyond the 35% hard gate\n" + "\n".join(lines)
        )

    # Observability budgets: every rate comes from the same fresh run, so
    # machine speed cancels out of the ratios.
    base = fresh["workloads"]["thick_pram_flow"]["steps_per_sec"]
    off = fresh["workloads"]["obs_overhead_off"]["steps_per_sec"]
    ratio = off / base
    line = (
        f"obs_overhead_off: {off:.0f} steps/s vs thick_pram_flow "
        f"{base:.0f} ({ratio:.2f}x)"
    )
    if ratio < 0.95:
        raise GateFailure(
            f"disabled-sink observability overhead exceeds 5%: {line}"
        )
    lines.append(line)

    for key, budget, what in OBS_BUDGETS:
        rate = fresh["workloads"][key]["steps_per_sec"]
        ratio = off / rate
        line = (
            f"{key}: {rate:.0f} steps/s vs obs_overhead_off "
            f"{off:.0f} ({ratio:.2f}x slower)"
        )
        if ratio > budget:
            raise GateFailure(
                f"{what} observability overhead exceeds {budget}x disabled sinks: {line}"
            )
        lines.append(line)

    # Compression across variants: a divergent-but-compressed step costs
    # O(#mask runs) / O(bound) / O(P*T_p), not O(thickness), so the same
    # recurrence at 100x the size must sustain a comparable rate on every
    # execution variant (docs/PERFORMANCE.md "Compression across
    # variants").
    for base_key, scaled_key, metric in VARIANT_SCALING:
        b = fresh["workloads"][base_key][metric]
        s = fresh["workloads"][scaled_key][metric]
        ratio = s / b
        line = (
            f"{scaled_key}: {s:.0f} {metric} vs "
            f"{base_key} {b:.0f} at 100x size ({ratio:.2f}x)"
        )
        if ratio < 0.5:
            raise GateFailure(
                f"{base_key} cost is not flat in size: {line}"
            )
        lines.append(line)

    # And the absolute win over the per-lane fallback: thickness-weighted
    # instruction throughput (lane-ops/sec) of the masked compressed path
    # must beat the SoA per-lane path by >= 10x even though it runs at
    # ~1000x the thickness.
    lanes = fresh["workloads"]["divergent_compressed"]["instrs_per_sec"]
    perlane = fresh["workloads"]["branchy_divergence"]["instrs_per_sec"]
    ratio = lanes / perlane
    line = (
        f"divergent_compressed lane throughput: {lanes:.3g} lane-instrs/s vs "
        f"branchy_divergence {perlane:.3g} ({ratio:.0f}x)"
    )
    if ratio < 10.0:
        raise GateFailure(
            f"masked compressed path is not >= 10x the per-lane path: {line}"
        )
    lines.append(line)
    return lines


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    fresh = json.load(open(sys.argv[1]))
    committed_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_hotpath.json"
    committed = json.load(open(committed_path))
    try:
        lines = run_gate(fresh, committed)
    except GateFailure as e:
        print(f"::error title=bench gate::{e}")
        sys.exit(str(e))
    print("\n".join(lines))
    print(f"{committed_path} ok")


if __name__ == "__main__":
    main()
