"""Harness self-test (``run.py --selftest``).

Smoke-runs every workload (one set-up, the first quality session per
client, a single short rung) and checks that

- every end-to-end metric named in ``BENCHMARK.json`` is printed with
  the unit the file gives it, and a traced smoke run yields every
  per-layer metric;
- a planted trace mismatch and a planted ``ok:false`` response each
  show up as a failed operation, so ``error_rate`` is above zero.
"""

from __future__ import annotations

import math


def main(run_one, spec: dict, units: dict) -> int:
    problems: list[str] = []
    for entry in spec["end_to_end"]:
        if units.get(entry["name"]) != entry["unit"]:
            problems.append(f"{entry['name']}: unit {entry['unit']!r} not printed as such")
    for name in [w["name"] for w in spec["workloads"]]:
        trace = name == "interactive"
        metrics, layers, tally = run_one(name, 1, 1.0, trace, smoke=True)
        for entry in spec["end_to_end"]:
            value = metrics.get(entry["name"])
            if value is None or not math.isfinite(value):
                problems.append(f"{name}: {entry['name']} missing or not finite ({value})")
        if trace:
            for entry in spec["per_layer"]:
                if entry["name"] not in layers:
                    problems.append(f"{name}: per-layer {entry['name']} missing")
        if tally.failed:
            problems.append(f"{name}: clean smoke run had {tally.failed} failures")
    for plant in ("mismatch", "error"):
        _, _, tally = run_one("interactive", 1, 1.0, False, smoke=True, plant=plant)
        rate = tally.failed / max(1, tally.attempted)
        print(f"selftest: planted {plant}: error_rate {rate:.6f}")
        if tally.failed < 1:
            problems.append(f"planted {plant} did not show up in error_rate")
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1
