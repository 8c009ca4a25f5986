"""Copy headline numbers from benchmarks/results/BENCH_*.json to the repo root.

CI uploads the full JSON artifacts per run; this script distills each
one into a few headline lines and writes them all to ``BENCHMARKS.md``
at the repository root, so the performance trajectory is visible in the
tree (and in PR diffs) without downloading artifacts.

Usage::

    python benchmarks/summarize.py          # rewrite BENCHMARKS.md
    python benchmarks/summarize.py --check  # exit 1 if it would change
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent
OUTPUT = REPO_ROOT / "BENCHMARKS.md"

HEADER = """# Benchmark summaries

Headline numbers distilled from the latest `benchmarks/results/BENCH_*.json`
runs (regenerate with `python benchmarks/summarize.py` after running the
benchmarks; CI uploads the full JSON files as artifacts). Numbers are
host-dependent — treat them as trajectory, not absolutes.
"""


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} µs"


def _walk(obj: dict, prefix: str = "") -> list[tuple[str, float]]:
    """Flatten nested dicts to ``dotted.path -> number`` pairs."""
    pairs: list[tuple[str, float]] = []
    for key, value in obj.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            pairs.extend(_walk(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            pairs.append((path, value))
    return pairs


def _headlines(name: str, data: dict) -> list[str]:
    """A few headline lines per benchmark; generic fallback otherwise."""
    if name == "BENCH_estimator_sweep":
        lines = [
            f"- serial sweep: {_fmt_seconds(data['serial_s'])}; "
            f"thread ×{data['workers']}: {_fmt_seconds(data['thread_s'])} "
            f"({data['thread_speedup']:.2f}× speedup)",
        ]
        if "process_s" in data:
            lines.append(
                f"- process ×{data['workers']}: {_fmt_seconds(data['process_s'])} "
                f"({data['process_speedup']:.2f}× speedup)"
            )
        lines.append(f"- results bit-identical across backends: {data['identical']}")
        return lines
    if name == "BENCH_distributed":
        return [
            f"- serial sweep: {_fmt_seconds(data['serial_s'])}; "
            f"distributed 1 worker: {_fmt_seconds(data['distributed_1w_s'])} "
            f"(wire overhead {data['overhead_1w']:+.1%})",
            f"- distributed 2 workers: {_fmt_seconds(data['distributed_2w_s'])} "
            f"({data['speedup_2w']:.2f}× vs serial on a "
            f"{data['cpu_count']}-CPU host)",
            f"- predictions bit-identical to serial: {data['identical']}",
        ]
    if name == "BENCH_kernels":
        lines = []
        for size, entry in data.items():
            speedup = entry.get("speedup", {}).get("combined")
            if speedup is not None:
                lines.append(
                    f"- {size}: vectorized pollute→detect→repair "
                    f"{speedup:.1f}× the reference kernels"
                )
        return lines
    if name == "BENCH_service_latency":
        idle = data.get("status_roundtrip_idle", {})
        busy = data.get("status_roundtrip_during_run", {})
        throughput = data.get("status_throughput", {})
        return [
            f"- status round-trip p50: {_fmt_seconds(idle['p50_s'])} idle, "
            f"{_fmt_seconds(busy['p50_s'])} during a run",
            f"- status throughput: {throughput['requests_per_s']:.0f} req/s "
            f"over {throughput['connections']} connections",
        ]
    if name == "BENCH_store":
        rehydrate = data.get("cold_rehydrate_s", {})
        return [
            f"- write-behind snapshot overhead: "
            f"{data['write_behind_overhead']:+.1%} per iteration "
            f"(inline writes: {data['inline_overhead']:+.1%})",
            f"- cold rehydration: {_fmt_seconds(rehydrate['best'])} for a "
            f"{data['checkpoint_bytes'] / 1024:.0f} KiB checkpoint; "
            f"flush drain {_fmt_seconds(data['flush_drain_s'])}",
        ]
    if name == "BENCH_cache":
        bounded = data.get("bounded_memory", {})
        cold = data.get("delta_reuse", {}).get("cold_sweep", {})
        at_budget = data["at_budget_put"]
        puts = at_budget["put_median_s"]
        return [
            f"- bounded memory: peak {bounded['peak_total_bytes'] / 1024:.0f} KiB "
            f"under a {bounded['budget_bytes'] / 1024:.0f} KiB budget "
            f"({bounded['evictions']} evictions; same workload unbounded: "
            f"{data['unbounded_reference_bytes'] / 1024:.0f} KiB)",
            f"- cold E1 sweep over fresh polluted states: "
            f"{cold['transform_hit_rate']:.0%} transform-layer hit rate "
            f"({cold['block_hits']} block hits, {cold['delta_hits']} delta patches)",
            f"- cached predictions bit-identical: "
            f"{data['delta_reuse']['identical_predictions']}",
            f"- at-budget put: {_fmt_seconds(puts['200'])} with 200 entries, "
            f"{_fmt_seconds(puts['20000'])} with 20000 "
            f"(ratio {at_budget['put_ratio']:.2f}); stats() at 20k entries "
            f"{_fmt_seconds(at_budget['stats_median_s_at_20k'])}",
        ]
    if name == "BENCH_frame_cow":
        token = data.get("signature_cost", {}).get("token", {})
        digest = data.get("signature_cost", {}).get("digest", {})
        lines = []
        if token and digest:
            lines.append(
                f"- signature cost on large frames: token "
                f"{_fmt_seconds(token['large_s'])} vs digest "
                f"{_fmt_seconds(digest['large_s'])}"
            )
        for key, entry in data.items():
            rate = entry.get("token", {}).get("fit_hit_rate")
            if rate is not None:
                lines.append(f"- {key}: fit-cache hit rate {rate:.0%}")
        return lines
    # Unknown benchmark: quote its first few numeric leaves verbatim.
    return [f"- {path}: {value:g}" for path, value in _walk(data)[:4]]


def render() -> str:
    sections = [HEADER]
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        sections.append(f"\n## {path.stem}\n")
        workload = data.get("workload")
        if workload:
            sections.append(f"Workload: {workload}\n")
        sections.append("\n".join(_headlines(path.stem, data)) + "\n")
    return "".join(sections)


def main(argv: list[str]) -> int:
    text = render()
    if "--check" in argv:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != text:
            print("BENCHMARKS.md is stale; run: python benchmarks/summarize.py")
            return 1
        print("BENCHMARKS.md is up to date")
        return 0
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
