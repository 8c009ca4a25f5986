"""Micro-benchmark: the shared eviction-aware cache under byte budgets.

Two measurements, written to ``benchmarks/results/BENCH_cache.json``:

1. *Bounded memory* — a multi-session sweep (several COMET sessions over
   differently-seeded pollutions of the same dataset) that previously
   grew the featurization/FD caches without limit. Under a byte budget
   the steady-state cache size must stay at or below the budget, with
   eviction — never an error — absorbing the pressure; the run also
   records how far the same workload grows with an effectively unbounded
   budget, which is the number the quota exists to cap.
2. *E1 pollution-delta reuse* — one cold ``estimate_many`` sweep over
   freshly polluted CleanML states. The whole-matrix memo never hits on
   a fresh state (every pollution mints new tokens), which used to mean
   a 0% transform-layer hit rate; the sub-frame block cache must lift
   that above zero (unchanged columns reuse blocks, polluted categorical
   columns masked-scatter-patch the base state's block) while the warm
   repeat of the same sweep confirms identical predictions and the
   speedup the reuse buys.
3. *At-budget put* — the median cost of a ``put`` that must evict, with
   about 200 and about 20k entries resident, while a floor-protected
   namespace holds the LRU head (the entry an eviction walk would have
   to step past), plus the cost of ``stats()`` at 20k entries. Eviction
   is O(#namespaces), so the 20k/200 ratio stays near 1; a walk over
   the entries would put it near 100.
"""

import json
import statistics
import time

from _helpers import RESULTS_DIR

from repro.cache import (
    DEFAULT_MAX_BYTES,
    KEY_OVERHEAD_BYTES,
    SharedCache,
    cache_stats,
    set_cache_budget,
    shared_cache,
)
from repro.core import CometConfig, CometEstimator
from repro.datasets import load_cleanml, load_dataset, pollute
from repro.detect import AlgorithmicCleaner, clear_fd_cache
from repro.errors import CategoricalShift, MissingValues
from repro.ml import clear_fit_cache, fit_cache_stats, make_classifier
from repro.session import CleaningSession

BUDGET_BYTES = 256 * 1024
N_SESSIONS = 3
#: Resident entry counts of the at-budget put row, and the largest
#: 20k/200 put-time ratio it accepts.
PUT_RESIDENTS = (200, 20_000)
MAX_PUT_RATIO = 4.0


def _run_session(seed: int) -> None:
    dataset = load_dataset("cmc", n_rows=150, rng=0)
    polluted = pollute(dataset, error_types=["missing"], rng=seed)
    session = CleaningSession.create(
        polluted,
        algorithm="lor",
        error_types=["missing"],
        budget=4.0,
        config=CometConfig(step=0.05),
        rng=0,
        cleaner=AlgorithmicCleaner(step=0.05, rng=0),
    )
    try:
        session.run()
    finally:
        session.close()


def _multi_session_bytes(budget: int) -> dict:
    """Peak/steady cache bytes across N differently-polluted sessions."""
    set_cache_budget(budget)
    clear_fit_cache()
    clear_fd_cache()
    peak = 0
    for seed in range(N_SESSIONS):
        _run_session(seed=seed)
        peak = max(peak, shared_cache().total_bytes())
    stats = cache_stats()
    return {
        "budget_bytes": budget,
        "sessions": N_SESSIONS,
        "peak_total_bytes": peak,
        "steady_state_bytes": stats["total_bytes"],
        "evictions": stats["evictions"],
        "namespaces": {
            ns: {k: entry[k] for k in ("bytes", "entries", "evictions")}
            for ns, entry in stats["namespaces"].items()
        },
    }


def _delta_reuse() -> dict:
    """Block/delta hit rates of one cold E1 sweep over fresh states."""
    polluted = load_cleanml("titanic", n_rows=160, rng=0)
    # Missing-value pollution shifts a column's fitted stats (imputation
    # mean, category set), which rules the stats-keyed base block out of
    # patching; categorical shifts stay inside the observed category set,
    # so those candidates exercise the masked-scatter delta path too.
    candidates = [
        (f, CategoricalShift() if polluted.train[f].is_categorical else MissingValues())
        for f in polluted.feature_names
    ]

    def sweep():
        estimator = CometEstimator(
            make_classifier("lor"),
            label=polluted.label,
            config=CometConfig(step=0.04, n_pollution_steps=2, n_combinations=1),
            rng=5,
        )
        start = time.perf_counter()
        predictions = estimator.estimate_many(
            polluted.train, polluted.test, candidates, 0.8
        )
        elapsed = time.perf_counter() - start
        return [p.predicted_f1 for p in predictions], elapsed

    clear_fit_cache()
    clear_fd_cache()
    fit_cache_stats(reset=True)
    cold_preds, cold_s = sweep()
    cold = fit_cache_stats(reset=True)
    warm_preds, warm_s = sweep()
    warm = fit_cache_stats(reset=True)

    def rates(stats):
        blocks = stats["block_hits"] + stats["block_misses"]
        matrix = stats["transform_hits"] + stats["transform_misses"]
        served = stats["transform_hits"] + stats["block_hits"]
        lookups = matrix + blocks
        return {
            **stats,
            "block_hit_rate": stats["block_hits"] / blocks if blocks else 0.0,
            "matrix_hit_rate": stats["transform_hits"] / matrix if matrix else 0.0,
            # The acceptance number: transform-layer work served from
            # cache (matrix or block) over all transform-layer lookups.
            "transform_hit_rate": served / lookups if lookups else 0.0,
        }

    return {
        "cold_sweep": {**rates(cold), "elapsed_s": cold_s},
        "warm_sweep": {**rates(warm), "elapsed_s": warm_s},
        "warm_speedup": cold_s / warm_s if warm_s else None,
        "identical_predictions": cold_preds == warm_preds,
    }


def _at_budget_put_timing(residents: int) -> dict:
    """Median per-put seconds when every put evicts one entry.

    A private cache is filled to exactly its budget: first a
    floor-protected namespace (which therefore holds the LRU head), then
    ``residents`` zero-payload entries of a second namespace. Each timed
    put adds a fresh key to the second namespace and so evicts its
    oldest entry, stepping past the protected head.
    """
    protected = 8
    cache = SharedCache(max_bytes=(protected + residents) * KEY_OVERHEAD_BYTES)
    cache.register("protected", floor_bytes=protected * KEY_OVERHEAD_BYTES)
    for i in range(protected):
        cache.put("protected", i, i, nbytes=0)
    for i in range(residents):
        cache.put("churn", i, i, nbytes=0)
    batch, batches = 20, 300
    per_put = []
    key = residents
    for __ in range(batches):
        start = time.perf_counter()
        for __ in range(batch):
            cache.put("churn", key, key, nbytes=0)
            key += 1
        per_put.append((time.perf_counter() - start) / batch)
    stats_s = []
    for __ in range(50):
        start = time.perf_counter()
        stats = cache.stats()
        stats_s.append(time.perf_counter() - start)
    assert stats["entries"] == protected + residents
    assert stats["namespaces"]["protected"]["evictions"] == 0
    return {
        "residents": residents,
        "put_median_s": statistics.median(per_put),
        "stats_median_s": statistics.median(stats_s),
    }


def _at_budget_put() -> dict:
    small, large = (_at_budget_put_timing(n) for n in PUT_RESIDENTS)
    return {
        "put_median_s": {
            str(small["residents"]): small["put_median_s"],
            str(large["residents"]): large["put_median_s"],
        },
        "put_ratio": large["put_median_s"] / small["put_median_s"],
        "stats_median_s_at_20k": large["stats_median_s"],
    }


def test_cache(benchmark):
    def run():
        try:
            bounded = _multi_session_bytes(BUDGET_BYTES)
            unbounded = _multi_session_bytes(DEFAULT_MAX_BYTES)
            set_cache_budget(DEFAULT_MAX_BYTES)
            clear_fit_cache()
            clear_fd_cache()
            delta = _delta_reuse()
            at_budget = _at_budget_put()
        finally:
            set_cache_budget(DEFAULT_MAX_BYTES)
            clear_fit_cache()
            clear_fd_cache()
        return {
            "workload": (
                f"{N_SESSIONS} COMET sessions (cmc/lor, distinct pollutions) "
                f"under a {BUDGET_BYTES // 1024} KiB budget; one E1 sweep "
                "(titanic/lor) cold vs warm"
            ),
            "bounded_memory": bounded,
            "unbounded_reference_bytes": unbounded["peak_total_bytes"],
            "delta_reuse": delta,
            "at_budget_put": at_budget,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_cache.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    print(f"\n{json.dumps(results, indent=2)}")

    bounded = results["bounded_memory"]
    # (a) Bounded memory: the budget is a hard bound at every boundary
    # the benchmark observes, and the same workload demonstrably wants
    # more than the budget (otherwise this asserts nothing).
    assert bounded["peak_total_bytes"] <= bounded["budget_bytes"]
    assert bounded["steady_state_bytes"] <= bounded["budget_bytes"]
    assert bounded["evictions"] > 0
    assert results["unbounded_reference_bytes"] > bounded["budget_bytes"]

    delta = results["delta_reuse"]
    # (b) E1 pollution-delta reuse: fresh polluted states must be served
    # partly from cache (was exactly 0 before the block layer)...
    assert delta["cold_sweep"]["transform_hit_rate"] > 0.0
    assert delta["cold_sweep"]["block_hits"] > 0
    assert delta["cold_sweep"]["delta_hits"] > 0
    # ...without changing a single prediction.
    assert delta["identical_predictions"]

    # (c) Eviction cost does not grow with the resident entry count.
    assert results["at_budget_put"]["put_ratio"] <= MAX_PUT_RATIO
