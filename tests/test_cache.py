"""The shared eviction-aware cache layer (``repro.cache``).

Three contracts:

* **Accounting** — entries are charged payload bytes + key overhead,
  per-namespace and total byte counters track puts/evictions exactly,
  and the budget is a *hard* bound (floors are best-effort). The
  per-namespace LRU evicts in exactly the order of the former single
  global LRU walked in two passes (floors first, then pure LRU): a
  test-only model of that walk is driven side by side with
  :class:`SharedCache` over random operation sequences, and every
  ``get`` and ``stats()`` must agree.
* **Equivalence** — caching and eviction never change results: session
  traces are bit-identical under a generous budget, a starvation-level
  budget (every put evicts something), and a cold cache, in both kernel
  modes; and the sub-frame block/delta memo returns matrices
  bit-identical to the uncached transform path.
* **Reuse** — the block cache pays on *fresh* polluted states (the E1
  sweep pattern the whole-matrix memo never hits): unchanged columns
  hit shared blocks, polluted categorical columns patch the base
  state's block via row lineage.
"""

import random
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache import (
    _ADMISSION_FRACTION,
    DEFAULT_MAX_BYTES,
    KEY_OVERHEAD_BYTES,
    SharedCache,
    cache_stats,
    clear_shared_cache,
    set_cache_budget,
    shared_cache,
)
from repro.core import CometConfig
from repro.datasets import load_dataset, pollute
from repro.detect import AlgorithmicCleaner, clear_fd_cache
from repro.frame import Column, DataFrame
from repro.kernels import use_kernels
from repro.ml import clear_fit_cache, fit_cache_stats
from repro.ml.preprocessing import TabularPreprocessor
from repro.session import CleaningSession


@pytest.fixture(autouse=True)
def _pristine_shared_cache():
    """Every test starts cold and leaves the default budget behind."""
    clear_fit_cache()
    clear_fd_cache()
    yield
    set_cache_budget(DEFAULT_MAX_BYTES)
    clear_fit_cache()
    clear_fd_cache()


def _array(n_bytes: int) -> np.ndarray:
    return np.zeros(n_bytes // 8, dtype=np.float64)


# --------------------------------------------------------------------- #
# SharedCache unit behavior (private instances, not the global one)
# --------------------------------------------------------------------- #
class TestSharedCacheAccounting:
    def test_bytes_charged_with_key_overhead(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("ns", "k", _array(1024), nbytes=1024)
        assert cache.total_bytes() == 1024 + KEY_OVERHEAD_BYTES
        stats = cache.stats("ns")
        assert stats["bytes"] == 1024 + KEY_OVERHEAD_BYTES
        assert stats["entries"] == 1 and stats["puts"] == 1

    def test_replacing_a_key_releases_the_old_charge(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("ns", "k", _array(4096), nbytes=4096)
        cache.put("ns", "k", _array(512), nbytes=512)
        assert cache.total_bytes() == 512 + KEY_OVERHEAD_BYTES
        assert cache.stats("ns")["entries"] == 1

    def test_hit_miss_counters(self):
        cache = SharedCache(max_bytes=1 << 20)
        assert cache.get("ns", "absent") is None
        cache.put("ns", "k", _array(64), nbytes=64)
        assert cache.get("ns", "k") is not None
        stats = cache.stats("ns")
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_budget_is_a_hard_bound_under_lru_eviction(self):
        cache = SharedCache(max_bytes=16 * 1024)
        for i in range(32):
            cache.put("ns", i, _array(1024), nbytes=1024)
            assert cache.total_bytes() <= 16 * 1024
        stats = cache.stats("ns")
        assert stats["evictions"] > 0
        # The survivors are the most recently used keys.
        assert cache.get("ns", 31) is not None
        assert cache.get("ns", 0) is None

    def test_get_refreshes_lru_position(self):
        cost = 1024 + KEY_OVERHEAD_BYTES
        cache = SharedCache(max_bytes=8 * cost)  # exactly 8 entries fit
        for i in range(8):
            cache.put("ns", i, _array(1024), nbytes=1024)
        assert cache.get("ns", 0) is not None  # refresh the oldest
        cache.put("ns", 8, _array(1024), nbytes=1024)
        assert cache.get("ns", 0) is not None  # survived: 1 was evicted
        assert cache.get("ns", 1) is None

    def test_floors_shield_a_namespace_from_foreign_pressure(self):
        cache = SharedCache(max_bytes=8 * 1024)
        floor = 2 * (512 + KEY_OVERHEAD_BYTES)
        cache.register("small", floor_bytes=floor)
        cache.put("small", "a", _array(512), nbytes=512)
        cache.put("small", "b", _array(512), nbytes=512)
        for i in range(64):
            cache.put("big", i, _array(1024), nbytes=1024)
        # "small" sits at its floor and survived the LRU sweep entirely.
        assert cache.get("small", "a") is not None
        assert cache.get("small", "b") is not None
        assert cache.total_bytes() <= 8 * 1024

    def test_floors_yield_when_the_budget_demands_it(self):
        cache = SharedCache(max_bytes=2 * 1024)
        cache.register("ns", floor_bytes=1 << 20)  # floor above the budget
        for i in range(8):
            cache.put("ns", i, _array(512), nbytes=512)
        # Second-pass eviction ignored the floor: hard bound holds.
        assert cache.total_bytes() <= 2 * 1024

    def test_oversized_entries_are_rejected_not_cached(self):
        cache = SharedCache(max_bytes=8 * 1024)
        admitted = cache.put("ns", "huge", _array(4 * 1024), nbytes=4 * 1024)
        assert not admitted
        assert cache.get("ns", "huge") is None
        assert cache.stats("ns")["rejected"] == 1
        assert cache.total_bytes() == 0

    def test_shrinking_the_budget_evicts_immediately(self):
        cache = SharedCache(max_bytes=1 << 20)
        for i in range(16):
            cache.put("ns", i, _array(1024), nbytes=1024)
        cache.configure(max_bytes=4 * 1024)
        assert cache.total_bytes() <= 4 * 1024
        assert cache.max_bytes == 4 * 1024

    def test_clear_one_namespace_leaves_the_rest(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("a", 1, _array(64), nbytes=64)
        cache.put("b", 1, _array(64), nbytes=64)
        cache.clear("a")
        assert cache.get("a", 1) is None
        assert cache.get("b", 1) is not None
        assert cache.stats("a")["bytes"] == 0

    def test_global_stats_shape(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("ns", 1, _array(64), nbytes=64)
        stats = cache.stats()
        assert stats["max_bytes"] == 1 << 20
        assert stats["entries"] == 1
        assert set(stats["namespaces"]["ns"]) >= {
            "hits", "misses", "puts", "evictions", "rejected",
            "bytes", "entries", "floor_bytes",
        }

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            SharedCache(max_bytes=0)
        with pytest.raises(ValueError):
            SharedCache(max_bytes=1024).configure(max_bytes=-1)
        with pytest.raises(ValueError):
            SharedCache(max_bytes=1024).register("ns", floor_bytes=-1)


class TestReadOnlyLookupsDoNotRegister:
    def test_stats_of_an_unknown_namespace_is_zeroed_and_unregistered(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.register("known", floor_bytes=1024)
        typo = cache.stats("typo")
        assert typo == {
            "hits": 0, "misses": 0, "puts": 0, "evictions": 0,
            "rejected": 0, "bytes": 0, "entries": 0, "floor_bytes": 0,
        }
        assert set(cache.stats()["namespaces"]) == {"known"}

    def test_clearing_an_unknown_namespace_does_not_register_it(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.clear("typo")
        cache.clear("typo", counters=False)
        assert cache.stats()["namespaces"] == {}

    def test_status_payload_ignores_stats_lookups_of_unknown_namespaces(self):
        shared_cache().stats("no-such-namespace")
        assert "no-such-namespace" not in cache_stats()["namespaces"]


# --------------------------------------------------------------------- #
# Differential: per-namespace LRU vs the former global two-pass walk
# --------------------------------------------------------------------- #
class _GlobalWalkModel:
    """Reference model: one global LRU over ``(namespace, key)`` and the
    two-pass eviction walk (skip namespaces at/below their floor, then
    pure LRU) that :class:`SharedCache` replaced. Kept only to pin the
    eviction order; it walks every entry on every over-budget put."""

    def __init__(self, max_bytes: int) -> None:
        self.entries: OrderedDict = OrderedDict()
        self.max_bytes = max_bytes
        self.floors: dict[str, int] = {}
        self.counters: dict[str, dict[str, int]] = {}
        self.total = 0

    def _ns(self, namespace):
        self.floors.setdefault(namespace, 0)
        return self.counters.setdefault(namespace, {
            "hits": 0, "misses": 0, "puts": 0, "evictions": 0,
            "rejected": 0, "bytes": 0, "entries": 0,
        })

    def _charge(self, namespace, delta):
        self._ns(namespace)["bytes"] += delta
        self.total += delta

    def register(self, namespace, floor_bytes):
        self._ns(namespace)
        self.floors[namespace] = max(self.floors[namespace], floor_bytes)

    def configure(self, max_bytes=None, floors=None):
        if max_bytes is not None:
            self.max_bytes = max_bytes
        for namespace, floor in (floors or {}).items():
            self._ns(namespace)
            self.floors[namespace] = floor
        self._evict_to_budget()

    def get(self, namespace, key):
        counters = self._ns(namespace)
        entry = self.entries.get((namespace, key))
        if entry is None:
            counters["misses"] += 1
            return None
        self.entries.move_to_end((namespace, key))
        counters["hits"] += 1
        return entry[0]

    def put(self, namespace, key, value, nbytes):
        cost = nbytes + KEY_OVERHEAD_BYTES
        counters = self._ns(namespace)
        if cost > max(self.max_bytes // _ADMISSION_FRACTION, 1):
            counters["rejected"] += 1
            return False
        existing = self.entries.get((namespace, key))
        if existing is not None:
            self._charge(namespace, -existing[1])
        self.entries[(namespace, key)] = (value, cost)
        self.entries.move_to_end((namespace, key))
        self._charge(namespace, cost)
        counters["puts"] += 1
        self._evict_to_budget()
        return True

    def clear(self, namespace=None, counters=True):
        if namespace is not None and namespace not in self.counters:
            return
        for full_key in [
            k for k in self.entries if namespace in (None, k[0])
        ]:
            self._charge(full_key[0], -self.entries.pop(full_key)[1])
        if counters:
            for ns in self.counters:
                if namespace in (None, ns):
                    self.counters[ns] = {
                        k: 0 for k in self.counters[ns]
                    }

    def stats(self):
        namespaces = {}
        for ns in sorted(self.counters):
            entry = dict(self.counters[ns])
            entry["entries"] = sum(1 for k in self.entries if k[0] == ns)
            entry["floor_bytes"] = self.floors[ns]
            namespaces[ns] = entry
        return {
            "max_bytes": self.max_bytes,
            "total_bytes": self.total,
            "entries": len(self.entries),
            "evictions": sum(c["evictions"] for c in self.counters.values()),
            "namespaces": namespaces,
        }

    def _evict_to_budget(self):
        if self.total <= self.max_bytes:
            return
        for full_key in list(self.entries):
            if self.total <= self.max_bytes:
                return
            namespace = full_key[0]
            if self.counters[namespace]["bytes"] <= self.floors[namespace]:
                continue
            self._evict_one(full_key)
        for full_key in list(self.entries):
            if self.total <= self.max_bytes:
                return
            self._evict_one(full_key)

    def _evict_one(self, full_key):
        __, cost = self.entries.pop(full_key)
        self._charge(full_key[0], -cost)
        self.counters[full_key[0]]["evictions"] += 1


#: Budget for the differential runs: ~10-40 entries resident, so most
#: puts evict and floors bind; admission cap is budget / 8.
_DIFF_BUDGET = 16 * 1024
#: Mixed floors: none, small, about a fifth of the budget, above it.
#: ``"late"`` is never registered up front — first use registers it.
_DIFF_FLOORS = {"plain": 0, "small": 1024, "mid": 3 * 1024, "huge": 1 << 20}
_DIFF_NAMESPACES = sorted(_DIFF_FLOORS) + ["late"]


def _paired_caches():
    cache = SharedCache(max_bytes=_DIFF_BUDGET)
    model = _GlobalWalkModel(max_bytes=_DIFF_BUDGET)
    for namespace, floor in _DIFF_FLOORS.items():
        cache.register(namespace, floor_bytes=floor)
        model.register(namespace, floor)
    return cache, model


def _drive_random_sequence(seed: int, n_ops: int) -> None:
    rng = random.Random(seed)
    cache, model = _paired_caches()
    for op in range(n_ops):
        namespace = rng.choice(_DIFF_NAMESPACES)
        key = rng.randrange(24)  # small key pool: re-puts and hits
        roll = rng.random()
        if roll < 0.45:
            # Up to 3 KiB payloads: above the 2 KiB admission cap at the
            # default budget, so some puts are rejected.
            nbytes = rng.choice([0, 64, 512, 1024, 1536, 3072])
            assert cache.put(namespace, key, op, nbytes=nbytes) == model.put(
                namespace, key, op, nbytes
            )
        elif roll < 0.85:
            assert cache.get(namespace, key) == model.get(namespace, key)
        elif roll < 0.90:
            cache.clear(namespace, counters=False)
            model.clear(namespace, counters=False)
        elif roll < 0.95:
            budget = rng.choice([2048, 6 * 1024, _DIFF_BUDGET, 48 * 1024])
            cache.configure(max_bytes=budget)
            model.configure(max_bytes=budget)
        else:
            floors = {namespace: rng.choice([0, 512, 2048, 8 * 1024])}
            cache.configure(floors=floors)
            model.configure(floors=floors)
        assert cache.stats() == model.stats(), (seed, op)
        assert cache.total_bytes() <= cache.max_bytes


class TestEvictionOrderMatchesGlobalWalk:
    @pytest.mark.parametrize("seed", range(300))
    def test_random_sequences_agree_with_the_model(self, seed):
        _drive_random_sequence(seed, n_ops=2000)

    def test_floor_protected_head_is_skipped_then_yields(self):
        cache, model = _paired_caches()
        # "small" holds the LRU head at its floor; "plain" pressure must
        # evict around it, then a budget below the floor forces it out.
        for c in (cache, model):
            c.put("small", "head", "h", 512)
            for i in range(40):
                c.put("plain", i, i, 1024)
        assert cache.get("small", "head") == model.get("small", "head") == "h"
        assert cache.stats() == model.stats()
        cache.configure(max_bytes=512)
        model.configure(max_bytes=512)
        assert cache.stats() == model.stats()
        assert cache.stats()["entries"] == 0


class _CacheVersusModel(RuleBasedStateMachine):
    """Hypothesis-chosen operation sequences against the same model."""

    def __init__(self) -> None:
        super().__init__()
        self.cache, self.model = _paired_caches()
        self.value = 0

    @rule(
        namespace=st.sampled_from(_DIFF_NAMESPACES),
        key=st.integers(0, 12),
        nbytes=st.sampled_from([0, 256, 1024, 3072]),
    )
    def put(self, namespace, key, nbytes):
        self.value += 1
        assert self.cache.put(
            namespace, key, self.value, nbytes=nbytes
        ) == self.model.put(namespace, key, self.value, nbytes)

    @rule(namespace=st.sampled_from(_DIFF_NAMESPACES), key=st.integers(0, 12))
    def get(self, namespace, key):
        assert self.cache.get(namespace, key) == self.model.get(namespace, key)

    @rule(
        namespace=st.sampled_from(_DIFF_NAMESPACES + [None]),
        counters=st.booleans(),
    )
    def clear(self, namespace, counters):
        self.cache.clear(namespace, counters=counters)
        self.model.clear(namespace, counters=counters)

    @rule(
        budget=st.sampled_from([2048, 6 * 1024, _DIFF_BUDGET]),
        namespace=st.sampled_from(_DIFF_NAMESPACES),
        floor=st.sampled_from([0, 512, 4096]),
    )
    def configure(self, budget, namespace, floor):
        self.cache.configure(max_bytes=budget, floors={namespace: floor})
        self.model.configure(max_bytes=budget, floors={namespace: floor})

    @invariant()
    def stats_agree(self):
        assert self.cache.stats() == self.model.stats()


TestCacheVersusModel = _CacheVersusModel.TestCase
TestCacheVersusModel.settings = settings(
    max_examples=50, stateful_step_count=60, deadline=None
)


class TestModuleSingleton:
    def test_set_cache_budget_governs_the_shared_instance(self):
        set_cache_budget(32 * 1024)
        assert shared_cache().max_bytes == 32 * 1024
        assert cache_stats()["max_bytes"] == 32 * 1024

    def test_featurization_namespaces_are_registered(self):
        assert {"fit", "transform", "blocks", "fd"} <= set(
            cache_stats()["namespaces"]
        )

    def test_clear_shared_cache_drops_everything(self):
        shared_cache().put("fit", b"probe", (1.0, 2.0, 3.0), nbytes=24)
        clear_shared_cache()
        assert cache_stats()["total_bytes"] == 0


# --------------------------------------------------------------------- #
# Sub-frame memoization: bit-identical to the uncached transform path
# --------------------------------------------------------------------- #
def _feature_frame(n=160, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return DataFrame([
        Column("x", rng.normal(size=n)),
        Column("y", rng.normal(size=n)),
        Column("c", rng.choice(["a", "b", "c"], size=n).astype(object)),
        Column("d", rng.choice(["p", "q"], size=n).astype(object)),
    ])


class TestBlockEquivalence:
    NAMES = ["x", "y", "c", "d"]

    def _assert_equivalent(self, frame):
        cached = TabularPreprocessor(self.NAMES).fit(frame).transform(frame)
        uncached = (
            TabularPreprocessor(self.NAMES, cache=False)
            .fit(frame)
            .transform(frame)
        )
        assert np.array_equal(cached, uncached)

    def test_fresh_polluted_states_transform_bit_identically(self):
        base = _feature_frame()
        # Warm the cache with the base state, then pollute each column
        # kind in turn — categorical rewrites, numeric rewrites, missing.
        TabularPreprocessor(self.NAMES).fit(base).transform(base)
        polluted = [
            DataFrame([base["x"], base["y"],
                       base["c"].with_values([3, 11], ["b", "a"]), base["d"]]),
            DataFrame([base["x"].with_values([5], [42.0]), base["y"],
                       base["c"], base["d"]]),
            DataFrame([base["x"].with_missing([0, 7]), base["y"],
                       base["c"].with_missing([2]), base["d"]]),
        ]
        for frame in polluted:
            self._assert_equivalent(frame)
        stats = fit_cache_stats()
        assert stats["block_hits"] > 0  # unchanged columns reused blocks
        assert stats["delta_hits"] > 0  # polluted columns patched bases

    def test_delta_patch_equals_full_recompute_exactly(self):
        base = _feature_frame()
        pre = TabularPreprocessor(self.NAMES).fit(base)
        pre.transform(base)
        state = DataFrame([base["x"], base["y"],
                           base["c"].with_values([1, 4, 9], ["c", "c", "a"]),
                           base["d"]])
        # Same fitted stats → the categorical block comes from a patch.
        patched = TabularPreprocessor(self.NAMES).fit(base).transform(state)
        assert fit_cache_stats()["delta_hits"] > 0
        full = (
            TabularPreprocessor(self.NAMES, cache=False)
            .fit(base)
            .transform(state)
        )
        assert np.array_equal(patched, full)

    def test_replayed_pollution_hits_without_token_equality(self):
        base = _feature_frame()
        first = DataFrame([base["x"], base["y"],
                           base["c"].with_values([3], ["b"]), base["d"]])
        TabularPreprocessor(self.NAMES).fit(first).transform(first)
        before = fit_cache_stats()
        # Re-derive the identical pollution: fresh tokens, same delta
        # signature → whole-matrix and fit lookups hit.
        replay = DataFrame([base["x"], base["y"],
                            base["c"].with_values([3], ["b"]), base["d"]])
        TabularPreprocessor(self.NAMES).fit(replay).transform(replay)
        after = fit_cache_stats()
        assert after["hits"] >= before["hits"] + 4
        assert after["transform_hits"] >= before["transform_hits"] + 1

    def test_eviction_thrash_stays_bit_identical(self):
        # A budget so small every put evicts something: correctness must
        # not depend on anything surviving.
        set_cache_budget(4 * 1024)
        base = _feature_frame()
        states = [base] + [
            DataFrame([base["x"], base["y"],
                       base["c"].with_values([i], ["a"]), base["d"]])
            for i in range(4)
        ]
        for frame in states:
            self._assert_equivalent(frame)
        assert cache_stats()["total_bytes"] <= 4 * 1024


# --------------------------------------------------------------------- #
# Whole-session equivalence: budgets and kernel modes never change traces
# --------------------------------------------------------------------- #
def _session_trace(seed=3):
    dataset = load_dataset("cmc", n_rows=120, rng=0)
    polluted = pollute(dataset, error_types=["missing"], rng=seed)
    session = CleaningSession.create(
        polluted,
        algorithm="lor",
        error_types=["missing"],
        budget=3.0,
        config=CometConfig(step=0.05),
        rng=0,
        cleaner=AlgorithmicCleaner(step=0.05, rng=0),
    )
    try:
        return session.run()
    finally:
        session.close()


class TestSessionEquivalence:
    @pytest.mark.parametrize("mode", ["vectorized", "reference"])
    def test_traces_identical_across_budgets(self, mode):
        with use_kernels(mode):
            clear_fit_cache()
            clear_fd_cache()
            baseline = _session_trace()
            # Warm shared cache (second run leans on the first run's
            # entries as another tenant would).
            warm = _session_trace()
            # Starvation budget: eviction on nearly every put.
            set_cache_budget(16 * 1024)
            clear_fit_cache()
            clear_fd_cache()
            starved = _session_trace()
            assert warm == baseline
            assert starved == baseline

    def test_bounded_memory_under_budget(self):
        set_cache_budget(64 * 1024)
        for seed in (1, 2, 3):
            _session_trace(seed=seed)
            assert cache_stats()["total_bytes"] <= 64 * 1024
        assert cache_stats()["evictions"] > 0

    def test_sweep_reuses_featurization_on_fresh_states(self):
        clear_fit_cache()
        _session_trace()
        stats = fit_cache_stats()
        # Every polluted candidate state is fresh (new tokens), yet the
        # block layer reuses unchanged columns' featurization.
        assert stats["block_hits"] > 0
        blocks = cache_stats()["namespaces"]["blocks"]
        assert blocks["hits"] > 0
