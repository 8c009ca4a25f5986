"""The benchmark's workloads and the inputs each one generates from a seed.

Every run of every workload has a sessions and a restart phase, so each
reports every registered end-to-end metric; ``interactive`` also runs
the ladder, whose figures are printed but not registered. The workload
decides how the server is configured:

- *sessions* (closed loop, ``--seconds`` long): clients drive sessions
  through create -> ``recommend k=3`` -> ``step`` until finished ->
  ``status`` [-> close]. Gives ``step_p50_ms``, ``step_p90_ms``,
  ``iterations_per_s`` and ``f1_gain_pp``.
- *ladder* (open loop): ``status`` at a reference rate, then at doubling
  rates from two connections. Gives ``status_p50_ms`` (and the printed
  ``status_p99_ms``) at the reference rate and ``status_max_rps``.
- *restart*: graceful restarts, then the first verb on each kept
  session. Gives ``rehydrate_p50_ms``.

``f1_gain_pp`` is taken over each workload's fixed *quality pool* of
sessions, which every run completes whatever its speed, dealt to the
clients in a fixed order, so the figure is the same on every seed:
measured on 20 interactive sessions, the per-session gain had a
standard deviation (5.2 pp) above its mean (3.1 pp), so a seed-drawn
list would need more than 80 sessions to hold a 25 % bound. The
sessions after the pool follow the scenario rotation in a fixed order;
their data seeds, the ladder's request mix, which requests use a fresh
connection, and which transcripts are checked are drawn from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loadgen import Planned, SessionSpec


#: Share of ladder requests sent on a fresh connection (connect + TLS +
#: HMAC auth), at most one at a time.
RECONNECT_SHARE = 0.005


@dataclass(frozen=True)
class Scenario:
    """One session shape: what ``create`` receives, minus the data seed."""

    dataset: str
    algorithm: str
    error: str
    rows: int
    budget: float
    step: float
    cleanml: bool = False

    def params(self, seed: int) -> dict:
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "errors": [self.error],
            "rows": self.rows,
            "budget": self.budget,
            "step": self.step,
            "seed": int(seed),
            "cleanml": self.cleanml,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Extra ``serve`` flags; ``{state_dir}`` is filled per server.
    serve_args: tuple
    #: Serve over TLS with a shared token.
    secured: bool
    #: Sessions rotate through these (gb and mlp are left out: one gb
    #: step took 14 s on a probe and swamped every percentile).
    rotation: tuple
    #: (scenario index, data seed) pairs of the quality pool.
    pool: tuple
    clients: int
    #: Run the ``status`` ladder: first, on a server that has computed
    #: nothing, climbing to LADDER_MAX_RPS.
    ladder: bool
    #: Cheap sessions created during set-up and left idle.
    idle_sessions: int = 0
    #: Restart kind: "store" (``--state-dir`` lazy rehydration) or
    #: "checkpoint" (the ``checkpoint`` verb, then ``create`` from it).
    restart: str = "checkpoint"
    #: Ladder: share of service-level (rather than per-session) ``status``.
    #: The ladder runs on a cold server: with a warm cache one
    #: service-level ``status`` walks every cache entry (p50 9.8 ms,
    #: p99 24 ms at 8.5k entries, in-process), which no rung could pass.
    service_share: float = 0.0
    #: Seed-chosen transcripts compared with the in-process reference.
    checked_sessions: int = 4


_CHEAP = (
    Scenario("cmc", "svm", "missing", 300, 10, 0.02),
    Scenario("churn", "knn", "categorical", 300, 10, 0.02),
    Scenario("s-credit", "lor", "noise", 300, 10, 0.02),
    Scenario("titanic", "lor", "missing", 300, 10, 0.02, cleanml=True),
    Scenario("cmc", "knn", "scaling", 300, 10, 0.02),
)

#: Sized so both take about as long a step: at 2000 credit rows its
#: steps took a third of churn's, and the step median fell in the gap
#: between the two (10-run spread 0.31 of the median).
_LARGE = (
    Scenario("churn", "lor", "missing", 1000, 5, 0.02),
    Scenario("credit", "lor", "scaling", 8000, 5, 0.02, cleanml=True),
)

WORKLOADS = {
    "interactive": Workload(
        name="interactive",
        why=(
            "The main user path and the control plane of one secured "
            "serial server (TLS + token, 50 idle sessions). The ladder "
            "runs first, on a server that has computed nothing, so "
            "service.transport, security and service dispatch do all its "
            "work; then two closed-loop clients step cheap ~300-row "
            "sessions, where the E1 sweep (core.estimator -> errors -> ml "
            "+ ml.preprocessing -> cache) does almost all the work and "
            "transport, store and runtime almost none."
        ),
        serve_args=("--backend", "serial", "--workers", "2"),
        secured=True,
        rotation=_CHEAP,
        pool=tuple((i, s) for s in (1, 2) for i in range(len(_CHEAP))),
        clients=2,
        ladder=True,
        idle_sessions=50,
        service_share=0.5,
        checked_sessions=3,
    ),
    "durable": Workload(
        name="durable",
        why=(
            "The same estimator path on frames of 1000-8000 rows, served "
            "by the distributed backend with a state dir and a starved "
            "4 MiB cache: the work shifts to runtime/runtime.wire "
            "(pickled task payloads), store (MB-scale checkpoints every "
            "iteration), cache eviction and errors pollution at scale; "
            "graceful restarts measure lazy rehydration."
        ),
        serve_args=(
            "--backend", "distributed", "--jobs", "2", "--workers", "1",
            "--max-cache-bytes", str(4 << 20), "--state-dir", "{state_dir}",
        ),
        secured=False,
        rotation=_LARGE,
        pool=((0, 1), (1, 1)),
        clients=1,
        ladder=False,
        restart="store",
        checked_sessions=2,
    ),
}


def session_plans(workload: Workload, rng: np.random.Generator) -> list[list[SessionSpec]]:
    """Per-client session lists: the quality pool dealt in a fixed order,
    then sessions rotating through the scenarios in a fixed order with
    seed-drawn data seeds - so the scenario mix of every step count, and
    how the clients overlap, is the same on every seed."""
    pool = workload.pool
    # A store restart rehydrates every session left open; a checkpoint
    # restart runs before the sessions and restores the idle ones.
    keep = workload.restart == "store"
    plans: list[list[SessionSpec]] = [[] for _ in range(workload.clients)]
    for k, (index, data_seed) in enumerate(pool):
        plans[k % workload.clients].append(
            SessionSpec(
                name=f"q{k}",
                params=workload.rotation[index].params(data_seed),
                required=True,
                keep=keep,
            )
        )
    for c, plan in enumerate(plans):
        for k in range(200):
            scenario = workload.rotation[(k * workload.clients + c) % len(workload.rotation)]
            plan.append(
                SessionSpec(
                    name=f"c{c}-{k}",
                    params=scenario.params(int(rng.integers(10, 10**6))),
                    keep=keep,
                )
            )
    return plans


def idle_specs(workload: Workload, rng: np.random.Generator) -> list[SessionSpec]:
    """The idle sessions of the control plane (created, never stepped)."""
    return [
        SessionSpec(
            name=f"idle{k}",
            params=workload.rotation[k % len(workload.rotation)].params(
                int(rng.integers(10, 10**6))
            ),
        )
        for k in range(workload.idle_sessions)
    ]


def ladder_plan(
    rng: np.random.Generator,
    rate: float,
    seconds: float,
    sessions: dict,
    service_share: float,
):
    """A rung's schedule builder: a seed-drawn mix of service-level and
    per-session ``status``, a seed-drawn share on fresh connections.

    ``sessions`` maps name -> the status fields its reply must carry.
    """
    n = max(1, int(round(rate * seconds)))
    names = sorted(sessions)
    kinds = rng.random(n) < service_share
    picks = rng.integers(0, len(names), size=n)
    # An exact count, so the handshakes' share of the tail is the same
    # in every rung of every run.
    reconnect = np.zeros(n, dtype=bool)
    reconnect[rng.choice(n, size=max(1, round(n * RECONNECT_SHARE)), replace=False)] = True

    service = b'{"action": "status"}\n'
    per_session = {
        name: f'{{"action": "status", "name": "{name}"}}\n'.encode() for name in names
    }

    def build(start: float) -> list[Planned]:
        plan = []
        for i in range(n):
            if kinds[i]:
                payload, expect = service, len(names)
            else:
                name = names[picks[i]]
                payload, expect = per_session[name], sessions[name]
            plan.append(Planned(start + i / rate, payload, bool(reconnect[i]), expect))
        return plan

    return build
