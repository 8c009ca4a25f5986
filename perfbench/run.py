"""The repository benchmark: drive a real ``python -m repro serve`` process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --selftest

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then through the traced
launcher (``traced_server.py``), prints the tracing overhead, and
reports every per-layer metric. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every output check passed.

The workloads, their phases and why each exists are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.require_source()
sys.path.insert(0, str(harness.SRC))
os.environ.update(harness.PINNED_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import loadgen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, idle_specs, ladder_plan, session_plans  # noqa: E402

#: ``status`` p99 limit of the ladder. Loopback round trips here stall
#: for 10-30 ms now and then even against a trivial echo server, and a
#: fresh TLS connection to the server stalls about 50 ms (its replies
#: wait on delayed ACKs), holding up other requests for part of that;
#: the limit sits above both, so rungs fail where the queue grows.
LATENCY_LIMIT_S = 0.100
#: A rung whose generator ran later than this (p99) is not reported.
GENERATOR_LATE_LIMIT_S = 0.020
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2
#: Graceful restarts per run, and how long after each the first verbs
#: on the kept sessions are spread over: the CPU speed here swings by a
#: third from one second to the next, so samples are spread out in time
#: and ``rehydrate_p50_ms`` is the median of all of them.
RESTARTS = 2
REHYDRATE_SPREAD_S = 1.0
#: Ladder: rates double from the reference rate up to this top, each
#: rung lasting RUNG_S (fixed, so ``--seconds`` lengthens only the
#: sessions phase).
LADDER_MAX_RPS = 16000.0
RUNG_S = 1.5
SATURATION_S = 3.0
MIN_RUNG_REQUESTS = 100
#: The reference rung, well below every workload's capacity:
#: ``status_p50_ms``/``status_p99_ms`` are read here (p99 has twenty
#: samples beyond it).
REFERENCE_RPS = 250.0
REFERENCE_REQUESTS = 2000

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "iterations_per_s": "1/s",
    "f1_gain_pp": "pp",
    "status_p50_ms": "ms",
    "status_p99_ms": "ms",
    "status_max_rps": "1/s",
    "rehydrate_p50_ms": "ms",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); inf counts as a miss."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Run:
    """One run of one workload against freshly launched servers."""

    def __init__(self, name: str, seed: int, seconds: float, *, traced: bool,
                 smoke: bool = False, plant: str | None = None) -> None:
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.plant = plant
        self.rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
        self.tally = loadgen.Tally()
        self.generator_late: list[float] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        work_root = harness.ROOT / ".perfbench_tmp"
        work_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
        self.security: dict | None = None
        self.env_extra: dict = {}
        self.span_files: list[Path] = []
        self.state_dir: Path | None = None

    # -- servers --------------------------------------------------------- #
    def _serve_args(self) -> list[str]:
        args = [a.format(state_dir=self.state_dir) for a in self.w.serve_args]
        if self.security:
            args += ["--tls-cert", self.security["cafile"], "--tls-key", self.security["keyfile"]]
        return args

    def _launch(self) -> harness.ServerProcess:
        spans = None
        if self.traced:
            spans = self.tmp / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
        return harness.ServerProcess(
            self._serve_args(), spans_out=spans, env_extra=self.env_extra
        ).launch()

    def _client(self, port: int):
        return loadgen.open_client(port, self.security)

    def _stop(self, server: harness.ServerProcess) -> None:
        server.stop(self._client)

    def _secure(self) -> None:
        cert, key = self.tmp / "cert.pem", self.tmp / "key.pem"
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "ec",
             "-pkeyopt", "ec_paramgen_curve:prime256v1",
             "-keyout", str(key), "-out", str(cert), "-days", "2", "-nodes",
             "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
            check=True, capture_output=True,
        )
        token = f"perfbench-{self.seed}-{os.getpid()}"
        self.security = {"cafile": str(cert), "keyfile": str(key), "token": token}
        self.env_extra = {"REPRO_AUTH_TOKEN": token}

    # -- phases ---------------------------------------------------------- #
    def setup(self) -> harness.ServerProcess:
        """Launch, ready, pre-create idle sessions, warm up; ``SETUPS``
        times on fresh state. ``setup_s`` is the median."""
        if self.w.secured:
            self._secure()
        self.idle = idle_specs(self.w, self.rng)
        self.idle_status: dict[str, dict] = {}
        times = []
        setups = 1 if self.smoke else SETUPS
        for k in range(setups):
            self.state_dir = self.tmp / f"state-{k}"
            started = time.perf_counter()
            server = self._launch()
            with self._client(server.port) as client:
                for spec in self.idle:
                    result = client.create(spec.name, spec.params)
                    self.idle_status[spec.name] = loadgen.stable_status(result)
                # Warm-up: imports, the first sweep (on ``durable`` it
                # spawns the distributed workers) and the caches.
                client.create("warmup", self.w.rotation[-1].params(0))
                client.recommend("warmup", k=1)
                client.step("warmup")
                client.close_session("warmup")
            times.append(time.perf_counter() - started)
            if k < setups - 1:
                # Nothing of this server is kept: a graceful stop of the
                # distributed backend waits 5 s on a worker thread.
                server.kill()
        self.metrics["setup_s"] = statistics.median(times)
        self.notes.append("setup_s samples: " + ", ".join(f"{t:.3f}" for t in times))
        return server

    def sessions_phase(self, server: harness.ServerProcess) -> None:
        plans = session_plans(self.w, self.rng)
        if self.smoke:
            plans = [[s for s in plan if s.required][:1] for plan in plans]
        if self.plant == "error":
            with self._client(server.port) as client:
                response = client.call({"action": "step", "name": "no-such-session"})
                self.tally.add(bool(response.get("ok")), "planted ok:false")
        self.transcripts, steps, window = loadgen.closed_loop(
            server.port, plans, self.seconds, self.tally, self.security
        )
        if not steps:
            raise RuntimeError("no step completed")
        self.metrics["step_p50_ms"] = 1000 * statistics.median(steps)
        self.metrics["step_p90_ms"] = 1000 * percentile(steps, 90)
        self.metrics["iterations_per_s"] = len(steps) / window
        gains = []
        for t in self.transcripts:
            if t.spec.required and t.records and t.status:
                gains.append(100 * (t.status["current_f1"] - t.records[0]["f1_before"]))
        self.metrics["f1_gain_pp"] = statistics.mean(gains) if gains else float("nan")
        self.notes.append(
            f"sessions: {len(self.transcripts)} sessions, {len(steps)} steps "
            f"in {window:.2f} s; quality pool {len(gains)} sessions"
        )
        self.kept = {
            t.spec.name: t.status
            for t in self.transcripts
            if t.spec.keep and t.status is not None
        }

    def ladder_phase(self, server: harness.ServerProcess) -> None:
        sessions = {**self.idle_status, **self.kept}
        rung_s = RUNG_S
        ref = REFERENCE_RPS
        ref_s = max(rung_s, REFERENCE_REQUESTS / ref)
        if self.smoke:
            rung_s = ref_s = 0.3

        def rung(rate: float, seconds: float):
            seconds = max(seconds, MIN_RUNG_REQUESTS / rate)
            build = ladder_plan(self.rng, rate, seconds, sessions, self.w.service_share)
            result = loadgen.run_rung(server.port, self.security, rate, build)
            for latency in result.latencies:
                self.tally.add(math.isfinite(latency), f"status at {rate:.0f}/s")
            p99 = percentile(result.latencies, 99)
            late = percentile(result.lateness, 99)
            valid = late <= GENERATOR_LATE_LIMIT_S
            grew = result.backlog_grew(LATENCY_LIMIT_S)
            passed = valid and p99 <= LATENCY_LIMIT_S and not grew
            self.notes.append(
                f"rung {rate:7.0f}/s: n={len(result.latencies)} "
                f"p50={1000 * percentile(result.latencies, 50):.3f} ms "
                f"p99={1000 * p99:.3f} ms late_p99={1000 * late:.3f} ms "
                f"fresh={result.reconnects} failed={result.failed} shed={result.shed} "
                + ("backlog grew " if grew else "")
                + ("pass" if passed else "fail" if valid else "INVALID (generator late)")
            )
            return result, late, valid, passed

        result, late, valid, passed = rung(ref, ref_s)
        if not valid:
            raise InvalidRun(
                f"the generator fell behind at the reference rate "
                f"(late p99 {1000 * late:.3f} ms)"
            )
        self.generator_late.append(late)
        self.metrics["status_p50_ms"] = 1000 * percentile(result.latencies, 50)
        self.metrics["status_p99_ms"] = 1000 * percentile(result.latencies, 99)
        # Double the rate until a rung fails or the top is reached. Past a
        # failing rung the server takes less than it is offered; with one
        # request in flight per connection, sends then follow replies, so
        # the rate actually achieved while offered the top rate for
        # SATURATION_S is the highest rate without a growing backlog.
        top = LADDER_MAX_RPS
        rate = ref
        while passed and rate * 2 <= top and not self.smoke:
            rate *= 2
            result, late, valid, passed = rung(rate, rung_s)
            self.generator_late.append(late)
            if not valid:
                raise InvalidRun(
                    f"the generator fell behind at {rate:.0f}/s "
                    f"(late p99 {1000 * late:.3f} ms)"
                )
        if not passed and not self.smoke:
            result, late, valid, passed = rung(top, SATURATION_S)
            self.generator_late.append(late)
        self.metrics["status_max_rps"] = result.achieved_rps()

    def restart_phase(self, server: harness.ServerProcess) -> harness.ServerProcess:
        """Graceful restarts; returns the last server, still running."""
        targets = dict(self.kept)
        if self.w.restart == "checkpoint":
            targets.update(self.idle_status)
            paths = {}
            with self._client(server.port) as client:
                for name in targets:
                    paths[name] = str(self.tmp / f"{name}.ckpt")
                    response = client.call(
                        {"action": "checkpoint", "name": name, "path": paths[name]}
                    )
                    self.tally.add(bool(response.get("ok")), f"checkpoint {name}")
        latencies = []
        restarts = 1 if self.smoke else RESTARTS
        gap = REHYDRATE_SPREAD_S / max(1, len(targets))
        for _ in range(restarts):
            self._stop(server)
            server = self._launch()
            with self._client(server.port) as client:
                # Touches no session: lets the new process settle first.
                response = client.call({"action": "status"})
                self.tally.add(bool(response.get("ok")), "status")
                for name in sorted(targets):
                    time.sleep(gap)
                    if self.w.restart == "store":
                        request = {"action": "status", "name": name}
                    else:
                        request = {"action": "create", "name": name, "checkpoint": paths[name]}
                    started = time.perf_counter()
                    response = client.call(request)
                    latencies.append(time.perf_counter() - started)
                    ok = bool(response.get("ok")) and all(
                        response["result"].get(k) == v for k, v in targets[name].items()
                    )
                    self.tally.add(ok, f"rehydrate {name}: {response.get('error')}")
        self.metrics["rehydrate_p50_ms"] = 1000 * statistics.median(latencies)
        self.notes.append(
            f"rehydrate: {len(latencies)} first verbs over {restarts} restarts"
        )
        return server

    def check_outputs(self) -> None:
        finished = [t for t in self.transcripts if t.recommend is not None]
        count = min(self.w.checked_sessions, len(finished))
        chosen = sorted(self.rng.choice(len(finished), size=count, replace=False))
        for i in chosen:
            served = finished[i]
            expected = reference.reference_transcript(served)
            if self.plant == "mismatch" and expected.records:
                expected.records[0] = {**expected.records[0], "f1_after": -1.0}
            problems = reference.mismatches(served, expected)
            self.tally.add(not problems, "; ".join(problems))
        self.notes.append(
            "output check: " + ", ".join(finished[i].spec.name for i in chosen)
            + " against the in-process serial reference"
        )

    def execute(self) -> dict:
        try:
            server = self.setup()
            if self.w.ladder:
                # The ladder runs on a server that has computed nothing
                # (a warm cache makes each service-level ``status`` walk
                # every entry); the sessions then run on the process the
                # last restart left, which has not served the ladder.
                self.kept = {}
                self.ladder_phase(server)
                server = self.restart_phase(server)
                self.sessions_phase(server)
            else:
                self.sessions_phase(server)
                server = self.restart_phase(server)
            self._stop(server)
            self.check_outputs()
            return self.metrics
        finally:
            harness.kill_all()

    def layer_metrics(self) -> dict:
        return tracing.summarize([p for p in self.span_files if p.exists()])

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class InvalidRun(RuntimeError):
    """The generator, not the server, fell behind: nothing is reported."""


def environment_line() -> str:
    return (
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__}"
    )


def run_one(name: str, seed: int, seconds: float, trace: bool, *,
            smoke: bool = False, plant: str | None = None) -> tuple[dict, dict, loadgen.Tally]:
    """Run a workload; with ``trace`` also a traced run. Returns
    (end-to-end metrics, per-layer metrics, tally)."""
    run = Run(name, seed, seconds, traced=False, smoke=smoke, plant=plant)
    try:
        metrics = run.execute()
    finally:
        run.cleanup()
    print(f"[{name}] why: {run.w.why}")
    for note in run.notes:
        print(f"[{name}] {note}")
    if run.generator_late:
        late = max(run.generator_late)
        print(f"[{name}] generator.late_p99_ms {1000 * late:.4f} ms (worst rung)")
    for failure in run.tally.failures:
        print(f"[{name}] FAILED: {failure}")
    error_rate = run.tally.failed / max(1, run.tally.attempted)
    print(f"[{name}] error_rate {error_rate:.6f} ({run.tally.failed}/{run.tally.attempted})")
    for key, unit in END_TO_END_UNITS.items():
        if key in metrics:
            print(f"[{name}] {key} {metrics[key]:.6g} {unit}")
    layers: dict = {}
    if trace:
        traced = Run(name, seed, seconds, traced=True, smoke=smoke)
        try:
            traced_metrics = traced.execute()
            layers = traced.layer_metrics()
        finally:
            traced.cleanup()
        for key, unit in END_TO_END_UNITS.items():
            if key not in metrics:
                continue
            base = metrics[key]
            change = (traced_metrics[key] - base) / base if base else float("nan")
            print(
                f"[{name}] tracing overhead {key}: untraced {base:.6g} {unit}, "
                f"traced {traced_metrics[key]:.6g} {unit} ({100 * change:+.1f} %)"
            )
        run.tally.attempted += traced.tally.attempted
        run.tally.failed += traced.tally.failed
        for failure in traced.tally.failures:
            print(f"[{name}] FAILED (traced): {failure}")
    return metrics, layers, run.tally


def load_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-run every workload and check the harness itself")
    args = parser.parse_args(argv)
    harness.install_cleanup()
    print(environment_line())
    if args.selftest:
        import selftest

        return selftest.main(run_one, load_spec(), END_TO_END_UNITS)
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics_out: dict = {}
    attempted = failed = 0
    for name in names:
        try:
            metrics, layers, tally = run_one(name, args.seed, args.seconds, bool(args.trace))
        except InvalidRun as exc:
            print(f"[{name}] invalid run: {exc}", file=sys.stderr)
            return 3
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace:
            for entry in spec["per_layer"]:
                metrics_out[prefix + entry["name"]] = {
                    "value": layers.get(entry["name"], 0.0), "unit": entry["unit"]
                }
        else:
            for entry in spec["end_to_end"]:
                metrics_out[prefix + entry["name"]] = {
                    "value": metrics[entry["name"]], "unit": entry["unit"]
                }
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
