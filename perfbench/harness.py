"""Process hygiene for the benchmark: the served program, its environment,
and the guarantee that nothing it starts outlives the run.

Every server is launched in its own process group (``start_new_session``)
so the distributed workers it spawns share that group; stopping a server
asks for a graceful ``shutdown`` first and then kills the whole group,
so an orphaned worker can never skew the next run.
"""

from __future__ import annotations

import atexit
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Thread pools of the numeric libraries, pinned in every spawned
#: process so the program uses no more threads than there are CPUs.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def require_source() -> None:
    """Exit non-zero when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    """Environment for every process the benchmark spawns."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_DISTRIBUTED_CONNECT", None)
    return env


_LIVE: set["ServerProcess"] = set()
_LIVE_LOCK = threading.Lock()


def kill_all() -> None:
    """Kill every server process group still alive (exit paths)."""
    with _LIVE_LOCK:
        servers = list(_LIVE)
    for server in servers:
        server.kill()


def _on_signal(signum, frame) -> None:
    kill_all()
    raise SystemExit(128 + signum)


def install_cleanup() -> None:
    """Kill leftover servers on normal exit, Ctrl-C and SIGTERM."""
    atexit.register(kill_all)
    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)


class ServerProcess:
    """One ``repro serve --port 0`` process (optionally the traced launcher).

    ``launch`` blocks until the readiness line names the bound port.
    """

    def __init__(
        self,
        serve_args: list[str],
        *,
        spans_out: Path | None = None,
        env_extra: dict | None = None,
    ):
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [
                sys.executable,
                str(BENCH_DIR / "traced_server.py"),
                "--spans-out",
                str(spans_out),
                "serve",
            ]
        self.argv = argv + ["--host", "127.0.0.1", "--port", "0"] + serve_args
        self.env = {**child_env(), **(env_extra or {})}
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._lines: list[str] = []
        self._errors: list[str] = []

    def launch(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            self.argv,
            env=self.env,
            cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        with _LIVE_LOCK:
            _LIVE.add(self)
        found: list[int] = []
        done = threading.Event()

        def scan() -> None:
            for line in self.proc.stdout:
                self._lines.append(line.rstrip("\n"))
                if not found and line.startswith("serving tcp on "):
                    found.append(int(line.rsplit(":", 1)[1]))
                    done.set()
            done.set()

        threading.Thread(target=scan, daemon=True).start()
        threading.Thread(target=self._drain_stderr, daemon=True).start()
        if not done.wait(READY_TIMEOUT_S) or not found:
            self.kill()
            raise RuntimeError(
                "server did not become ready: " + " | ".join(self._lines[-5:])
                + " | " + " | ".join(self._errors[-5:])
            )
        self.port = found[0]
        return self

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._errors.append(line.rstrip("\n"))

    def stop(self, client_factory) -> None:
        """Graceful ``shutdown`` verb, wait for exit, then kill the group."""
        if self.proc is not None and self.proc.poll() is None:
            try:
                with client_factory(self.port) as client:
                    client.shutdown_server()
                self.proc.wait(STOP_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 — fall through to kill
                print(f"perfbench: graceful stop failed: {exc!r}", file=sys.stderr)
        self.kill()

    def kill(self) -> None:
        """Kill the server's whole process group and wait for it to end."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGTERM)
            try:
                self.proc.wait(2.0)
            except subprocess.TimeoutExpired:
                pass
            # Workers the server spawned share its group; sweep them too.
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        with _LIVE_LOCK:
            _LIVE.discard(self)
