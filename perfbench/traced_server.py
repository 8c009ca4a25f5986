"""Launch ``repro serve`` with every measured layer wrapped (traced runs).

Usage: ``python traced_server.py --spans-out FILE serve [serve flags]``.
The wrappers are installed before the server starts; the spans and
counts are written to FILE when it shuts down.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print("usage: traced_server.py --spans-out FILE serve [...]", file=sys.stderr)
        return 2
    spans_out, rest = argv[1], argv[2:]
    tracer = tracing.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(rest)
    finally:
        tracing.finish(tracer)
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
