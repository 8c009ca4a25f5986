"""The output check: served transcripts against an in-process reference.

The reference replays a transcript's verbs (create -> ``recommend k=3``
-> as many ``step`` as the served session took -> ``status``) on an
in-process ``CometService`` with the serial backend. Traces are
bit-identical across transports, backends and restarts by contract, so
any difference is a failed output check. It runs outside the timed
region.
"""

from __future__ import annotations

from repro.service import CometService

from loadgen import Transcript, stable_status


def reference_transcript(transcript: Transcript) -> Transcript:
    spec = transcript.spec
    out = Transcript(spec)
    with CometService(backend="serial", workers=1) as service:
        def call(request: dict) -> dict:
            response = service.handle(request)
            if not response.get("ok"):
                raise RuntimeError(f"reference {request}: {response.get('error')}")
            return response["result"]

        call({"action": "create", "name": spec.name, "params": spec.params})
        out.recommend = call({"action": "recommend", "name": spec.name, "k": 3})["candidates"]
        for _ in transcript.records:
            result = call({"action": "step", "name": spec.name})
            out.records.append(result["record"])
            out.finished = bool(result["finished"])
        out.status = stable_status(call({"action": "status", "name": spec.name}))
    return out


def mismatches(served: Transcript, reference: Transcript) -> list[str]:
    """Human-readable differences (empty when the outputs agree)."""
    found = []
    if served.recommend != reference.recommend:
        found.append("recommend")
    for i, (a, b) in enumerate(zip(served.records, reference.records)):
        if a != b:
            found.append(f"step {i + 1}")
    if served.finished != reference.finished:
        found.append("finished")
    if served.status != reference.status:
        found.append("status")
    return [f"{served.spec.name}: {what} differs" for what in found]
