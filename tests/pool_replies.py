"""Fingerprint the CLI's reply to every benchmark pool request.

Replays the request pools of perfbench/workloads.build for the four
workloads at seeds 1-3 through freeze_transcript.replay, in process, and
prints one line per request:

    workload seed index sha256(exit, stdout, stderr)[:16]

It needs no frozen data: run it on two checkouts and diff the outputs to
see whether a change keeps the CLI's bytes on every pool request.

    PYTHONPATH=src python tests/pool_replies.py > replies.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from freeze_transcript import replay

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench's modules import each other by bare name)

SEEDS = (1, 2, 3)


def main() -> None:
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for index, request in enumerate(workloads.build(workload, seed)):
                reply = json.dumps(replay({"argv": request["argv"], "stdin": request["stdin"]}))
                digest = hashlib.sha256(reply.encode("utf-8")).hexdigest()[:16]
                print(workload, seed, index, digest)


if __name__ == "__main__":
    main()
