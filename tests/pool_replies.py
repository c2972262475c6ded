"""Fingerprint the CLI's reply to every benchmark pool request.

Replays the request pools of perfbench/workloads.build for the four
workloads at seeds 1-3 through freeze_transcript.replay, in process, and
prints one line per request:

    workload seed index sha256(exit, stdout, stderr)[:16]

tests/test_cli.py replays the pools against the frozen lines in
tests/data/pool_replies.txt, so a change of the CLI's bytes on any pool
request fails Tier-1.  Re-freeze only for an intended change of output,
or when the benchmark's pools change:

    PYTHONPATH=src python tests/pool_replies.py --freeze
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from freeze_transcript import replay

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OUT = Path(__file__).resolve().parent / "data" / "pool_replies.txt"
SEEDS = (1, 2, 3)


def fingerprint(request: dict) -> str:
    """sha256(exit, stdout, stderr)[:16] of the CLI's reply to one pool request."""
    reply = json.dumps(replay({"argv": request["argv"], "stdin": request["stdin"]}))
    return hashlib.sha256(reply.encode("utf-8")).hexdigest()[:16]


def lines(workloads) -> list[str]:
    """One line per request of every pool at SEEDS; workloads is perfbench's module."""
    return [f"{name} {seed} {index} {fingerprint(request)}"
            for name in workloads.WORKLOADS for seed in SEEDS
            for index, request in enumerate(workloads.build(name, seed))]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--freeze", action="store_true", help=f"write the lines to {OUT.name}")
    args = ap.parse_args()
    sys.path.insert(0, str(PERFBENCH))  # perfbench's modules import each other by bare name
    import workloads

    text = "".join(f"{line}\n" for line in lines(workloads))
    if args.freeze:
        OUT.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
