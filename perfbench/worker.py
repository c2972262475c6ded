"""The process that serves a benchmark's requests; run.py starts one per run.

It reads a job (JSON) on stdin and writes one JSON report on stdout.
Modes:

  loop   call trilink.cli.main(argv) in this process, JSON text on a
         replaced stdin and stdout, one request after another (a closed
         loop with one client), whole passes over the pool until the
         time is up;
  cold   the same loop, but each request is a fresh
         `python -m trilink.cli` child, run one at a time;
  trace  a warm-up pass, one untraced pass, then one pass with spans
         recorded around every public library function (see tracer.py).

Replies are collected as they come and checked by run.py afterwards,
outside the timed interval.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

clock = time.perf_counter


def serve_in_process(cli, request):
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(request["stdin"]), out, err
    try:
        code = cli.main(list(request["argv"]))
    except Exception:  # a crash fails this request; the run goes on
        traceback.print_exc(file=err)
        code = None
    finally:
        sys.stdin, sys.stdout, sys.stderr = real
    return code, out.getvalue(), err.getvalue()


def serve_cold(request):
    try:
        p = subprocess.run([sys.executable, "-m", "trilink.cli", *request["argv"]],
                           input=request["stdin"], capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return None, "", "timed out after 60 s"
    return p.returncode, p.stdout, p.stderr


class Replies:
    """Distinct (pool index, reply) pairs with how often each was seen."""

    def __init__(self):
        self.seen: dict[tuple, int] = {}

    def add(self, index, reply):
        key = (index, *reply)
        self.seen[key] = self.seen.get(key, 0) + 1

    def as_list(self):
        return [[*key, n] for key, n in self.seen.items()]


def timed_loop(pool, serve, replies, seconds, min_requests, max_seconds, probe, reference,
               probe_every, window):
    """Whole passes until `seconds` have passed (cut only at `max_seconds`).

    Returns the raw latencies and, for each, the speed factor: reference
    over the median of the probes taken around its stretch of requests,
    `window` more on each side.
    """
    latencies, stretch = [], []
    probes = [probe()]
    t_start = last_probe = clock()
    i = 0
    while True:
        elapsed = clock() - t_start
        if elapsed >= max_seconds:
            break
        if i % len(pool) == 0 and i and elapsed >= seconds and i >= min_requests:
            break
        request = pool[i % len(pool)]
        t0 = clock()
        reply = serve(request)
        latencies.append(clock() - t0)
        stretch.append(len(probes) - 1)
        replies.add(i % len(pool), reply)
        i += 1
        if clock() - last_probe >= probe_every:
            probes.append(probe())
            last_probe = clock()
    probes.append(probe())
    factors = [reference / statistics.median(probes[max(0, k - window):k + 2 + window])
               for k in stretch]
    return latencies, factors


def one_pass(pool, serve, replies, on_request=None):
    t0 = clock()
    for i, request in enumerate(pool):
        if on_request:
            on_request(i)
        replies.add(i, serve(request))
    return clock() - t0


def main() -> int:
    job = json.load(sys.stdin)
    import trilink.cli as cli

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"trilink imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    pool = job["requests"]
    replies = Replies()
    report = {}
    if job["mode"] == "trace":
        from tracer import Tracer

        def serve(r):
            return serve_in_process(cli, r)

        one_pass(pool, serve, replies)  # warm-up: first calls pay one-off costs
        untraced = one_pass(pool, serve, replies)
        tracer = Tracer()
        tracer.install()
        traced = one_pass(pool, serve, replies, on_request=lambda i: setattr(tracer, "request", i))
        report["walls"] = [untraced, traced]
        report["layers"] = tracer.summary()
        tracer.dump(job["trace_path"], job["meta"])
        report["executed"] = 3 * len(pool)
    else:
        if job["mode"] == "cold":
            # start-up speed, probed after every request; one start-up probe
            # is noisy, so each request takes the median of the six nearest
            serve, who = serve_cold, resource.RUSAGE_CHILDREN
            probe = (calibrate.startup_probe, calibrate.STARTUP_REFERENCE_S, 0.0, 2)
        else:
            serve, who = (lambda r: serve_in_process(cli, r)), resource.RUSAGE_SELF
            probe = (calibrate.probe, calibrate.REFERENCE_S, calibrate.PROBE_EVERY_S, 0)
        latencies, factors = timed_loop(pool, serve, replies, job["seconds"], job["min_requests"],
                                        job["max_seconds"], *probe)
        # the startup probes are children too, but smaller than any trilink child
        report.update(latencies=latencies, factors=factors, executed=len(latencies),
                      peak_rss_kb=resource.getrusage(who).ru_maxrss)
    report["replies"] = replies.as_list()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
