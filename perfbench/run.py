"""trilink benchmark: JSON requests in, JSON replies out, every reply checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it uses ./src, compiled in
place).  With --trace 0 it measures the end-to-end metrics: a worker
process serves the seeded request pool in whole passes for S seconds,
one request at a time, and set-up time is sampled in fresh processes.
With --trace 1 it reports the per-layer metrics from a warm-up, an
untraced and a traced pass (spans go to .perfbench_out/).  Human-readable lines
come first; the last line is one JSON object.  The exit code is 1 if
any reply fails its oracle, 2 if the checkout has no trilink sources.

--scale tiny and --corrupt exist for perfbench/selftest.py.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "words.parse_word.calls": "count",
    "words.parse_word.self_s": "s",
    "words.letters_parsed": "count",
    "magnus.phi.calls": "count",
    "magnus.phi.self_s": "s",
    "magnus.series_mul.calls": "count",
    "magnus.series_mul.self_s": "s",
    "magnus.letters_expanded": "count",
    "magnus.terms_out": "count",
    "magnus.mu123.self_s": "s",
    "magnus.lcs_depth.self_s": "s",
    "nilpotent.class_of.self_s": "s",
    "seifert.enumerate_metabolizers.self_s": "s",
    "seifert.lattices_found": "count",
    "seifert.lattices_per_snf": "ratio",
    "seifert.is_metabolizer.calls": "count",
    "seifert.is_metabolizer.self_s": "s",
    "intlinalg.bilinear.calls": "count",
    "intlinalg.bilinear.self_s": "s",
    "intlinalg.row_hnf.calls": "count",
    "intlinalg.row_hnf.self_s": "s",
    "intlinalg.snf.calls": "count",
    "intlinalg.snf.self_s": "s",
    "intlinalg.solve.self_s": "s",
    "intlinalg.det.calls": "count",
    "intlinalg.det.self_s": "s",
    "intlinalg.mat_mul.calls": "count",
    "seifert.symplectic_complete.self_s": "s",
    "seifert.generator_for_metabolizer.self_s": "s",
    "seifert.validate.calls": "count",
    "seifert.validate.self_s": "s",
    "realization.ledger.self_s": "s",
    "realization.pushoff_ledger_entries.self_s": "s",
    "infection.infected_mu.self_s": "s",
    "infection.band_sum_expansion.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_ms": "ms",
    "process.interpreter_ms": "ms",
    "process.import_ms": "ms",
    "process.request_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
SETUP_SAMPLES = 7  # fresh processes per run for setup_s and the start-up split
MIN_REQUESTS = 100  # so that at least ten latencies lie beyond p90
# serves one request like `python -m trilink.cli`, then reports on stderr how
# long the import and the request took inside the fresh process
SPLIT_PROBE = """import sys, time
t0 = time.perf_counter()
import trilink.cli
t1 = time.perf_counter()
code = trilink.cli.main(sys.argv[1:])
print(t1 - t0, time.perf_counter() - t1, file=sys.stderr)
sys.exit(code)"""


class Run:
    """One benchmark run: its pool, the child environment and the tally."""

    def __init__(self, args):
        self.args = args
        self.pool = workloads.build(args.workload, args.seed, args.scale)
        if args.corrupt:
            corrupt(self.pool[0]["expect"])
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TRILINK_")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def child(self, argv, stdin="", timeout=60):
        """Run a fresh interpreter; return (seconds, exit code, stdout, stderr)."""
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                           text=True, env=self.env, cwd=ROOT, timeout=timeout)
        return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr

    def judge(self, request, code, stdout, stderr, times=1):
        self.attempted += times
        why = oracles.check(request["expect"], code, stdout, stderr)
        if why:
            self.failed += times
            self.failures.append(f"{' '.join(request['argv'])} {request['stdin'][:80]}: {why}")

    def cold(self, request):
        """Serve one request in a fresh `python -m trilink.cli`; return its wall time."""
        seconds, *reply = self.child(["-m", "trilink.cli", *request["argv"]], request["stdin"])
        self.judge(request, *reply)
        return seconds

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """Raw and speed-scaled seconds of fresh processes serving the warm-up."""
        warm = workloads.warmup(self.args.workload)
        raw, scaled = [], []
        before = self.child(["-c", "pass"])[0]
        for _ in range(SETUP_SAMPLES):
            raw.append(self.cold(warm))
            after = self.child(["-c", "pass"])[0]
            scaled.append(raw[-1] * calibrate.factor(before, after, calibrate.STARTUP_REFERENCE_S))
            before = after
        return raw, scaled

    def worker(self, job: dict) -> dict:
        job.update(requests=[{"argv": r["argv"], "stdin": r["stdin"]} for r in self.pool],
                   src=str(SRC))
        p = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                           capture_output=True, text=True, env=self.env, cwd=ROOT,
                           timeout=job.pop("timeout"))
        if p.returncode != 0:
            raise SystemExit(f"worker failed ({p.returncode}): {p.stderr.strip()[-2000:]}")
        report = json.loads(p.stdout)
        for index, code, stdout, stderr, times in report["replies"]:
            # every executed request is counted, identical replies are judged once
            self.judge(self.pool[index], code, stdout, stderr, times)
        return report

    def end_to_end(self) -> tuple[dict, dict]:
        setup_raw, setup = self.setup_seconds()
        seconds = self.args.seconds
        cold = self.args.workload == "cli-cold"
        failed_before = self.failed
        report = self.worker({
            "mode": "cold" if cold else "loop", "seconds": seconds,
            "min_requests": MIN_REQUESTS if self.args.scale == "full" else 1,
            "max_seconds": min(3 * seconds, 120), "timeout": 170,
        })
        correct = report["executed"] - (self.failed - failed_before)
        raw_ms = [1000 * t for t in report["latencies"]]
        lat_ms = [t * f for t, f in zip(raw_ms, report["factors"])]
        n = len(lat_ms)

        def p90(values):
            return statistics.quantiles(values, n=10)[-1] if n > 1 else values[0]

        metrics = {
            "throughput_rps": 1000 * correct / sum(lat_ms),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": p90(lat_ms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        }
        notes = {
            "throughput_rps": f"{correct} correct of {n} in {sum(raw_ms) / 1000:.2f} s busy, "
                              f"raw {1000 * correct / sum(raw_ms):.4g}; closed loop, 1 client",
            "latency_p50_ms": f"n={n}, raw {statistics.median(raw_ms):.4g}",
            "latency_p90_ms": f"n={n}, {sum(x > metrics['latency_p90_ms'] for x in lat_ms)} "
                              f"beyond, raw {p90(raw_ms):.4g}",
            "setup_s": f"median of {len(setup)} fresh processes, raw {statistics.median(setup_raw):.4g}",
            "peak_rss_mb": "serving process" if not cold else "largest trilink child",
        }
        speed = report["factors"]
        notes["speed"] = (f"times scaled to the reference speed; factors "
                          f"{min(speed):.3f}..{max(speed):.3f}, median {statistics.median(speed):.3f}")
        return metrics, notes

    def split(self, request):
        """Serve one request in a fresh process; return (import s, request s)."""
        _, code, out, err = self.child(["-c", SPLIT_PROBE, *request["argv"]], request["stdin"])
        lines = err.splitlines(keepends=True)
        try:
            timings = [float(x) for x in lines.pop().split()]
        except (IndexError, ValueError):  # it crashed before reporting; judge() counts it
            timings = [math.nan, math.nan]
        self.judge(request, code, out, "".join(lines))
        return timings

    def per_layer(self) -> tuple[dict, dict]:
        interpreter = [self.child(["-c", "pass"])[0] for _ in range(SETUP_SAMPLES)]
        if self.args.workload == "cli-cold":
            probes = self.pool
        else:
            probes = [workloads.warmup(self.args.workload)] * SETUP_SAMPLES
        imports, requests = zip(*(self.split(r) for r in probes))
        OUT.mkdir(exist_ok=True)
        report = self.worker({
            "mode": "trace", "trace_path": str(OUT / f"trace-{self.args.workload}.json.gz"),
            "meta": {"workload": self.args.workload, "seed": self.args.seed}, "timeout": 170,
        })
        layers = report["layers"]
        untraced, traced = report["walls"]
        metrics = {name: layers.get(name, 0) for name in PER_LAYER}
        metrics.update({
            "process.interpreter_ms": 1000 * statistics.median(interpreter),
            "process.import_ms": 1000 * statistics.median(imports),
            "process.request_ms": 1000 * statistics.median(requests),
            "trace.overhead_ratio": traced / untraced,
        })
        notes = {"trace.overhead_ratio": f"traced pass {traced:.2f} s, untraced {untraced:.2f} s",
                 "trace.spans": f"written to {OUT.name}/trace-{self.args.workload}.json.gz"}
        return metrics, notes


def corrupt(expect: dict) -> None:
    """Spoil one expected value (the self-test shows the run then fails)."""
    if "code" in expect:
        expect["code"] = 5 - expect["code"]
    elif expect["kind"] == "exact":
        first = next(iter(expect["answer"]))
        expect["answer"] = {**expect["answer"], first: "corrupted"}
    elif expect["kind"] == "generator":
        expect["generator"] += 1
    else:
        expect["lattices"] = expect["lattices"] + [((0,) * len(expect["entries"]),)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true", help="spoil one expected value")
    args = ap.parse_args()

    if not (SRC / "trilink" / "cli.py").is_file():
        print(f"no trilink sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC / "trilink", quiet=1):
        print("trilink sources do not compile", file=sys.stderr)
        return 2

    run = Run(args)
    metrics, notes = run.per_layer() if args.trace else run.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  scale {args.scale}")
    print(f"python {platform.python_version()}  machine {platform.machine()}  "
          f"nproc {os.cpu_count()}  pool {len(run.pool)} requests per pass")
    if "speed" in notes:
        print(notes["speed"])
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:14.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':42s} {run.failed / run.attempted:14.6g} ratio"
          f"  ({run.failed} of {run.attempted} requests)")
    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
