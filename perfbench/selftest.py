"""Self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

From the root of a source checkout, it checks that

  * every workload runs at a tiny size, prints the metrics BENCHMARK.json
    names with their units, and is correct on the current sources;
  * two traced runs with the same seed report identical counts;
  * a deliberately corrupted expected value makes the run fail: exit 1,
    "correct": false and a nonzero failure count;
  * in a directory holding only BENCHMARK.json and perfbench/, the run
    exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("magnus-words", "metabolizer-search", "seifert-algebra", "cli-cold")


def bench(*extra, cwd=ROOT, seed=7, trace=0):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", extra[0],
                        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                        "--scale", "tiny", *extra[1:]],
                       capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stderr


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload list")

    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            code, result, err = bench(workload, trace=trace)
            expect(code == 0 and result and result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: exit {code}, {err.strip()[-300:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want[trace], f"{workload} trace {trace}: metric names or units")
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] == "count" or k == "seifert.lattices_per_snf"})
        expect(counts[0] == counts[1], f"{workload}: traced counts differ between runs")
        code, result, _ = bench(workload, "--corrupt")
        expect(code == 1 and result and not result["correct"] and result["failed"] > 0,
               f"{workload}: a corrupted expected value went unnoticed")
        print(f"ok  {workload}: tiny runs correct, traced counts repeat, corruption caught")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench(WORKLOADS[0], cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "ran without trilink sources")
    print("ok  without trilink sources: nonzero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
