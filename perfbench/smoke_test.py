#!/usr/bin/env python3
"""Smoke test for the benchmark harness itself, at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload run.py knows (BENCHMARK.json gates a subset) it runs
perfbench/run.py for one second untraced and traced, and checks that each
end-to-end and per-layer metric is printed by name with the unit
BENCHMARK.json gives it. Then it
runs each workload against a deliberately wrong reference store and
checks that the command exits non-zero and reports itself incorrect.
Exits non-zero on the first failed check. Takes about a minute once the
benchmark is built.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines, r.stderr


def check(ok, what):
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = run(name, trace)
            check(code == 0, f"{name} trace {trace} exits 0" + ("" if code == 0 else "\n" + err))
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace {trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace {trace} is correct")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{name} trace {trace} reports {m['name']} in {m['unit']}")
                check(any(l.startswith(f"{m['name']} = ") and l.endswith(f" {m['unit']}")
                          for l in lines[:-1]),
                      f"{name} trace {trace} prints {m['name']} with its unit")
            check(set(result["metrics"]) == {m["name"] for m in spec[key]},
                  f"{name} trace {trace} reports no unlisted metric")
        code, lines, _ = run(name, 0, "--corrupt-reference")
        check(code != 0, f"{name} with a wrong reference store exits non-zero")
        check(not json.loads(lines[-1])["correct"],
              f"{name} with a wrong reference store reports correct: false")
    print("smoke test passed")


if __name__ == "__main__":
    main()
