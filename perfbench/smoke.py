"""Smoke check of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke.py

Each run must exit 0, pass its output check, and emit exactly the metrics
BENCHMARK.json names, each with its unit and a finite value.  Exits 1 and
lists the problems otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            cmd = [*bench["command"], "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json")
            bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{label}: non-finite values for {bad}")
            if not result["correct"]:
                problems.append(f"{label}: output check failed")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", flush=True)
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
