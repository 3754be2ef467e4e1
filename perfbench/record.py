"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record.py

Runs every operation of every workload once, at both sizes, and writes
their digests to ``perfbench/reference.json``, replacing the whole file.
Record at a commit whose outputs are known good; a later change that alters
any output then fails the benchmark's output check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from run import _PINNED_ENV, BENCH_DIR, OUT_DIR, _import_library, _no_span

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **_PINNED_ENV})


def record(size: str) -> dict:
    import workloads as wl

    out: dict = {}
    for name, spec in wl.WORKLOADS.items():
        env = wl.set_up(spec, size == "tiny", work_dir=str(OUT_DIR))
        out[name] = {
            op.key: wl.digest(op, wl.execute(env, op, _no_span))
            for ops in (*env.ops.values(), env.probes)
            for op in ops
        }
        print(f"{size} {name}: {len(out[name])} operations", flush=True)
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n", 1)[0]).parse_args()
    _import_library()
    warnings.simplefilter("ignore")
    OUT_DIR.mkdir(exist_ok=True)
    reference = {size: record(size) for size in ("tiny", "full")}
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (BENCH_DIR / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
