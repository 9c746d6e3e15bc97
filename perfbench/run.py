"""Benchmark entry point: run one workload of the fleetcast pipeline.

    python3 perfbench/run.py --workload plan-z2 --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload runs in a child process
(bench.py) whose environment pins the BLAS thread count and puts `src`
on the import path. The last line printed is the result object; the
line before it is a detail record with the environment, the sequence
walls and any errors. With `--trace 1` the metrics are the per-layer
figures instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1  # pinned for steadier timings; identical on every commit
TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fleetcast benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "fleetcast" / "__init__.py").is_file():
        print(f"error: no fleetcast sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_out"
    work.mkdir(exist_ok=True)
    out = work / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    log = work / f"log-{args.workload}-s{args.seed}-t{args.trace}.txt"
    out.unlink(missing_ok=True)

    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                        os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root), "--out", str(out)]
    with open(log, "w") as fh:
        try:
            child = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                   timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish in {TIMEOUT_S} s; see {log}",
                  file=sys.stderr)
            return 1
    if child.returncode != 0 or not out.exists():
        print(f"error: workload exited with {child.returncode}; see {log}",
              file=sys.stderr)
        return 1
    doc = json.loads(out.read_text())
    print(json.dumps({"record": doc["detail"]}))
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
