"""Print every end-to-end and per-layer metric of every workload.

Runs `run.py` on each workload, untraced and traced, and relays the metric
lines (name, unit, median, quartiles, sample count) and the gate results.
Run from the root of an asymlab checkout (takes about five minutes):

    python3 perfbench/report.py --seed 0 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"== {workload} trace {trace}: correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            print("\n".join(line for line in lines[:-1] if not line.startswith("machine:")
                            or (workload, trace) == (WORKLOADS[0], 0)))
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
