"""Run the benchmark once per seed and keep each run's result object.

    python3 perfbench/sweep.py --out perfbench/results/base --seeds 1-10
        [--workloads tall-binary-stream,theory-m]

Runs are sequential, with the command and run length from BENCHMARK.json, in
the checkout that holds this file (run another checkout's copy to measure
it), untraced. Each result is written to OUT/<workload>/seed<N>.json, the
layout compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    status = 0
    for name in args.workloads.split(","):
        (args.out / name).mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            command = [*spec["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
            if lines:
                (args.out / name / f"seed{seed}.json").write_text(lines[-1] + "\n")
                result = json.loads(lines[-1])
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
