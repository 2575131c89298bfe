"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories laid out as sweep.py writes them:
<dir>/<workload>/seed<N>.json. For each workload and end-to-end metric this
prints both sets' medians and quartiles, the change of the median in the
metric's worse direction, the wider of the two relative spreads (quartile
distance over median) and a verdict:

  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  not worse, but a set spreads wider than the bound and not every
              NEW run beats every BASE run
  within      otherwise

It also prints each set's share of failed jobs. Exit code 1 if any verdict is
worse, any job failed or any run reported an incorrect result: a speed-up
that makes jobs fail is not a gain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def load(directory: Path, workload: str) -> list[dict]:
    return [json.loads(p.read_text().strip().splitlines()[-1])
            for p in sorted((directory / workload).glob("*.json"))]


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3


def verdict(base: list[float], new: list[float], better: str, bound: float):
    (b_med, b_q1, b_q3), (n_med, n_q1, n_q3) = summary(base), summary(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (n_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    beats = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if change > bound:
        word = "worse"
    elif spread > bound and not beats:
        word = "unresolved"
    else:
        word = "within"
    return (b_med, b_q1, b_q3), (n_med, n_q1, n_q3), change, spread, word


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, new_dir = map(Path, args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    print(f"{'workload':<20} {'metric':<12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        base, new = load(base_dir, w["name"]), load(new_dir, w["name"])
        if not base or not new:
            print(f"{w['name']:<20} missing results")
            status = 1
            continue
        for name, runs in (("base", base), ("new", new)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            print(f"{w['name']:<20} {name}: {len(runs)} runs, {failed}/{attempted} "
                  f"jobs failed, {wrong} runs incorrect")
            status |= failed > 0 or wrong > 0
        for m in spec["end_to_end"]:
            b, n, change, spread, word = verdict(
                [r["metrics"][m["name"]]["value"] for r in base],
                [r["metrics"][m["name"]]["value"] for r in new],
                m["better"], m["bound"])
            status |= word == "worse"
            print(f"{w['name']:<20} {m['name']:<12} "
                  f"{b[0]:>12.6g} [{b[1]:.6g}, {b[2]:.6g}] {'':>1}"
                  f"{n[0]:>12.6g} [{n[1]:.6g}, {n[2]:.6g}] "
                  f"{change:>+8.2%} {spread:>7.2%} {m['bound']:>6.1%}  {word}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
