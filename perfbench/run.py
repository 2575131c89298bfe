"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A job mirrors one trial of `subsel run` through the library's public calls:
open the generated input, make one selection, grade it, and check every
output against numbers this benchmark computes itself. After one warm-up job,
jobs run back to back until S seconds have passed. The last line of standard
output is one JSON object: with --trace 0 it carries the end-to-end metrics
(medians over the timed jobs), with --trace 1 the per-layer metrics of a run
whose timed jobs are all traced. A job whose call raises is counted in
"failed"; "correct" and the exit code speak of the jobs that did not fail, and
exit code 0 means every check on them held.
"""

from __future__ import annotations

import os

# One BLAS thread: with two, the SVD-bound steps vary far more between repeats.
# Set before numpy is first imported, which fixes the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from checks import CheckError, Reference  # noqa: E402
from tracing import Tracer, layer_metrics, span_cost  # noqa: E402
from workloads import WORKLOADS, Workload, make_input  # noqa: E402

WARMUP_CHAIN_STEPS = 64


def import_library():
    """The library from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "subsel" / "__init__.py").is_file():
        raise ImportError(f"no library source at {src / 'subsel'}")
    sys.path.insert(0, str(src))
    import subsel
    if Path(subsel.__file__).resolve().parent != (src / "subsel").resolve():
        raise ImportError(f"imported subsel from {subsel.__file__}, not {src}")
    return subsel


@dataclass
class Job:
    setup_s: list[float] = field(default_factory=list)
    select_s: float = 0.0
    eval_s: list[float] = field(default_factory=list)
    ratio: float = 0.0
    subset_size: int = 0
    passes: int = 0


class Bench:
    def __init__(self, subsel, w: Workload, seed: int, workdir: Path):
        self.subsel = subsel
        self.w = w
        self.seed = seed
        inp = make_input(w, seed)
        self.ref = Reference(w, inp)
        # built once per run, as `subsel run` loads its evaluation copy once
        self.points = subsel.PointSet(inp.data)
        self.data = inp.data
        self.path = None
        if w.fmt is not None:
            self.path = str(workdir / f"{w.name}.{w.fmt}")
            writer = subsel.write_binary if w.fmt == "binary" else subsel.write_csv
            writer(self.path, inp.data)
        if w.robust:
            self.opt_points = subsel.PointSet(inp.data[inp.inlier_ids])
            self.truth_basis = subsel.OrthonormalBasis(w.d, inp.planted, ())
            self.truth_inliers = tuple(int(i) for i in inp.inlier_ids)
        else:
            self.opt_points = self.points

    def job(self, index: int, tracer: Tracer | None, chain_steps: int | None) -> Job:
        """One job; raises CheckError when an output fails a check."""
        w, lib = self.w, self.subsel
        job_seed = self.seed * 1_000_003 + index
        out = Job()

        def timed(phase):
            return tracer.span(f"bench.{phase}") if tracer else nullcontext({})

        for _ in range(w.setup_reps):
            with timed("setup"):
                t0 = time.perf_counter()
                # an in-memory input is validated and copied by PointSet
                source = lib.open_source(self.path or lib.PointSet(self.data), w.mode)
                out.setup_s.append(time.perf_counter() - t0)

        with timed("select") as span:
            t0 = time.perf_counter()
            if w.robust:
                result, inliers = lib.robust_select(
                    source, w.k, w.epsilon, w.beta, w.lam, job_seed,
                    chain_steps=chain_steps, ground_truth_basis=self.truth_basis,
                    ground_truth_inliers=self.truth_inliers)
            else:
                result = lib.select_subset(source, lib.SamplingConfig(
                    k=w.k, epsilon=w.epsilon, seed=job_seed, chain_steps=chain_steps))
                inliers = None
            out.select_s = time.perf_counter() - t0
        steps = sum(s.steps_taken for s in result.final_states)
        span.update(slots=result.params.total_points * result.params.chain_steps,
                    reporting_passes=result.passes.reporting_passes, chain_steps=steps,
                    accepted=sum(s.accepted for s in result.final_states))

        for _ in range(w.eval_reps):
            with timed("eval"):
                t0 = time.perf_counter()
                _, optimum = lib.optimal_subspace(self.opt_points, w.k)
                _, err = lib.best_rank_k_in_span(self.points, result.basis, w.k)
                out.eval_s.append(time.perf_counter() - t0)

        self.ref.check(result, inliers, optimum, err, chain_steps)
        out.ratio = (inliers.inlier_error if w.robust else err) / optimum
        out.subset_size = len(result.selected_ids)
        out.passes = result.passes.total_passes
        return out


def run_workload(subsel, w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, Tracer | None]:
    """Warm-up job, then timed jobs (all traced when tracing) until `seconds`
    have passed. Returns the result object and the tracer."""
    bench = Bench(subsel, w, seed, workdir)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    correct = True
    timed: list[Job] = []

    def attempt(index, job_tracer, chain_steps=w.chain_steps):
        nonlocal attempted, failed, correct
        attempted += 1
        if job_tracer:
            job_tracer.job = index
            job_tracer.install()
        try:
            return bench.job(index, job_tracer, chain_steps)
        except CheckError as exc:
            correct = False
            print(f"job {index}: check failed: {exc}", file=sys.stderr)
        except Exception:  # a failing job is counted and the run goes on
            failed += 1
            print(f"job {index}: failed", file=sys.stderr)
            traceback.print_exc()
        finally:
            if job_tracer:
                job_tracer.uninstall()
        return None

    # Warm-up: every call of a job on the same input, discarded. The derived
    # m is cut to 64 there, since its cost is fresh memory on every job.
    attempt(0, None, w.chain_steps or WARMUP_CHAIN_STEPS)
    index = 1
    start = time.perf_counter()
    while True:
        job = attempt(index, tracer)
        if job:
            timed.append(job)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    if failed:
        print(f"{failed} of {attempted} jobs failed", file=sys.stderr)

    metrics = {}
    if trace and timed:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in layer_metrics(tracer.spans, span_cost()).items()}
    elif timed:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (median(t for j in timed for t in j.setup_s), "s"),
            "select_s": (median(j.select_s for j in timed), "s"),
            "eval_s": (median(t for j in timed for t in j.eval_s), "s"),
            "ratio": (median(j.ratio for j in timed), "ratio"),
            "subset_size": (median(j.subset_size for j in timed), "count"),
            "passes": (median(j.passes for j in timed), "count"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result = {"correct": correct and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        subsel = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    # generated inputs live inside the checkout and go when the run ends,
    # also when the run is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=HERE))
    try:
        result, tracer = run_workload(subsel, w, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{w.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": w.name, "seed": args.seed})
        print(f"trace: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
