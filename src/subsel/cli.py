"""Command-line benchmark driver.

Subcommands: gen (synthetic datasets with ground-truth sidecars), run
(pipeline and baseline experiments with pass auditing and CSV reports), and
diag (distributional diagnostics against enumerated oracles).

Exit codes: 0 success, 1 assertion or guarantee-check failure, 2 usage error.
Every number printed is recomputable through library calls: trial i of a run
with master seed s uses trial_seed(s, i) and nothing else draws randomness.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    OrthonormalBasis,
    PointSet,
    best_rank_k_in_span,
    err_p,
    extend_basis,
    optimal_subspace,
)
from .outliers import check_lambda, robust_select
from .rng import derive_seed_sequence
from .samplers import (
    ExactFitReached,
    SamplingConfig,
    adaptive_sample,
    adaptive_sample_round,
    derive_params,
    greedy_max_volume_init,
    init_pivot,
    select_subset,
    tv_distance_diag,
    volume_walk_distribution,
)
from .stream import (
    PassCountError,
    PassLog,
    generate_synthetic,
    open_source,
    write_binary,
    write_csv,
)

ALGORITHMS = ("mcmc", "adaptive", "fkv", "svd-oracle", "volume-exact", "volume-mcmc")

REPORT_COLUMNS = ("trial", "algorithm", "err_p", "err_span", "optimum", "ratio",
                  "passes", "subset_size", "wall_time_s", "accept_rate", "seed")


class GuaranteeError(AssertionError):
    """A report invariant failed (e.g. ratio below 1 with an exact optimum)."""


def trial_seed(master_seed: int, trial: int) -> int:
    """Deterministic per-trial seed; documented so reports are recomputable."""
    ss = derive_seed_sequence(master_seed, "trial", trial)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ReportRow:
    trial: int
    algorithm: str
    err_p: float
    err_span: float | None
    optimum: float | None
    ratio: float | None
    passes: int
    subset_size: int
    wall_time_s: float
    accept_rate: float | None
    seed: int

    def to_csv(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return ",".join(fmt(getattr(self, f.name)) for f in fields(self))

    @classmethod
    def from_csv(cls, line: str) -> "ReportRow":
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(REPORT_COLUMNS):
            raise ValueError(f"expected {len(REPORT_COLUMNS)} columns, got {len(parts)}")
        (trial, algorithm, err_p, err_span, optimum, ratio, passes, size,
         wall, accept, seed) = parts
        opt_float = (lambda s: None if s == "" else float(s))
        return cls(trial=int(trial), algorithm=algorithm, err_p=float(err_p),
                   err_span=opt_float(err_span), optimum=opt_float(optimum),
                   ratio=opt_float(ratio), passes=int(passes), subset_size=int(size),
                   wall_time_s=float(wall), accept_rate=opt_float(accept),
                   seed=int(seed))


def emit_report(rows: list[ReportRow]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    lines.extend(row.to_csv() for row in rows)
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> list[ReportRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(REPORT_COLUMNS):
        raise ValueError("missing or wrong report header")
    return [ReportRow.from_csv(ln) for ln in lines[1:]]


@dataclass
class ExperimentSpec:
    """One benchmark configuration; validated before any pass runs."""

    algorithm: str
    k: int
    p: float = 2.0
    epsilon: float = 0.5
    beta: float = 0.0
    lam: float = 1.0
    trials: int = 1
    seed: int = 0
    mode: str = "memory"
    init_mode: str = "exact-volume"
    timing: str = "real"
    points_per_round: int | None = None
    rounds: int | None = None
    chain_steps: int | None = None
    walk_steps: int | None = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.algorithm in ("svd-oracle", "volume-exact", "volume-mcmc") and self.p != 2.0:
            raise ValueError(f"{self.algorithm} supports p = 2 only")
        if self.algorithm == "mcmc" and not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.beta > 0.0 and self.algorithm != "mcmc":
            raise ValueError("outlier evaluation (beta > 0) is wired to the mcmc pipeline")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lambda must lie in (0, 1]")
        if self.mode not in ("memory", "streaming"):
            raise ValueError("mode must be memory or streaming")
        if self.timing not in ("real", "zero"):
            raise ValueError("timing must be real or zero")


def run_experiment(spec: ExperimentSpec, input_path: str,
                   truth: dict | None = None) -> tuple[list[ReportRow], dict]:
    """Execute all trials; returns report rows (ordered by trial) and a
    summary dict. Raises PassCountError when a pass assertion fails.

    The input is opened and validated once; every trial reads that one
    source with a fresh pass log. Trial warnings are printed to stderr.
    """
    spec.validate()
    source = open_source(input_path, spec.mode)
    eval_points = source.collect("report:oracle", reporting=True)
    optimum = None
    if spec.p == 2.0:
        if spec.beta > 0.0 and truth is not None and truth.get("inlier_ids"):
            inlier_rows = eval_points.data[list(truth["inlier_ids"])]
            _, optimum = optimal_subspace(PointSet(inlier_rows), spec.k)
        elif spec.beta == 0.0:
            _, optimum = optimal_subspace(eval_points, spec.k)

    rows = []
    for trial in range(spec.trials):
        seed = trial_seed(spec.seed, trial)
        source.pass_log = PassLog()
        rows.append(_run_trial(spec, source, trial, seed, eval_points,
                               optimum, truth))
    ratios = [r.ratio for r in rows if r.ratio is not None]
    summary = {
        "algorithm": spec.algorithm,
        "trials": spec.trials,
        "median_err_p": float(np.median([r.err_p for r in rows])),
        "median_ratio": float(np.median(ratios)) if ratios else None,
        "passes": max(r.passes for r in rows),
        "subset_size": max(r.subset_size for r in rows),
    }
    return rows, summary


# Each trial function runs one algorithm on a source and returns (basis,
# pass log, extras). The basis spans the selected subset, built from the
# rows the algorithm read, and the shared tail in _run_trial grades it on
# eval_points. extras override what that tail would otherwise derive: err_p
# (default: best k-subspace in the span), err_span (default: err_p of the
# span) and subset_size (default: the span's source ids); they also carry
# accept_rate, warnings and expected_passes (default 1).

def _trial_mcmc(spec, source, seed, truth):
    init = dict(init_mode=spec.init_mode, points_per_round=spec.points_per_round,
                rounds=spec.rounds, chain_steps=spec.chain_steps,
                init_walk_steps=spec.walk_steps)
    extras = {}
    if spec.beta > 0.0:
        truth_basis = truth_inliers = None
        if truth is not None and truth.get("planted_basis"):
            truth_basis = OrthonormalBasis(source.d, np.array(truth["planted_basis"]))
            truth_inliers = truth.get("inlier_ids")
        result, inliers = robust_select(
            source, spec.k, spec.epsilon, spec.beta, spec.lam, seed, **init,
            ground_truth_basis=truth_basis, ground_truth_inliers=truth_inliers)
        extras["err_p"] = inliers.inlier_error
    else:
        result = select_subset(source, SamplingConfig(
            k=spec.k, epsilon=spec.epsilon, p=spec.p, seed=seed, **init))
    k_pass_init = spec.init_mode == "adaptive-k-pass"
    return result.basis, result.passes, {
        **extras, "accept_rate": result.acceptance_rate, "warnings": result.warnings,
        "expected_passes": len(result.initial_ids) + 1 if k_pass_init else 2}


def _trial_adaptive(spec, source, seed, truth):
    t = spec.points_per_round or derive_params(spec.k, spec.epsilon).points_per_round
    l = spec.rounds if spec.rounds is not None else derive_params(
        spec.k, spec.epsilon).rounds
    result = adaptive_sample(source, OrthonormalBasis.empty(source.d), t, l, spec.p, seed)
    return result.basis, result.passes, {
        "warnings": result.warnings, "expected_passes": len(result.blocks)}


def _trial_fkv(spec, source, seed, truth):
    # length-squared sampling: an adaptive round against the empty span
    t = spec.points_per_round or derive_params(spec.k, spec.epsilon).points_per_round
    l = spec.rounds if spec.rounds is not None else 1
    empty = OrthonormalBasis.empty(source.d)
    ids, coords = adaptive_sample_round(source, empty, t * l, spec.p, seed, label="fkv")
    return extend_basis(empty, coords, ids), source.pass_log, {}


def _trial_svd_oracle(spec, source, seed, truth):
    basis, err = optimal_subspace(source.collect("svd-oracle"), spec.k)
    return basis, source.pass_log, {"err_p": err, "err_span": err,
                                    "subset_size": spec.k}


def _trial_volume(spec, source, seed, truth):
    init_mode = "exact-volume" if spec.algorithm == "volume-exact" else "mcmc-volume"
    basis, _ = init_pivot(source, spec.k, spec.p, seed, init_mode, spec.walk_steps or 1000)
    return basis, source.pass_log, {}


TRIALS = {
    "mcmc": _trial_mcmc,
    "adaptive": _trial_adaptive,
    "fkv": _trial_fkv,
    "svd-oracle": _trial_svd_oracle,
    "volume-exact": _trial_volume,
    "volume-mcmc": _trial_volume,
}


def _run_trial(spec: ExperimentSpec, source, trial: int, seed: int,
               eval_points: PointSet, optimum: float | None,
               truth: dict | None) -> ReportRow:
    start = time.perf_counter()
    basis, passes, extras = TRIALS[spec.algorithm](spec, source, seed, truth)
    for message in extras.get("warnings", ()):
        print(f"warning: trial {trial}: {message}", file=sys.stderr)
    err = (extras["err_p"] if "err_p" in extras
           else best_rank_k_in_span(eval_points, basis, spec.k)[1])
    err_span = (extras["err_span"] if "err_span" in extras
                else err_p(eval_points, basis, spec.p))
    passes.assert_passes(extras.get("expected_passes", 1))
    wall = _elapsed(spec, start)
    ratio = _ratio(err, optimum)
    # with an exact p=2 optimum and no trimming, no subset can beat it
    if spec.beta == 0.0 and ratio is not None and ratio < 1.0 - 1e-9:
        raise GuaranteeError(f"trial {trial}: ratio {ratio} below 1 against "
                             "the exact optimum")
    return ReportRow(trial=trial, algorithm=spec.algorithm, err_p=float(err),
                     err_span=float(err_span), optimum=optimum,
                     ratio=ratio, passes=passes.total_passes,
                     subset_size=extras.get("subset_size", len(basis.source_ids)),
                     wall_time_s=wall, accept_rate=extras.get("accept_rate"),
                     seed=seed)


def _elapsed(spec: ExperimentSpec, start: float) -> float:
    return 0.0 if spec.timing == "zero" else time.perf_counter() - start


def _ratio(err: float, optimum: float | None) -> float | None:
    if optimum is None or optimum <= 0.0:
        return None
    return float(err) / float(optimum)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.rank > args.d:
        print(f"error: --rank {args.rank} exceeds --d {args.d}", file=sys.stderr)
        return 2
    if not 0.0 <= args.outlier_frac < 1.0:
        print("error: --outlier-frac must lie in [0, 1)", file=sys.stderr)
        return 2
    pts, truth = generate_synthetic(
        n=args.n, d=args.d, rank=args.rank, noise_sigma=args.noise,
        outlier_frac=args.outlier_frac, outlier_scale=args.outlier_scale,
        seed=args.seed)
    if args.format == "csv":
        write_csv(args.out, pts.data)
    else:
        write_binary(args.out, pts.data)
    lam = check_lambda(pts, truth.planted_basis, args.outlier_frac,
                       truth.inlier_ids)
    sidecar = {
        "n": args.n, "d": args.d, "rank": args.rank, "noise_sigma": args.noise,
        "outlier_frac": args.outlier_frac, "outlier_scale": args.outlier_scale,
        "seed": args.seed,
        "inlier_ids": list(truth.inlier_ids),
        "outlier_ids": list(truth.outlier_ids),
        "planted_basis": truth.planted_basis.vectors.tolist(),
        "lambda_ratio": lam,
    }
    truth_path = str(args.out) + ".truth.json"
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    print(f"wrote {args.out} (n={args.n} d={args.d} format={args.format})")
    print(f"ground truth: rank={args.rank} inliers={len(truth.inlier_ids)} "
          f"lambda={lam:.6f} sidecar={truth_path}")
    return 0


def cmd_run(args) -> int:
    spec = ExperimentSpec(
        algorithm=args.alg, k=args.k, p=args.p, epsilon=args.epsilon,
        beta=args.beta, lam=args.lam, trials=args.trials, seed=args.seed,
        mode=args.mode, init_mode=args.init, timing=args.timing,
        points_per_round=args.t, rounds=args.l, chain_steps=args.m,
        walk_steps=args.steps)
    try:
        spec.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    truth = None
    truth_path = args.truth or (str(args.input) + ".truth.json")
    try:
        with open(truth_path, "r", encoding="utf-8") as fh:
            truth = json.load(fh)
    except OSError:
        truth = None
    try:
        rows, summary = run_experiment(spec, args.input, truth)
    except PassCountError as exc:
        print(f"pass-count assertion failed: {exc}", file=sys.stderr)
        return 1
    except GuaranteeError as exc:
        print(f"guarantee check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ExactFitReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_report(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    ratio_part = ("median_ratio={:.6f}".format(summary["median_ratio"])
                  if summary["median_ratio"] is not None else "median_ratio=n/a")
    print(f"summary: alg={summary['algorithm']} trials={summary['trials']} "
          f"median_err_p={summary['median_err_p']:.6g} {ratio_part} "
          f"passes={summary['passes']} subset_size={summary['subset_size']}")
    return 0


def cmd_diag_tv(args) -> int:
    if args.n > 4096:
        print(f"error: n={args.n} exceeds the enumeration guard (4096)",
              file=sys.stderr)
        return 2
    pts, _ = generate_synthetic(n=args.n, d=args.d, rank=min(args.d, args.k + 1),
                                noise_sigma=0.3, seed=args.seed)
    pivot = greedy_max_volume_init(pts, args.k)
    diag = tv_distance_diag(pts, pivot, pivot, args.m, p=args.p,
                            trials=args.trials, seed=args.seed)
    print(f"tv={diag.tv_distance:.6f} gamma={diag.gamma:.6f} m={args.m} "
          f"trials={args.trials} n={args.n}")
    if args.tv_bound is not None and diag.tv_distance > args.tv_bound:
        print(f"guarantee check failed: tv {diag.tv_distance:.6f} > bound "
              f"{args.tv_bound}", file=sys.stderr)
        return 1
    return 0


def cmd_diag_volume(args) -> int:
    if math.comb(args.n, args.k) > 20000:
        print(f"error: C({args.n},{args.k}) exceeds the enumeration guard (20000)",
              file=sys.stderr)
        return 2
    pts, _ = generate_synthetic(n=args.n, d=args.d, rank=min(args.d, args.k + 1),
                                noise_sigma=0.3, seed=args.seed)
    diag = volume_walk_distribution(pts, args.k, args.steps, args.walks,
                                    seed=args.seed)
    print(f"tv={diag.tv_distance:.6f} steps={args.steps} walks={args.walks} "
          f"subsets={len(diag.subsets)}")
    if diag.tv_distance > args.tv_bound:
        print(f"guarantee check failed: tv {diag.tv_distance:.6f} > bound "
              f"{args.tv_bound}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsel",
        description="Subset selection for lp subspace approximation: dataset "
                    "generation, few-pass selection benchmarks, diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset + ground truth")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--rank", type=int, required=True)
    gen.add_argument("--noise", type=float, default=0.1)
    gen.add_argument("--outlier-frac", type=float, default=0.0)
    gen.add_argument("--outlier-scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=("csv", "bin"), default="csv")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run selection experiments, emit a CSV report")
    run.add_argument("--input", required=True)
    run.add_argument("--truth", default=None,
                     help="ground-truth sidecar (default: <input>.truth.json)")
    run.add_argument("--alg", choices=ALGORITHMS, required=True)
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--p", type=float, default=2.0)
    run.add_argument("--epsilon", type=float, default=0.5)
    run.add_argument("--beta", type=float, default=0.0)
    run.add_argument("--lambda", dest="lam", type=float, default=1.0)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None)
    run.add_argument("--t", type=int, default=None, help="points per round override")
    run.add_argument("--l", type=int, default=None, help="rounds override")
    run.add_argument("--m", type=int, default=None, help="chain steps override")
    run.add_argument("--init", choices=("exact-volume", "mcmc-volume",
                                        "adaptive-k-pass"), default="exact-volume")
    run.add_argument("--mode", choices=("memory", "streaming"), default="memory")
    run.add_argument("--timing", choices=("real", "zero"), default="real",
                     help="zero writes wall_time_s=0.0 for byte-reproducible reports")
    run.add_argument("--steps", type=int, default=None,
                     help="walk steps for volume-mcmc and the mcmc-volume init")
    run.set_defaults(func=cmd_run)

    diag = sub.add_parser("diag", help="distributional diagnostics")
    diag_sub = diag.add_subparsers(dest="diag_command", required=True)

    tv = diag_sub.add_parser("tv", help="chain-vs-target total variation")
    tv.add_argument("--n", type=int, default=8)
    tv.add_argument("--d", type=int, default=3)
    tv.add_argument("--k", type=int, default=1)
    tv.add_argument("--p", type=float, default=2.0)
    tv.add_argument("--m", type=int, default=64)
    tv.add_argument("--trials", type=int, default=100_000)
    tv.add_argument("--seed", type=int, default=0)
    tv.add_argument("--tv-bound", type=float, default=None)
    tv.set_defaults(func=cmd_diag_tv)

    vol = diag_sub.add_parser("volume", help="volume walk vs brute force")
    vol.add_argument("--n", type=int, default=6)
    vol.add_argument("--d", type=int, default=3)
    vol.add_argument("--k", type=int, default=2)
    vol.add_argument("--steps", type=int, default=2000)
    vol.add_argument("--walks", type=int, default=50_000)
    vol.add_argument("--seed", type=int, default=0)
    vol.add_argument("--tv-bound", type=float, default=0.05)
    vol.set_defaults(func=cmd_diag_volume)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
