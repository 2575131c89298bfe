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
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    OrthonormalBasis,
    PointSet,
    _check_p,
    best_rank_k_in_span,
    err_p,
    is_exact_fit,
    optimal_subspace,
    orthonormal_basis,
)
from .outliers import check_lambda, robust_select
from .rng import derive_rng, derive_seed_sequence
from .samplers import (
    TV_DIAG_MAX_POINTS,
    WALK_DIAG_MAX_SUBSETS,
    ExactFitReached,
    SamplingConfig,
    adaptive_sample,
    derive_params,
    greedy_max_volume_init,
    init_pivot,
    select_subset,
    tv_distance_diag,
    volume_sample_mcmc,
    volume_walk_distribution,
)
from .stream import (
    PassCountError,
    PassLog,
    _check_beta_lambda,
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
        """The CLI's rules, then the library checks its trials reach."""
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode not in ("memory", "streaming"):
            raise ValueError("mode must be memory or streaming")
        if self.timing not in ("real", "zero"):
            raise ValueError("timing must be real or zero")
        if self.algorithm in ("svd-oracle", "volume-exact", "volume-mcmc") and self.p != 2.0:
            raise ValueError(f"{self.algorithm} supports p = 2 only")
        if self.beta > 0.0 and (self.algorithm != "mcmc" or self.p != 2.0):
            raise ValueError("outlier evaluation (beta > 0) needs the mcmc pipeline and p = 2")
        if self.lam != 1.0 and not self.beta > 0.0:
            raise ValueError("--lambda needs --beta > 0")
        # every algorithm refuses these, also those that do not read them
        for flag, value in (("--t", self.points_per_round), ("--l", self.rounds),
                            ("--m", self.chain_steps), ("--steps", self.walk_steps)):
            if value is not None and value < 1:
                raise ValueError(f"{flag} must be >= 1")
        if self.algorithm == "mcmc":  # lam != 1 scales robust_select's closed forms
            SamplingConfig(k=self.k, epsilon=self.epsilon, p=self.p, init_mode=self.init_mode,
                           points_per_round=self.points_per_round, rounds=self.rounds,
                           chain_steps=self.chain_steps)._params(self.lam)
        elif self.algorithm in ("adaptive", "fkv"):
            derive_params(self.k, self.epsilon, points_per_round=self.points_per_round,
                          rounds=self.rounds)
            _check_p(self.p)
        elif self.k < 1:  # the other trials check k only against the data
            raise ValueError("k must be >= 1")
        if self.beta != 0.0:
            _check_beta_lambda(self.beta, self.lam)


def run_experiment(spec: ExperimentSpec, input_path: str,
                   truth: dict | None = None) -> tuple[list[ReportRow], dict]:
    """Execute all trials; returns report rows (ordered by trial) and a
    summary dict. Raises PassCountError when a pass assertion fails.

    The input is opened and validated once; every trial reads that one
    source with a fresh pass log. Trial warnings are printed to stderr. When
    the p = 2 optimum is an exact fit (rounding noise, at most EXACT_FIT_REL
    of the data's squared norm), no ratio is reported: both sides of it
    would be noise.
    """
    spec.validate()
    source = open_source(input_path, spec.mode)
    eval_points = source.collect("report:oracle", reporting=True)
    optimum = None
    exact_fit = False
    if spec.p == 2.0:
        opt_points = None
        if spec.beta > 0.0 and truth is not None and truth.get("inlier_ids"):
            # one gathered copy of the checked inlier rows, freed after the call
            opt_points = PointSet._adopt(eval_points.data[list(truth["inlier_ids"])])
        elif spec.beta == 0.0:
            opt_points = eval_points
        if opt_points is not None:
            _, optimum = optimal_subspace(opt_points, spec.k)
            exact_fit = is_exact_fit(opt_points, optimum)
            del opt_points

    rows = []
    for trial in range(spec.trials):
        seed = trial_seed(spec.seed, trial)
        source.pass_log = PassLog()
        rows.append(_run_trial(spec, source, trial, seed, eval_points,
                               optimum, exact_fit, truth))
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
                rounds=spec.rounds, chain_steps=spec.chain_steps)
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
        "expected_passes": spec.k + 1 if k_pass_init else 2}


def _trial_adaptive(spec, source, seed, truth):
    params = derive_params(spec.k, spec.epsilon, points_per_round=spec.points_per_round,
                           rounds=spec.rounds)
    t, l = params.points_per_round, params.rounds
    result = adaptive_sample(source, OrthonormalBasis.empty(source.d), t, l, spec.p, seed)
    # the round that finds the exact fit makes its pass too
    return result.basis, result.passes, {
        "warnings": result.warnings, "expected_passes": min(l, len(result.blocks) + 1)}


def _trial_fkv(spec, source, seed, truth):
    # length-squared sampling: one adaptive round of t*l draws from the empty span
    params = derive_params(spec.k, spec.epsilon, points_per_round=spec.points_per_round)
    l = spec.rounds if spec.rounds is not None else 1
    result = adaptive_sample(source, OrthonormalBasis.empty(source.d),
                             params.points_per_round * l, 1, spec.p, seed)
    return result.basis, result.passes, {"warnings": result.warnings}


def _trial_svd_oracle(spec, source, seed, truth):
    basis, err = optimal_subspace(source.collect("svd-oracle"), spec.k)
    return basis, source.pass_log, {"err_p": err, "err_span": err,
                                    "subset_size": spec.k}


def _trial_volume_exact(spec, source, seed, truth):
    return init_pivot(source, spec.k, spec.p, seed, "exact-volume"), source.pass_log, {}


def _trial_volume_mcmc(spec, source, seed, truth):
    # the stream label seeds every volume-mcmc report: a new label moves them
    pts = source.collect("volume-mcmc")
    steps = 1000 if spec.walk_steps is None else spec.walk_steps
    ids = volume_sample_mcmc(pts, spec.k, steps, rng=derive_rng(seed, "init", "mcmc-volume"))
    return orthonormal_basis(pts, ids), source.pass_log, {}


TRIALS = {
    "mcmc": _trial_mcmc,
    "adaptive": _trial_adaptive,
    "fkv": _trial_fkv,
    "svd-oracle": _trial_svd_oracle,
    "volume-exact": _trial_volume_exact,
    "volume-mcmc": _trial_volume_mcmc,
}


def _run_trial(spec: ExperimentSpec, source, trial: int, seed: int,
               eval_points: PointSet, optimum: float | None, exact_fit: bool,
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
    ratio = None if exact_fit else _ratio(err, optimum)
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
    try:
        pts, truth = generate_synthetic(
            n=args.n, d=args.d, rank=args.rank, noise_sigma=args.noise,
            outlier_frac=args.outlier_frac, outlier_scale=args.outlier_scale,
            seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
        (write_csv if args.format == "csv" else write_binary)(args.out, pts.data)
        with open(truth_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        _check_out(args.out)
        truth = _load_truth(args.truth, str(args.input) + ".truth.json")
        rows, summary = run_experiment(spec, args.input, truth)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(emit_report(rows))
    except PassCountError as exc:
        print(f"pass-count assertion failed: {exc}", file=sys.stderr)
        return 1
    except GuaranteeError as exc:
        print(f"guarantee check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(emit_report(rows))
    ratio_part = ("median_ratio={:.6f}".format(summary["median_ratio"])
                  if summary["median_ratio"] is not None else "median_ratio=n/a")
    print(f"summary: alg={summary['algorithm']} trials={summary['trials']} "
          f"median_err_p={summary['median_err_p']:.6g} {ratio_part} "
          f"passes={summary['passes']} subset_size={summary['subset_size']}")
    return 0


def _check_out(path: str | None) -> None:
    """A report path can be written: its directory exists and it is not
    one, checked before the input is opened."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ValueError(f"--out {path}: is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"--out {path}: no such directory")


def _load_truth(path: str | None, default: str) -> dict | None:
    """The ground-truth sidecar at `path`, else at `default` when a file is
    there, else None. A sidecar that cannot be read or is not a JSON object
    is an error."""
    if path is None:
        if not os.path.exists(default):
            return None
        path = default
    with open(path, encoding="utf-8") as fh:
        try:
            truth = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"truth sidecar {path}: not JSON ({exc})") from None
    if not isinstance(truth, dict):
        raise ValueError(f"truth sidecar {path}: not a JSON object")
    return truth


def _check_tv_bound(bound: float | None) -> None:
    if bound is not None and not math.isfinite(bound):
        raise ValueError("--tv-bound must be finite")


def cmd_diag_tv(args) -> int:
    if args.n > TV_DIAG_MAX_POINTS:
        print(f"error: n={args.n} exceeds the enumeration guard ({TV_DIAG_MAX_POINTS})",
              file=sys.stderr)
        return 2
    try:
        _check_tv_bound(args.tv_bound)
        pts, _ = generate_synthetic(n=args.n, d=args.d, rank=min(args.d, args.k + 1),
                                    noise_sigma=0.3, seed=args.seed)
        pivot = greedy_max_volume_init(pts, args.k)
        diag = tv_distance_diag(pts, pivot, pivot, args.m, p=args.p,
                                trials=args.trials, seed=args.seed)
    except (ValueError, ExactFitReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"tv={diag.tv_distance:.6f} gamma={diag.gamma:.6f} m={args.m} "
          f"trials={args.trials} n={args.n}")
    if args.tv_bound is not None and diag.tv_distance > args.tv_bound:
        print(f"guarantee check failed: tv {diag.tv_distance:.6f} > bound "
              f"{args.tv_bound}", file=sys.stderr)
        return 1
    return 0


def cmd_diag_volume(args) -> int:
    try:
        _check_tv_bound(args.tv_bound)
        # math.comb refuses a negative n or k with a ValueError
        if math.comb(args.n, args.k) > WALK_DIAG_MAX_SUBSETS:
            raise ValueError(f"C({args.n},{args.k}) exceeds the enumeration guard "
                             f"({WALK_DIAG_MAX_SUBSETS})")
        pts, _ = generate_synthetic(n=args.n, d=args.d, rank=min(args.d, args.k + 1),
                                    noise_sigma=0.3, seed=args.seed)
        diag = volume_walk_distribution(pts, args.k, args.steps, args.walks,
                                        seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    run.add_argument("--init", choices=("exact-volume", "adaptive-k-pass"),
                     default="exact-volume")
    run.add_argument("--mode", choices=("memory", "streaming"), default="memory")
    run.add_argument("--timing", choices=("real", "zero"), default="real",
                     help="zero writes wall_time_s=0.0 for byte-reproducible reports")
    run.add_argument("--steps", type=int, default=None,
                     help="walk steps for volume-mcmc (default 1000)")
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
