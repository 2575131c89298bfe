import json

import numpy as np
import pytest

from subsel.cli import (
    ExperimentSpec,
    ReportRow,
    emit_report,
    main,
    parse_report,
    trial_seed,
)
from subsel.linalg import OrthonormalBasis, best_rank_k_in_span, err_p
from subsel.samplers import SamplingConfig, adaptive_sample, select_subset
from subsel.stream import open_source


def gen_dataset(tmp_path, **kw):
    args = dict(n=120, d=8, rank=3, noise=0.1, seed=5)
    args.update(kw)
    out = tmp_path / "data.csv"
    flags = ["gen", "--n", str(args["n"]), "--d", str(args["d"]),
             "--rank", str(args["rank"]), "--noise", str(args["noise"]),
             "--seed", str(args["seed"]), "--out", str(out)]
    if "outlier_frac" in kw:
        flags += ["--outlier-frac", str(kw["outlier_frac"]),
                  "--outlier-scale", str(kw.get("outlier_scale", 1.0))]
    assert main(flags) == 0
    return out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_csv_and_sidecar(tmp_path, capsys):
    out = gen_dataset(tmp_path, n=100, d=10, rank=3, seed=7)
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 100
    sidecar = json.loads((tmp_path / "data.csv.truth.json").read_text())
    assert len(sidecar["inlier_ids"]) == 100
    assert np.array(sidecar["planted_basis"]).shape == (3, 10)
    assert "lambda" in capsys.readouterr().out


def test_gen_outlier_sidecar_counts(tmp_path):
    gen_dataset(tmp_path, n=100, d=10, rank=3, outlier_frac=0.1, outlier_scale=4.0)
    sidecar = json.loads((tmp_path / "data.csv.truth.json").read_text())
    assert len(sidecar["inlier_ids"]) == 90
    assert len(sidecar["outlier_ids"]) == 10


def test_gen_binary_round_trip(tmp_path):
    out = tmp_path / "data.bin"
    assert main(["gen", "--n", "50", "--d", "4", "--rank", "2", "--out",
                 str(out), "--format", "bin", "--seed", "3"]) == 0
    src = open_source(out)
    assert (src.n, src.d) == (50, 4)


def test_gen_invalid_rank_usage_error(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["gen", "--n", "10", "--d", "10", "--rank", "20",
                 "--out", str(out)]) == 2


def test_missing_flags_usage_error():
    assert main(["gen", "--n", "10"]) == 2
    assert main(["bogus"]) == 2
    assert main(["run", "--input", "nope.csv"]) == 2


# ---------------------------------------------------------------------------
# report round-trip
# ---------------------------------------------------------------------------

def test_report_round_trip():
    rows = [
        ReportRow(trial=0, algorithm="mcmc", err_p=1.2345678901234567,
                  err_span=0.5, optimum=1.1, ratio=1.122334455, passes=2,
                  subset_size=21, wall_time_s=0.125, accept_rate=0.5, seed=42),
        ReportRow(trial=1, algorithm="fkv", err_p=3.0, err_span=None,
                  optimum=None, ratio=None, passes=1, subset_size=16,
                  wall_time_s=0.0, accept_rate=None, seed=7),
    ]
    assert parse_report(emit_report(rows)) == rows


def test_report_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_report("nope\n1,2,3\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_svd_oracle_ratio_one(tmp_path):
    path = gen_dataset(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["run", "--input", str(path), "--alg", "svd-oracle", "--k", "3",
                 "--trials", "3", "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    assert len(rows) == 3
    assert all(r.ratio == pytest.approx(1.0) for r in rows)
    assert all(r.passes == 1 for r in rows)


def test_run_mcmc_passes_and_summary(tmp_path, capsys):
    path = gen_dataset(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "3",
                 "--epsilon", "0.5", "--trials", "2", "--m", "24",
                 "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    assert all(r.passes == 2 for r in rows)
    assert all(r.ratio is not None and r.ratio >= 1.0 - 1e-9 for r in rows)
    assert all(r.accept_rate is not None for r in rows)
    summary = capsys.readouterr().out
    assert "median_ratio" in summary and "passes=2" in summary


def test_run_adaptive_pass_column(tmp_path):
    path = gen_dataset(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["run", "--input", str(path), "--alg", "adaptive", "--k", "3",
                 "--t", "6", "--l", "3", "--trials", "2", "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    assert all(r.passes == 3 for r in rows)
    assert all(r.subset_size == 18 for r in rows)


def test_run_fkv_single_pass(tmp_path):
    path = gen_dataset(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["run", "--input", str(path), "--alg", "fkv", "--k", "3",
                 "--t", "10", "--l", "2", "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    assert rows[0].passes == 1
    assert rows[0].subset_size == 20


def test_run_fkv_all_zero_input_usage_error(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    path.write_text("0.0,0.0\n0.0,0.0\n")
    assert main(["run", "--input", str(path), "--alg", "fkv", "--k", "1",
                 "--t", "2", "--l", "1"]) == 2
    assert "fits every point" in capsys.readouterr().err


def test_run_volume_algs(tmp_path):
    path = gen_dataset(tmp_path, n=40, d=5, rank=3)
    for alg, extra in (("volume-exact", []), ("volume-mcmc", ["--steps", "200"])):
        out = tmp_path / f"{alg}.csv"
        assert main(["run", "--input", str(path), "--alg", alg, "--k", "2",
                     "--out", str(out), *extra]) == 0
        rows = parse_report(out.read_text())
        assert rows[0].subset_size == 2
        assert rows[0].ratio >= 1.0 - 1e-9


def test_run_mcmc_volume_init_with_steps(tmp_path):
    path = gen_dataset(tmp_path, n=60, d=6, rank=3)
    out = tmp_path / "walkinit.csv"
    assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "3",
                 "--init", "mcmc-volume", "--steps", "150", "--m", "12",
                 "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    assert rows[0].passes == 2


def test_run_robust_uses_truth(tmp_path):
    path = gen_dataset(tmp_path, n=150, d=8, rank=2, outlier_frac=0.1,
                       outlier_scale=0.8)
    out = tmp_path / "rob.csv"
    assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "2",
                 "--beta", "0.1", "--lambda", "0.5", "--m", "16",
                 "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    assert rows[0].passes == 2
    assert rows[0].optimum is not None


def test_run_opens_input_once(tmp_path, monkeypatch):
    import subsel.cli

    path = gen_dataset(tmp_path)
    opened = []

    def counting_open(path_or_points, mode="memory"):
        if not hasattr(path_or_points, "data"):
            opened.append(mode)
        return open_source(path_or_points, mode)

    monkeypatch.setattr(subsel.cli, "open_source", counting_open)
    for mode in ("memory", "streaming"):
        counts = []
        for trials in ("1", "3"):
            opened.clear()
            assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "3",
                         "--m", "8", "--trials", trials, "--mode", mode,
                         "--out", str(tmp_path / "r.csv")]) == 0
            counts.append(len(opened))
        assert counts[0] == counts[1] == 1


def test_run_prints_warnings(tmp_path, capsys):
    path = gen_dataset(tmp_path, n=150, d=8, rank=2, outlier_frac=0.05,
                       outlier_scale=4.0)
    capsys.readouterr()
    assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "2",
                 "--beta", "0.05", "--lambda", "1.0", "--m", "8",
                 "--out", str(tmp_path / "rob.csv")]) == 0
    assert "assumption violated" in capsys.readouterr().err


def test_run_rejects_incompatible_flags(tmp_path):
    path = gen_dataset(tmp_path)
    assert main(["run", "--input", str(path), "--alg", "svd-oracle", "--k", "3",
                 "--p", "3"]) == 2
    assert main(["run", "--input", str(path), "--alg", "fkv", "--k", "3",
                 "--beta", "0.2"]) == 2


def test_run_p3_needs_adaptive_init(tmp_path, capsys):
    # volume inits sample p = 2 volumes; p != 2 is refused before any pass
    # and runs in k + 1 passes with the adaptive init
    path = gen_dataset(tmp_path, n=40)
    capsys.readouterr()
    for init in ([], ["--init", "mcmc-volume"]):
        assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "2",
                     "--p", "3", *init]) == 2
        assert "adaptive-k-pass" in capsys.readouterr().err
    for alg in ("volume-exact", "volume-mcmc"):
        assert main(["run", "--input", str(path), "--alg", alg, "--k", "2",
                     "--p", "3"]) == 2
        assert "p = 2 only" in capsys.readouterr().err
    out = tmp_path / "lp.csv"
    assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "2", "--p", "3",
                 "--init", "adaptive-k-pass", "--m", "8", "--trials", "2",
                 "--timing", "zero", "--out", str(out)]) == 0
    assert [row.passes for row in parse_report(out.read_text())] == [3, 3]


def test_run_byte_identical_across_modes(tmp_path):
    path = gen_dataset(tmp_path)
    outs = []
    for mode in ("memory", "streaming"):
        out = tmp_path / f"report-{mode}.csv"
        assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "3",
                     "--m", "16", "--trials", "3", "--mode", mode,
                     "--timing", "zero", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_numbers_recomputable_from_library(tmp_path):
    # golden check: the CLI is a thin shell over the library with trial_seed
    path = gen_dataset(tmp_path)
    out = tmp_path / "report.csv"
    master = 99
    assert main(["run", "--input", str(path), "--alg", "mcmc", "--k", "3",
                 "--m", "16", "--trials", "2", "--seed", str(master),
                 "--timing", "zero", "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    pts = open_source(path).collect("load")
    for trial, row in enumerate(rows):
        seed = trial_seed(master, trial)
        assert row.seed == seed
        cfg = SamplingConfig(k=3, epsilon=0.5, seed=seed, chain_steps=16)
        result = select_subset(open_source(path), cfg)
        assert row.err_span == err_p(pts, result.basis, 2.0)
        _, err_k = best_rank_k_in_span(pts, result.basis, 3)
        assert row.err_p == err_k
        assert row.subset_size == result.size

    # the adaptive row grades the basis its selection built
    assert main(["run", "--input", str(path), "--alg", "adaptive", "--k", "3",
                 "--t", "2", "--l", "2", "--trials", "2", "--seed", str(master),
                 "--timing", "zero", "--out", str(out)]) == 0
    for trial, row in enumerate(parse_report(out.read_text())):
        seed = trial_seed(master, trial)
        assert row.seed == seed
        empty = OrthonormalBasis.empty(pts.d)
        result = adaptive_sample(open_source(path), empty, 2, 2, 2.0, seed)
        assert row.err_span == err_p(pts, result.basis, 2.0)
        _, err_k = best_rank_k_in_span(pts, result.basis, 3)
        assert row.err_p == err_k
        assert row.subset_size == result.size == 4
        assert row.passes == 2


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------

def test_diag_tv_prints_and_exits_zero(capsys):
    assert main(["diag", "tv", "--n", "8", "--m", "64", "--trials", "20000"]) == 0
    out = capsys.readouterr().out
    assert "tv=" in out and "gamma=" in out


def test_diag_tv_guard(capsys):
    assert main(["diag", "tv", "--n", "100000"]) == 2


def test_diag_tv_bound_failure():
    # one step cannot be within TV 1e-6 of the target
    assert main(["diag", "tv", "--n", "8", "--m", "1", "--trials", "5000",
                 "--tv-bound", "1e-6"]) == 1


def test_diag_volume_converges(capsys):
    assert main(["diag", "volume", "--n", "6", "--k", "2", "--steps", "2000",
                 "--walks", "20000"]) == 0
    assert "tv=" in capsys.readouterr().out


def test_diag_volume_guard():
    assert main(["diag", "volume", "--n", "500", "--k", "5"]) == 2


def test_diag_volume_bound_failure():
    assert main(["diag", "volume", "--n", "6", "--k", "2", "--steps", "1",
                 "--walks", "2000", "--tv-bound", "0.001"]) == 1


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_experiment_spec_validation():
    ExperimentSpec(algorithm="mcmc", k=2).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="nope", k=2).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="mcmc", k=2, trials=0).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="svd-oracle", k=2, p=3.0).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="mcmc", k=2, epsilon=2.0).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="mcmc", k=2, mode="tape").validate()
