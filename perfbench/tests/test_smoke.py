"""Smoke test: every workload at tiny size, with every correctness check.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, ClosedForm, closed_form  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# k = 2 and epsilon = 0.9 select 20 rows (38 on the robust workload) in
# d = 60, so the span stays a proper subspace as at full size.
TINY = {
    "tall-binary-stream": dict(n=3000),
    "csv-robust-stream": dict(n=1500),
    "theory-m": dict(n=300, expected_m=None),
}


def tiny(name):
    return replace(WORKLOADS[name], d=60, rank=2, k=2, epsilon=0.9, **TINY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks(name, trace, tmp_path):
    w = tiny(name)
    result, tracer = run.run_workload(run.import_library(), w, seed=1, seconds=0,
                                      trace=bool(trace), workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    else:
        assert tracer.spans and all(s["end"] is not None for s in tracer.spans)
        for layer in ("stream.open_s", "stream.prefetch_s", "samplers.mcmc_self_s",
                      "linalg.basis_s", "linalg.oracle_s"):
            assert result["metrics"][layer]["value"] > 0, layer


def test_failed_job_is_counted_and_fails_compare(tmp_path, monkeypatch):
    real_job = run.Bench.job

    def job(self, index, tracer, chain_steps):
        if index == 0:
            raise RuntimeError("injected fault in the warm-up job")
        return real_job(self, index, tracer, chain_steps)

    monkeypatch.setattr(run.Bench, "job", job)
    result, _ = run.run_workload(run.import_library(), tiny("theory-m"), seed=1,
                                 seconds=0, trace=False, workdir=tmp_path)
    # "correct" speaks of the jobs that did not fail; the failure is counted
    assert result["correct"] and (result["attempted"], result["failed"]) == (2, 1)
    # the same metrics stand in for every workload; only "failed" differs
    for name, failed in (("base", 0), ("new", 1)):
        for w in SPEC["workloads"]:
            out = tmp_path / name / w["name"]
            out.mkdir(parents=True)
            (out / "seed1.json").write_text(json.dumps({**result, "failed": failed}))
    base, new = str(tmp_path / "base"), str(tmp_path / "new")
    assert compare.main([base, base]) == 0
    assert compare.main([base, new]) == 1


def test_theory_m_closed_form():
    assert closed_form(5, 0.5, 1.0) == ClosedForm(t=80, l=2, m=140_218)


def test_refuses_without_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "inputs-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theory-m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_verdicts():
    base = [1.00, 1.01, 1.02, 0.99, 1.00]
    assert compare.verdict(base, [1.05, 1.04, 1.06, 1.05, 1.05], "lower", 0.1)[-1] == "within"
    assert compare.verdict(base, [1.2, 1.21, 1.19, 1.2, 1.2], "lower", 0.1)[-1] == "worse"
    assert compare.verdict(base, [0.8, 1.3, 0.7, 1.0, 1.3], "lower", 0.1)[-1] == "unresolved"
    assert compare.verdict(base, [0.8, 0.81, 0.79, 0.8, 0.8], "higher", 0.1)[-1] == "worse"
