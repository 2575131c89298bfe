"""Spans around the library's layer boundaries, recorded from outside.

install() replaces each traced function at every module attribute of the
package that is bound to it, which is where its callers look it up, and at
the class attribute for methods; uninstall() puts the originals back. Spans
record name, start, end, parent and job id, stay in memory and are written
out once at the end of the run. No file of the library is edited.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from statistics import median

def _rows(args, kwargs, out) -> dict:
    rows = args[0] if args else kwargs["rows"]
    return {"rows": len(rows) if getattr(rows, "ndim", 2) == 2 else 1}


def _open_bytes(args, kwargs, out) -> dict:
    # validation scans the file once; memory mode scans it again to load it
    if out.path is None:
        return {"bytes": 0}
    return {"bytes": os.path.getsize(out.path) * (1 if out.mode == "streaming" else 2)}


def _pass_counts(args, kwargs, out) -> dict:
    source = args[0]
    size = os.path.getsize(source.path) if source.mode == "streaming" else 0
    return {"rows": out.rows_visited, "bytes": size}


# (defining module, attribute, span name, counters taken from the call)
TARGETS = (
    ("subsel.stream", "open_source", "stream.open", _open_bytes),
    ("subsel.stream", "DatasetSource.stream_pass_chunks", "stream.pass", _pass_counts),
    ("subsel.stream", "DatasetSource.collect", "stream.collect", None),
    ("subsel.stream", "proposal_prefetch_pass", "stream.prefetch", None),
    ("subsel.stream", "ReservoirBank.offer", "stream.offer", None),
    ("subsel.samplers", "init_pivot", "samplers.init", None),
    ("subsel.samplers", "volume_sample_dpp", "samplers.dpp", None),
    ("subsel.samplers", "mcmc_select", "samplers.mcmc", None),
    ("subsel.linalg", "extend_basis", "linalg.basis", None),
    ("subsel.linalg", "residual_distances", "linalg.residual", _rows),
    ("subsel.linalg", "optimal_subspace", "linalg.oracle", None),
    ("subsel.linalg", "best_rank_k_in_span", "linalg.best_k", None),
    ("subsel.outliers", "fit_trimmed_subspace", "outliers.fit", None),
    ("subsel.outliers", "nearest_inliers", "outliers.trim", None),
    ("subsel.outliers", "check_lambda", "outliers.lambda", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter() - self._t0,
                           "end": None, "parent": parent, "job": self.job})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> dict:
        span = self.spans[index]
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def _wrap(self, fn, name: str, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "stream.pass":
                args, kwargs = self._wrap_visitor(args, kwargs)
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if counters is not None:
                span.update(counters(args, kwargs, out))
            return out
        return traced

    def _wrap_visitor(self, args, kwargs):
        """Give the pass visitor a span of its own, so that the pass's self
        time is the reading and chunking alone."""
        def visit(start, chunk, _visitor=(args[2] if len(args) > 2 else kwargs["visitor"])):
            with self.span("stream.visit"):
                _visitor(start, chunk)
        if len(args) > 2:
            return args[:2] + (visit,) + args[3:], kwargs
        return args, {**kwargs, "visitor": visit}

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "subsel" or name.startswith("subsel.")]
        for module_name, attr, name, counters in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found; {name} not traced",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(original, name, counters)
            holders = [owner] if path else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def span_cost(calls: int = 10_000, rounds: int = 5) -> float:
    """Seconds one traced call adds to a bare call: the wrapper timed on a
    no-op with a throwaway tracer, median over rounds."""
    def noop():
        return None

    def per_call(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    return median(per_call(Tracer()._wrap(noop, "calibrate", None)) - per_call(noop)
                  for _ in range(rounds))


# -- per-layer metrics -------------------------------------------------------

class PhaseTotals:
    """Per-name totals over one top-level benchmark span and its subtree."""

    def __init__(self, spans: list[dict], root: int, children: dict[int, list[int]]):
        self.root = spans[root]
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        todo = [(root, frozenset())]
        while todo:
            i, outer = todo.pop()
            span = spans[i]
            name = span["name"]
            duration = span["end"] - span["start"]
            kids = children.get(i, [])
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - sum(
                spans[c]["end"] - spans[c]["start"] for c in kids)
            self.calls[name] = self.calls.get(name, 0) + 1
            if name not in outer:  # a span nested in one of its own name adds no time
                self.total[name] = self.total.get(name, 0.0) + duration
            for key in ("rows", "bytes"):
                if key in span:
                    self.counts[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0) + span[key]
            todo.extend((c, outer | {name}) for c in kids)


def _per_call(phase: str, fn):
    """A job's figure: the median of fn over the job's calls of `phase`."""
    return lambda phases: median(fn(p) for p in phases[phase])


def _total(name):
    return lambda p: p.total.get(name, 0.0)


def _self(name):
    return lambda p: p.self_time.get(name, 0.0)


def _calls(name):
    return lambda p: p.calls.get(name, 0)


def _count(key):
    return lambda p: p.counts.get(key, 0)


def _ratio(num, den):
    return lambda p: num(p) / den(p) if den(p) > 0 else 0.0


def _setup(fn):
    return _per_call("setup", fn)


def _select(fn):
    return _per_call("select", fn)


def _eval(fn):
    return _per_call("eval", fn)


# metric -> (unit, figure of one job's phases); the benchmark notes the
# result's slots, passes and chain counts on the selection span itself
LAYER_METRICS = {
    "stream.open_s": ("s", _setup(_total("stream.open"))),
    "stream.pass_self_s": ("s", _select(_self("stream.pass"))),
    "stream.pass_rows_per_s": ("rows/s", _select(_ratio(_count("stream.pass.rows"),
                                                        _self("stream.pass")))),
    "stream.collect_s": ("s", _select(_total("stream.collect"))),
    # file size times scans, over one set-up and the selection
    "stream.bytes_read": ("B", lambda ph: _setup(_count("stream.open.bytes"))(ph)
                          + _select(_count("stream.pass.bytes"))(ph)),
    "stream.prefetch_s": ("s", _select(_total("stream.prefetch"))),
    "stream.offer_s": ("s", _select(_total("stream.offer"))),
    "stream.offer_calls": ("count", _select(_calls("stream.offer"))),
    "stream.reservoir_variates": ("count", _select(
        lambda p: 2 * p.root["slots"] * p.calls.get("stream.offer", 0))),
    "stream.reporting_passes": ("count", _select(lambda p: p.root["reporting_passes"])),
    "samplers.init_s": ("s", _select(_total("samplers.init"))),
    "samplers.dpp_s": ("s", _select(_total("samplers.dpp"))),
    "samplers.mcmc_self_s": ("s", _select(_self("samplers.mcmc"))),
    "samplers.chain_steps": ("count", _select(lambda p: p.root["chain_steps"])),
    "samplers.accept_rate": ("ratio", _select(_ratio(lambda p: p.root["accepted"],
                                                     lambda p: p.root["chain_steps"]))),
    "linalg.basis_s": ("s", _select(_total("linalg.basis"))),
    "linalg.residual_s": ("s", _select(_total("linalg.residual"))),
    "linalg.residual_rows": ("count", _select(_count("linalg.residual.rows"))),
    "linalg.oracle_s": ("s", _eval(_total("linalg.oracle"))),
    "linalg.best_k_s": ("s", _eval(_total("linalg.best_k"))),
    "outliers.fit_s": ("s", _select(_total("outliers.fit"))),
    "outliers.trim_s": ("s", _select(_total("outliers.trim"))),
    "outliers.lambda_s": ("s", _select(_total("outliers.lambda"))),
}


def layer_metrics(spans: list[dict], cost: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures: for each traced job, the median over the calls of
    the benchmark phase a metric belongs to, then the median over jobs.
    Tracing overhead is the selection's span count times `cost`, the
    measured price of one span."""
    children: dict[int, list[int]] = {}
    per_job: dict[int, dict[str, list[PhaseTotals]]] = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)
    for i, span in enumerate(spans):
        if span["parent"] is None:
            phase = span["name"].removeprefix("bench.")
            per_job.setdefault(span["job"], {}).setdefault(phase, []).append(
                PhaseTotals(spans, i, children))
    # a job that raised before grading has no figures
    jobs = [phases for phases in per_job.values() if len(phases) == 3]
    metrics = {**LAYER_METRICS, "trace.select_overhead_s": (
        "s", _select(lambda p: cost * sum(p.calls.values())))}
    return {name: (float(median(fn(phases) for phases in jobs)), unit)
            for name, (unit, fn) in metrics.items()}
