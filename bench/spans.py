"""Span tracing for the benchmark's traced run, from outside the library.

`install` replaces each traced public function with a wrapper that records
a span (name, start, end, parent id) into a `Tracer`.  Every module
attribute that holds the function is patched, so a call is seen under the
name its caller looks up: `fbmc_preamble.analysis.slot_data` as well as
`fbmc_preamble.waveform.slot_data`.  `uninstall` puts the originals back,
so untraced calls run the library's own code.

`layer_metrics` turns the spans of a run into the per-layer metrics that
BENCHMARK.json declares; `self_times` is the duration of each span minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("sequences", "prototype", "waveform", "analysis", "cli")

ROOT_SPAN = "bench.op"
IFFT_SPAN = "numpy.fft.ifft"

# Traced functions, named <module>.<attribute> of fbmc_preamble.
FUNCTIONS = (
    "sequences.dj_pair", "sequences.gcp_residual", "sequences.phase_transform",
    "sequences.sparsify", "sequences.sparse_golay_preamble", "sequences.mseq_preamble",
    "sequences.iamc_preamble", "prototype.make_filter", "prototype.papr_bound_sigma0",
    "waveform.slot_data", "waveform.build_frame", "waveform.synthesize",
    "analysis.monte_carlo_ccdf", "analysis.papr_samples", "analysis.papr",
    "analysis.nu_of_t", "analysis.sigma2_of_t", "analysis.iapr_exceedance",
    "analysis.marcum_q1", "cli.main",
)
# Methods are patched on their class, where instance calls look them up.
FILTER_EVAL_SPAN = "prototype.filter_eval"      # PrototypeFilter.__call__
AT_TIME_SPAN = "analysis.at_time"               # RicianPointModel.at_time


class Tracer:
    """Spans of one traced run, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.nbytes = array("q")
        self._stack: list[int] = []

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.error.append(0)
        self.nbytes.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, nbytes: int = 0, error: bool = False) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.nbytes[sid] = nbytes
        self.error[sid] = error
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, first: int = 0, last: int | None = None) -> dict:
        """Spans first..last-1 as numpy arrays (parent ids stay absolute)."""
        sl = slice(first, last)
        return {
            "name_id": np.asarray(self.name_id[sl], dtype=np.int32),
            "parent": np.asarray(self.parent[sl], dtype=np.int64),
            "start": np.asarray(self.start[sl], dtype=np.int64),
            "end": np.asarray(self.end[sl], dtype=np.int64),
            "error": np.asarray(self.error[sl], dtype=np.int8),
            "nbytes": np.asarray(self.nbytes[sl], dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def _wrap(fn, tracer: Tracer, name: str, nbytes_of=None):
    nid = tracer.name(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, error=True)
            raise
        tracer.close(sid, nbytes_of(args, out) if nbytes_of else 0)
        return out
    return traced


def _ifft_bytes(args, out) -> int:
    """Bytes read and written by one IFFT, computed from the array shapes."""
    return int(getattr(args[0], "nbytes", 0)) + int(out.nbytes)


def install(tracer: Tracer, lib) -> list:
    """Patch every traced callable; returns the undo list for `uninstall`."""
    modules = [lib.pkg, lib.sequences, lib.prototype, lib.waveform, lib.analysis, lib.cli]
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for name in FUNCTIONS:
        mod_name, attr = name.split(".")
        orig = getattr(getattr(lib, mod_name), attr)
        wrapped = _wrap(orig, tracer, name)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    patch(mod, key, wrapped)
    patch(lib.prototype.PrototypeFilter, "__call__",
          _wrap(lib.prototype.PrototypeFilter.__call__, tracer, FILTER_EVAL_SPAN))
    at_time = lib.analysis.RicianPointModel.__dict__["at_time"].__func__
    patch(lib.analysis.RicianPointModel, "at_time",
          classmethod(_wrap(at_time, tracer, AT_TIME_SPAN)))
    patch(np.fft, "ifft", _wrap(np.fft.ifft, tracer, IFFT_SPAN, _ifft_bytes))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself.  `parent` holds indices into the same
    arrays; -1 (or an index outside them) marks a root."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(start)
    covered = np.zeros(n, dtype=np.int64)
    has_parent = (parent >= 0) & (parent < n)
    kids = np.flatnonzero(has_parent)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    cur_parent, lo, hi = -1, 0, 0
    for i in kids.tolist():
        p = int(parent[i])
        s = max(int(start[i]), int(start[p]))
        e = min(int(end[i]), int(end[p]))
        if p != cur_parent:
            if cur_parent >= 0:
                covered[cur_parent] += hi - lo
            cur_parent, lo, hi = p, s, s
        if e <= s:
            continue
        if s > hi:
            covered[p] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if cur_parent >= 0:
        covered[cur_parent] += hi - lo
    return (end - start) - covered


# Per-layer metric -> (unit, the workloads whose traced run must call it).
# The same map, with the end-to-end metric each should move, is in README.md.
PER_LAYER = {
    "waveform.slot_data.us_per_cell": ("us", ("mc_ccdf", "preamble_design")),
    "waveform.slot_data.cells_per_trial": ("count", ("mc_ccdf", "preamble_design")),
    "waveform.synthesize.ms_per_call": ("ms", ("preamble_design",)),
    "waveform.build_frame.ms_per_call": ("ms", ("preamble_design",)),
    "analysis.mc.calls_per_op": ("count", ("mc_ccdf",)),
    "analysis.mc.self_us_per_trial": ("us", ("mc_ccdf",)),
    "analysis.fft.us_per_trial": ("us", ("mc_ccdf", "preamble_design")),
    "analysis.fft.calls_per_trial": ("count", ("mc_ccdf", "preamble_design")),
    "analysis.fft.bytes_per_trial": ("bytes-computed", ("mc_ccdf", "preamble_design")),
    "analysis.marcum_q1.us_per_call": ("us", ("rician_model",)),
    "analysis.marcum_q1.calls_per_op": ("count", ("rician_model",)),
    "analysis.nu_of_t.us_per_call": ("us", ("rician_model",)),
    "analysis.sigma2_of_t.us_per_call": ("us", ("rician_model",)),
    "prototype.make_filter.ms_per_call": ("ms", ("mc_ccdf", "rician_model", "preamble_design")),
    "prototype.filter_eval.us_per_call": ("us", ("mc_ccdf", "rician_model", "preamble_design")),
    "prototype.filter_eval.calls_per_op": ("count", ("mc_ccdf", "rician_model", "preamble_design")),
    "sequences.dj_pair.us_per_call": ("us", ("preamble_design",)),
    "sequences.gcp_residual.ms_per_call": ("ms", ("preamble_design",)),
    "cli.main.self_ms_per_call": ("ms", ("preamble_design",)),
    **{f"{layer}.errors": ("count", ()) for layer in LAYERS},
    "trace.overhead_frac": ("frac", ()),
}

# Counts that must repeat exactly between runs of the same code.
SAME_WORK = ("waveform.slot_data.cells_per_trial", "analysis.fft.calls_per_trial",
             "analysis.fft.bytes_per_trial", "analysis.marcum_q1.calls_per_op")


class SpanTable:
    """Spans of one tracer as arrays, with per-name selections."""

    def __init__(self, tracer: Tracer, first: int = 0, last: int | None = None):
        a = tracer.arrays(first, last)
        self.names = list(tracer.names)
        self.name_id = a["name_id"]
        self.dur = (a["end"] - a["start"]) / 1e3          # microseconds
        self.error = a["error"]
        self.nbytes = a["nbytes"]
        local_parent = a["parent"] - first
        self.self_us = self_times(a["start"], a["end"], local_parent) / 1e3
        ok = (local_parent >= 0) & (local_parent < len(self.dur))
        parent_name = np.full(len(self.dur), -1, dtype=np.int64)
        parent_name[ok] = self.name_id[local_parent[ok]]
        self.parent_name = parent_name

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def parent_in_layer(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        return np.isin(self.parent_name, ids)


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


def same_work_counts(table: SpanTable, ops: int) -> dict:
    """The exact-repeat counts, per operation."""
    fft = table.mask(IFFT_SPAN) & table.parent_in_layer("analysis")
    return {
        "waveform.slot_data.cells_per_trial": int(table.mask("waveform.slot_data").sum()) / ops,
        "analysis.fft.calls_per_trial": int(fft.sum()) / ops,
        "analysis.fft.bytes_per_trial": int(table.nbytes[fft].sum()) / ops,
        "analysis.marcum_q1.calls_per_op": int(table.mask("analysis.marcum_q1").sum()) / ops,
    }


def layer_metrics(run: SpanTable, setup: SpanTable, ops: int,
                  overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run.  `run` holds the spans of the
    timed calls, `setup` those of the set-up (only make_filter uses them);
    `ops` counts the operations the timed calls completed."""
    def per_call(name, scale=1.0, table=run):
        return _mean(table.dur[table.mask(name)]) * scale

    fft = run.mask(IFFT_SPAN) & run.parent_in_layer("analysis")
    mc = run.mask("analysis.monte_carlo_ccdf")
    make_filter = np.concatenate([run.dur[run.mask("prototype.make_filter")],
                                  setup.dur[setup.mask("prototype.make_filter")]])
    out = {
        "waveform.slot_data.us_per_cell": per_call("waveform.slot_data"),
        "waveform.synthesize.ms_per_call": per_call("waveform.synthesize", 1e-3),
        "waveform.build_frame.ms_per_call": per_call("waveform.build_frame", 1e-3),
        "analysis.mc.calls_per_op": int(mc.sum()) / ops,
        "analysis.mc.self_us_per_trial": float(run.self_us[mc].sum()) / ops,
        "analysis.fft.us_per_trial": float(run.dur[fft].sum()) / ops,
        "analysis.marcum_q1.us_per_call": per_call("analysis.marcum_q1"),
        "analysis.nu_of_t.us_per_call": per_call("analysis.nu_of_t"),
        "analysis.sigma2_of_t.us_per_call": per_call("analysis.sigma2_of_t"),
        "prototype.make_filter.ms_per_call": _mean(make_filter) * 1e-3,
        "prototype.filter_eval.us_per_call": per_call(FILTER_EVAL_SPAN),
        "prototype.filter_eval.calls_per_op": int(run.mask(FILTER_EVAL_SPAN).sum()) / ops,
        "sequences.dj_pair.us_per_call": per_call("sequences.dj_pair"),
        "sequences.gcp_residual.ms_per_call": per_call("sequences.gcp_residual", 1e-3),
        "cli.main.self_ms_per_call": _mean(run.self_us[run.mask("cli.main")]) * 1e-3,
        "trace.overhead_frac": overhead_frac,
    }
    out.update(same_work_counts(run, ops))
    for layer in LAYERS:
        in_layer = np.array([n.split(".")[0] == layer for n in run.names], dtype=bool)
        out[f"{layer}.errors"] = int(np.count_nonzero(run.error.astype(bool)
                                                      & in_layer[run.name_id]))
    return {name: out[name] for name in PER_LAYER}
