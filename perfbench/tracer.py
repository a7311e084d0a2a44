"""Spans recorded around the calls into each spikepca module.

The wrappers are installed on the name each caller looks up, because
``from .x import f`` binds ``f`` in the caller's namespace: wrapping
``spikepca.model.fit`` does not touch the ``fit`` that ``spikepca.cli``
and ``spikepca.simulate`` call. Spans stay in memory and are written
when the child ends. A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

import numpy as np


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _parse_info(args, result):
    return {"bytes": _file_bytes(args[0]), "cells": int(result.size)}


def _write_info(args, result):
    return {"bytes": _file_bytes(args[1])}


def _read_info(args, result):
    return {"bytes": _file_bytes(args[0])}


def _eigen_info(args, result):
    X = args[0]
    return {"p": X.p, "n": X.n, "built": int(result.U.shape[1])}


def _fit_info(args, result):
    U = result.eig.U
    gram = U.T @ U
    residual = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    return {"kept": int(U.shape[1]), "orth": residual}


def _rescale_info(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _rng_info(args, result):
    return {"variates": int(result.size)}


# (module, attribute the callers look up, layer label, counts taken from the call)
BINDINGS = (
    ("spikepca.cli", "_parse_csv", "matrix_io.parse", _parse_info),
    ("spikepca.cli", "write_model", "matrix_io.model_write", _write_info),
    ("spikepca.cli", "read_model", "matrix_io.model_read", _read_info),
    ("spikepca.cli", "fit", "model.fit", _fit_info),
    ("spikepca.cli", "predict", "model.predict", None),
    ("spikepca.cli", "jackknife_shrinkage", "model.jackknife", None),
    ("spikepca.model", "standardize", "matrix_io.standardize", None),
    ("spikepca.model", "sample_eigen", "eigen.sample_eigen", _eigen_info),
    ("spikepca.model", "rescale_eigenvalues", "spiked.rescale", _rescale_info),
    ("spikepca.model", "fit", "model.fit", _fit_info),
    ("spikepca.model", "predict", "model.predict", None),
    ("spikepca.simulate", "run_table12", "simulate.replicates", None),
    ("spikepca.simulate", "gen_two_spike", "simulate.gen", None),
    ("spikepca.simulate", "standard_normal", "simulate.rng", _rng_info),
    ("spikepca.simulate", "fit", "model.fit", _fit_info),
    ("spikepca.simulate", "predict", "model.predict", None),
    ("spikepca.simulate", "pc_scores", "eigen.pc_scores", None),
)


class Tracer:
    """Records one span per wrapped call: name, layer, start, end, parent,
    op id and thread, plus the call's counts."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, func, name: str, layer: str, info=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = tracer._span(
                    index, name, layer, start, end, parent, {"raised": True}
                )
                raise
            end = time.perf_counter()
            stack.pop()
            counts = info(args, result) if info else {}
            tracer.spans[index] = tracer._span(index, name, layer, start, end, parent, counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding in BINDINGS (the modules must be importable)."""
        for module_name, attr, layer, info in BINDINGS:
            module = importlib.import_module(module_name)
            name = f"{module_name.split('.')[-1]}.{attr}"
            setattr(module, attr, self.wrap(getattr(module, attr), name, layer, info))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, index, name, layer, start, end, parent, counts) -> dict:
        return {
            "id": index,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
            "parent": parent,
            "op": self.op,
            "thread": threading.get_ident(),
            **counts,
        }


def _eigen_gflop(p: int, n: int, built: int) -> float:
    """Floating-point work of one sample_eigen call, computed from shapes.

    The product of the smaller side (2 p n m flops, m = min(p, n)), a
    symmetric eigensolver with vectors (about 9 m^3, Golub and Van Loan)
    and, on the Gram path, the built vectors (2 p n built).
    """
    m = min(p, n)
    flops = 2.0 * p * n * m + 9.0 * m**3
    if p > n:
        flops += 2.0 * p * n * built
    return flops / 1e9


def layer_metrics(processes: list, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    ``processes`` holds one span list per traced child; span ids and
    parents are indices within their own list. Times, counts and bytes
    are per pass; ratios are over all spans.
    """
    by_key = {(proc, s["id"]): s for proc, spans in enumerate(processes) for s in spans}
    child_time: dict = {}
    for (proc, _), s in by_key.items():
        if s["parent"] is not None:
            key = (proc, s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def self_time(key):
        s = by_key[key]
        return dur(s) - child_time.get(key, 0.0)

    def where(pred):
        return [(k, s) for k, s in by_key.items() if pred(s)]

    def total(pred):
        return sum(dur(s) for _, s in where(pred))

    def layer(name):
        return lambda s: s["layer"] == name

    def named(name):
        return lambda s: s["name"] == name

    per = 1.0 / passes
    parse = where(layer("matrix_io.parse"))
    parse_s = sum(dur(s) for _, s in parse)
    parse_bytes = sum(s.get("bytes", 0) for _, s in parse)
    eig = where(layer("eigen.sample_eigen"))
    decompose_s = sum(dur(s) for _, s in eig)
    gflop = sum(_eigen_gflop(s["p"], s["n"], s["built"]) for _, s in eig if "p" in s)
    built = sum(s.get("built", 0) for _, s in eig)
    fits = where(layer("model.fit"))
    kept = sum(s.get("kept", 0) for _, s in fits)
    rescales = [s for _, s in where(layer("spiked.rescale")) if "iterations" in s]
    jackknife_s = total(layer("model.jackknife"))
    jk_keys = {k for k, _ in where(layer("model.jackknife"))}
    jk_fits = [s for (proc, _), s in fits if (proc, s["parent"]) in jk_keys]
    rng = where(layer("simulate.rng"))
    rng_s = sum(dur(s) for _, s in rng)
    variates = sum(s.get("variates", 0) for _, s in rng)
    return {
        "matrix_io.parse_s": parse_s * per,
        "matrix_io.parse_mb_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "matrix_io.cells": sum(s.get("cells", 0) for _, s in parse) * per,
        "matrix_io.standardize_s": total(layer("matrix_io.standardize")) * per,
        "matrix_io.model_write_s": total(layer("matrix_io.model_write")) * per,
        "matrix_io.model_read_s": total(layer("matrix_io.model_read")) * per,
        "matrix_io.model_bytes": sum(
            s.get("bytes", 0) for _, s in where(layer("matrix_io.model_write"))
        ) * per,
        "eigen.gram.decompose_s": sum(dur(s) for _, s in eig if s.get("p", 0) > s.get("n", 0)) * per,
        "eigen.cov.decompose_s": sum(dur(s) for _, s in eig if s.get("p", 0) <= s.get("n", 0)) * per,
        "eigen.vectors_built": built * per,
        "eigen.vectors_kept": kept * per,
        "eigen.kept_ratio": kept / built if built else 0.0,
        "eigen.orth_residual": max((s.get("orth", 0.0) for _, s in fits), default=0.0),
        "eigen.computed_gflop": gflop * per,
        "eigen.gflop_per_s": gflop / decompose_s if decompose_s else 0.0,
        "spiked.rescale_s": total(layer("spiked.rescale")) * per,
        "spiked.rescale_iterations": (
            sum(s["iterations"] for s in rescales) / len(rescales) if rescales else 0.0
        ),
        "spiked.rescale_converged": (
            sum(s["converged"] for s in rescales) / len(rescales) if rescales else 0.0
        ),
        "model.fit_self_s": sum(self_time(k) for k, _ in fits) * per,
        "model.predict_s": total(layer("model.predict")) * per,
        "model.jackknife_s": jackknife_s * per,
        "model.jackknife_fit_calls": len(jk_fits) * per,
        "model.jackknife_fit_share": (
            sum(dur(s) for s in jk_fits) / jackknife_s if jackknife_s else 0.0
        ),
        "simulate.rng_s": rng_s * per,
        "simulate.rng_variates": variates * per,
        "simulate.rng_mvariates_per_s": variates / 1e6 / rng_s if rng_s else 0.0,
        "simulate.gen_s": sum(self_time(k) for k, _ in where(layer("simulate.gen"))) * per,
        "simulate.fit_s": total(named("simulate.fit")) * per,
        "simulate.predict_s": total(named("simulate.predict")) * per,
        "simulate.replicate_self_s": sum(
            self_time(k) for k, _ in where(layer("simulate.replicates"))
        ) * per,
        "cli.self_s": sum(self_time(k) for k, _ in where(layer("cli.main"))) * per,
    }

