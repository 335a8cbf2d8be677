"""Spans recorded from outside the program, at the layer boundaries.

``instrument`` temporarily replaces the names that ``spectralab.reporting``
calls into each layer (and ``splu`` as ``spectralab.eigensolve`` calls it)
with wrappers.  Without a tracer the only wrapper is the one on
``solve_sparse`` that keeps each SpectralResult for the correctness gate.
With a tracer every call records a span (name, start, end, parent, problem)
in memory, plus the counters named in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

from spectralab import eigensolve, reporting

# public spectralab.bounds functions that reporting calls, by check family
BOUNDS_FAMILIES = {
    "check_thm_drift": "thm_drift",
    "check_thm_tensor": "thm_tensor",
    "check_corollary_trio": "corollary_trio",
    "check_polya_type": "polya_type",
    "check_cheng_yang_type": "cheng_yang_type",
    "recursion_lemma": "recursion_lemma",
    "lemma_c_bound": "lemma_c_bound",
    "proposition_reports": "proposition_testfunction",
    "intro_comparators": "intro_comparators",
    "upsilon_shift": "upsilon_shift",
    "weyl_fit": "weyl_fit",
}

# per-layer metric name -> unit
PER_LAYER = {
    "geometry.constants_s": "s",
    "meshing.build_s": "s",
    "meshing.cells": "count",
    "assembly.assemble_s": "s",
    "assembly.dofs": "count",
    "assembly.nnz": "count",
    "assembly.quadrature_s": "s",
    "eigensolve.solve_s": "s",
    "eigensolve.iterations": "count",
    "eigensolve.max_residual": "rel",
    "eigensolve.factor_s": "s",
    "eigensolve.lu_fill": "count",
    "eigensolve.lu_solve_s": "s",
    "eigensolve.lu_solve_columns": "count",
    "eigensolve.krylov_s": "s",
    "eigensolve.pairs_per_step": "pairs/column",
    "eigensolve.eigsh_ref_s": "s",
    "eigensolve.vs_eigsh": "ratio",
    **{f"bounds.{family}_s": "s" for family in BOUNDS_FAMILIES.values()},
    "bounds.evaluated": "count",
    "bounds.skipped": "count",
    "bounds.failed": "count",
    "reporting.self_s": "s",
    "reporting.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, problem]
        self._stack = []
        self.problem = None
        self.counters = defaultdict(float)
        self.pending_lus = []
        self.finest = {}      # problem -> (a, b, solve seconds, eigenvalues)
        self.pencil = None    # last assembled (A, B)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.problem])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def totals(self):
        """Summed duration per span name, and reporting's self time."""
        total = defaultdict(float)
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        self_s = sum(end - start - children[i]
                     for i, (name, start, end, _, _) in enumerate(self.spans)
                     if name == "reporting.run_scenario")
        return total, self_s

    def rows(self, pass_index):
        """The spans as JSON-ready records; ids and parents are per pass."""
        return [{"pass": pass_index, "id": i, "parent": parent, "name": name,
                 "start": start, "end": end, "problem": problem}
                for i, (name, start, end, parent, problem) in enumerate(self.spans)]


class _TracedLU:
    """SuperLU whose triangular solves are spans counting columns."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        columns = 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
        self._tracer.counters["eigensolve.lu_solve_columns"] += columns
        with self._tracer.span("eigensolve.lu_solve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Proxy:
    """Module stand-in: the listed attributes replaced, the rest passed through."""

    def __init__(self, module, replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def _patched(target, name, value):
    original = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, original)


@contextlib.contextmanager
def instrument(results, tracer=None):
    """Keep every SpectralResult in ``results``; with a tracer, record spans."""
    solve = reporting.solve_sparse

    def capture(a, b, k, *args, **kwargs):
        result = solve(a, b, k, *args, **kwargs)
        results.append(result)
        return result

    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(_patched(reporting, "solve_sparse", capture))
            yield
            return
        for name, value in _traced_names(tracer, solve, results).items():
            stack.enter_context(_patched(reporting, name, value))
        stack.enter_context(_patched(eigensolve, "spla", _Proxy(spla, {
            "splu": _traced_splu(tracer)})))
        yield


def _traced_splu(tracer):
    def splu(*args, **kwargs):
        with tracer.span("eigensolve.splu"):
            lu = spla.splu(*args, **kwargs)
        tracer.pending_lus.append(lu)
        return _TracedLU(lu, tracer)
    return splu


def _traced_names(tracer, solve, results):
    """Wrappers for the names reporting calls into each layer."""
    counters = tracer.counters
    build, assemble_pencil = reporting.build_structured, reporting.assemble

    def build_structured(*args, **kwargs):
        with tracer.span("meshing.build_structured"):
            mesh = build(*args, **kwargs)
        counters["meshing.cells"] += len(mesh.cells)
        return mesh

    def assemble(*args, **kwargs):
        with tracer.span("assembly.assemble"):
            a_mat, b_mat, dof_map = assemble_pencil(*args, **kwargs)
        counters["assembly.dofs"] += a_mat.dim
        # full symmetric nnz from the stored upper triangle (diagonal all stored)
        counters["assembly.nnz"] += 2 * len(a_mat.vals) - a_mat.dim
        tracer.pencil = (a_mat, b_mat)
        return a_mat, b_mat, dof_map

    def solve_sparse(a, b, k, *args, **kwargs):
        with tracer.span("eigensolve.solve_sparse"):
            start = time.perf_counter()
            result = solve(a, b, k, *args, **kwargs)
            seconds = time.perf_counter() - start
        results.append(result)
        with tracer.span("trace.lu_fill"):
            counters["eigensolve.lu_fill"] += sum(lu.L.nnz + lu.U.nnz
                                                  for lu in tracer.pending_lus)
            tracer.pending_lus.clear()
        counters["eigensolve.iterations"] += result.iterations
        counters["eigensolve.pairs"] += len(result)
        counters["eigensolve.max_residual"] = max(
            counters["eigensolve.max_residual"], float(np.max(result.residuals)))
        if tracer.pencil is not None and tracer.pencil[0] is a:
            # levels run serially in ascending order: the last one is the finest
            tracer.finest[tracer.problem] = (a, b, seconds, result.eigenvalues)
        return result

    return {
        "compute_constants": tracer.timed("geometry.compute_constants",
                                          reporting.compute_constants),
        "build_structured": build_structured,
        "assemble": assemble,
        "solve_sparse": solve_sparse,
        "vertex_fields": tracer.timed("eigensolve.vertex_fields", reporting.vertex_fields),
        "EigenfunctionQuadrature": tracer.timed("assembly.quadrature",
                                                reporting.EigenfunctionQuadrature),
        "bnd": _Proxy(reporting.bnd, {
            name: tracer.timed(f"bounds.{family}", getattr(reporting.bnd, name))
            for name, family in BOUNDS_FAMILIES.items()}),
    }


def eigsh_reference(tracer):
    """Solve each finest pencil with eigsh(sigma=0); return (seconds, solve
    seconds on the same pencils, largest relative eigenvalue difference)."""
    ref_s = solve_s = worst = 0.0
    for a_mat, b_mat, seconds, eigenvalues in tracer.finest.values():
        a_csr, b_csr = a_mat.to_csr(), b_mat.to_csr()
        start = time.perf_counter()
        values = spla.eigsh(a_csr, len(eigenvalues), M=b_csr, sigma=0,
                            return_eigenvectors=False)
        ref_s += time.perf_counter() - start
        solve_s += seconds
        values = np.sort(values)
        worst = max(worst, float(np.max(np.abs(values - eigenvalues) / np.abs(values))))
    return ref_s, solve_s, worst


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (bounds counts, bytes written,
    eigsh and overhead are filled in by the caller)."""
    total, self_s = tracer.totals()
    c = tracer.counters
    metrics = {
        "geometry.constants_s": total["geometry.compute_constants"],
        "meshing.build_s": total["meshing.build_structured"],
        "meshing.cells": c["meshing.cells"],
        "assembly.assemble_s": total["assembly.assemble"],
        "assembly.dofs": c["assembly.dofs"],
        "assembly.nnz": c["assembly.nnz"],
        "assembly.quadrature_s": total["assembly.quadrature"],
        "eigensolve.solve_s": total["eigensolve.solve_sparse"],
        "eigensolve.iterations": c["eigensolve.iterations"],
        "eigensolve.max_residual": c["eigensolve.max_residual"],
        "eigensolve.factor_s": total["eigensolve.splu"],
        "eigensolve.lu_fill": c["eigensolve.lu_fill"],
        "eigensolve.lu_solve_s": total["eigensolve.lu_solve"],
        "eigensolve.lu_solve_columns": c["eigensolve.lu_solve_columns"],
        "eigensolve.krylov_s": (total["eigensolve.solve_sparse"] - total["eigensolve.splu"]
                                - total["eigensolve.lu_solve"]),
        "eigensolve.pairs_per_step": (c["eigensolve.pairs"]
                                      / max(c["eigensolve.lu_solve_columns"], 1)),
        "reporting.self_s": self_s,
    }
    for family in BOUNDS_FAMILIES.values():
        metrics[f"bounds.{family}_s"] = total[f"bounds.{family}"]
    return metrics
