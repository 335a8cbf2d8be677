"""Scenario configuration, pipeline driver and report writers.

A scenario is a flat ``key = value`` text file with dotted section
prefixes.  Running it executes chart -> mesh -> assembly -> solve ->
constants -> bound checks over a ladder of mesh resolutions and emits
deterministic, machine-readable artifacts:

* ``eigenvalues.csv``  - resolution, k, lambda, residual
* ``constants.json``   - geometric constants plus provenance metadata
* ``bounds.csv``       - every requested check at the finest resolution
* ``convergence.csv``  - per-eigenvalue Richardson extrapolation and order
* ``weyl_fit.json``    - growth-law fit of the computed spectrum
* ``MANIFEST``         - file list, skipped checks, completion status

Floats in CSV files are printed with 17 significant digits and all
orderings are fixed, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import bounds as bnd
from .assembly import EigenfunctionQuadrature, assemble
from .eigensolve import solve_sparse, vertex_fields
from .errors import ConfigError, EvaluationError
from .geometry import (
    CHARTS,
    ETAS,
    TENSORS,
    Disk,
    Rectangle,
    compute_constants,
    make_chart,
    make_eta,
    make_tensor,
)
from .meshing import build_structured, vertex_count

# the most vertices a mesh level or the constants grid of a scenario may
# have, checked before anything is allocated; twice the largest benchmarked
# mesh (square res 512: 263,169 vertices)
MAX_VERTICES = 1 << 19


@dataclass(frozen=True)
class CheckFamily:
    """Check-catalog entry: ``run(spectrum, ctx, k)`` returns BoundReports.

    ``spectrum`` is the computed spectrum ("raw") or its ``upsilon_shift``
    ("shifted"); per-k entries run at each k in 1..k_max-1, the others once
    with the list of all k; ``needs_quad`` entries read ``ctx.quad``.  Runs
    look ``bnd`` up at call time, so it can be swapped for a stand-in.
    """

    spectrum: str
    run: Callable
    per_k: bool = True
    needs_quad: bool = False


def _thm_tensor(spec, ctx, k):
    return (bnd.check_thm_tensor(spec, ctx.consts, k, mode="inf_trace"),
            bnd.check_thm_tensor(spec, ctx.consts, k, mode="integrated", quad=ctx.quad))


def _proposition(spec, ctx, k_list):
    return [report for axis in range(ctx.chart.dim_m)
            for report in bnd.proposition_reports(ctx.quad, spec.values, axis, k_list)]


# the check catalog, in the order reports are emitted at each k
CHECKS = {
    "thm_drift": CheckFamily(
        "raw", lambda spec, ctx, k: [bnd.check_thm_drift(spec, ctx.consts, k)]),
    "thm_tensor": CheckFamily("raw", _thm_tensor, needs_quad=True),
    "corollary_trio": CheckFamily(
        "shifted", lambda spec, ctx, k: bnd.check_corollary_trio(spec, k)),
    "polya_type": CheckFamily(
        "shifted", lambda spec, ctx, k: [
            bnd.check_polya_type(spec, spec.n, ctx.consts.vol_omega, k)]),
    "cheng_yang_type": CheckFamily(
        "shifted", lambda spec, ctx, k: [bnd.check_cheng_yang_type(spec, spec.n, k)]),
    "recursion_lemma": CheckFamily(
        "shifted", lambda spec, ctx, k: [bnd.recursion_lemma(spec, spec.n, c, k)
                                         for c in ctx.c_values]),
    "lemma_c_bound": CheckFamily(
        "shifted", lambda spec, ctx, k: [bnd.lemma_c_bound(spec, spec.n, c, k)
                                         for c in ctx.c_values]),
    "intro_comparators": CheckFamily(
        "raw", lambda spec, ctx, k: bnd.intro_comparators(spec, spec.n, k,
                                                          consts=ctx.consts)),
    "proposition_testfunction": CheckFamily(
        "raw", _proposition, per_k=False, needs_quad=True),
}


@dataclass
class Scenario:
    """Parsed scenario configuration."""

    name: str
    chart_id: str
    chart_params: tuple = ()
    domain: object = None
    eta_kind: str = "zero"
    eta_params: tuple = ()
    eta_expr: str = ""
    tensor_kind: str = "metric"
    tensor_params: tuple = ()
    tensor_expr: str = ""
    resolutions: tuple = ()
    k_max: int = 13
    checks: tuple = ("all",)
    c_values: tuple = (1.0,)
    constants_resolution: int = 64
    output_dir: str = ""

    def __post_init__(self):
        if self.chart_id not in CHARTS:
            raise ConfigError(f"unknown chart id {self.chart_id!r}")
        if list(self.resolutions) != sorted(self.resolutions) or not self.resolutions:
            raise ConfigError("mesh.resolutions must be a nonempty ascending list")
        domain = self.domain or CHARTS[self.chart_id].domain(*CHARTS[self.chart_id].defaults)
        for key, res in [("mesh.resolutions", self.resolutions[-1]),
                         ("constants.resolution", self.constants_resolution)]:
            if vertex_count(domain, res) > MAX_VERTICES:
                raise ConfigError(f"{key}: resolution {res} gives {vertex_count(domain, res)} "
                                  f"vertices, above the limit of {MAX_VERTICES}")
        if self.k_max < 2:
            raise ConfigError("eigen.k_max must be at least 2")
        for name in self.active_checks:
            if name not in CHECKS:
                raise ConfigError(f"unknown check name {name!r}")
        if not self.output_dir:
            self.output_dir = os.path.join("out", self.name)

    @property
    def active_checks(self):
        return tuple(sorted(CHECKS)) if self.checks == ("all",) else self.checks


def parse_config(text):
    """Parse the flat `key = value` scenario format."""
    values = {}
    linenos = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
        linenos[key] = lineno

    def numbers(key, convert, default=()):
        if key not in values:
            return tuple(default)
        text = values.pop(key)
        try:
            found = tuple(convert(tok) for tok in text.split())
            if all(map(math.isfinite, found)):
                return found
        except (ValueError, OverflowError):  # an int past the float range
            pass
        raise ConfigError(f"line {linenos[key]}: {key} expects finite "
                          f"{convert.__name__} values, got {text!r}")

    def scalar(key, convert, default):
        found = numbers(key, convert, (default,))
        if len(found) != 1:
            raise ConfigError(f"line {linenos[key]}: {key} expects one "
                              f"{convert.__name__} value, got {len(found)}")
        return found[0]

    name = values.pop("scenario.name", "")
    chart_id = values.pop("chart.id", "")
    if not name or not chart_id:
        raise ConfigError("scenario.name and chart.id are required")
    chart_params = numbers("chart.params", float)

    domain = None
    kind = values.pop("domain.kind", "")
    if kind == "rectangle":
        bounds = numbers("domain.bounds", float)
        if len(bounds) % 2:
            raise ConfigError("domain.bounds needs an even number of entries")
        domain = Rectangle(tuple((bounds[2 * i], bounds[2 * i + 1])
                                 for i in range(len(bounds) // 2)))
    elif kind == "disk":
        center = numbers("domain.center", float, (0.0, 0.0))
        radius = scalar("domain.radius", float, 1.0)
        domain = Disk(center, radius)
    elif kind:
        raise ConfigError(f"unknown domain.kind {kind!r}")

    scenario = Scenario(
        name=name,
        chart_id=chart_id,
        chart_params=chart_params,
        domain=domain,
        eta_kind=values.pop("eta.kind", "zero"),
        eta_params=numbers("eta.params", float),
        eta_expr=values.pop("eta.expr", ""),
        tensor_kind=values.pop("tensor.kind", "metric"),
        tensor_params=numbers("tensor.params", float),
        tensor_expr=values.pop("tensor.expr", ""),
        resolutions=numbers("mesh.resolutions", int),
        k_max=scalar("eigen.k_max", int, 13),
        checks=tuple(values.pop("checks", "all").split()),
        c_values=numbers("appendix.c", float, (1.0,)),
        constants_resolution=scalar("constants.resolution", int, 64),
        output_dir=values.pop("output.dir", ""),
    )
    if values:
        raise ConfigError(f"unknown configuration keys: {sorted(values)}")
    return scenario


def load_scenario(path):
    with open(path) as handle:
        return parse_config(handle.read())


def build_chart(scenario):
    dim = CHARTS[scenario.chart_id].dim
    eta = make_eta(scenario.eta_kind, scenario.eta_params,
                   scenario.eta_expr or None, dim=dim)
    tensor = make_tensor(scenario.tensor_kind, scenario.tensor_params,
                         scenario.tensor_expr or None, dim=dim)
    return make_chart(scenario.chart_id, scenario.chart_params,
                      domain=scenario.domain, eta=eta, tensor=tensor)


def _fmt(x):
    return f"{x:.17g}"


def _solve_level(chart, resolution, k_max):
    mesh = build_structured(chart.domain, resolution)
    a_mat, b_mat, dof_map = assemble(chart, mesh)
    result = solve_sparse(a_mat, b_mat, k_max)
    # the vertex values replace the reduced rows: one eigenvector array per level
    result.vertex_values, result.vectors = vertex_fields(result, dof_map), None
    return mesh, result


def _richardson(resolutions, values):
    """Observed order and extrapolated limit from the last geometric triple."""
    if len(resolutions) < 3:
        return math.nan, math.nan
    r1, r2, r3 = resolutions[-3:]
    v1, v2, v3 = values[-3:]
    rho1, rho2 = r2 / r1, r3 / r2
    if abs(rho1 - rho2) > 1e-9 * rho1:
        return math.nan, math.nan
    num, den = v1 - v2, v2 - v3
    if den == 0 or num / den <= 0:
        return math.nan, math.nan
    order = math.log(num / den) / math.log(rho1)
    limit = v3 - den / (rho1 ** order - 1.0)
    return order, limit


def _run_checks(scenario, chart, consts, mesh, result):
    """Evaluate every requested inequality at the finest resolution."""
    k_list = list(range(1, scenario.k_max))
    families = [family for name, family in CHECKS.items() if name in scenario.active_checks]
    spectra = {"raw": bnd.Spectrum(result.eigenvalues, chart.dim_n, "computed")}
    ctx = SimpleNamespace(chart=chart, consts=consts, c_values=scenario.c_values, quad=None)
    if any(family.needs_quad for family in families):
        ctx.quad = EigenfunctionQuadrature(chart, mesh, result.vertex_values)
    if any(family.spectrum == "shifted" for family in families):
        spectra["shifted"] = bnd.upsilon_shift(spectra["raw"], consts)

    reports = []
    for k in k_list:
        for family in families:
            if family.per_k:
                reports.extend(family.run(spectra[family.spectrum], ctx, k))
    for family in families:
        if not family.per_k:
            reports.extend(family.run(spectra[family.spectrum], ctx, k_list))
    return reports


@dataclass
class RunResult:
    scenario: Scenario
    exit_code: int
    reports: list = field(default_factory=list)
    files: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    eigenvalues: dict = field(default_factory=dict)


@np.errstate(over="raise", invalid="raise", divide="raise")
def run_scenario(scenario, out_dir=None, write=True, checks=True):
    """Run the full pipeline for one scenario.

    Returns a :class:`RunResult` whose ``exit_code`` follows the contract:
    0 when every evaluated inequality holds within slack, 1 when some check
    failed, 2 on a module error or any other exception (partial outputs
    retained with a MANIFEST noting incompleteness).  Any overflow, invalid
    operation or division by zero is an :class:`EvaluationError` naming its
    stage (constants, solve or checks); underflow is not an error.  The
    resolution levels are solved one after another in ascending order.
    """
    if out_dir is None:
        root = os.environ.get("SPECTRA_OUT")
        out_dir = os.path.join(root, scenario.name) if root else scenario.output_dir
    run = RunResult(scenario=scenario, exit_code=0)
    written = []
    skipped_notes = []
    error_message = ""
    stage = "constants"  # the chart is built in this stage too

    def emit(name, text):
        if not write:
            return
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        with open(path, "w") as handle:
            handle.write(text)
        written.append(name)

    try:
        chart = build_chart(scenario)
        consts = compute_constants(chart, scenario.constants_resolution)

        stage = "solve"
        levels = {res: _solve_level(chart, res, scenario.k_max)
                  for res in scenario.resolutions}

        lines = ["resolution,k,lambda,residual"]
        for res in scenario.resolutions:
            _, result = levels[res]
            run.eigenvalues[res] = result.eigenvalues
            for idx, (lam, r) in enumerate(zip(result.eigenvalues, result.residuals), 1):
                lines.append(f"{res},{idx},{_fmt(lam)},{_fmt(r)}")
        emit("eigenvalues.csv", "\n".join(lines) + "\n")

        emit("constants.json", json.dumps(consts.as_dict(), sort_keys=True, indent=2) + "\n")

        conv_lines = ["eigenvalue_index,resolution,value,extrapolated,order"]
        n_targets = min(scenario.k_max, 5)
        for idx in range(n_targets):
            vals = [float(levels[res][1].eigenvalues[idx]) for res in scenario.resolutions]
            for j, res in enumerate(scenario.resolutions):  # nan before the third level
                order, limit = _richardson(list(scenario.resolutions[:j + 1]), vals[:j + 1])
                conv_lines.append(
                    f"{idx + 1},{res},{_fmt(vals[j])},{_fmt(limit)},{_fmt(order)}")
        emit("convergence.csv", "\n".join(conv_lines) + "\n")

        mesh, result = levels[scenario.resolutions[-1]]
        stage = "checks"
        if checks:
            run.reports = reports = _run_checks(scenario, chart, consts, mesh, result)
            rows = ["name,k,lhs,rhs,ratio,holds,slack"]
            for report in reports:
                if report.skipped:
                    skipped_notes.append(f"{report.name} k={report.k}: {report.note}")
                else:
                    rows.append(report.csv_row())
            emit("bounds.csv", "\n".join(rows) + "\n")
            failures = [r for r in reports if not r.skipped and not r.holds]
            if failures:
                run.exit_code = 1
                for r in failures:
                    run.messages.append(
                        f"FAILED {r.name} k={r.k}: lhs={r.lhs:.12g} rhs={r.rhs:.12g}")

        if scenario.k_max >= 10:
            fit = bnd.weyl_fit(bnd.Spectrum(result.eigenvalues, chart.dim_n, "computed"),
                               chart.dim_n, consts.vol_omega, (1, scenario.k_max))
            emit("weyl_fit.json", json.dumps(fit.as_dict(), sort_keys=True, indent=2) + "\n")
        else:
            emit("weyl_fit.json", json.dumps(
                {"skipped": "k_max below 10 fit points"}, indent=2) + "\n")
    except Exception as exc:  # not only SpectralabError: LinAlgError, MemoryError, ...
        if isinstance(exc, ArithmeticError):  # numpy's FloatingPointError, math's OverflowError
            exc = EvaluationError(f"{exc} in the {stage} stage")
        error_message = f"{type(exc).__name__}: {exc}"
        run.exit_code = 2
        run.messages.append(error_message)

    manifest = [f"scenario {scenario.name}",
                f"status {'incomplete' if error_message else 'complete'}"]
    manifest += [f"file {name}" for name in written]
    manifest += [f"skipped {note}" for note in skipped_notes]
    if error_message:
        manifest.append(f"error {error_message}")
    emit("MANIFEST", "\n".join(manifest) + "\n")
    run.files = written
    return run


def catalog_text():
    """Stable, alphabetized listing of charts, builtins and check names."""
    lines = ["charts:"]
    lines += [f"  {name}" for name in sorted(CHARTS)]
    lines.append("eta builtins:")
    lines += [f"  {name}" for name in sorted(ETAS)]
    lines.append("tensor builtins:")
    lines += [f"  {name}" for name in sorted(TENSORS)]
    lines.append("checks:")
    lines += [f"  {name}" for name in sorted(CHECKS)]
    return "\n".join(lines) + "\n"
