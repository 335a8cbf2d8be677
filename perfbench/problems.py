"""Workload definitions and the correctness gate of the benchmark.

Every workload is a list of problems.  A problem is a scenario text plus
the CLI command it runs as; the program only ever sees the text, through
``spectralab.reporting.parse_config``.

Why these workloads:

* ``shipped`` - the nine ``scenarios/*.cfg`` unchanged on the ``run`` path.
  Small pencils, all checks, artifacts written: the per-problem fixed cost,
  the constants and the checks show here.
* ``large_pencil`` - two convergence ladders on the ``convergence`` path
  (no checks): the diagonal-tensor square at res 48/96/192 (36k dofs) and
  the radially weighted hemisphere at res 24/48/96 (55k dofs).
  Factorization, triangular solves and assembly dominate.
* ``many_modes`` - the square at res 128 (16k dofs) with k = 100 on the
  ``verify`` path.  Lanczos basis work and checks dominate; factorization
  is negligible, so an ordering change should not move it.

The seed shuffles the order of problems within each pass and draws the
continuous parameters of the ladders (tensor diagonal, weight coefficient)
from fixed grids over fixed ranges, with sizes held fixed.  The grids are
finite so that ``golden.json`` can hold values recorded for every draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spectralab import reference

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

RESIDUAL_TOL = 1e-8
EIGENVALUE_RTOL = 1e-8

# keyword arguments of run_scenario for each CLI command
COMMANDS = {
    "run": {},
    "convergence": {"checks": False},
    "verify": {"write": False},
}

# Tensor diagonal (a, b) of the square ladder and radial_quadratic weight
# coefficient c of the hemisphere ladder.  a < b keeps the square free of
# exact multiplicities; over these ranges the Lanczos step counts stay
# within a few percent of each other, so the draw moves the work little.
SQUARE_A = ("0.60", "0.65", "0.70")
SQUARE_B = ("0.90", "0.95", "1.00")
HEMISPHERE_C = ("0.150", "0.175", "0.200", "0.225", "0.250", "0.275", "0.300")

SQUARE_LADDER = """\
scenario.name = square_ladder
chart.id = flat_rectangle
eta.kind = zero
tensor.kind = diag
tensor.params = {a} {b}
mesh.resolutions = 48 96 192
eigen.k_max = 13
checks = all
appendix.c = 1 2
constants.resolution = 64
"""

HEMISPHERE_LADDER = """\
scenario.name = hemisphere_ladder
chart.id = stereographic_sphere
chart.params = 1.0
eta.kind = radial_quadratic
eta.params = {c}
tensor.kind = metric
mesh.resolutions = 24 48 96
eigen.k_max = 13
checks = all
appendix.c = 1 2
constants.resolution = 64
"""

MANY_MODES = """\
scenario.name = square_many_modes
chart.id = flat_rectangle
eta.kind = zero
tensor.kind = metric
mesh.resolutions = 128
eigen.k_max = 100
checks = all
appendix.c = 1 2
constants.resolution = 64
"""

WORKLOADS = ("shipped", "large_pencil", "many_modes")


@dataclass(frozen=True)
class Problem:
    key: str      # identifies the recorded values in golden.json
    text: str     # scenario text handed to parse_config
    command: str  # CLI command whose run_scenario arguments are used

    @property
    def kwargs(self):
        return COMMANDS[self.command]


def _shipped(root):
    return [Problem(p.stem, p.read_text(), "run")
            for p in sorted((Path(root) / "scenarios").glob("*.cfg"))]


def _square(a, b):
    return Problem(f"square_ladder a={a} b={b}", SQUARE_LADDER.format(a=a, b=b),
                   "convergence")


def _hemisphere(c):
    return Problem(f"hemisphere_ladder c={c}", HEMISPHERE_LADDER.format(c=c),
                   "convergence")


def workload_problems(name, rng, root):
    """The problems of one workload, with parameters drawn from ``rng``."""
    if name == "shipped":
        return _shipped(root)
    if name == "large_pencil":
        # largest first: the warm-up pass runs in this order
        square = _square(rng.choice(SQUARE_A), rng.choice(SQUARE_B))
        return [_hemisphere(rng.choice(HEMISPHERE_C)), square]
    if name == "many_modes":
        return [Problem("square_many_modes", MANY_MODES, "verify")]
    raise ValueError(f"unknown workload {name!r}")


def every_problem(root):
    """Every problem any seed can draw, for recording golden values."""
    return (_shipped(root)
            + [_square(a, b) for a in SQUARE_A for b in SQUARE_B]
            + [_hemisphere(c) for c in HEMISPHERE_C]
            + [Problem("square_many_modes", MANY_MODES, "verify")])


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def check_counts(reports):
    """(evaluated, skipped, failed) inequality checks of one run."""
    evaluated = [r for r in reports if not r.skipped]
    return [len(evaluated), len(reports) - len(evaluated),
            sum(1 for r in evaluated if not r.holds)]


def closed_form(scenario):
    """Exact Dirichlet spectrum where spectralab.reference has one, else None."""
    k = scenario.k_max
    plain = scenario.domain is None and scenario.tensor_kind == "metric"
    if scenario.chart_id == "flat_interval" and plain:
        if scenario.eta_kind == "zero":
            return reference.interval_spectrum(k)
        if scenario.eta_kind == "linear":
            return reference.drifting_interval_spectrum(k, slope=scenario.eta_params[0])
    if (scenario.chart_id == "flat_rectangle" and scenario.domain is None
            and scenario.eta_kind == "zero"):
        if scenario.tensor_kind == "metric":
            return reference.rectangle_spectrum(k)
        if scenario.tensor_kind == "diag":
            return reference.square_diagonal_spectrum(k, scenario.tensor_params)
    if (scenario.chart_id == "stereographic_sphere" and plain
            and scenario.eta_kind == "zero" and scenario.chart_params == (1.0,)):
        return reference.hemisphere_spectrum(k)
    return None


def record(run):
    """The values of one problem that later runs are compared against."""
    return {
        "exit_code": run.exit_code,
        "eigenvalues": {str(res): [float(x) for x in lams]
                        for res, lams in run.eigenvalues.items()},
        "counts": check_counts(run.reports),
    }


def failures(problem, run, results, golden):
    """Reasons why one problem fails the correctness gate (empty: passes).

    ``results`` are the SpectralResults of every level of the problem.
    """
    reasons = []
    if run.exit_code != 0:
        reasons.append(f"exit code {run.exit_code}: {run.messages[:3]}")
    worst = max((float(np.max(r.residuals)) for r in results if len(r)), default=0.0)
    if worst > RESIDUAL_TOL:
        reasons.append(f"residual {worst:.3g} above {RESIDUAL_TOL:g}")
    recorded = golden.get(problem.key)
    if recorded is None:
        return reasons + ["no recorded values"]
    counts = check_counts(run.reports)
    if counts != recorded["counts"]:
        reasons.append(f"check counts {counts} != recorded {recorded['counts']}")
    exact = closed_form(run.scenario)
    if sorted(map(str, run.eigenvalues)) != sorted(recorded["eigenvalues"]):
        return reasons + ["resolutions differ from the recorded ones"]
    for res, lams in run.eigenvalues.items():
        lams = np.asarray(lams)
        ref = np.asarray(recorded["eigenvalues"][str(res)])
        if lams.shape != ref.shape:
            reasons.append(f"res {res}: {len(lams)} eigenvalues, recorded {len(ref)}")
            continue
        drift = np.max(np.abs(lams - ref) / np.abs(ref))
        if drift > EIGENVALUE_RTOL:
            reasons.append(f"res {res}: eigenvalues moved {drift:.3g} relative")
        if exact is not None:
            err = np.abs(lams - exact[:len(lams)])
            allowed = np.abs(ref - exact[:len(ref)]) + EIGENVALUE_RTOL * np.abs(exact[:len(ref)])
            if np.any(err > allowed):
                reasons.append(f"res {res}: further from the closed form than recorded")
    return reasons
