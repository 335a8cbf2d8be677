"""Eigenvalue inequalities, spectral shifts and recursion bounds.

Every checker takes an ascending positive :class:`Spectrum` (computed,
closed-form or synthetic) and returns one or more :class:`BoundReport`
records with the raw left/right-hand sides and the verdict under a
relative slack.  Verdicts use slack 1e-9 on closed-form/synthetic spectra
and at least 1e-6 on computed spectra, so no verdict hides its margin.

Conventions: within a check, ``lhs <= rhs`` is the asserted inequality
(lower bounds are reported with the bound on the left), ``Lambda_i``
denotes the gaps ``lambda_{k+1} - lambda_i``, and the additive spectral
shift is ``(n^2 H0^2 + eta0^2 + 2 eta_bar0)/4``.

The inequality forms shared by several checks (quadratic gap, linear
Yang, Yang discriminant, growth and mean lower bound) are each written
once below and called by every check that uses them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError, ShiftPositivityError
from .geometry import omega_n

CLOSED_FORM_SLACK = 1e-9
COMPUTED_SLACK = 1e-6


@dataclass
class Spectrum:
    """Ascending positive eigenvalue sequence with provenance tag."""

    values: np.ndarray
    n: int
    source: str = "computed"  # computed | closed_form | synthetic

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ParameterError("spectrum must be a nonempty 1d sequence")
        if np.any(np.diff(self.values) < 0):
            raise ParameterError("spectrum must be ascending")
        if self.values[0] <= 0:
            raise ParameterError("spectrum must be positive")
        if self.source not in ("computed", "closed_form", "synthetic"):
            raise ParameterError(f"unknown spectrum source {self.source!r}")

    def __len__(self):
        return len(self.values)

    @property
    def default_slack(self):
        return COMPUTED_SLACK if self.source == "computed" else CLOSED_FORM_SLACK


@dataclass
class BoundReport:
    """One inequality instance: name, k, both sides, ratio and verdict."""

    name: str
    k: int
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    slack: float
    note: str = ""
    skipped: bool = False

    def csv_row(self):
        holds = "true" if self.holds else "false"
        return (f"{self.name},{self.k},{self.lhs:.17g},{self.rhs:.17g},"
                f"{self.ratio:.17g},{holds},{self.slack:.17g}")


def _report(name, k, lhs, rhs, slack, note=""):
    if rhs != 0.0:
        ratio = lhs / rhs
    else:
        ratio = 1.0 if lhs == 0.0 else math.inf
    holds = lhs <= rhs * (1.0 + slack)
    return BoundReport(name, k, float(lhs), float(rhs), float(ratio), bool(holds), slack, note)


def _skipped(name, k, slack, note):
    return BoundReport(name, k, math.nan, math.nan, math.nan, False, slack, note, skipped=True)


def _check_k(spec, k):
    """Validate k against the spectrum; return the slack to use."""
    if k < 1 or k + 1 > len(spec):
        raise ParameterError(f"k={k} needs at least k+1={k + 1} eigenvalues, have {len(spec)}")
    return spec.default_slack


# ---------------------------------------------------------------------------
# inequality forms: each returns (lhs, rhs) of ``lhs <= rhs`` for the first
# k+1 entries of an ascending sequence v (shifted by ``offset`` where given)
# ---------------------------------------------------------------------------

def _quadratic_gap_form(v, n, k, c=1.0, offset=0.0):
    """sum L_i^2 <= (4c/n) sum L_i (v_i + offset),  L_i = v_{k+1} - v_i."""
    gaps = v[k] - v[:k]
    return (float((gaps ** 2).sum()),
            float((4.0 * c / n) * (gaps * (v[:k] + offset)).sum()))


def _linear_form(v, n, k, offset=0.0):
    """v_{k+1} + offset <= (1 + 4/n) mean(v_i + offset, i <= k)."""
    return float(v[k] + offset), float((1.0 + 4.0 / n) * (v[:k] + offset).mean())


def _growth_form(v, n, k, c=1.0):
    """v_{k+1} <= (1 + 4c/n) k^(2c/n) v_1."""
    return float(v[k]), float((1.0 + 4.0 * c / n) * k ** (2.0 * c / n) * v[0])


def _mean_lower_form(v, n, k, w, coeff):
    """coeff W k^(2/n) <= mean(v_i, i <= k), W the Weyl constant."""
    return coeff * w * k ** (2.0 / n), float(v[:k].mean())


def _discriminant(v, n, k):
    """Discriminant of the Yang-form quadratic in v_{k+1}:
    (2 mean/n)^2 - (1 + 4/n) var(v_i, i <= k).  Roundoff-scale negatives
    are clamped to zero; a negative value means the Yang-form hypothesis
    fails for the sequence, and the gap form v_{k+1} - v_k <= 2 sqrt(D) and
    the quadratic-root bound do not apply."""
    s = v[:k].sum()
    mean = s / k
    centered = ((v[:k] - mean) ** 2).sum()
    disc = (2.0 * s / (k * n)) ** 2 - (1.0 + 4.0 / n) * centered / k
    if disc < 0 and disc > -1e-12 * max((2.0 * s / (k * n)) ** 2, 1.0):
        disc = 0.0
    return disc


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def shift_constant(consts):
    """Additive shift (n^2 H0^2 + eta0^2 + 2 eta_bar0) / 4."""
    n = consts.dim_n
    return (n ** 2 * consts.h0 ** 2 + consts.eta0 ** 2 + 2.0 * consts.eta_bar0) / 4.0


def upsilon_shift(spec, consts):
    """Shift the spectrum by the drift/curvature constant, preserving order.

    Raises :class:`ShiftPositivityError` when the shifted sequence is not
    positive (the corollaries assume positive sequences).
    """
    shift = shift_constant(consts)
    shifted = spec.values + shift
    if shifted[0] <= 0:
        raise ShiftPositivityError(
            f"shifted spectrum not positive: lambda_1 + {shift:g} = {shifted[0]:g}")
    return Spectrum(shifted, spec.n, spec.source)


# ---------------------------------------------------------------------------
# main theorems
# ---------------------------------------------------------------------------

def check_thm_drift(spec, consts, k):
    """Quadratic gap bound for the drifting Laplacian with curvature shift:

    sum (L_i)^2 <= (4/n) sum L_i (lambda_i + shift),  L_i = lambda_{k+1} - lambda_i.
    """
    slack = _check_k(spec, k)
    lhs, rhs = _quadratic_gap_form(spec.values, spec.n, k, offset=shift_constant(consts))
    return _report("thm_drift", k, lhs, rhs, slack)


def check_thm_tensor(spec, consts, k, mode="inf_trace", quad=None):
    """Gap bound for the general coefficient tensor.

    ``inf_trace`` uses the conservative constant form
    ``trT_inf sum L_i^2 <= sum L_i [(m-n)^2 A0^2 T*^2 + (T0 + T* eta0)^2
    + 4 (T0 + T* eta0) sqrt(lambda_i) + 4 lambda_i]``; ``integrated``
    evaluates the exact integral form (second fundamental form, tensor
    divergence and cross terms under element quadrature), which requires a
    quadrature context holding the eigenfunctions.
    """
    slack = _check_k(spec, k)
    lam = spec.values
    gaps = lam[k] - lam[:k]
    if mode == "inf_trace":
        c0 = consts.t0 + consts.t_star * consts.eta0
        codim = consts.dim_m - consts.dim_n
        per_i = (codim ** 2 * consts.a0 ** 2 * consts.t_star ** 2
                 + c0 ** 2 + 4.0 * c0 * np.sqrt(lam[:k]) + 4.0 * lam[:k])
        lhs = float(consts.tr_t_inf * (gaps ** 2).sum())
        rhs = float((gaps * per_i).sum())
        return _report("thm_tensor_inf", k, lhs, rhs, slack)
    if mode != "integrated":
        raise ParameterError(f"unknown thm_tensor mode {mode!r}")
    if quad is None:
        raise ParameterError("integrated mode requires an EigenfunctionQuadrature")
    tr_t, square, cross = quad.tensor_integrals(k).T
    lhs = float((gaps ** 2 * tr_t).sum())
    rhs = float((gaps * (square + 4.0 * cross + 4.0 * lam[:k])).sum())
    return _report("thm_tensor_integrated", k, lhs, rhs, slack)


# ---------------------------------------------------------------------------
# corollaries on the shifted spectrum
# ---------------------------------------------------------------------------

def check_corollary_trio(shifted, k):
    """Three consequences of the Yang-form inequality for the shifted sequence.

    (i) second-Yang bound, (ii) quadratic-root bound, (iii) gap bound.  A
    negative discriminant means the Yang-form hypothesis failed for this
    sequence (or numerical inconsistency); (ii)/(iii) are then reported as
    skipped, not as violations.
    """
    slack = _check_k(shifted, k)
    v = shifted.values
    n = shifted.n
    first = _report("corollary_second_yang", k, *_linear_form(v, n, k), slack)
    disc = _discriminant(v, n, k)
    if disc < 0:
        note = "discriminant negative: Yang-form hypothesis violated for this sequence"
        return (first,
                _skipped("corollary_quadratic_root", k, slack, note),
                _skipped("corollary_gap", k, slack, note))
    root = math.sqrt(disc)
    second = _report("corollary_quadratic_root", k, float(v[k]),
                     float((1.0 + 2.0 / n) * v[:k].sum() / k + root), slack)
    third = _report("corollary_gap", k, float(v[k] - v[k - 1]), 2.0 * root, slack)
    return first, second, third


def weyl_constant(n, vol):
    """W = 4 pi^2 / (omega_n vol)^(2/n)."""
    if vol <= 0:
        raise ParameterError("volume must be positive")
    return 4.0 * math.pi ** 2 / (omega_n(n) * vol) ** (2.0 / n)


def check_polya_type(shifted, n, vol, k):
    """Mean lower bound: (1/k) sum upsilon_i >= n/sqrt((n+2)(n+4)) W k^(2/n)."""
    if k < 1 or k > len(shifted):
        raise ParameterError(f"k={k} out of range")
    slack = shifted.default_slack
    coeff = n / math.sqrt((n + 2.0) * (n + 4.0))
    return _report("polya_type", k,
                   *_mean_lower_form(shifted.values, n, k, weyl_constant(n, vol), coeff), slack)


def check_cheng_yang_type(shifted, n, k):
    """Growth bound: upsilon_{k+1} <= (1 + 4/n) k^(2/n) upsilon_1."""
    slack = _check_k(shifted, k)
    return _report("cheng_yang_type", k, *_growth_form(shifted.values, n, k), slack)


# ---------------------------------------------------------------------------
# recursion machinery (appendix lemmas)
# ---------------------------------------------------------------------------

def recursion_constant(n, k, c):
    """C(n, k, c) = 1 - (c/3n) (k/(k+1))^(4c/n) (1+2c/n)(1+4c/n)/(k+1)^3."""
    return 1.0 - (c / (3.0 * n)) * (k / (k + 1.0)) ** (4.0 * c / n) \
        * (1.0 + 2.0 * c / n) * (1.0 + 4.0 * c / n) / (k + 1.0) ** 3


def _hypothesis_holds(values, n, c, k, slack):
    lhs, rhs = _quadratic_gap_form(values, n, k, c)
    return lhs <= rhs * (1.0 + slack), lhs, rhs


def _f_value(values, n, c, k):
    """F_k = (1 + 2c/n) mean(v_i)^2 - mean(v_i^2) over i <= k."""
    mean = float(values[:k].mean())
    return (1.0 + 2.0 * c / n) * mean ** 2 - float((values[:k] ** 2).mean())


def recursion_lemma(spec, n, c, k):
    """Recursion step F_{k+1} <= C(n,k,c) ((k+1)/k)^(4c/n) F_k.

    The quadratic-gap hypothesis with parameter ``c`` is tested first; when
    it fails the lemma is reported as skipped (not applicable), never as a
    violation.
    """
    slack = _check_k(spec, k)
    name = f"recursion_lemma(c={c:g})"
    v = spec.values
    ok, hyp_lhs, hyp_rhs = _hypothesis_holds(v, n, c, k, slack)
    if not ok:
        return _skipped(name, k, slack,
                        f"hypothesis failed: {hyp_lhs:g} > {hyp_rhs:g}; lemma not applicable")
    c_val = recursion_constant(n, k, c)
    rhs = c_val * ((k + 1.0) / k) ** (4.0 * c / n) * _f_value(v, n, c, k)
    report = _report(name, k, _f_value(v, n, c, k + 1), rhs, slack)
    if not (0.0 < c_val < 1.0):
        report.holds = False
        report.note = f"recursion constant out of range: C={c_val:g}"
    return report


def lemma_c_bound(spec, n, c, k):
    """Growth bound under the c-hypothesis: eta_{k+1} <= (1+4c/n) k^(2c/n) eta_1."""
    slack = _check_k(spec, k)
    name = f"lemma_c_bound(c={c:g})"
    v = spec.values
    ok, hyp_lhs, hyp_rhs = _hypothesis_holds(v, n, c, k, slack)
    if not ok:
        return _skipped(name, k, slack,
                        f"hypothesis failed: {hyp_lhs:g} > {hyp_rhs:g}; bound not applicable")
    return _report(name, k, *_growth_form(v, n, k, c), slack)


# ---------------------------------------------------------------------------
# test-function inequality on computed eigenfunctions
# ---------------------------------------------------------------------------

PROPOSITION_MESH_SLACK = 8.0


def proposition_reports(quad, eigenvalues, axis, k_list):
    """Test-function inequality reports for ``h = x^axis``, the ambient
    coordinate, at several k sharing one integral pass; labelled
    ``proposition_testfunction(h=x<axis + 1>)``.

    ``Lh`` is the closed form of the identity
    ``L x = tr(alpha o T) + dx(tr(nabla T) - T(grad eta))`` at the
    quadrature points, not a finite difference.  The slack is
    ``max(1e-6, 8 h_max^2)``: ambient-coordinate test functions can saturate
    the continuum inequality with equality (on the hemisphere ``h u_1`` is
    itself an eigenfunction), so the discrete verdict must absorb the O(h^2)
    eigenpair bias.  The slack used is recorded in every report.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if not 0 <= axis < quad.chart.dim_m:
        raise ParameterError(f"ambient axis {axis} out of range")
    slack = max(COMPUTED_SLACK, PROPOSITION_MESH_SLACK * quad.mesh.h_max ** 2)
    k_top = max(k_list)
    if k_top + 1 > len(eigenvalues) or k_top > quad.vertex_values.shape[0]:
        raise ParameterError("need eigenpairs through index k+1")
    weights, rayleigh, degenerate = quad.proposition_integrals(axis, k_top)
    note = ("degenerate test function: T(grad h, grad h) vanishes everywhere"
            if degenerate else "")
    reports = []
    for k in k_list:
        gaps = eigenvalues[k] - eigenvalues[:k]
        lhs = float((gaps ** 2 * weights[:k]).sum())
        rhs = float((gaps * rayleigh[:k]).sum())
        reports.append(_report(f"proposition_testfunction(h=x{axis + 1})", k, lhs, rhs,
                               slack, note=note))
    return reports


# ---------------------------------------------------------------------------
# background comparators
# ---------------------------------------------------------------------------

def intro_comparators(spec, n, k, consts=None):
    """Evaluate the classical comparator inequalities on a spectrum.

    The Euclidean-domain comparators (difference bound, reciprocal-gap
    bound, both Yang forms, the gap bound and the mean lower bound) are
    evaluated on the shifted sequence when constants are supplied, since
    the shift is what maps the weighted/curved problem onto their setting;
    the immersion-aware forms (mean-curvature and drift corrections) use
    the raw sequence with the supplied constants.  At an eigenvalue tie the
    reciprocal-gap bound has an infinite right-hand side and holds, with
    ratio 0.
    """
    slack = _check_k(spec, k)
    lam = spec.values
    if consts is not None:
        v = upsilon_shift(spec, consts).values
        h0, eta0, vol = consts.h0, consts.eta0, consts.vol_omega
    else:
        v, h0, eta0, vol = lam, 0.0, 0.0, None

    reports = []
    # difference bound
    reports.append(_report("ppw", k, float(v[k] - v[k - 1]),
                           float(4.0 / (n * k) * v[:k].sum()), slack))
    # reciprocal-gap bound: a tie divides by zero on purpose, to a +inf side that holds
    with np.errstate(divide="ignore"):
        reports.append(_report("hile_protter", k, n * k / 4.0,
                               float((v[:k] / (v[k] - v[:k])).sum()), slack))
    reports.append(_report("yang_first", k, *_quadratic_gap_form(v, n, k), slack))
    reports.append(_report("yang_second", k, *_linear_form(v, n, k), slack))
    disc = _discriminant(v, n, k)
    if disc >= 0:
        reports.append(_report("yang_gap", k, float(v[k] - v[k - 1]),
                               2.0 * math.sqrt(disc), slack))
    else:
        reports.append(_skipped("yang_gap", k, slack,
                                "negative bracket: Yang-form hypothesis violated"))
    if vol is not None:
        w = weyl_constant(n, vol)
        reports.append(_report("li_yau", k, *_mean_lower_form(v, n, k, w, n / (n + 2.0)), slack))
    else:
        reports.append(_skipped("li_yau", k, slack, "volume not supplied"))

    # immersion-aware forms on the raw sequence
    raw_gaps = lam[k] - lam[:k]
    curv = n ** 2 * h0 ** 2 / 4.0
    reports.append(_report("chen_cheng_quadratic", k,
                           *_quadratic_gap_form(lam, n, k, offset=curv), slack))
    reports.append(_report("chen_cheng_linear", k, *_linear_form(lam, n, k, offset=curv), slack))
    xia_xu_terms = 4.0 * lam[:k] + 4.0 * eta0 * np.sqrt(lam[:k]) \
        + n ** 2 * h0 ** 2 + eta0 ** 2
    reports.append(_report("xia_xu", k, float((raw_gaps ** 2).sum()),
                           float((raw_gaps * xia_xu_terms).sum() / n), slack))
    return reports


# ---------------------------------------------------------------------------
# Weyl asymptotics
# ---------------------------------------------------------------------------

@dataclass
class WeylFit:
    """Log-log fit of the spectrum against the Weyl growth law."""

    constant: float
    exponent: float
    target_constant: float
    target_exponent: float
    mean_form: float
    mean_form_target: float
    mean_sq_form: float
    mean_sq_form_target: float
    k_range: tuple

    def as_dict(self):
        return {**asdict(self), "k_range": list(self.k_range)}


def weyl_fit(spec, n, vol, k_range):
    """Least-squares fit of log lambda_k against log k plus mean-limit forms.

    Fits over the inclusive 1-based index range ``k_range`` (at least 10
    points) and evaluates ``((1/k) sum lambda_i) / k^(2/n)`` and
    ``((1/k) sum lambda_i^2) / k^(4/n)`` at the largest index against their
    asymptotic targets ``n/(n+2) W`` and ``n/(n+4) W^2``.
    """
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo < 1 or hi > len(spec) or hi - lo + 1 < 10:
        raise ParameterError("k_range must lie within the spectrum and span >= 10 points")
    lam = spec.values
    k = np.arange(lo, hi + 1, dtype=float)
    design = np.stack([np.log(k), np.ones_like(k)], axis=-1)
    coef, *_ = np.linalg.lstsq(design, np.log(lam[lo - 1:hi]), rcond=None)
    w = weyl_constant(n, vol)
    mean_form = lam[:hi].mean() / hi ** (2.0 / n)
    mean_sq_form = (lam[:hi] ** 2).mean() / hi ** (4.0 / n)
    return WeylFit(
        constant=float(math.exp(coef[1])),
        exponent=float(coef[0]),
        target_constant=w,
        target_exponent=2.0 / n,
        mean_form=float(mean_form),
        mean_form_target=n / (n + 2.0) * w,
        mean_sq_form=float(mean_sq_form),
        mean_sq_form_target=n / (n + 4.0) * w ** 2,
        k_range=(lo, hi),
    )
