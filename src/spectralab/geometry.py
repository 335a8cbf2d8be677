"""Charts, induced metrics, extrinsic curvature and global geometric constants.

A :class:`Chart` bundles a parameterized isometric immersion of an ``n``
dimensional patch into ``R^m`` (``n <= m <= 4``) together with a scalar
weight field and a symmetric positive definite coefficient tensor.  All
evaluators are vectorized: points are passed as ``(N, n)`` arrays and fields
come back with a leading ``N`` axis.

The module also computes the global constants (suprema of the weight
gradient, mean curvature, shape operators, tensor norms and the unweighted
volume) that enter the eigenvalue bounds in :mod:`spectralab.bounds`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DegeneracyError,
    EvaluationError,
    ParameterError,
    TensorError,
)
from .expressions import compile_expression

DEGENERACY_TOL = 1e-12

# Finite-difference steps used by compute_constants / apply_operator_pointwise.
# Both are independent of the sampling resolution so that nested sample grids
# re-evaluate shared points to identical floats (suprema are then exactly
# monotone under refinement).
CHRISTOFFEL_STEP_REL = 1.0 / 1024.0
FLUX_STEP_REL = 4.0e-6
# step of ExpressionWeight's central differences, relative to 1 + |xi|
WEIGHT_STEP_REL = 1e-6


# ---------------------------------------------------------------------------
# parameter domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box in chart coordinates; ``bounds[i] = (a_i, b_i)``."""

    bounds: tuple

    def __post_init__(self):
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        for a, b in bounds:
            if not b > a:
                raise ParameterError(f"empty rectangle extent ({a}, {b})")

    @property
    def dim(self):
        return len(self.bounds)

    @property
    def extents(self):
        return np.array([b - a for a, b in self.bounds])

    def sample_grid(self, resolution):
        """Uniform grid with ``resolution + 1`` points per axis, boundary included."""
        axes = [np.linspace(a, b, resolution + 1) for a, b in self.bounds]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def quadrature(self, nodes_per_axis):
        rules = [np.polynomial.legendre.leggauss(nodes_per_axis) for _ in self.bounds]
        pts_1d, wts_1d = [], []
        for (x, w), (a, b) in zip(rules, self.bounds):
            pts_1d.append(0.5 * (b - a) * x + 0.5 * (a + b))
            wts_1d.append(0.5 * (b - a) * w)
        if self.dim == 1:
            return pts_1d[0][:, None], wts_1d[0]
        gx, gy = np.meshgrid(pts_1d[0], pts_1d[1], indexing="ij")
        wx, wy = np.meshgrid(wts_1d[0], wts_1d[1], indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        return pts, (wx * wy).ravel()


@dataclass(frozen=True)
class Disk:
    """Disk-in-chart region with the given center and radius (2d only)."""

    center: tuple = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if len(self.center) != 2:
            raise ParameterError(f"disk center needs 2 coordinates, got {len(self.center)}")
        if self.radius <= 0:
            raise ParameterError("disk radius must be positive")

    @property
    def dim(self):
        return 2

    @property
    def extents(self):
        return np.array([2.0 * self.radius, 2.0 * self.radius])

    def sample_grid(self, resolution):
        """Center plus ``resolution`` concentric rings of ``6*resolution`` angles."""
        n_theta = 6 * resolution
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        radii = self.radius * np.arange(1, resolution + 1) / resolution
        rr, tt = np.meshgrid(radii, theta, indexing="ij")
        pts = np.stack(
            [self.center[0] + rr.ravel() * np.cos(tt.ravel()),
             self.center[1] + rr.ravel() * np.sin(tt.ravel())], axis=-1)
        return np.vstack([np.array([self.center]), pts])

    def quadrature(self, nodes_per_axis):
        # Gauss-Legendre in the radius, uniform (spectrally accurate,
        # periodic) rule in the angle.
        x, w = np.polynomial.legendre.leggauss(nodes_per_axis)
        r = 0.5 * self.radius * (x + 1.0)
        wr = 0.5 * self.radius * w
        n_theta = 6 * nodes_per_axis
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        w_theta = 2.0 * math.pi / n_theta
        rr, tt = np.meshgrid(r, theta, indexing="ij")
        pts = np.stack(
            [self.center[0] + rr.ravel() * np.cos(tt.ravel()),
             self.center[1] + rr.ravel() * np.sin(tt.ravel())], axis=-1)
        wts = (wr[:, None] * w_theta * rr).ravel()
        return pts, wts


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

class FlatImmersion:
    """Identity inclusion of R^n into R^n."""

    def __init__(self, dim):
        self.dim_n = dim
        self.dim_m = dim

    def position(self, pts):
        return np.array(np.atleast_2d(pts), dtype=float)

    def jacobian(self, pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.eye(self.dim_n), (pts.shape[0], self.dim_n, self.dim_n)).copy()

    def hessian(self, pts):
        pts = np.atleast_2d(pts)
        return np.zeros((pts.shape[0], self.dim_m, self.dim_n, self.dim_n))


class StereographicSphere:
    """Sphere of radius ``r`` in R^3, chart by stereographic projection.

    The chart origin maps to the pole opposite the projection point, so the
    unit disk ``|xi| <= 1`` covers a closed hemisphere with the equator as
    its boundary.  The induced metric is ``4 r^2 / (1 + |xi|^2)^2`` times the
    identity.
    """

    def __init__(self, r=1.0):
        if r <= 0:
            raise ParameterError("sphere radius must be positive")
        self.r = float(r)
        self.dim_n = 2
        self.dim_m = 3

    def position(self, pts):
        pts = np.atleast_2d(pts)
        s = (pts ** 2).sum(axis=1)
        d = 1.0 + s
        out = np.empty((pts.shape[0], 3))
        out[:, 0] = 2.0 * self.r * pts[:, 0] / d
        out[:, 1] = 2.0 * self.r * pts[:, 1] / d
        out[:, 2] = self.r * (s - 1.0) / d
        return out

    def jacobian(self, pts):
        pts = np.atleast_2d(pts)
        n = pts.shape[0]
        s = (pts ** 2).sum(axis=1)
        d = 1.0 + s
        jac = np.empty((n, 3, 2))
        for a in range(2):
            for i in range(2):
                jac[:, a, i] = 2.0 * self.r * ((a == i) * d - 2.0 * pts[:, a] * pts[:, i]) / d ** 2
        for i in range(2):
            jac[:, 2, i] = 4.0 * self.r * pts[:, i] / d ** 2
        return jac

    def hessian(self, pts):
        pts = np.atleast_2d(pts)
        n = pts.shape[0]
        s = (pts ** 2).sum(axis=1)
        d = 1.0 + s
        hess = np.empty((n, 3, 2, 2))
        for a in range(2):
            for i in range(2):
                for j in range(2):
                    hess[:, a, i, j] = (
                        -4.0 * self.r * ((a == i) * pts[:, j] + (a == j) * pts[:, i]
                                         + (i == j) * pts[:, a]) / d ** 2
                        + 16.0 * self.r * pts[:, a] * pts[:, i] * pts[:, j] / d ** 3)
        for i in range(2):
            for j in range(2):
                hess[:, 2, i, j] = (4.0 * self.r * (i == j) / d ** 2
                                    - 16.0 * self.r * pts[:, i] * pts[:, j] / d ** 3)
        return hess


class Cylinder:
    """Cylinder of radius ``r``; arclength chart, so the metric is flat."""

    def __init__(self, r=1.0):
        if r <= 0:
            raise ParameterError("cylinder radius must be positive")
        self.r = float(r)
        self.dim_n = 2
        self.dim_m = 3

    def position(self, pts):
        pts = np.atleast_2d(pts)
        phi = pts[:, 0] / self.r
        return np.stack([self.r * np.cos(phi), self.r * np.sin(phi), pts[:, 1]], axis=-1)

    def jacobian(self, pts):
        pts = np.atleast_2d(pts)
        phi = pts[:, 0] / self.r
        jac = np.zeros((pts.shape[0], 3, 2))
        jac[:, 0, 0] = -np.sin(phi)
        jac[:, 1, 0] = np.cos(phi)
        jac[:, 2, 1] = 1.0
        return jac

    def hessian(self, pts):
        pts = np.atleast_2d(pts)
        phi = pts[:, 0] / self.r
        hess = np.zeros((pts.shape[0], 3, 2, 2))
        hess[:, 0, 0, 0] = -np.cos(phi) / self.r
        hess[:, 1, 0, 0] = -np.sin(phi) / self.r
        return hess


class AssociateFamily:
    """One-parameter family of isometric minimal surfaces in R^3.

    ``theta = 0`` is the catenoid, ``theta = pi/2`` the helicoid; every
    member carries the same induced metric ``cosh(v)^2 I``.
    """

    def __init__(self, theta=0.0):
        self.theta = float(theta)
        self.dim_n = 2
        self.dim_m = 3

    def _trig(self, pts):
        pts = np.atleast_2d(pts)
        u, v = pts[:, 0], pts[:, 1]
        return np.cos(u), np.sin(u), np.cosh(v), np.sinh(v)

    def position(self, pts):
        cu, su, cv, sv = self._trig(pts)
        pts = np.atleast_2d(pts)
        c, s = math.cos(self.theta), math.sin(self.theta)
        cat = np.stack([cv * cu, cv * su, pts[:, 1]], axis=-1)
        hel = np.stack([sv * su, -sv * cu, pts[:, 0]], axis=-1)
        return c * cat + s * hel

    def jacobian(self, pts):
        cu, su, cv, sv = self._trig(pts)
        n = np.atleast_2d(pts).shape[0]
        c, s = math.cos(self.theta), math.sin(self.theta)
        jac = np.empty((n, 3, 2))
        jac[:, 0, 0] = c * (-cv * su) + s * (sv * cu)
        jac[:, 1, 0] = c * (cv * cu) + s * (sv * su)
        jac[:, 2, 0] = s
        jac[:, 0, 1] = c * (sv * cu) + s * (cv * su)
        jac[:, 1, 1] = c * (sv * su) + s * (-cv * cu)
        jac[:, 2, 1] = c
        return jac

    def hessian(self, pts):
        cu, su, cv, sv = self._trig(pts)
        n = np.atleast_2d(pts).shape[0]
        c, s = math.cos(self.theta), math.sin(self.theta)
        hess = np.zeros((n, 3, 2, 2))
        # d^2/du^2
        hess[:, 0, 0, 0] = c * (-cv * cu) + s * (-sv * su)
        hess[:, 1, 0, 0] = c * (-cv * su) + s * (sv * cu)
        # d^2/dudv (symmetric)
        hess[:, 0, 0, 1] = hess[:, 0, 1, 0] = c * (-sv * su) + s * (cv * cu)
        hess[:, 1, 0, 1] = hess[:, 1, 1, 0] = c * (sv * cu) + s * (cv * su)
        # d^2/dv^2
        hess[:, 0, 1, 1] = c * (cv * cu) + s * (sv * su)
        hess[:, 1, 1, 1] = c * (cv * su) + s * (-sv * cu)
        return hess


class CallableImmersion:
    """Immersion defined by user callables (position, jacobian, hessian)."""

    def __init__(self, dim_n, dim_m, position, jacobian, hessian):
        self.dim_n = dim_n
        self.dim_m = dim_m
        self._pos = position
        self._jac = jacobian
        self._hess = hessian

    def position(self, pts):
        return np.asarray(self._pos(np.atleast_2d(pts)), dtype=float)

    def jacobian(self, pts):
        return np.asarray(self._jac(np.atleast_2d(pts)), dtype=float)

    def hessian(self, pts):
        return np.asarray(self._hess(np.atleast_2d(pts)), dtype=float)


# ---------------------------------------------------------------------------
# weight fields (eta) and coefficient tensors (T)
# ---------------------------------------------------------------------------

class ZeroWeight:
    def value(self, pts):
        return np.zeros(np.atleast_2d(pts).shape[0])

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        return np.zeros_like(pts)


class LinearWeight:
    """eta(xi) = coeffs . xi"""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))

    def value(self, pts):
        return np.atleast_2d(pts) @ self.coeffs

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(self.coeffs, pts.shape).copy()


class RadialQuadraticWeight:
    """eta(xi) = coeff * |xi - center|^2"""

    def __init__(self, coeff, center=None):
        self.coeff = float(coeff)
        self.center = None if center is None else np.asarray(center, dtype=float)

    def value(self, pts):
        pts = np.atleast_2d(pts)
        c = np.zeros(pts.shape[1]) if self.center is None else self.center
        return self.coeff * ((pts - c) ** 2).sum(axis=1)

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        c = np.zeros(pts.shape[1]) if self.center is None else self.center
        return 2.0 * self.coeff * (pts - c)


class ExpressionWeight:
    """User expression string; gradient by central differences."""

    def __init__(self, text, dim):
        self.fn = compile_expression(text, dim)
        self.dim = dim

    def value(self, pts):
        return self.fn(pts)

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        grad = np.empty_like(pts)
        for axis in range(self.dim):
            h = WEIGHT_STEP_REL * (1.0 + np.abs(pts[:, axis]))
            shift = np.zeros_like(pts)
            shift[:, axis] = h
            grad[:, axis] = (self.fn(pts + shift) - self.fn(pts - shift)) / (2.0 * h)
        return grad


class MetricTensor:
    """T_ab = g_ab: the coefficient tensor equals the induced metric."""

    is_metric = True

    def value(self, pts, metric):
        return metric


class DiagonalTensor:
    """Constant diagonal tensor in chart coordinates."""

    is_metric = False

    def __init__(self, diag):
        self.diag = np.atleast_1d(np.asarray(diag, dtype=float))

    def value(self, pts, metric):
        n = np.atleast_2d(pts).shape[0]
        return np.broadcast_to(np.diag(self.diag), (n, len(self.diag), len(self.diag))).copy()


class ExpressionTensor:
    """Symmetric tensor with expression-string entries (upper triangle)."""

    is_metric = False

    def __init__(self, entries, dim):
        # entries: sequence of strings, row-major upper triangle
        expected = dim * (dim + 1) // 2
        if len(entries) != expected:
            raise ParameterError(
                f"need {expected} upper-triangle entries for a {dim}d tensor")
        self.dim = dim
        self.fns = [compile_expression(text, dim) for text in entries]

    def value(self, pts, metric):
        pts = np.atleast_2d(pts)
        out = np.empty((pts.shape[0], self.dim, self.dim))
        idx = 0
        for i in range(self.dim):
            for j in range(i, self.dim):
                out[:, i, j] = out[:, j, i] = self.fns[idx](pts)
                idx += 1
        return out


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

@dataclass
class Chart:
    """A parameterized immersion with weight and coefficient tensor.

    Attributes
    ----------
    dim_n, dim_m : intrinsic and ambient dimensions
    domain : Rectangle or Disk in chart coordinates
    immersion : object with position/jacobian/hessian evaluators
    eta : scalar weight field with value/gradient evaluators
    tensor : symmetric coefficient tensor field
    label : human readable identifier
    """

    dim_n: int
    dim_m: int
    domain: object
    immersion: object
    eta: object
    tensor: object
    label: str = ""

    def __post_init__(self):
        if not (1 <= self.dim_n <= 2):
            raise ParameterError("intrinsic dimension must be 1 or 2")
        if not (self.dim_n <= self.dim_m <= 4):
            raise ParameterError("ambient dimension must satisfy n <= m <= 4")
        if self.domain.dim != self.dim_n:
            raise ParameterError("domain dimension does not match the chart")


def contract(spec, *operands):
    """NumPy's ``einsum(spec, *operands)`` for a leading batch label and small
    other labels, as one vectorized multiply-add over the batch per term.

    Agrees with einsum to roundoff, not bit for bit; on these tiny per-point
    matrices it beats both einsum and batched ``@`` (timings in the README).
    The terms are planned once per spec and operand shapes without the batch
    axis (:func:`_contract_plan`), so a call costs one pass over its terms.
    """
    shape, terms = _contract_plan(spec, tuple(op.shape[1:] for op in operands))
    out = np.zeros((operands[0].shape[0],) + shape)
    for at, where in terms:
        out[at] += reduce(np.multiply, [op[index] for op, index in zip(operands, where)])
    return out


@lru_cache(maxsize=None)
def _contract_plan(spec, shapes):
    """The output shape of :func:`contract` without the batch axis, and its
    terms: each an output index and one index per operand, free labels
    outermost, then the summed labels in order of first appearance."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    sizes = {c: size for labels, shape in zip(inputs, shapes)
             for c, size in zip(labels[1:], shape)}
    order = output[1:] + "".join(c for c in sizes if c not in output)  # free, then summed
    terms = []
    for index in np.ndindex(*[sizes[c] for c in order]):
        at = dict(zip(order, index))
        terms.append(((slice(None),) + index[:len(output) - 1],
                      tuple((slice(None),) + tuple(at[c] for c in labels[1:]) for labels in inputs)))
    return tuple(sizes[c] for c in output[1:]), tuple(terms)


def _gram(jac):
    """Induced metric g = jac^T jac of Jacobians ``(N, m, n)``; raises
    :class:`DegeneracyError` where ``det g`` falls below tolerance."""
    g = contract("pai,paj->pij", jac, jac)
    n = g.shape[-1]
    scale = contract("pii->p", g) / n
    if np.any(det_small(g) <= DEGENERACY_TOL * scale ** n):
        raise DegeneracyError("degenerate immersion: det g below tolerance")
    return g


def det_small(g):
    """Determinant of batched 1x1 / 2x2 matrices (closed form)."""
    if g.shape[-1] == 1:
        return g[:, 0, 0]
    return g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]


def _inv_spd(g):
    """Inverse of batched 1x1 / 2x2 SPD matrices (closed form)."""
    if g.shape[-1] == 1:
        return 1.0 / g
    det = det_small(g)
    inv = np.empty_like(g)
    inv[:, 0, 0] = g[:, 1, 1] / det
    inv[:, 1, 1] = g[:, 0, 0] / det
    inv[:, 0, 1] = inv[:, 1, 0] = -g[:, 0, 1] / det
    return inv


@dataclass(frozen=True, eq=False)
class PointFields:
    """A chart's fields at ``points`` ``(N, n)``: the Jacobian ``jac`` ``(N, m, n)``,
    its Gram product ``g``, ``ginv``, ``t`` and ``k = g^-1 T g^-1``, each ``(N, n, n)``."""

    points: np.ndarray
    jac: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    t: np.ndarray
    k: np.ndarray


def chart_fields(chart, points):
    """The :class:`PointFields` at ``points`` (not checked against the domain)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    jac = chart.immersion.jacobian(points)
    g = _gram(jac)
    ginv = _inv_spd(g)
    t = chart.tensor.value(points, g)
    return PointFields(points, jac, g, ginv, t, contract("pia,pab,pbj->pij", ginv, t, ginv))


def pair_eigenvalues(t, g):
    """Eigenvalues of the pencil (T, g) for batched 1x1 / 2x2 symmetric pairs."""
    n = t.shape[-1]
    if n == 1:
        lam = t[:, 0, 0] / g[:, 0, 0]
        return np.stack([lam], axis=-1)
    det_g = det_small(g)
    det_t = det_small(t)
    # det(T - mu g) = det_g mu^2 - tr_adj mu + det_t
    tr_adj = (t[:, 0, 0] * g[:, 1, 1] + t[:, 1, 1] * g[:, 0, 0]
              - 2.0 * t[:, 0, 1] * g[:, 0, 1])
    disc = np.maximum(tr_adj ** 2 - 4.0 * det_g * det_t, 0.0)
    root = np.sqrt(disc)
    lam1 = (tr_adj - root) / (2.0 * det_g)
    lam2 = (tr_adj + root) / (2.0 * det_g)
    return np.stack([lam1, lam2], axis=-1)


def not_spd(fields):
    """Mask of the points where T is not positive definite relative to g."""
    eig = pair_eigenvalues(fields.t, fields.g)
    scale = np.maximum(np.abs(eig).max(axis=1), 1.0)
    return eig.min(axis=1) <= DEGENERACY_TOL * scale


def second_fundamental_form(chart, fields):
    """Normal frame, second-fundamental-form components and mean curvature
    at the points of the :func:`chart_fields` record ``fields``.

    Returns ``(frames, alpha, mean_curvature)`` with shapes
    ``(N, m-n, m)``, ``(N, m-n, n, n)`` and ``(N, m)``.  The frame is built
    by Gram-Schmidt over the columns of the normal projection
    ``P = I - J g^-1 J^T`` in fixed order, so it is deterministic and does
    not depend on the scale of ``J``; for ``m == n`` all outputs are empty/zero.
    """
    npts = fields.points.shape[0]
    n, m = chart.dim_n, chart.dim_m
    codim = m - n
    if codim == 0:
        return (np.zeros((npts, 0, m)), np.zeros((npts, 0, n, n)), np.zeros((npts, m)))

    # J g^-1 first: two two-operand products take 2/3 the time of one three-operand
    jac_ginv = contract("pia,pab->pib", fields.jac, fields.ginv)
    proj = np.eye(m) - contract("paj,pbj->pab", jac_ginv, fields.jac)
    frames = np.zeros((npts, codim, m))
    count = np.zeros(npts, dtype=int)
    for a in range(m):
        w = proj[:, :, a].copy()
        # subtract projections on already accepted normals
        for slot in range(codim):
            coef = contract("pk,pk->p", frames[:, slot, :], w)
            w -= coef[:, None] * frames[:, slot, :]
        norm = np.linalg.norm(w, axis=1)
        accept = (norm > 1e-10) & (count < codim)
        if np.any(accept):
            idx = np.nonzero(accept)[0]
            frames[idx, count[idx], :] = w[idx] / norm[idx, None]
            count[idx] += 1
    if np.any(count < codim):
        raise DegeneracyError("could not complete an orthonormal normal frame")

    hess = chart.immersion.hessian(fields.points)
    alpha = contract("pka,paij->pkij", frames, hess)
    trace = contract("pij,pkij->pk", fields.ginv, alpha)
    mean_curv = contract("pk,pka->pa", trace, frames) / n
    return frames, alpha, mean_curv


def shape_operator_norms(chart, points):
    """Hilbert-Schmidt norm of the shape operator per normal direction, (N, m-n)."""
    fields = chart_fields(chart, points)
    _, alpha, _ = second_fundamental_form(chart, fields)
    return _shape_norms(fields, alpha)


def _shape_norms(fields, alpha):
    """Per-normal Hilbert-Schmidt norms of second-form components ``alpha``."""
    sq = contract("pia,pjb,pkij,pkab->pk", fields.ginv, fields.ginv, alpha, alpha)
    return np.sqrt(np.maximum(sq, 0.0))


def second_form_hs_norm(chart, points):
    """Hilbert-Schmidt norm of the full second fundamental form, (N,)."""
    norms = shape_operator_norms(chart, points)
    if norms.shape[1] == 0:
        return np.zeros(norms.shape[0])
    return np.sqrt((norms ** 2).sum(axis=1))


def _step(chart, rel):
    """Finite-difference step: ``rel`` times the largest domain extent."""
    return rel * float(chart.domain.extents.max())


def apply_operator_pointwise(chart, field, points, identity_tensor=False):
    """Divergence-form operator applied to a scalar field, pointwise.

    Computes ``(1/sqrt(det g)) d_i(sqrt(det g) K^ij d_j h) - K^ij d_i eta d_j h``
    with ``K = g^-1 T g^-1``; the outer derivative is a central difference
    with step ``FLUX_STEP_REL * max(domain extent)``.  With
    ``identity_tensor`` the coefficient tensor is replaced by the metric
    (drifting-Laplacian case).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    step = _step(chart, FLUX_STEP_REL)

    def conductivity(pts):
        """sqrt(det g) and K at pts."""
        if identity_tensor:  # T is never evaluated, not even at the shifted points
            g = _gram(chart.immersion.jacobian(pts))
            return np.sqrt(det_small(g)), _inv_spd(g)
        fields = chart_fields(chart, pts)
        return np.sqrt(det_small(fields.g)), fields.k

    def flux(pts):
        sqrt_g, k = conductivity(pts)
        return sqrt_g[:, None] * contract("pij,pj->pi", k, field.gradient(pts))

    div = np.zeros(points.shape[0])
    for axis in range(chart.dim_n):
        shift = np.zeros_like(points)
        shift[:, axis] = step
        div += (flux(points + shift)[:, axis] - flux(points - shift)[:, axis]) / (2.0 * step)

    sqrt_g, k = conductivity(points)
    drift = contract("pij,pi,pj->p", k, chart.eta.gradient(points), field.gradient(points))
    values = div / sqrt_g - drift
    if not np.all(np.isfinite(values)):
        raise EvaluationError("operator application produced non-finite values")
    return values


# ---------------------------------------------------------------------------
# geometric constants
# ---------------------------------------------------------------------------

def omega_n(n):
    """Volume of the unit ball in R^n (2 for n=1, pi for n=2)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass
class GeometricConstants:
    """Suprema/infima entering the eigenvalue bounds, sampled over a grid."""

    eta0: float
    eta_bar0: float
    h0: float
    a0: float
    t_star: float
    t0: float
    tr_t_inf: float
    tr_t_sup: float
    vol_omega: float
    dim_n: int
    dim_m: int
    sample_resolution: int
    metadata: dict = field(default_factory=dict)

    def as_dict(self):
        return asdict(self)


def trace_grad_tensor(chart, fields):
    """tr(nabla T)^b = g^ij (nabla_i T)_jk g^kb and its metric norm at the
    points of the :func:`chart_fields` record ``fields``.

    Both results are zero for the metric tensor (metric compatibility).
    Otherwise the derivatives of g (for the Christoffel symbols) and of T
    are central differences with step ``CHRISTOFFEL_STEP_REL * max(domain
    extent)``; the shifted points evaluate only g and T.
    """
    points, g, ginv, t = fields.points, fields.g, fields.ginv, fields.t
    if chart.tensor.is_metric:
        return np.zeros_like(points), np.zeros(points.shape[0])
    n = chart.dim_n
    step = _step(chart, CHRISTOFFEL_STEP_REL)
    dg = np.empty((points.shape[0], n, n, n))  # dg[:, i, j, k] = d_i g_jk
    dt = np.empty_like(dg)                     # dt[:, i, j, k] = d_i T_jk
    for axis in range(n):
        shift = np.zeros_like(points)
        shift[:, axis] = step
        gp = _gram(chart.immersion.jacobian(points + shift))
        gm = _gram(chart.immersion.jacobian(points - shift))
        dg[:, axis] = (gp - gm) / (2.0 * step)
        dt[:, axis] = (chart.tensor.value(points + shift, gp)
                       - chart.tensor.value(points - shift, gm)) / (2.0 * step)
    gamma = 0.5 * (contract("pkl,pijl->pkij", ginv, dg)
                   + contract("pkl,pjil->pkij", ginv, dg)
                   - contract("pkl,plij->pkij", ginv, dg))
    # nabla_t[:, i, j, k] = (nabla_i T)_{jk}
    nabla_t = (dt
               - contract("plij,plk->pijk", gamma, t)
               - contract("plik,pjl->pijk", gamma, t))
    trace_vec = contract("pij,pijk,pkb->pb", ginv, nabla_t, ginv)
    norm = np.sqrt(np.maximum(contract("pab,pa,pb->p", g, trace_vec, trace_vec), 0.0))
    return trace_vec, norm


def immersion_operator_terms(chart, fields):
    """``L x = tr(alpha o T) + dx(tr nabla T - T nabla eta)``, the operator
    applied to the immersion (Cheng & Yang, Math. Ann. 337, 2007; Chen &
    Cheng, J. Math. Soc. Japan 60, 2008), and its terms.

    ``fields`` is the :func:`chart_fields` record at the points.  Returns
    ``(lx, normal, tangential)``: ``L x^a`` ``(N, m)``, ``K^ij alpha^k_ij``
    per normal ``(N, m-n)`` and the chart vector ``V = tr(nabla T) - K d eta``
    ``(N, n)``, so that ``L x = frames^T normal + dx(V)``.
    """
    frames, alpha, _ = second_fundamental_form(chart, fields)
    trace_grad, _ = trace_grad_tensor(chart, fields)
    tangential = trace_grad - contract("pij,pj->pi", fields.k, chart.eta.gradient(fields.points))
    normal = contract("pij,pkij->pk", fields.k, alpha)
    lx = (contract("pk,pka->pa", normal, frames)
          + contract("pai,pi->pa", fields.jac, tangential))
    return lx, normal, tangential


def compute_constants(chart, resolution):
    """Evaluate all geometric constants on a sample grid of the given resolution.

    Suprema and infima are taken over the grid returned by the domain's
    ``sample_grid`` (boundary included); the unweighted volume is computed
    by Gauss quadrature of ``sqrt(det g)``.

    The grid is evaluated in contiguous blocks of points within
    ``spectralab.assembly.BLOCK_BYTES`` (:func:`_constants_point_bytes` a
    point), and each constant is the max or min of the blocks' extremes, so
    no constant depends on the block size.  The quadrature runs on the same
    blocks and writes its ``sqrt(det g)`` into one array, summed once.  Peak
    memory is one block plus the grid, the quadrature points and weights and
    one value per quadrature point.

    A :class:`DegeneracyError` or :class:`EvaluationError` from any block is
    raised before a :class:`TensorError`, which names the first sample of the
    whole grid where T is not positive definite.  So on a grid with both
    faults the field error is raised, even where it lies past that sample.

    Parameters
    ----------
    chart : Chart
    resolution : int
        Sample points per axis; must be at least 8.

    Returns
    -------
    GeometricConstants
    """
    from .assembly import blocks  # assembly imports this module

    if resolution < 8:
        raise ParameterError("constants resolution must be at least 8 points per axis")
    pts = chart.domain.sample_grid(resolution)
    point_bytes = _constants_point_bytes(chart)
    extremes, first_bad = [], None
    for block in blocks(len(pts), point_bytes):
        block_extremes, bad = _block_extremes(chart, pts[block])
        extremes.append(block_extremes)
        if first_bad is None and np.any(bad):
            first_bad = block.start + int(np.argmax(bad))
    if first_bad is not None:  # after every block: errors from the fields come first
        raise TensorError("coefficient tensor not positive definite at sample "
                          f"{tuple(pts[first_bad].tolist())}")
    del pts
    # max or min over the blocks, NaN-propagating as over the whole grid
    consts = {name: float((np.min if name == "tr_t_inf" else np.max)(
        [block_extremes[name] for block_extremes in extremes])) for name in extremes[0]}

    qnodes = max(resolution, 16)
    qpts, qwts = chart.domain.quadrature(qnodes)
    weighted = np.empty(len(qwts))  # sqrt(det g), then times the weights
    for block in blocks(len(qwts), point_bytes):
        weighted[block] = np.sqrt(det_small(_gram(chart.immersion.jacobian(qpts[block]))))
    weighted *= qwts

    return GeometricConstants(
        **consts,
        vol_omega=float(weighted.sum()),
        dim_n=chart.dim_n,
        dim_m=chart.dim_m,
        sample_resolution=resolution,
        metadata={
            "christoffel_step": _step(chart, CHRISTOFFEL_STEP_REL),
            "flux_step": _step(chart, FLUX_STEP_REL),
            "quadrature_nodes": qnodes,
        },
    )


def _constants_point_bytes(chart):
    """Bytes per sample point a block of :func:`compute_constants` holds at
    once: the Jacobian, g, g^-1, T and K, the larger of the second fundamental
    form's temporaries (two normal projections, the Hessian, J g^-1 and the
    second-form products) and the six ``n^3`` arrays of ``tr(nabla T)``'s
    differences, and 16 scalars."""
    m, n = chart.dim_m, chart.dim_n
    return 8 * (m * n + 4 * n * n + max(2 * m * m + 2 * m * n * n + m * n, 6 * n ** 3) + 16)


def _block_extremes(chart, pts):
    """The extremes of the constants' fields over the sample points ``pts``,
    by :class:`GeometricConstants` field name, and the mask of the points
    where T is not positive definite."""
    fields = chart_fields(chart, pts)
    if not (np.all(np.isfinite(fields.g)) and np.all(np.isfinite(fields.t))):
        raise EvaluationError("non-finite metric or tensor values on the sample grid")
    bad = not_spd(fields)

    deta = chart.eta.gradient(pts)
    eta0 = np.sqrt(np.maximum(contract("pij,pi,pj->p", fields.ginv, deta, deta), 0.0)).max()
    del deta
    # drifting Laplacian of eta (coefficient tensor = metric)
    eta_bar0 = apply_operator_pointwise(chart, chart.eta, pts, identity_tensor=True).max()

    if chart.dim_m > chart.dim_n:
        _, alpha, mean_curv = second_fundamental_form(chart, fields)
        h0 = np.linalg.norm(mean_curv, axis=1).max()
        a0 = _shape_norms(fields, alpha).max()
        del alpha, mean_curv
    else:
        h0 = a0 = 0.0

    ginv_t = contract("pia,pab->pib", fields.ginv, fields.t)
    t_star = np.sqrt(np.maximum(contract("pij,pji->p", ginv_t, ginv_t), 0.0)).max()
    del ginv_t
    tr_t = contract("pij,pji->p", fields.ginv, fields.t)
    t0 = trace_grad_tensor(chart, fields)[1].max()
    return dict(eta0=eta0, eta_bar0=eta_bar0, h0=h0, a0=a0, t_star=t_star, t0=t0,
                tr_t_inf=tr_t.min(), tr_t_sup=tr_t.max()), bad


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartEntry:
    """Chart-catalog entry of intrinsic dimension ``dim``.

    ``immersion(*params)`` and ``domain(*params)`` build the immersion and
    its default parameter domain; a chart given no parameters gets
    ``defaults``, so it takes either none or ``len(defaults)``.
    """

    dim: int
    immersion: Callable
    domain: Callable
    defaults: tuple = ()

    @property
    def counts(self):
        return (0, len(self.defaults)) if self.defaults else (0,)


@dataclass(frozen=True)
class FieldEntry:
    """Weight- or tensor-catalog entry: ``make(params, expr, dim)`` builds the
    field; ``counts(dim)`` are the numbers of parameters it takes."""

    make: Callable
    counts: Callable


def _expression_weight(params, expr, dim):
    if not expr:
        raise ParameterError("expression weight needs an expression string")
    return ExpressionWeight(expr, dim)


def _expression_tensor(params, expr, dim):
    if not expr:
        raise ParameterError("expression tensor needs entry strings")
    return ExpressionTensor([part.strip() for part in expr.split(";")], dim)


CHARTS = {
    "flat_interval": ChartEntry(
        1, lambda: FlatImmersion(1), lambda: Rectangle(((0.0, 1.0),))),
    "flat_rectangle": ChartEntry(
        2, lambda: FlatImmersion(2), lambda: Rectangle(((0.0, 1.0), (0.0, 1.0)))),
    "stereographic_sphere": ChartEntry(
        2, StereographicSphere, lambda r: Disk((0.0, 0.0), 1.0), (1.0,)),
    "cylinder": ChartEntry(
        2, Cylinder, lambda r: Rectangle(((0.0, math.pi * r), (0.0, 1.0))), (1.0,)),
    "associate_family": ChartEntry(
        2, AssociateFamily, lambda theta: Rectangle(((0.0, math.pi), (-0.8, 0.8))), (0.0,)),
}

ETAS = {
    "zero": FieldEntry(lambda params, expr, dim: ZeroWeight(), lambda dim: (0,)),
    "linear": FieldEntry(lambda params, expr, dim: LinearWeight(params), lambda dim: (dim,)),
    # coefficient, then optionally the center
    "radial_quadratic": FieldEntry(
        lambda params, expr, dim: RadialQuadraticWeight(
            params[0], params[1:] if len(params) > 1 else None),
        lambda dim: (1, 1 + dim)),
    "expr": FieldEntry(_expression_weight, lambda dim: (0,)),
}

TENSORS = {
    "metric": FieldEntry(lambda params, expr, dim: MetricTensor(), lambda dim: (0,)),
    "diag": FieldEntry(lambda params, expr, dim: DiagonalTensor(params), lambda dim: (dim,)),
    "expr": FieldEntry(_expression_tensor, lambda dim: (0,)),
}


def _lookup(catalog, what, name):
    if name not in catalog:
        raise ParameterError(f"unknown {what} {name!r}")
    return catalog[name]


def _check_count(name, params, allowed):
    if len(params) not in allowed:
        raise ParameterError(f"{name} takes {' or '.join(map(str, allowed))} "
                             f"parameters, got {len(params)}")


def make_eta(kind, params=(), expr=None, dim=2):
    entry = _lookup(ETAS, "weight kind", kind)
    _check_count(kind, params, entry.counts(dim))
    return entry.make(params, expr, dim)


def make_tensor(kind, params=(), expr=None, dim=2):
    entry = _lookup(TENSORS, "tensor kind", kind)
    _check_count(kind, params, entry.counts(dim))
    return entry.make(params, expr, dim)


def make_chart(chart_id, params=(), domain=None, eta=None, tensor=None):
    """Build a chart from the builtin catalog.

    Parameters
    ----------
    chart_id : str
        A key of :data:`CHARTS`.
    params : sequence of float
        Chart parameters (sphere/cylinder radius, family angle).
    domain : Rectangle or Disk, optional
        Overrides the chart's default parameter domain.
    eta, tensor : optional weight / coefficient-tensor fields
        Default to the zero weight and the metric tensor.
    """
    params = tuple(float(p) for p in params)
    entry = _lookup(CHARTS, "chart id", chart_id)
    _check_count(chart_id, params, entry.counts)
    args = params or entry.defaults
    immersion = entry.immersion(*args)
    domain = domain if domain is not None else entry.domain(*args)
    eta = eta if eta is not None else ZeroWeight()
    tensor = tensor if tensor is not None else MetricTensor()
    label = chart_id if not params else f"{chart_id}({', '.join(map(str, params))})"
    return Chart(dim_n=immersion.dim_n, dim_m=immersion.dim_m, domain=domain,
                 immersion=immersion, eta=eta, tensor=tensor, label=label)
