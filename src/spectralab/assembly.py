"""P1 finite element assembly of the weighted bilinear forms.

Discretizes ``a(u, v) = int T(grad u, grad v) dm`` and
``b(u, v) = int u v dm`` with ``dm = exp(-eta) sqrt(det g) dxi`` over a
structured mesh of the chart parameter domain.  In chart indices the
stiffness integrand is ``K^ij d_i phi_a d_j phi_b`` with
``K = g^-1 T g^-1``.  Quadrature is the 3-point edge-midpoint rule on
triangles (exact for quadratics) and 2-point Gauss on segments.  Dirichlet
vertices are eliminated, keeping both matrices symmetric positive definite.

Assembly order is deterministic (cells ascending, fixed local node order),
so repeated runs produce bit-identical matrices.  Per-point fields live one
block of cells within :data:`BLOCK_BYTES` at a time; no float depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import MeshTooCoarseError, TensorError
from .geometry import chart_fields, contract, immersion_operator_terms, not_spd

# bytes of per-point values held at once by an assembly block of cells, or
# when operators act on a block of eigenfunctions; it bounds the block's
# share of the peak memory
BLOCK_BYTES = 1 << 24

# reference quadrature
_GAUSS_1D = (np.array([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)]),
             np.array([0.5, 0.5]))  # weights on the unit segment
# P1 values at triangle edge midpoints m01, m12, m20 (rows: qpoint, cols: node)
_TRI_PHI = np.array([[0.5, 0.5, 0.0],
                     [0.0, 0.5, 0.5],
                     [0.5, 0.0, 0.5]])


@dataclass
class SparseSymMatrix:
    """Symmetric sparse matrix stored as its upper triangle (row <= col)."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_shared_entries(cls, dim, rows, cols, *vals):
        """One coalesced matrix per value array over the shared (row, col)
        pattern, which is sorted once."""
        order, starts, lo, hi = _sorted_pattern(dim, rows, cols)
        return [cls(dim, lo, hi, np.add.reduceat(np.asarray(v, dtype=float)[order], starts))
                for v in vals]

    def to_csr(self):
        """Full symmetric scipy CSR matrix."""
        off = self.rows != self.cols
        rows = np.concatenate([self.rows, self.cols[off]])
        cols = np.concatenate([self.cols, self.rows[off]])
        vals = np.concatenate([self.vals, self.vals[off]])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))


def _sorted_pattern(dim, rows, cols):
    """Stable sort order of upper-triangle entries, the start of each run of
    equal entries in it, and the run's (row, col).  The key ``min * dim + max``
    orders as a lexicographic sort on (min, max) does; it is freed on return,
    before the values are reduced."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    key = np.minimum(rows, cols).astype(np.int64)
    key *= dim
    key += np.maximum(rows, cols)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    return (order, starts) + np.divmod(key[starts], dim)


def _cell_geometry(mesh, cells=slice(None)):
    """Quadrature points, chart-measure weights and P1 gradients per cell,
    for the cells selected by ``cells`` (all by default)."""
    verts = mesh.vertices[mesh.cells[cells]]
    if mesh.dim == 1:
        h = verts[:, 1, 0] - verts[:, 0, 0]
        ref, wref = _GAUSS_1D
        mid = 0.5 * (verts[:, 0, 0] + verts[:, 1, 0])
        qpts = (mid[:, None] + 0.5 * h[:, None] * ref[None, :])[:, :, None]
        qw = h[:, None] * wref[None, :]
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]
        phi_half = 0.5 * (1.0 - ref)
        phi = np.stack([phi_half, 1.0 - phi_half], axis=-1)  # (Q, nodes)
        phi = np.broadcast_to(phi, (verts.shape[0],) + phi.shape)
        return qpts, qw, grads, phi

    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    qpts = np.stack([0.5 * (verts[:, 0] + verts[:, 1]),
                     0.5 * (verts[:, 1] + verts[:, 2]),
                     0.5 * (verts[:, 2] + verts[:, 0])], axis=1)
    qw = (det / 6.0)[:, None] * np.ones((1, 3))
    # rows of inv([e1 e2]): gradients of the barycentric coordinates
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    grads = np.stack([-g1 - g2, g1, g2], axis=1)
    phi = np.broadcast_to(_TRI_PHI, (verts.shape[0], 3, 3))
    return qpts, qw, grads, phi


def _dm_weight(chart, g, qpts_flat):
    """Weight exp(-eta) sqrt(det g) of the measure dm at flat points."""
    # np.linalg.det, not det_small: the shipped hemisphere spectra hold
    # numerically tied pairs whose roundoff-level gaps decide whether
    # hile_protter is evaluated, so rounding det g differently here changes
    # the check counts recorded in perfbench/golden.json
    det = np.linalg.det(g) if chart.dim_n > 1 else g[:, 0, 0]
    return np.exp(-chart.eta.value(qpts_flat)) * np.sqrt(det)


def assemble(chart, mesh, dirichlet=True):
    """Assemble the stiffness/mass pair of the weighted eigenproblem.

    Parameters
    ----------
    chart : Chart
    mesh : Mesh over the chart's parameter domain
    dirichlet : bool
        Eliminate boundary vertices (default).  With ``dirichlet=False``
        all vertices are kept, which is useful for measure consistency
        checks; the returned ``dof_map`` is then the identity.

    Returns
    -------
    (A, B, dof_map) : SparseSymMatrix pair and an int array mapping vertex
    index to reduced index (-1 on eliminated boundary vertices).
    """
    ncells, nodes = mesh.cells.shape
    upper = np.triu_indices(nodes)  # local pairs (a, b), a <= b, in a fixed order
    a_vals = np.empty((len(upper[0]), ncells))
    b_vals = np.empty_like(a_vals)
    first_bad = None
    # every value is computed per point or per cell, so contiguous cell
    # blocks give the same floats as one pass over the mesh
    step = max(1, BLOCK_BYTES // (nodes * _point_bytes(chart)))  # one point per node
    for lo in range(0, ncells, step):
        block = slice(lo, lo + step)
        a_vals[:, block], b_vals[:, block], bad = _element_entries(chart, mesh, block, upper)
        if first_bad is None and np.any(bad):
            first_bad = lo + int(np.argmax(bad))
    if first_bad is not None:  # after every block: errors from the fields come first
        raise TensorError(
            f"coefficient tensor not positive definite at a quadrature point of cell {first_bad}")

    kept = ~mesh.boundary if dirichlet else np.ones(mesh.num_vertices, dtype=bool)
    if not np.any(kept):
        raise MeshTooCoarseError("no interior degrees of freedom after elimination")
    dofs = int(kept.sum())
    dof_map = -np.ones(mesh.num_vertices, dtype=int)
    dof_map[kept] = np.arange(dofs)
    # entries pair by pair, cells ascending, without eliminated vertices;
    # int32 indices halve the pattern's memory (the sort key is int64)
    dof32 = dof_map.astype(np.int32)
    rows, cols = dof32[mesh.cells[:, upper[0]].T], dof32[mesh.cells[:, upper[1]].T]
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, a_vals, b_vals = rows[keep], cols[keep], a_vals[keep], b_vals[keep]
    a_mat, b_mat = SparseSymMatrix.from_shared_entries(dofs, rows, cols, a_vals, b_vals)
    return a_mat, b_mat, dof_map


def _point_bytes(chart):
    """Bytes per point an assembly block holds at once: the Jacobian, g, g^-1,
    T and K with their contraction temporaries, and a few scalars."""
    return 8 * (chart.dim_m * chart.dim_n + 6 * chart.dim_n ** 2 + 10)


def _element_entries(chart, mesh, cells, upper):
    """Stiffness and mass entries of the local pairs ``upper`` on a slice of
    cells, each of shape ``(pairs, cells)``, and the mask of the cells with a
    quadrature point where T is not positive definite."""
    qpts, qw, grads, phi = _cell_geometry(mesh, cells)
    ncells, nq = qw.shape
    flat = qpts.reshape(-1, mesh.dim)
    g, _, t, k = chart_fields(chart, flat)
    wq = _dm_weight(chart, g, flat).reshape(ncells, nq) * qw
    # stiffness: grads are constant per cell, so sum the weighted K first
    k_eff = contract("cq,cqij->cij", wq, k.reshape(ncells, nq, mesh.dim, mesh.dim))
    a_elem = contract("cai,cij,cbj->cab", grads, k_eff, grads)
    b_elem = contract("cq,cqa,cqb->cab", wq, phi, phi)
    bad = not_spd(t, g).reshape(ncells, nq).any(axis=1)
    return a_elem[:, upper[0], upper[1]].T, b_elem[:, upper[0], upper[1]].T, bad


class EigenfunctionQuadrature:
    """Element-quadrature context for integrals of discrete eigenfunctions.

    Wraps a chart, a mesh and eigenfunctions given as vertex-value arrays.
    Pointwise quantities at the quadrature points are sparse per-point
    operators (one row per point, one entry per node of its cell) applied
    to blocks of eigenfunctions: the P1 value, and a direction dotted with
    the P1 gradient.  Every integral stays a dm-weighted sum of per-point
    values.  Shared by the test-function and tensor-theorem checks, which
    both read the terms of the identity
    ``L x = tr(alpha o T) + dx(tr(nabla T) - T(grad eta))``
    (:func:`~spectralab.geometry.immersion_operator_terms`): the tensor
    bound at the quadrature points, the test functions ``x^a`` as
    ``vertex_lx``.  Both are computed on first use and kept, as are the
    integrals of the integrated tensor bound.
    """

    def __init__(self, chart, mesh, vertex_values):
        self.chart = chart
        self.mesh = mesh
        self.vertex_values = np.atleast_2d(np.asarray(vertex_values, dtype=float))
        qpts, qw, grads, phi = _cell_geometry(mesh)
        self.ncells, self.nq = qw.shape
        self.qpts_flat = qpts.reshape(-1, mesh.dim)
        self.g, self.ginv, self.tensor, self.k = chart_fields(chart, self.qpts_flat)
        w = _dm_weight(chart, self.g, self.qpts_flat)
        self.dm_weights = (w.reshape(self.ncells, self.nq) * qw).ravel()
        self.grads = grads
        self.phi = phi.reshape(-1, phi.shape[-1])  # P1 values per point, (P, nodes)

    def integrate(self, values_flat):
        """Integral of a quadrature-point sampled function against dm."""
        return float((self.dm_weights * values_flat).sum())

    def point_operator(self, coeffs):
        """CSR operator (points x vertices) from per-point local coefficients
        of shape ``(P, nodes)``, placed at the vertices of the point's cell."""
        points, nodes = coeffs.shape
        cols = np.repeat(self.mesh.cells, self.nq, axis=0).ravel()
        return sp.csr_matrix((coeffs.ravel(), cols, np.arange(0, points * nodes + 1, nodes)),
                             shape=(points, self.mesh.num_vertices))

    def directional(self, vectors):
        """Local coefficients of ``vec_p . grad`` for chart vectors ``(P, n)``."""
        vectors = vectors.reshape(self.ncells, self.nq, -1)
        return contract("cqi,cai->cqa", vectors, self.grads).reshape(-1, self.grads.shape[1])

    @cached_property
    def vertex_lx(self):
        """``L x^a`` at the vertices, shape ``(m, V)``: the operator applied
        to the ambient coordinates in closed form,
        ``frames^T (K^ij alpha_ij) + dx(tr(nabla T) - K d eta)``."""
        verts = self.mesh.vertices
        g, ginv, t, k = chart_fields(self.chart, verts)
        frames, normal, tangential = immersion_operator_terms(self.chart, verts, g, ginv, t, k)
        jac = self.chart.immersion.jacobian(verts)
        return (contract("pk,pka->pa", normal, frames) + contract("pai,pi->pa", jac, tangential)).T

    @cached_property
    def value_operator(self):
        """The P1 interpolation operator Phi."""
        return self.point_operator(self.phi)

    def interpolate(self, vertex_field):
        """P1 interpolation of a vertex field to quadrature points, flat."""
        return self.value_operator @ np.asarray(vertex_field, dtype=float)

    def column_integrals(self, operators, terms, k):
        """Integrals ``sum_p w_p (A_a u_i)_p (A_b u_i)_p`` for ``i < k``, one row
        per term ``(w, a, b)`` with ``w`` the per-point weights and ``a, b``
        indices into ``operators``.  Eigenfunctions go through the operators
        in contiguous blocks sized by :data:`BLOCK_BYTES`."""
        points = self.qpts_flat.shape[0]
        per_block = max(1, BLOCK_BYTES // (8 * points * (len(operators) + 1)))
        out = np.empty((len(terms), k))
        for lo in range(0, k, per_block):
            hi = min(lo + per_block, k)
            block = np.ascontiguousarray(self.vertex_values[lo:hi].T)
            values = [op @ block for op in operators]
            for row, (weights, a, b) in enumerate(terms):
                out[row, lo:hi] = weights @ (values[a] * values[b])
        return out

    @cached_property
    def tensor_fields(self):
        """Pointwise fields of the integrated tensor bound at quadrature points:
        ``(tr_g T, |tr(alpha o T)|^2 + |V|^2, V)`` with the tangential vector
        ``V = tr(nabla T) - T(grad eta)`` in chart components."""
        tr_t = np.einsum("pij,pji->p", self.ginv, self.tensor)
        _, normal, tangential = immersion_operator_terms(
            self.chart, self.qpts_flat, self.g, self.ginv, self.tensor, self.k)
        tangential_sq = contract("pab,pa,pb->p", self.g, tangential, tangential)
        return tr_t, (normal ** 2).sum(axis=1) + tangential_sq, tangential

    @cached_property
    def _tensor_integrals(self):
        tr_t, square_field, tangential = self.tensor_fields
        # g(V, K grad u) = w . grad u with w = V g K
        w = contract("pa,pab,pbj->pj", tangential, self.g, self.k)
        dm = self.dm_weights
        operators = [self.value_operator, self.point_operator(self.directional(w))]
        terms = [(dm * tr_t, 0, 0), (dm * square_field, 0, 0), (dm, 0, 1)]
        return self.column_integrals(operators, terms, self.vertex_values.shape[0]).T

    def tensor_integrals(self, k):
        """Integrals ``(u_i^2 tr T, u_i^2 square field, u_i g(V, T grad u_i))``
        against dm for the first ``k`` eigenfunctions, as rows of a ``(k, 3)``
        array; all rows are computed on first use."""
        return self._tensor_integrals[:k]
