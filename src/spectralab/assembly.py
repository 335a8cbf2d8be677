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

import numpy as np
import scipy.sparse as sp

from .errors import EvaluationError, MeshTooCoarseError, ParameterError, TensorError
from .geometry import chart_fields, contract, det_small, immersion_operator_terms, not_spd

# bytes of per-point values held at once by a block of the per-point stages:
# assembly's cells, the check integrals' cells with their eigenfunction
# values, and the constants' sample points; it bounds the block's share of
# the peak memory.  4 MB: smaller blocks lowered no peak further and slowed
# the check integrals by a third or more (timings in the README)
BLOCK_BYTES = 1 << 22

# reference quadrature
_GAUSS_1D = (np.array([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)]),
             np.array([0.5, 0.5]))  # weights on the unit segment
# P1 values at triangle edge midpoints m01, m12, m20 (rows: qpoint, cols: node)
_TRI_PHI = np.array([[0.5, 0.5, 0.0],
                     [0.0, 0.5, 0.5],
                     [0.5, 0.0, 0.5]])


@dataclass(eq=False)
class SparseSymMatrix:
    """Symmetric matrix held as ``csr``, canonical (sorted indices, no duplicates,
    stored zeros kept), with ``indptr`` and ``indices`` shared by the matrices
    built together; ``rows``, ``cols``, ``vals``: its upper triangle, row-major."""

    csr: sp.csr_matrix
    dim = property(lambda self: self.csr.shape[0])
    rows = property(lambda self: sp.triu(self.csr, format="coo").row.astype(np.int64))
    cols = property(lambda self: sp.triu(self.csr, format="coo").col.astype(np.int64))
    vals = property(lambda self: sp.triu(self.csr, format="coo").data)

    @classmethod
    def from_shared_entries(cls, dim, rows, cols, *vals):
        """One coalesced matrix per value array over the shared (row, col) pattern,
        summed in entry order; the sort key is freed before the values are summed."""
        key = np.minimum(rows, cols).astype(np.int64)
        key *= dim
        key += np.maximum(rows, cols)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        lo, hi = np.array(np.divmod(key[starts], dim), dtype=np.int32)
        del key
        vals = [np.add.reduceat(np.asarray(v, dtype=float)[order], starts) for v in vals]
        # the mirrored strict upper triangle, then the upper triangle: each lists
        # a row's columns in ascending order, so a stable sort on the row is CSR's
        off = lo != hi
        rows = np.concatenate([hi[off], lo])
        order = np.argsort(rows, kind="stable")
        indices = np.concatenate([lo[off], hi])[order]
        indptr = np.searchsorted(rows[order], np.arange(dim + 1)).astype(np.int32)
        return [cls(sp.csr_matrix((np.concatenate([v[off], v])[order], indices, indptr),
                                  shape=(dim, dim))) for v in vals]

    def to_csr(self):
        """Full symmetric scipy CSR matrix, a copy."""
        return self.csr.copy()


def csr_pencil(a, b):
    """``A`` and ``B`` in CSR over one canonical pattern, stored zeros kept: one
    ``indptr`` and ``indices`` array, a pair's own if it shares one (as assembled
    pairs do), else the union of their upper triangles, the part that is read."""
    a, b = (m.csr if isinstance(m, SparseSymMatrix) else sp.csr_matrix(m) for m in (a, b))
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ParameterError(f"A and B are {a.shape} and {b.shape}, not square of one shape")
    if a.indptr is b.indptr and np.shares_memory(a.indices, b.indices) and a.has_canonical_format:
        return a, b
    ua, ub = sp.triu(a, format="coo"), sp.triu(b, format="coo")
    return tuple(m.csr for m in SparseSymMatrix.from_shared_entries(
        a.shape[0], np.concatenate([ua.row, ub.row]), np.concatenate([ua.col, ub.col]),
        np.concatenate([ua.data, np.zeros(ub.nnz)]), np.concatenate([np.zeros(ua.nnz), ub.data])))


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


def _dm_weight(chart, fields):
    """Weight exp(-eta) sqrt(det g) of the measure dm at the points of ``fields``."""
    with np.errstate(over="ignore"):
        weight = np.exp(-chart.eta.value(fields.points))
    if not np.all(np.isfinite(weight)):
        raise EvaluationError("weight exp(-eta) overflows at a quadrature point")
    return weight * np.sqrt(det_small(fields.g))


def assemble(chart, mesh, dirichlet=True):
    """The stiffness/mass pair of the weighted eigenproblem on ``mesh`` over
    the chart's parameter domain: ``(A, B, dof_map)``, two SparseSymMatrix
    over one CSR pattern and the reduced index of each vertex (-1 on
    eliminated boundary vertices).  ``dirichlet=False`` keeps every vertex
    (for measure consistency checks), and ``dof_map`` is then the identity."""
    ncells, nodes = mesh.cells.shape
    upper = np.triu_indices(nodes)  # local pairs (a, b), a <= b, in a fixed order
    a_vals = np.empty((len(upper[0]), ncells))
    b_vals = np.empty_like(a_vals)
    first_bad = None
    # every value is computed per point or per cell, so contiguous cell
    # blocks give the same floats as one pass over the mesh
    for block in blocks(ncells, nodes * _point_bytes(chart)):  # one point per node
        a_vals[:, block], b_vals[:, block], bad = _element_entries(chart, mesh, block, upper)
        if first_bad is None and np.any(bad):
            first_bad = block.start + int(np.argmax(bad))
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


def blocks(count, item_bytes):
    """Contiguous slices covering ``range(count)`` in order, each of at most
    ``BLOCK_BYTES // item_bytes`` items and at least one."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _point_bytes(chart):
    """Bytes per point an assembly block holds at once: the Jacobian, g, g^-1,
    T and K, and 24 scalars (the cell geometry, the dm weights, the element
    matrices and the temporaries of the positive-definiteness test, which
    runs last with all of them live)."""
    return 8 * (chart.dim_m * chart.dim_n + 4 * chart.dim_n ** 2 + 24)


def _element_entries(chart, mesh, cells, upper):
    """Stiffness and mass entries of the local pairs ``upper`` on a slice of
    cells, each of shape ``(pairs, cells)``, and the mask of the cells with a
    quadrature point where T is not positive definite."""
    qpts, qw, grads, phi = _cell_geometry(mesh, cells)
    ncells, nq = qw.shape
    fields = chart_fields(chart, qpts.reshape(-1, mesh.dim))
    wq = _dm_weight(chart, fields).reshape(ncells, nq) * qw
    # stiffness: grads are constant per cell, so sum the weighted K first
    k_eff = contract("cq,cqij->cij", wq, fields.k.reshape(ncells, nq, mesh.dim, mesh.dim))
    a_elem = contract("cai,cij,cbj->cab", grads, k_eff, grads)
    b_elem = contract("cq,cqa,cqb->cab", wq, phi, phi)
    bad = not_spd(fields).reshape(ncells, nq).any(axis=1)
    return a_elem[:, upper[0], upper[1]].T, b_elem[:, upper[0], upper[1]].T, bad


class EigenfunctionQuadrature:
    """Integrals of discrete eigenfunctions under element quadrature.

    Wraps a chart, a mesh and eigenfunctions given as vertex-value arrays,
    for the test-function and tensor-theorem checks.  On construction, one
    pass over contiguous cell blocks (:func:`_block_integrals`) evaluates
    every integral of both checks for all eigenfunctions.  Each block
    evaluates one :func:`~spectralab.geometry.chart_fields` record and
    :func:`~spectralab.geometry.immersion_operator_terms` from it, which gives
    ``L h = L x^a`` for the test functions ``h = x^a``, gathers the
    eigenfunction values at its cells' nodes and contracts them with
    per-cell coefficients.  A block holds about :data:`BLOCK_BYTES` of
    per-point values; no field over the whole mesh is held.
    """

    def __init__(self, chart, mesh, vertex_values):
        self.chart = chart
        self.mesh = mesh
        self.vertex_values = np.atleast_2d(np.asarray(vertex_values, dtype=float))
        values = np.ascontiguousarray(self.vertex_values.T)  # vertex_fields' (V, k) array
        cell_bytes = mesh.cells.shape[1] * _check_point_bytes(chart, values.shape[1])
        # the rows of _block_integrals summed over cell blocks, and the
        # largest |T(grad h, grad h)| per ambient axis
        self._sums = self._t_hh_max = 0.0
        for block in blocks(mesh.num_cells, cell_bytes):
            sums, t_hh_max = _block_integrals(chart, mesh, block, values)
            self._sums = self._sums + sums
            self._t_hh_max = np.maximum(self._t_hh_max, t_hh_max)

    def tensor_integrals(self, k):
        """Integrals ``(u_i^2 tr T, u_i^2 square field, u_i g(V, T grad u_i))``
        against dm for the first ``k`` eigenfunctions, as rows of a ``(k, 3)``
        array, with the square field ``|tr(alpha o T)|^2 + |V|^2`` and the
        tangential vector ``V = tr(nabla T) - T(grad eta)``."""
        return self._sums[[0, 1, 2 + self.chart.dim_m], :k].T

    def proposition_integrals(self, axis, k):
        """Test-function integrals for ``h = x^axis`` and the first ``k``
        eigenfunctions: ``(weights, rayleigh, degenerate)`` with
        ``weights[i] = int u_i^2 T(grad h, grad h) dm``,
        ``rayleigh[i] = int (u_i Lh + 2 T(grad h, grad u_i))^2 dm``, and
        whether ``T(grad h, grad h)`` vanishes at every quadrature point."""
        rows = self._sums[[2 + axis, 3 + self.chart.dim_m + axis], :k]
        return rows[0], rows[1], bool(self._t_hh_max[axis] <= 1e-14)


def _check_point_bytes(chart, k):
    """Bytes per point a block of the check integrals holds at once: the
    fields and immersion terms, the per-cell coefficients, and four values
    of each of the ``k`` eigenfunctions (one node value, three at points)."""
    m, n = chart.dim_m, chart.dim_n
    return 8 * (4 * k + m * n * n + 4 * n ** 3 + 2 * m * n + 6 * n * n + 20)


def _block_integrals(chart, mesh, cells, values):
    """The check integrals over a slice of cells, for the eigenfunctions as
    the columns of ``values`` ``(V, k)``, and ``max |T(grad h, grad h)|`` per
    ambient axis.  Integral rows, each a dm-weighted sum: ``u^2 tr_g T``,
    ``u^2`` times the square field, ``u^2 T(grad h, grad h)`` for each axis
    ``h = x^a``, ``u g(V, T grad u)``, then ``(R u)^2`` for each axis with
    ``R = Lh Phi + 2 (K grad h) . grad`` and ``Lh = L x^a`` at the point."""
    qpts, qw, grads, phi = _cell_geometry(mesh, cells)
    ncells, nq = qw.shape
    fields = chart_fields(chart, qpts.reshape(-1, mesh.dim))
    dm = (_dm_weight(chart, fields).reshape(ncells, nq) * qw).ravel()
    lx, normal, tangential = immersion_operator_terms(chart, fields)
    nodal = values[mesh.cells[cells]]  # (cells, nodes, k)

    def at_points(coeffs):  # (cells, q, nodes) coefficients -> (points, k) values
        return np.matmul(coeffs, nodal).reshape(ncells * nq, -1)

    def directional(vectors):  # coefficients of vec_p . grad
        return contract("cqi,cai->cqa", vectors.reshape(ncells, nq, -1), grads)

    m = chart.dim_m
    sums = np.empty((3 + 2 * m, values.shape[1]))
    u = at_points(phi)
    # g(V, K grad u) = w . grad u with w = V g K
    w = contract("pa,pab,pbj->pj", tangential, fields.g, fields.k)
    sums[2 + m] = dm @ (u * at_points(directional(w)))
    square = (normal ** 2).sum(axis=1) + contract("pab,pa,pb->p", fields.g, tangential, tangential)
    u_fields = [contract("pij,pji->p", fields.ginv, fields.t), square]
    for axis in range(m):
        grad_h = fields.jac[:, axis, :]
        k_grad_h = contract("pij,pj->pi", fields.k, grad_h)
        u_fields.append(contract("pi,pi->p", grad_h, k_grad_h))
        # R's terms are added on the coefficients: cheaper than on (points, k) values
        r_u = at_points(lx[:, axis].reshape(ncells, nq, 1) * phi + 2.0 * directional(k_grad_h))
        sums[3 + m + axis] = dm @ (r_u * r_u)
    u *= u
    for row, field in enumerate(u_fields):
        sums[row] = (dm * field) @ u
    return sums, np.abs(u_fields[2:]).max(axis=1)
