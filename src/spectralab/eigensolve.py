"""Generalized symmetric eigensolvers for the assembled pencil ``A x = lambda B x``.

Two routes are provided and cross-checked against each other:

* :func:`solve_dense` reduces to a standard symmetric problem through a
  Cholesky factorization of ``B`` (LAPACK, via ``scipy.linalg.eigh``) and is
  the reference oracle on desk-size problems.
* :func:`solve_sparse` is a shift-invert Lanczos iteration in the B inner
  product with full reorthogonalization; the sparse factorization of
  ``A - sigma B`` (symmetric minimum-degree ordering) is computed once and
  reused across iterations.

Eigenvectors are B-normalized and sign-fixed (largest-magnitude component
positive) for reproducible reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSymMatrix
from .errors import ConvergenceError, NotSPDError, ParameterError, ShiftError

DENSE_LIMIT = 4000
DEFAULT_TOL = 1e-8


@dataclass
class SpectralResult:
    """Ascending eigenvalues with B-orthonormal eigenvectors.

    ``vectors`` holds one eigenvector per row in the reduced (interior dof)
    numbering; ``residuals`` are the relative residuals
    ``|A x - lambda B x| / ((1 + lambda) |B x|)``.  ``vertex_values`` is
    filled by the pipeline when a mesh/dof map is available.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    method: str
    iterations: int
    tolerance: float
    vertex_values: np.ndarray = None

    def __len__(self):
        return len(self.eigenvalues)


def _as_csr(matrix):
    if isinstance(matrix, SparseSymMatrix):
        return matrix.to_csr()
    return sp.csr_matrix(matrix)


def _fix_signs(vectors):
    for row in vectors:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return vectors


def _relative_residuals(a_csr, b_csr, eigenvalues, vectors):
    res = np.empty(len(eigenvalues))
    for i, (lam, vec) in enumerate(zip(eigenvalues, vectors)):
        bx = b_csr @ vec
        res[i] = np.linalg.norm(a_csr @ vec - lam * bx) / ((1.0 + abs(lam)) * np.linalg.norm(bx))
    return res


def _empty_result(method, tol):
    return SpectralResult(np.zeros(0), np.zeros((0, 0)), np.zeros(0), method, 0, tol)


def vertex_fields(result, dof_map):
    """Expand reduced eigenvectors to vertex-value arrays (zeros on boundary)."""
    nverts = len(dof_map)
    out = np.zeros((len(result), nverts))
    interior = dof_map >= 0
    out[:, interior] = result.vectors[:, dof_map[interior]]
    return out


def solve_dense(a, b, k, tol=DEFAULT_TOL):
    """Lowest ``k`` eigenpairs via Cholesky reduction and LAPACK (the oracle).

    Requires the pencil dimension to be at most 4000 and ``B`` to be
    symmetric positive definite.
    """
    a_csr, b_csr = _as_csr(a), _as_csr(b)
    n = a_csr.shape[0]
    if n > DENSE_LIMIT:
        raise ParameterError(f"dense solver limited to {DENSE_LIMIT} dofs, got {n}")
    if k > n:
        raise ParameterError(f"requested {k} eigenpairs from a {n}-dim problem")
    if k == 0:
        return _empty_result("dense", tol)
    try:
        eigenvalues, vectors = sla.eigh(
            a_csr.toarray(), b_csr.toarray(), subset_by_index=[0, k - 1])
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"Cholesky reduction failed: B is not SPD ({exc})") from exc
    vectors = vectors.T.copy()
    # eigh returns B-orthonormal columns already; renormalize defensively
    for i, vec in enumerate(vectors):
        vectors[i] = vec / np.sqrt(vec @ (b_csr @ vec))
    _fix_signs(vectors)
    residuals = _relative_residuals(a_csr, b_csr, eigenvalues, vectors)
    return SpectralResult(eigenvalues, vectors, residuals, "dense", 1, tol)


class _LanczosSweep:
    """One B-Lanczos run on (A - sigma B)^-1 B with optional deflation.

    The Lanczos vectors are the rows of one buffer that doubles when full;
    after ``m`` steps the basis is the view of its first ``m`` rows.
    ``B`` times the basis is never stored: each reorthogonalization pass
    applies ``B`` to the vector being orthogonalized instead.
    """

    INITIAL_ROWS = 32

    def __init__(self, lu, b_csr, sigma, tol, rng, deflate_vecs, deflate_bvecs):
        self.lu = lu
        self.b_csr = b_csr
        self.sigma = sigma
        self.tol = tol
        self.rng = rng
        self.deflate = deflate_vecs      # (d, n) or None
        self.deflate_b = deflate_bvecs   # (d, n) or None
        self.n = b_csr.shape[0]
        self.space = self.n - (0 if deflate_vecs is None else len(deflate_vecs))

    def _b_norm(self, w):
        """Return the B-norm of ``w`` and ``B w``."""
        bw = self.b_csr @ w
        return float(np.sqrt(np.abs(w @ bw))), bw

    def _project_out(self, w, qmat):
        for _ in range(2):
            if self.deflate is not None and len(self.deflate):
                w -= self.deflate.T @ (self.deflate_b @ w)
            if len(qmat):
                w -= qmat.T @ (qmat @ (self.b_csr @ w))
        return w

    def _fresh_vector(self, qmat):
        """A random unit B-norm vector B-orthogonal to ``qmat`` and the
        deflation set, with its B-image; None if none is left."""
        w = self._project_out(self.rng.standard_normal(self.n), qmat)
        norm, bw = self._b_norm(w)
        if norm <= 1e-12:
            return None
        return w / norm, bw / norm

    def run(self, want, step_cap, residual_fn):
        """Iterate until the lowest ``want`` pairs of the deflated pencil
        pass ``residual_fn``; returns (lams, vecs, residuals, steps)."""
        want = min(want, self.space)
        empty = (np.zeros(0), np.zeros((0, self.n)), np.zeros(0))
        if want == 0:
            return (*empty, 0)
        rows = min(step_cap, self.space) + 1
        basis = np.empty((min(self.INITIAL_ROWS, rows), self.n))
        start = self._fresh_vector(basis[:0])
        if start is None:
            return (*empty, 0)
        basis[0], bv = start
        alphas, betas = [], []
        last = (*empty, step_cap)

        for step in range(min(step_cap, self.space)):
            m = step + 1
            qmat = basis[:m]
            w = self.lu.solve(bv)
            alphas.append(float(bv @ w))
            w -= alphas[-1] * qmat[-1]
            if betas and betas[-1] != 0.0:
                w -= betas[-1] * qmat[-2]
            w = self._project_out(w, qmat)
            beta, bw = self._b_norm(w)

            if m >= want:
                theta, s = sla.eigh_tridiagonal(np.array(alphas),
                                                np.array(betas[:m - 1]))
                order = np.argsort(theta)[::-1][:want]
                ests = beta * np.abs(s[-1, order])
                gate = ests <= 10.0 * max(self.tol, 1e-13) * np.maximum(
                    np.abs(theta[order]), 1e-30)
                exhausted = m == self.space
                if np.all(gate) or exhausted:
                    vecs = s[:, order].T @ qmat
                    lams = self.sigma + 1.0 / theta[order]
                    idx = np.argsort(lams)
                    lams, vecs = lams[idx], vecs[idx]
                    res = residual_fn(lams, vecs)
                    last = (lams, vecs, res, step + 1)
                    if np.all(res <= self.tol) or exhausted:
                        return last

            if m == self.space:
                break
            if beta <= 1e-14 * max(1.0, abs(alphas[-1])):
                fresh = self._fresh_vector(qmat)
                if fresh is None:
                    break
                v, bv = fresh
                betas.append(0.0)
            else:
                betas.append(beta)
                v, bv = w / beta, bw / beta
            if m == len(basis):
                grown = np.empty((min(2 * m, rows), self.n))
                grown[:m] = basis
                basis = grown
            basis[m] = v
        return last


def solve_sparse(a, b, k, sigma=0.0, tol=DEFAULT_TOL, maxiter=None, seed=1234):
    """Lowest ``k`` eigenpairs by shift-invert Lanczos in the B inner product.

    The factorization of ``A - sigma B`` is computed once and reused for
    every iteration; it uses a symmetric minimum-degree ordering (SuperLU's
    ``MMD_AT_PLUS_A``), which suits the symmetric pencil.  The Krylov basis
    is kept B-orthonormal with full (two-pass) reorthogonalization and is
    stored once, so a sweep of ``steps`` Lanczos steps on an ``n``-dof
    pencil holds about ``n * steps * 8`` bytes of basis.  Because a
    single-vector Krylov space sees one copy of each eigenvalue, converged
    pairs are certified by deflated restart sweeps: a fresh start vector,
    orthogonalized against everything found, must not expose an eigenvalue
    below the current k-th; otherwise the missing copy is merged and the
    sweep repeats.
    Converged pairs satisfy ``|A x - lambda B x| <= tol (1+lambda) |B x|``.

    Parameters
    ----------
    a, b : SparseSymMatrix or scipy sparse
    k : number of eigenpairs
    sigma : shift below the smallest eigenvalue (0 is always valid for the
        Dirichlet pencil)
    tol : relative residual tolerance
    maxiter : total Lanczos step cap, default ``50 * k``
    """
    a_csr, b_csr = _as_csr(a), _as_csr(b)
    n = a_csr.shape[0]
    if k > n:
        raise ParameterError(f"requested {k} eigenpairs from a {n}-dim problem")
    if k == 0:
        return _empty_result("sparse", tol)
    maxiter = 50 * k if maxiter is None else maxiter

    try:
        # the pencil is symmetric: order on the pattern of A + A^T, not A^T A
        lu = spla.splu((a_csr - sigma * b_csr).tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise ShiftError(f"factorization of A - sigma B failed (sigma={sigma}): {exc}") from exc

    rng = np.random.default_rng(seed)
    pool_lams = []
    pool_vecs = []
    steps_used = 0
    best_residuals = None

    def deflation_arrays():
        if not pool_vecs:
            return None, None
        mat = np.array(pool_vecs)
        return mat, (b_csr @ mat.T).T

    def make_sweep():
        deflate, deflate_b = deflation_arrays()
        return _LanczosSweep(lu, b_csr, sigma, tol, rng, deflate, deflate_b)

    def residual_fn(lams, vecs):
        return _relative_residuals(a_csr, b_csr, lams, vecs)

    def merge(lams, vecs, res):
        nonlocal best_residuals
        best_residuals = res
        merged = 0
        for lam, vec, ok in zip(lams, vecs, res <= tol):
            if ok:
                pool_lams.append(float(lam))
                pool_vecs.append(vec / np.sqrt(np.abs(vec @ (b_csr @ vec))))
                merged += 1
        return merged

    def finalize():
        order = np.argsort(pool_lams)[:k]
        lams = np.array([pool_lams[i] for i in order])
        vecs = np.array([pool_vecs[i] for i in order])
        _fix_signs(vecs)
        res = _relative_residuals(a_csr, b_csr, lams, vecs)
        if np.all(res <= tol):
            return SpectralResult(lams, vecs, res, "sparse", steps_used, tol)
        return None

    while steps_used < maxiter:
        if len(pool_lams) < k:
            sweep = make_sweep()
            if sweep.space == 0:
                break  # pool spans the whole space but is short of k: give up
            lams, vecs, res, steps = sweep.run(k - len(pool_lams),
                                               maxiter - steps_used, residual_fn)
            steps_used += max(steps, 1)
            if len(lams):
                merge(lams, vecs, res)
            continue
        # pool complete: keep the lowest k, then certify by a deflated sweep
        order = np.argsort(pool_lams)[:k]
        pool_lams[:] = [pool_lams[i] for i in order]
        pool_vecs[:] = [pool_vecs[i] for i in order]
        sweep = make_sweep()
        if sweep.space == 0:
            result = finalize()
            if result is not None:
                return result
            break
        lams2, vecs2, res2, steps2 = sweep.run(1, maxiter - steps_used, residual_fn)
        steps_used += max(steps2, 1)
        gap_tol = 10.0 * tol * (1.0 + abs(pool_lams[-1]))
        if len(lams2) and lams2[0] < pool_lams[-1] - gap_tol:
            merge(lams2, vecs2, res2)  # a copy below the k-th was hiding
            continue
        if len(lams2) == 0:
            continue
        result = finalize()
        if result is not None:
            return result
        break

    if len(pool_lams) >= k:
        result = finalize()
        if result is not None:
            return result

    raise ConvergenceError(
        f"Lanczos did not converge within {maxiter} iterations",
        best_residuals=best_residuals)
