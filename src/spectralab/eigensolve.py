"""Generalized symmetric eigensolvers for the assembled pencil ``A x = lambda B x``.

Two routes are provided and cross-checked against each other:

* :func:`solve_dense` reduces to a standard symmetric problem through a
  Cholesky factorization of ``B`` (LAPACK, via ``scipy.linalg.eigh``) and is
  the reference oracle on desk-size problems.
* :func:`solve_sparse` is a shift-invert Lanczos iteration in the B inner
  product with full reorthogonalization; the sparse factorization of
  ``A - sigma B`` (symmetric minimum-degree ordering) is reused across
  iterations.  Deflated sweeps fill the lowest ``k`` pairs;
  a Sylvester inertia count of ``A - tau B`` then certifies that no copy of
  a multiple eigenvalue is missing among them.

Eigenvectors are B-normalized and sign-fixed (largest-magnitude component
positive) for reproducible reports.
"""

from __future__ import annotations

from dataclasses import dataclass

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


INITIAL_ROWS = 32  # starting rows of a sweep's basis buffer; it doubles when full


def _b_norm(b_csr, w):
    """Return the B-norm of ``w`` and ``B w``."""
    bw = b_csr @ w
    return float(np.sqrt(np.abs(w @ bw))), bw


def _project_out(w, qmat, b_csr, deflate):
    """Two passes of B-orthogonalization against ``qmat`` and the
    ``(vectors, B vectors)`` deflation pair (or None)."""
    for _ in range(2):
        if deflate is not None:
            w -= deflate[0].T @ (deflate[1] @ w)
        if len(qmat):
            w -= qmat.T @ (qmat @ (b_csr @ w))
    return w


def _fresh_vector(rng, qmat, b_csr, deflate):
    """A random unit B-norm vector B-orthogonal to ``qmat`` and the
    deflation set, with its B-image; None if none is left."""
    w = _project_out(rng.standard_normal(b_csr.shape[0]), qmat, b_csr, deflate)
    norm, bw = _b_norm(b_csr, w)
    if norm <= 1e-12:
        return None
    return w / norm, bw / norm


def _ritz_pairs(a_csr, b_csr, sigma, s_cols, thetas, qmat):
    """Ascending Ritz pairs and their residuals from the tridiagonal
    eigenvector columns ``s_cols`` and eigenvalues ``thetas``.  Descending
    ``thetas`` give ascending values, so the vectors are only permuted (and
    copied) when they come in another order."""
    vecs = s_cols.T @ qmat
    lams = sigma + 1.0 / thetas
    idx = np.argsort(lams)
    if np.any(idx != np.arange(len(idx))):
        lams, vecs = lams[idx], vecs[idx]
    return lams, vecs, _relative_residuals(a_csr, b_csr, lams, vecs)


def _lanczos_sweep(lu, a_csr, b_csr, sigma, tol, rng, deflate, want, step_cap):
    """One B-Lanczos run on (A - sigma B)^-1 B, B-orthogonal to the rows of
    ``deflate`` (or None), for the lowest ``want`` pairs of the deflated pencil.

    Returns ``(lams, vecs, residuals, steps)`` once they reach ``tol`` or the
    Krylov space is exhausted (else the last estimates within ``step_cap``
    steps), or None when the deflation set spans the whole space.  When the
    convergence estimates pass, the residual of the pair with the largest
    relative estimate is probed first, and the ``want`` Ritz vectors are only
    formed if it is within ``tol``.  The basis rows live in one buffer that
    doubles when full; ``B Q`` is never stored.
    """
    n = b_csr.shape[0]
    space = n - (0 if deflate is None else len(deflate))
    if space <= 0:
        return None
    if deflate is not None:
        deflate = (deflate, (b_csr @ deflate.T).T)
    want, steps = min(want, space), min(step_cap, space)
    basis = np.empty((min(INITIAL_ROWS, steps + 1), n))
    start = _fresh_vector(rng, basis[:0], b_csr, deflate)
    if start is None:
        return np.zeros(0), np.zeros((0, n)), np.zeros(0), 0
    basis[0], bv = start
    alphas, betas = [], []
    last = None  # (s columns, thetas, steps) of the latest estimates that passed

    for m in range(1, steps + 1):
        qmat = basis[:m]
        w = lu.solve(bv)
        alphas.append(float(bv @ w))
        w -= alphas[-1] * qmat[-1]
        if betas and betas[-1] != 0.0:
            w -= betas[-1] * qmat[-2]
        w = _project_out(w, qmat, b_csr, deflate)
        beta, bw = _b_norm(b_csr, w)

        if m >= want:
            theta, s = sla.eigh_tridiagonal(np.array(alphas), np.array(betas[:m - 1]))
            order = np.argsort(theta)[::-1][:want]
            scale = np.maximum(np.abs(theta[order]), 1e-30)
            ests = beta * np.abs(s[-1, order])
            if np.all(ests <= 10.0 * max(tol, 1e-13) * scale) or m == space:
                last = (s[:, order], theta[order], m)
                # the pair likeliest to fail; 1.01 absorbs GEMV vs GEMM roundoff
                j = order[np.argmax(ests / scale)]
                probe = _relative_residuals(
                    a_csr, b_csr, [sigma + 1.0 / theta[j]], [s[:, j] @ qmat])[0]
                if probe <= 1.01 * tol or m == space:
                    lams, vecs, res = _ritz_pairs(a_csr, b_csr, sigma, *last[:2], qmat)
                    if np.all(res <= tol) or m == space:
                        return lams, vecs, res, m

        if beta <= 1e-14 * max(1.0, abs(alphas[-1])):
            fresh = _fresh_vector(rng, qmat, b_csr, deflate)
            if fresh is None:
                break
            (v, bv), beta = fresh, 0.0
        else:
            v, bv = w / beta, bw / beta
        betas.append(beta)
        if m == len(basis):
            grown = np.empty((min(2 * m, steps + 1), n))
            grown[:m] = basis
            basis = grown
        basis[m] = v
    if last is None:
        return np.zeros(0), np.zeros((0, n)), np.zeros(0), step_cap
    s_cols, thetas, m = last
    return (*_ritz_pairs(a_csr, b_csr, sigma, s_cols, thetas, basis[:m]), m)


def _shift_factor(a_csr, b_csr, sigma):
    """Sparse LU of ``A - sigma B`` for the shift-invert sweeps."""
    try:
        # the pencil is symmetric: order on the pattern of A + A^T, not A^T A
        return spla.splu((a_csr - sigma * b_csr).tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise ShiftError(f"factorization of A - sigma B failed (sigma={sigma}): {exc}") from exc


def _inertia(a_csr, b_csr, tau):
    """Number of eigenvalues of the pencil below ``tau``: by Sylvester's law
    of inertia, the negative pivots of a symmetric ``LDL^T`` factorization of
    ``A - tau B``.  SuperLU gives it when it keeps its pivots on the diagonal
    of a symmetric ordering (``perm_r == perm_c``); then ``U = D L^T``."""
    try:
        lu = spla.splu((a_csr - tau * b_csr).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ConvergenceError(
            f"inertia of A - tau B not computable (tau={tau}): {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ConvergenceError(
            f"inertia of A - tau B not computable (tau={tau}): off-diagonal pivot")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def solve_sparse(a, b, k, sigma=0.0, tol=DEFAULT_TOL, maxiter=None, seed=1234):
    """Lowest ``k`` eigenpairs by shift-invert Lanczos in the B inner product.

    The factorization of ``A - sigma B`` is computed once and reused for
    every iteration; it uses a symmetric minimum-degree ordering (SuperLU's
    ``MMD_AT_PLUS_A``), which suits the symmetric pencil.  The Krylov basis
    is kept B-orthonormal with full (two-pass) reorthogonalization and is
    stored once, so a sweep of ``steps`` Lanczos steps on an ``n``-dof
    pencil holds about ``n * steps * 8`` bytes of basis.  A single-vector
    Krylov space sees one copy of each eigenvalue, so fill sweeps deflated
    against the pairs found so far run until there are ``k``.  Then one more
    factorization, of ``A - tau B`` with ``tau`` just below the k-th value,
    counts the eigenvalues below ``tau`` by Sylvester's law of inertia; the
    shift factor is dropped first, so the two are never held at once.  If
    the pool holds fewer, ``A - sigma B`` is factored again, a fill sweep
    looks for the missing copies and the count is taken again; an equal
    count certifies the lowest ``k``, and an uncertified pool is never
    returned.  Converged pairs satisfy
    ``|A x - lambda B x| <= tol (1+lambda) |B x|``.

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

    lu = _shift_factor(a_csr, b_csr, sigma)
    rng = np.random.default_rng(seed)
    pool_lams, pool_vecs, steps_used, best_residuals = [], [], 0, None
    while True:
        want = k - len(pool_lams)
        if want <= 0:
            order = np.argsort(pool_lams)[:k]
            pool_lams = [pool_lams[i] for i in order]
            pool_vecs = [pool_vecs[i] for i in order]
            tau = pool_lams[-1] - 10.0 * tol * (1.0 + abs(pool_lams[-1]))
            lu = None
            want = _inertia(a_csr, b_csr, tau) - int(np.searchsorted(pool_lams, tau))
            if want == 0:
                break  # no copy is missing below the k-th: certified
            if want < 0:
                raise ConvergenceError(
                    f"inertia counts fewer eigenvalues below {tau} than were found",
                    best_residuals=best_residuals)
        if steps_used >= maxiter:
            break
        if lu is None:  # the count found copies missing
            lu = _shift_factor(a_csr, b_csr, sigma)
        sweep = _lanczos_sweep(lu, a_csr, b_csr, sigma, tol, rng,
                               np.array(pool_vecs) if pool_vecs else None,
                               want, maxiter - steps_used)
        if sweep is None:
            break  # the pool spans the whole space
        lams, vecs, res, steps = sweep
        steps_used += max(steps, 1)
        if len(lams):
            best_residuals = res
            for lam, vec, ok in zip(lams, vecs, res <= tol):
                if ok:  # B-normalized in place: the pool holds rows of the sweep's block
                    vec /= np.sqrt(np.abs(vec @ (b_csr @ vec)))
                    pool_lams.append(float(lam))
                    pool_vecs.append(vec)

    if want == 0:
        order = np.argsort(pool_lams)[:k]
        lams = np.array([pool_lams[i] for i in order])
        vecs = _fix_signs(np.array([pool_vecs[i] for i in order]))
        res = _relative_residuals(a_csr, b_csr, lams, vecs)
        if np.all(res <= tol):
            return SpectralResult(lams, vecs, res, "sparse", steps_used, tol)
    raise ConvergenceError(
        f"Lanczos did not converge within {maxiter} iterations",
        best_residuals=best_residuals)
