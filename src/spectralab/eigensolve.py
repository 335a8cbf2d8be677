"""Generalized symmetric eigensolvers for the assembled pencil ``A x = lambda B x``.

Two routes are provided and cross-checked against each other:

* :func:`solve_dense` reduces to a standard symmetric problem through a
  Cholesky factorization of ``B`` (LAPACK, via ``scipy.linalg.eigh``) and is
  the reference oracle on desk-size problems.
* :func:`solve_sparse` is a block shift-invert Lanczos iteration in the B
  inner product, reorthogonalized by matrix-matrix products, on one sparse
  factorization of ``A - sigma B``.  Deflated sweeps fill the lowest ``k``
  pairs; a Sylvester inertia count of ``A - tau B`` certifies that no copy
  of a multiple eigenvalue is missing among them.

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
RESIDUAL_BYTES = 1 << 20  # per temporary of the residual products


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
    return matrix.to_csr() if isinstance(matrix, SparseSymMatrix) else sp.csr_matrix(matrix)


def _fix_signs(vectors):
    pivots = vectors[np.arange(len(vectors)), np.argmax(np.abs(vectors), axis=1)]
    vectors *= np.where(pivots < 0, -1.0, 1.0)[:, None]
    return vectors


def _relative_residuals(a_csr, b_csr, eigenvalues, vectors):
    """``|A x - lambda B x| / ((1 + |lambda|) |B x|)`` for each row ``x`` of
    ``vectors``: one sparse product per matrix for each run of rows that
    fits ``RESIDUAL_BYTES``."""
    lams, res = np.asarray(eigenvalues, dtype=float), []
    rows = max(1, RESIDUAL_BYTES // (8 * vectors.shape[1]))
    for lo in range(0, len(lams), rows):
        x, lam = vectors[lo:lo + rows].T, lams[lo:lo + rows]
        bx = b_csr @ x
        res.append(np.linalg.norm(a_csr @ x - bx * lam, axis=0)
                   / ((1.0 + np.abs(lam)) * np.linalg.norm(bx, axis=0)))
    return np.concatenate(res) if res else np.zeros(0)


def vertex_fields(result, dof_map):
    """Expand reduced eigenvectors to vertex-value arrays (zeros on boundary)."""
    out, interior = np.zeros((len(result), len(dof_map))), dof_map >= 0
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
        return SpectralResult(np.zeros(0), np.zeros((0, 0)), np.zeros(0), "dense", 0, tol)
    try:
        eigenvalues, vectors = sla.eigh(
            a_csr.toarray(), b_csr.toarray(), subset_by_index=[0, k - 1])
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"Cholesky reduction failed: B is not SPD ({exc})") from exc
    # eigh returns B-orthonormal columns already; renormalize defensively
    vectors = (vectors / np.sqrt(np.sum(vectors * (b_csr @ vectors), axis=0))).T.copy()
    _fix_signs(vectors)
    residuals = _relative_residuals(a_csr, b_csr, eigenvalues, vectors)
    return SpectralResult(eigenvalues, vectors, residuals, "dense", 1, tol)


def _block_size(k):
    """Lanczos block size for ``k`` wanted pairs: a single vector up to
    k = 49, then one vector per 25 wanted pairs (4 at k = 100)."""
    return max(1, k // 25)


def _project_out(w, qmat, b_csr, deflate):
    """``w`` and ``B w`` with the rows of ``w`` B-orthogonalized against the
    rows of ``qmat`` and the ``(vectors, B vectors)`` pair ``deflate`` (or
    None) by matrix-matrix products; a second pass only where the first took
    over 30% of a row's B-norm (Daniel et al., Math. Comp. 30, 1976)."""
    bw = (b_csr @ w.T).T
    for _ in range(2):
        before = np.sum(w * bw, axis=1)
        if deflate is not None:
            c = w @ deflate[1].T
            w -= c @ deflate[0]
            bw -= c @ deflate[1]
        if len(qmat):
            w -= (bw @ qmat.T) @ qmat
            bw = (b_csr @ w.T).T
        if np.all(np.sum(w * bw, axis=1) > 0.49 * before):
            return w, bw
    return w, bw


def _orthonormalize(w, bw, floor, fresh):
    """B-orthonormal ``q``, ``B q`` and upper-triangular ``r``, ``w = r^T q``, by
    Cholesky QR, or row by row if ill-conditioned: a row adding no direction
    above ``floor`` gets a zero row of ``r`` and a ``fresh()`` direction."""
    low, info = sla.lapack.dpotrf(w @ bw.T, lower=True, clean=True)  # r = low^T
    diag = low.diagonal()
    if info == 0 and diag.min() > max(floor, 1e-3 * diag.max()):
        inv = sla.lapack.dtrtri(low, lower=True)[0]
        return inv @ w, inv @ bw, low.T
    q, bq, r = np.zeros_like(w), np.zeros_like(bw), np.zeros((len(w), len(w)))
    for i in range(len(w)):
        v, bv = w[i], bw[i]
        for refill in (False, True):
            for _ in range(2):
                c = q[:i] @ bv
                v, bv = v - c @ q[:i], bv - c @ bq[:i]
                r[:i, i] += 0.0 if refill else c
            norm = np.sqrt(np.abs(v @ bv))
            if norm > (1e-12 if refill else floor):
                q[i], bq[i], r[i, i] = v / norm, bv / norm, 0.0 if refill else norm
                break
            v, bv = fresh()
    return q, bq, r


def _ritz_pairs(a_csr, b_csr, sigma, s_cols, thetas, qmat):
    """Ascending Ritz pairs and residuals from eigenpairs ``(thetas, s_cols)``
    of the block tridiagonal matrix, sorted before the vectors are formed."""
    idx = np.argsort(sigma + 1.0 / thetas)
    lams, vecs = sigma + 1.0 / thetas[idx], s_cols[:, idx].T @ qmat
    return lams, vecs, _relative_residuals(a_csr, b_csr, lams, vecs)


def _lanczos_sweep(lu, a_csr, b_csr, sigma, tol, rng, deflate, want, step_cap, p):
    """One block B-Lanczos run, ``p`` columns per block, on (A - sigma B)^-1 B,
    B-orthogonal to the rows of ``deflate`` (or None), for the lowest
    ``want`` pairs: ``(lams, vecs, residuals, columns)`` once they reach
    ``tol`` or the space is exhausted (else the last estimates within
    ``step_cap`` columns), None if ``deflate`` spans the space.  When the
    estimates pass, the pair with the largest relative estimate is probed,
    and the Ritz vectors are formed only if it is within ``tol``."""
    n = b_csr.shape[0]
    space = n - (0 if deflate is None else len(deflate))
    if space <= 0:
        return None
    if deflate is not None:
        deflate = (deflate, (b_csr @ deflate.T).T)
    want, p = min(want, space), min(p, space)
    blocks = min(step_cap // p, -(-space // p))
    basis, band = np.empty(((blocks + 1) * p, n)), np.zeros((p + 1, blocks * p))

    def fresh(qmat):  # a random row B-orthogonal to qmat and the deflation set
        return lambda: [x[0] for x in _project_out(
            rng.standard_normal((1, n)), qmat, b_csr, deflate)]

    q, bq, _ = _orthonormalize(*_project_out(rng.standard_normal((p, n)), basis[:0],
                                             b_csr, deflate), 1e-12, fresh(basis[:0]))
    if not q.any():
        return np.zeros(0), np.zeros((0, n)), np.zeros(0), 0
    basis[:p] = q
    last = (np.zeros((blocks * p, 0)), np.zeros(0), blocks * p)  # the last estimates passed
    rows, cols = np.tril_indices(p)  # a's lower triangle, and r's upper one transposed
    cadence = max(2, (p + 2) // 3)  # blocks between convergence tests
    for j in range(blocks):
        m = (j + 1) * p
        w = lu.solve(bq.T).T
        a = bq @ w.T
        a = 0.5 * (a + a.T)
        w -= a @ basis[m - p:m]
        if j:
            w -= r @ basis[m - 2 * p:m - p]
        q, bq, r = _orthonormalize(*_project_out(w, basis[:m], b_csr, deflate),
                                   1e-14 * max(1.0, np.abs(a).max()), fresh(basis[:m]))
        basis[m:m + p] = q
        # lower band form: band[d, c] = T[c + d, c], a at T[m-p:m, m-p:m], r below it
        band[rows - cols, m - p + cols] = a[rows, cols]
        band[p + cols - rows, m - p + rows] = r[cols, rows]
        exhausted = m >= space or not q.any()
        if m < want or not (exhausted or (j + 1) % cadence == 0 or j == blocks - 1):
            continue
        theta, s = sla.eig_banded(band[:, :m], lower=True, check_finite=False)
        theta, s = theta[::-1][:want], s[:, ::-1][:, :want]
        scale = np.maximum(np.abs(theta), 1e-30)
        ests = np.linalg.norm(r @ s[-p:], axis=0)
        if np.all(ests <= 10.0 * max(tol, 1e-13) * scale) or exhausted:
            last = (s, theta, m)
            # the pair likeliest to fail; 1.01 absorbs one-row vs block GEMM roundoff
            i = [np.argmax(ests / scale)]
            probe = _ritz_pairs(a_csr, b_csr, sigma, s[:, i], theta[i], basis[:m])[2][0]
            if probe <= 1.01 * tol or exhausted:
                lams, vecs, res = _ritz_pairs(a_csr, b_csr, sigma, s, theta, basis[:m])
                if np.all(res <= tol) or exhausted:
                    return lams, vecs, res, m
    return (*_ritz_pairs(a_csr, b_csr, sigma, *last[:2], basis[:last[2]]), last[2])


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
    """Lowest ``k`` eigenpairs by block shift-invert Lanczos in the B inner
    product (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 1994).

    ``A - sigma B`` is factored once (SuperLU, symmetric ``MMD_AT_PLUS_A``
    ordering).  Each step solves for a block of ``p = max(1, k // 25)``
    columns, B-orthogonalizes it against the whole basis by matrix-matrix
    products and B-orthonormalizes it by Cholesky QR; convergence is tested
    every ``max(2, (p + 2) // 3)`` blocks.  The basis is reserved once at the
    sweep's column cap, ``(cap + p) * n * 8`` bytes of address space, of
    which the columns used become resident; a refused reservation raises
    ``MemoryError``.  A block Krylov space sees at most ``p`` copies of an
    eigenvalue, so fill sweeps deflated against the pairs found so far run
    until there are ``k``.  Then the negative pivots of an
    ``LDL^T`` factorization of ``A - tau B``, ``tau`` just below the k-th
    value, count the eigenvalues below ``tau`` (Sylvester's law of inertia;
    the shift factor is dropped first).  If the pool holds fewer, a fill
    sweep looks for the missing copies and the count is taken again; an
    uncertified pool is never returned.  Converged pairs satisfy
    ``|A x - lambda B x| <= tol (1+lambda) |B x|``; ``iterations`` counts
    the Krylov columns, one triangular solve each.

    Parameters
    ----------
    a, b : SparseSymMatrix or scipy sparse
    k : number of eigenpairs
    sigma : shift below the smallest eigenvalue (0 is always valid for the
        Dirichlet pencil)
    tol : relative residual tolerance
    maxiter : total Krylov column cap, default ``50 * k``
    """
    a_csr, b_csr = _as_csr(a), _as_csr(b)
    n = a_csr.shape[0]
    if k > n:
        raise ParameterError(f"requested {k} eigenpairs from a {n}-dim problem")
    if k == 0:
        return SpectralResult(np.zeros(0), np.zeros((0, 0)), np.zeros(0), "sparse", 0, tol)
    maxiter = 50 * k if maxiter is None else maxiter
    p, lu, rng = _block_size(k), _shift_factor(a_csr, b_csr, sigma), np.random.default_rng(seed)
    pool_lams, pool_vecs, steps_used, best_residuals = [], [], 0, None
    while True:
        want = k - len(pool_lams)
        if want <= 0:
            order = np.argsort(pool_lams)[:k]
            pool_lams, pool_vecs = [pool_lams[i] for i in order], [pool_vecs[i] for i in order]
            lu, tau = None, pool_lams[-1] - 10.0 * tol * (1.0 + abs(pool_lams[-1]))
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
                               want, maxiter - steps_used, min(p, maxiter - steps_used))
        if sweep is None:
            break  # the pool spans the whole space
        lams, vecs, res, steps = sweep
        steps_used += max(steps, 1)
        best_residuals = res if len(lams) else best_residuals
        for lam, vec, ok in zip(lams, vecs, res <= tol):
            if ok:  # B-normalized in place: the pool holds rows of the sweep's block
                vec /= np.sqrt(np.abs(vec @ (b_csr @ vec)))
                pool_lams.append(float(lam))
                pool_vecs.append(vec)

    if want == 0:  # the pool is the ascending lowest k
        lams, vecs = np.array(pool_lams), _fix_signs(np.array(pool_vecs))
        res = _relative_residuals(a_csr, b_csr, lams, vecs)
        if np.all(res <= tol):
            return SpectralResult(lams, vecs, res, "sparse", steps_used, tol)
    raise ConvergenceError(
        f"Lanczos did not converge within {maxiter} iterations",
        best_residuals=best_residuals)
