"""Generalized symmetric eigensolver for the assembled pencil ``A x = lambda B x``:
:func:`solve_sparse` is a thick-restarted block shift-invert Lanczos iteration
in the B inner product, certified by a Sylvester inertia count.  Eigenvectors
are B-normalized and sign-fixed (largest-magnitude component positive) for
reproducible reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import csr_pencil
from .errors import ConvergenceError, ParameterError

DEFAULT_TOL = 1e-8
SEED = 1234  # of the random start blocks
RESIDUAL_BYTES = 1 << 20  # per temporary of the Ritz and residual products


@dataclass
class SpectralResult:
    """Ascending eigenvalues with B-orthonormal eigenvectors.

    ``vectors`` holds one eigenvector per row in the reduced (interior dof)
    numbering; ``residuals`` are the relative residuals
    ``|A x - lambda B x| / ((1 + lambda) |B x|)``.  The pipeline replaces
    ``vectors`` by ``vertex_values`` (:func:`vertex_fields`): one array each.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    vertex_values: np.ndarray = None

    def __len__(self):
        return len(self.eigenvalues)


def _fix_signs(vectors):
    for vec in vectors:  # a row at a time: no |vectors| temporary
        if vec[np.argmax(np.abs(vec))] < 0:
            vec *= -1.0
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
    """Reduced eigenvectors expanded to vertex values, zero on the boundary:
    ``(k, V)``, the transpose of the C-contiguous ``(V, k)`` array that the
    check quadrature reads, filled an eigenvector at a time."""
    out, interior = np.zeros((len(dof_map), len(result))), dof_map >= 0
    for i, vec in enumerate(result.vectors):
        out[interior, i] = vec[dof_map[interior]]
    return out.T


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


def _ritz_pairs(s_cols, thetas, basis):
    """Ascending Ritz values of ``(thetas, s_cols)``; their vectors ``S^T Q``, ``Q =
    basis[:len(s_cols)]``, overwrite its leading rows a column slice at a time."""
    idx = np.argsort(1.0 / thetas, kind="stable")
    (m, k), s_cols = s_cols.shape, s_cols[:, idx]
    step = max(1, RESIDUAL_BYTES // (8 * max(k, 1)))
    for lo in range(0, basis.shape[1], step):
        basis[:k, lo:lo + step] = s_cols.T @ basis[:m, lo:lo + step]
    return 1.0 / thetas[idx]


def _lanczos_sweep(lu, a_csr, b_csr, rng, deflate, want, step_cap, p):
    """One block B-Lanczos run, ``p`` columns per block, on ``A^-1 B``,
    B-orthogonal to the rows of ``deflate`` (or None), for the lowest
    ``want`` pairs: ``(lams, vecs, residuals, columns)`` once the estimates and
    a probe of the worst one reach ``DEFAULT_TOL`` or the space is exhausted
    (else the last estimates within ``step_cap`` columns), None if ``deflate``
    spans the space.  A basis of ``m_max + p`` rows, ``m_max = max(2 want + 2 p,
    80)`` or less, restarts thick when full (Wu & Simon, SIAM J. Matrix Anal.
    Appl. 22, 2000) from ``want + (m_max - want) // 2`` Ritz vectors formed in
    it and the last block; ``vecs`` is its leading rows, the rest released."""
    n = b_csr.shape[0]
    space = n - (0 if deflate is None else len(deflate))
    if space <= 0:
        return None
    if deflate is not None:
        deflate = (deflate, (b_csr @ deflate.T).T)
    want, p = min(want, space), min(p, space)
    blocks = step_cap // p
    m_max = min(max(2 * want + 2 * p, 80), p * min(blocks, -(-space // p)))
    keep = want + (m_max - want) // 2
    # T in its lower triangle: T[m + i, m - p + l] = r[i, l] below each diagonal block
    basis, t = np.empty((m_max + p, n)), np.zeros((m_max + p, m_max))

    def fresh(qmat):  # a random row B-orthogonal to qmat and the deflation set
        return lambda: [x[0] for x in _project_out(
            rng.standard_normal((1, n)), qmat, b_csr, deflate)]

    q, bq, _ = _orthonormalize(*_project_out(rng.standard_normal((p, n)), basis[:0],
                                             b_csr, deflate), 1e-12, fresh(basis[:0]))
    if not q.any():
        return np.zeros(0), np.zeros((0, n)), np.zeros(0), 0
    basis[:p] = q
    last = (np.zeros((0, 0)), np.zeros(0), blocks * p)  # the last estimates passed
    # rows in use, of those coupled to the last block, blocks before the last restart
    m, prev, restarted, cadence = p, 0, 0, max(2, (p + 2) // 3)
    for j in range(blocks):
        w = lu.solve(bq.T).T
        a = bq @ w.T
        a = 0.5 * (a + a.T)
        w -= a @ basis[m - p:m]
        w -= t[m - p:m, prev:m - p] @ basis[prev:m - p]
        q, bq, r = _orthonormalize(*_project_out(w, basis[:m], b_csr, deflate),
                                   1e-14 * max(1.0, np.abs(a).max()), fresh(basis[:m]))
        basis[m:m + p] = q
        t[m - p:m, m - p:m], t[m:m + p, m - p:m] = a, r
        exhausted = m >= space or not q.any()
        restart = not exhausted and m + p > m_max and j < blocks - 1
        if m >= want and (exhausted or restart or j == blocks - 1
                          or (j + 1 - restarted) % cadence == 0):
            if not np.isfinite(t[:m + p, :m]).all():  # SuperLU raises no floating-point error
                raise FloatingPointError("non-finite value in the shift-invert solves")
            theta, s = (  # a restart's arrowhead is not banded: its largest pairs, densely
                sla.eigh(t[:m, :m], lower=True, subset_by_index=[m - keep, m - 1]) if restarted
                else sla.eig_banded([np.diagonal(t[:m + p, :m], -d) for d in range(p + 1)],
                                    lower=True, check_finite=False))
            theta, s = theta[::-1][:keep], s[:, ::-1][:, :keep]
            scale = np.maximum(np.abs(theta[:want]), 1e-30)
            ests = np.linalg.norm(r @ s[-p:, :want], axis=0)
            if np.all(ests <= 10.0 * DEFAULT_TOL * scale) or exhausted:
                last = (s[:, :want], theta[:want], (j + 1) * p)
                # the pair likeliest to fail; 1.01 absorbs one-row vs block GEMM roundoff
                i = [np.argmax(ests / scale)]
                probe = _relative_residuals(a_csr, b_csr, 1.0 / theta[i], s[:, i].T @ basis[:m])
                if probe[0] <= 1.01 * DEFAULT_TOL or exhausted:
                    break
        if restart:  # T becomes diag(theta), its coupling to the last block, then the band
            _ritz_pairs(s, theta, basis)  # theta descends: the rows keep its order
            basis[keep:keep + p], t[:keep, :keep], t[keep:] = q, np.diag(theta), 0.0
            t[keep:keep + p, :keep] = r @ s[-p:]
            # passed estimates are now the leading kept rows; eigh costs more than eig_banded
            last = (np.eye(want), theta[:want], last[2]) if len(last[1]) else last
            m, prev, restarted, cadence = keep + p, 0, j + 1, 7
        else:
            m, prev = m + p, m - p
    lams = _ritz_pairs(*last[:2], basis)  # basis[:len(last[0])] is intact since last was set
    try:
        basis.resize((len(lams), n))
    except ValueError:  # refused while a tracer's frame locals also reference the basis
        basis = basis[:len(lams)].copy()
    return lams, basis, _relative_residuals(a_csr, b_csr, lams, basis), last[2]


def _factor(matrix, what):
    """Symmetric ``LDL^T``-form LU of the symmetric CSR ``matrix`` without its
    stored zeros: SuperLU gets the same arrays as CSC, or a compacted copy
    (never in place: the pattern is shared), on the ``MMD_AT_PLUS_A`` ordering
    with its pivots on the diagonal (``perm_r == perm_c``), so ``U = D L^T``.
    A singular or off-diagonal pivot is an error in both uses; on ``A``, SPD
    for the Dirichlet pencil, it is the pencil's one SPD check."""
    matrix = matrix.T  # a CSC view: no copy
    if not matrix.data.all():
        matrix = matrix.copy()
        matrix.eliminate_zeros()
    try:
        lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ConvergenceError(f"factorization of {what} failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ConvergenceError(f"factorization of {what} failed: off-diagonal pivot")
    return lu


def _inertia(a, b, tau):
    """Number of eigenvalues of the pencil below ``tau``: by Sylvester's law
    of inertia, the negative pivots of the factorization of ``A - tau B``,
    whose values are one array over the pencil's CSR pattern."""
    a_csr, b_csr = csr_pencil(a, b)
    lu = _factor(sp.csr_matrix((a_csr.data - tau * b_csr.data, a_csr.indices, a_csr.indptr),
                               shape=a_csr.shape), f"A - tau B for the inertia count (tau={tau})")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def solve_sparse(a, b, k, maxiter=None):
    """Lowest ``k`` eigenpairs by block shift-invert Lanczos in the B inner
    product (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 1994);
    ``a``, ``b`` are SparseSymMatrix or scipy sparse, one CSR pattern inside.

    ``A`` is factored once by :func:`_factor`, and the Krylov space is that of
    ``A^-1 B``.  Each step solves for a block of ``p = max(1, k // 25)``
    columns, B-orthogonalizes it against the whole basis by matrix-matrix
    products and B-orthonormalizes it by Cholesky QR; convergence is tested
    every ``max(2, (p + 2) // 3)`` blocks, every 7th after a restart.  A
    sweep's basis of ``max(2 k + 2 p, 80) + p`` rows (0.44 GB at ``k = 100``
    and 261k dofs; a refusal raises ``MemoryError``) ends as its vectors.  A
    block Krylov space sees at most ``p`` copies of an eigenvalue, so fill
    sweeps deflated against the pairs found so far run until there are ``k``.
    Then :func:`_inertia` counts the eigenvalues below ``tau`` just below the
    k-th value (the factor of ``A`` is dropped first).  If the pool holds
    fewer, a fill sweep looks for the missing copies and the count is taken
    again; an uncertified pool is never returned.  ``residuals`` are those
    with which each pair passed ``|A x - lambda B x| <= DEFAULT_TOL (1+lambda)
    |B x|`` in its sweep; ``iterations`` counts the Krylov columns, one
    triangular solve each, at most ``maxiter`` (default ``50 k``)."""
    a_csr, b_csr = csr_pencil(a, b)
    n = a_csr.shape[0]
    if k > n:
        raise ParameterError(f"requested {k} eigenpairs from a {n}-dim problem")
    if k == 0:
        return SpectralResult(np.zeros(0), np.zeros((0, 0)), np.zeros(0), 0)
    maxiter = 50 * k if maxiter is None else maxiter
    p, lu, rng = _block_size(k), _factor(a_csr, "A"), np.random.default_rng(SEED)
    pool, steps_used, best_residuals = [], 0, None  # (lambda, vector, residual) triples
    while True:
        want = k - len(pool)
        if want <= 0:
            pool = [pool[i] for i in np.argsort([lam for lam, _, _ in pool])[:k]]
            lams = [lam for lam, _, _ in pool]
            lu, tau = None, lams[-1] - 10.0 * DEFAULT_TOL * (1.0 + abs(lams[-1]))
            want = _inertia(a_csr, b_csr, tau) - int(np.searchsorted(lams, tau))
            if want == 0:
                break  # no copy is missing below the k-th: certified
            if want < 0:
                raise ConvergenceError(
                    f"inertia counts fewer eigenvalues below {tau} than were found",
                    best_residuals=best_residuals)
        if steps_used >= maxiter:
            break
        if lu is None:  # the count found copies missing
            lu = _factor(a_csr, "A")
        sweep = _lanczos_sweep(lu, a_csr, b_csr, rng,
                               np.array([vec for _, vec, _ in pool]) if pool else None,
                               want, maxiter - steps_used, min(p, maxiter - steps_used))
        if sweep is None:
            break  # the pool spans the whole space
        lams, vecs, res, steps = sweep
        steps_used += max(steps, 1)
        best_residuals = res if len(lams) else best_residuals
        for lam, vec, r in zip(lams, vecs, res):
            if r <= DEFAULT_TOL:  # B-normalized in place: the pool holds rows of the sweep's block
                vec /= np.sqrt(np.abs(vec @ (b_csr @ vec)))
                pool.append((float(lam), vec, r))

    if want == 0:  # the pool is the ascending lowest k
        lams, rows, res = zip(*pool)  # the last sweep's block itself if it is the rows in order
        same = len(vecs) == k and all(map(np.may_share_memory, rows, vecs))
        vecs = vecs if same else np.array(rows)
        return SpectralResult(np.array(lams), _fix_signs(vecs), np.array(res), steps_used)
    raise ConvergenceError(
        f"Lanczos did not converge within {maxiter} iterations",
        best_residuals=best_residuals)
