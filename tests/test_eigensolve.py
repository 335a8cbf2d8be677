import copy
import inspect
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import pipeline
from spectralab import eigensolve
from spectralab.assembly import assemble, csr_pencil
from spectralab.cli import main
from spectralab.eigensolve import (
    DENSE_LIMIT,
    _block_size,
    _inertia,
    _lanczos_sweep,
    _relative_residuals,
    _ritz_pairs,
    solve_dense,
    solve_sparse,
    vertex_fields,
)
from spectralab.errors import ConvergenceError, NotSPDError, ParameterError
from spectralab.geometry import make_chart, make_eta
from spectralab.meshing import build_structured


def _diag_problem(avals, bvals=None):
    a = sp.diags(avals).tocsr()
    b = sp.diags(bvals if bvals is not None else np.ones(len(avals))).tocsr()
    return a, b


def test_dense_diagonal_case():
    a, b = _diag_problem([1.0, 2.0, 3.0])
    result = solve_dense(a, b, 2)
    assert np.allclose(result.eigenvalues, [1.0, 2.0])


def test_dense_scalar_mass_scaling():
    a, b = _diag_problem([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    result = solve_dense(a, b, 3)
    assert np.allclose(result.eigenvalues, [0.25, 0.5, 0.75])


def test_interval_first_eigenvalue_dense():
    chart = make_chart("flat_interval")
    mesh = build_structured(chart.domain, 2000)
    a_mat, b_mat, _ = assemble(chart, mesh)
    result = solve_dense(a_mat, b_mat, 1)
    assert result.eigenvalues[0] == pytest.approx(math.pi ** 2, rel=1e-5)


def _assert_sparse_matches_dense(a_mat, b_mat, k):
    dense = solve_dense(a_mat, b_mat, k)
    sparse = solve_sparse(a_mat, b_mat, k)
    rel = np.abs(sparse.eigenvalues - dense.eigenvalues) / (1.0 + dense.eigenvalues)
    assert rel.max() <= 1e-8
    gram = sparse.vectors @ (b_mat.to_csr() @ sparse.vectors.T)
    assert np.abs(gram - np.eye(k)).max() <= 1e-8
    return dense, sparse


@pytest.mark.parametrize("chart_id,params,eta,res", [
    ("flat_rectangle", (), None, 32),
    ("flat_interval", (), ("linear", (2.0,)), 500),
    ("stereographic_sphere", (1.0,), None, 8),
])
def test_sparse_matches_dense(chart_id, params, eta, res):
    eta_field = None
    if eta is not None:
        eta_field = make_eta(eta[0], eta[1], dim=1 if chart_id == "flat_interval" else 2)
    chart = make_chart(chart_id, params, eta=eta_field)
    mesh = build_structured(chart.domain, res)
    a_mat, b_mat, _ = assemble(chart, mesh)
    _assert_sparse_matches_dense(a_mat, b_mat, 10)


def test_block_sweep_matches_dense(monkeypatch):
    # k = 60 runs the sweep on blocks of p = 2 vectors, over more columns than
    # the basis's max(2 k + 2 p, 80) = 124 rows: the sweep restarts.  The
    # hemisphere has double eigenvalues, which the certificate must count.
    k = 60
    assert _block_size(k) == 2
    sweeps = _count_sweeps(monkeypatch)
    for chart_id, params, res, dim in [("flat_rectangle", (), 40, 1521),
                                       ("stereographic_sphere", (1.0,), 16, 1441)]:
        chart = make_chart(chart_id, params)
        a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, res))
        assert a_mat.dim == dim
        sweeps.clear()
        dense, sparse = _assert_sparse_matches_dense(a_mat, b_mat, k)
        assert max(result[3] for _, result in sweeps) > 124
        lams = sparse.eigenvalues
        assert _clusters(lams) == _clusters(dense.eigenvalues)
        tau = 0.5 * (lams[-1] + lams[lams < lams[-1] * (1.0 - 1e-8)][-1])
        assert _inertia(a_mat.to_csr(), b_mat.to_csr(), tau) == np.searchsorted(lams, tau)
    assert max(_clusters(lams)) == 2


def test_sparse_matches_eigsh_above_dense_limit():
    chart = make_chart("flat_rectangle")
    mesh = build_structured(chart.domain, 80)
    a_mat, b_mat, _ = assemble(chart, mesh)
    assert a_mat.dim == 6241 > DENSE_LIMIT
    a_csr, b_csr = a_mat.to_csr(), b_mat.to_csr()
    sparse = solve_sparse(a_mat, b_mat, 13)
    ref = np.sort(spla.eigsh(a_csr, 13, M=b_csr, sigma=0, return_eigenvectors=False))
    assert np.max(np.abs(sparse.eigenvalues - ref) / ref) <= 1e-8


class _CountingLU:
    """A factor that records the column count of every right-hand side."""

    def __init__(self, lu, columns):
        self._lu, self._columns = lu, columns

    def solve(self, rhs):
        self._columns.append(rhs.shape[1])
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_block_sweep_matches_eigsh_above_dense_limit(monkeypatch):
    chart = make_chart("flat_rectangle")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 80))
    a, b = a_mat.to_csr(), b_mat.to_csr()
    assert a.shape[0] == 6241 > DENSE_LIMIT
    k = 50
    assert _block_size(k) == 2
    columns = []
    monkeypatch.setattr(eigensolve, "spla", types.SimpleNamespace(
        splu=lambda *args, **kwargs: _CountingLU(spla.splu(*args, **kwargs), columns)))
    sparse = solve_sparse(a, b, k)
    ref = np.sort(spla.eigsh(a, k, M=b, sigma=0, return_eigenvectors=False))
    assert np.max(np.abs(sparse.eigenvalues - ref) / ref) <= 1e-8
    # every triangular solve takes one block, and iterations counts its columns
    assert set(columns) == {2}
    assert sparse.iterations == sum(columns)


def test_square_symmetry_pairs():
    # the fixed-diagonal mesh keeps the (x, y) swap symmetry but splits the
    # symmetric/antisymmetric blocks of each continuum multiplicity at
    # O(h^2); measured splittings at 64x64 are 5.8e-4 and 3.3e-6
    chart = make_chart("flat_rectangle")
    mesh = build_structured(chart.domain, 64)
    a_mat, b_mat, _ = assemble(chart, mesh)
    result = solve_sparse(a_mat, b_mat, 13)
    lam = result.eigenvalues
    assert abs(lam[2] - lam[1]) / lam[1] <= 1e-3     # 5 pi^2 pair
    assert abs(lam[5] - lam[4]) / lam[4] <= 1e-5     # 10 pi^2 pair
    assert lam[0] == pytest.approx(2 * math.pi ** 2, rel=2e-3)


def test_zero_requested_pairs():
    a, b = _diag_problem([1.0, 2.0])
    for solver in (solve_dense, solve_sparse):
        result = solver(a, b, 0)
        assert len(result) == 0


def test_b_orthonormality_and_residuals():
    chart, mesh, (a_mat, b_mat, _), result = pipeline(
        "stereographic_sphere", (1.0,), resolution=8, k=8)
    b_csr = b_mat.to_csr()
    gram = result.vectors @ (b_csr @ result.vectors.T)
    assert np.abs(gram - np.eye(len(result))).max() <= 1e-8
    assert result.residuals.max() <= 1e-8
    assert np.all(np.diff(result.eigenvalues) >= 0)
    assert np.all(result.eigenvalues > 0)


def test_random_rayleigh_quotients_bound_lambda1():
    chart = make_chart("flat_rectangle")
    mesh = build_structured(chart.domain, 10)
    a_mat, b_mat, _ = assemble(chart, mesh)
    a_csr, b_csr = a_mat.to_csr(), b_mat.to_csr()
    lam1 = solve_dense(a_mat, b_mat, 1).eigenvalues[0]
    rng = np.random.default_rng(0)
    for _ in range(100):
        vec = rng.standard_normal(a_csr.shape[0])
        quotient = (vec @ (a_csr @ vec)) / (vec @ (b_csr @ vec))
        assert quotient >= lam1 - 1e-10


def test_eigenvector_sign_convention():
    chart, mesh, _, result = pipeline("flat_rectangle", resolution=12, k=4)
    for vec in result.vectors:
        assert vec[np.argmax(np.abs(vec))] > 0


def test_vertex_fields_zero_on_boundary():
    chart, mesh, (a_mat, b_mat, dof_map), result = pipeline(
        "flat_rectangle", resolution=8, k=3)
    fields = vertex_fields(result, dof_map)
    assert fields.shape == (3, mesh.num_vertices)
    assert np.all(fields[:, mesh.boundary] == 0)


def test_request_exceeding_dimension_rejected():
    a, b = _diag_problem([1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        solve_dense(a, b, 4)
    with pytest.raises(ParameterError):
        solve_sparse(a, b, 4)


def test_dense_dimension_cap():
    a = sp.eye(4001, format="csr")
    with pytest.raises(ParameterError):
        solve_dense(a, a, 1)


def test_non_spd_mass_rejected():
    a, _ = _diag_problem([1.0, 2.0, 3.0])
    b = sp.diags([1.0, -1.0, 1.0]).tocsr()
    with pytest.raises(NotSPDError):
        solve_dense(a, b, 2)


def test_singular_shift_rejected():
    a, b = _diag_problem([0.0, 1.0, 2.0])  # A exactly singular
    with pytest.raises(ConvergenceError, match="factorization of A"):
        solve_sparse(a, b, 1)


def _recorded_factors(monkeypatch):
    """Keep every SuperLU factor the solver makes, in call order."""
    factors = []

    def splu(*args, **kwargs):
        factors.append(spla.splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(eigensolve, "spla", types.SimpleNamespace(splu=splu))
    return factors


def test_shift_factor_drops_stored_zeros(monkeypatch):
    # the flat square's stiffness stores exact zeros on the diagonal edges;
    # the shift factor has the fill of A - 0 B, which drops them, and drops
    # them in a copy: A and B share one pattern, and a solve writes neither
    chart = make_chart("flat_rectangle")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 16))
    a, b = a_mat.csr, b_mat.csr
    assert a.indptr is b.indptr and np.shares_memory(a.indices, b.indices)
    before = [x.copy() for m in (a, b) for x in (m.data, m.indices, m.indptr)]
    factors = _recorded_factors(monkeypatch)
    solve_sparse(a_mat, b_mat, 4)
    after = [a.data, a.indices, a.indptr, b.data, b.indices, b.indptr]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def fill(matrix):
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        return lu.L.nnz + lu.U.nnz

    assert np.count_nonzero(a.data == 0.0) > 0
    shift_fill = factors[0].L.nnz + factors[0].U.nnz
    assert shift_fill == fill(a - 0.0 * b) < fill(a)


def test_inertia_holds_one_value_array_beside_the_pivot_read(monkeypatch):
    # numpy allocations of the count: the values of A - tau B over the shared
    # pattern while it is factored (no scaled B, no second pattern, no CSC
    # copy), then the L and U copy, 12 bytes an entry, that reading the
    # pivots makes
    chart = make_chart("flat_rectangle")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 48))
    factors, held = _recorded_factors(monkeypatch), []
    splu = eigensolve.spla.splu

    def held_splu(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return splu(*args, **kwargs)

    monkeypatch.setattr(eigensolve.spla, "splu", held_splu)
    tracemalloc.start()
    try:
        assert _inertia(a_mat, b_mat, 60.0) == 3  # pi^2 (m^2 + n^2): 2, 5 and 5 pi^2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lu, n, nnz = factors[0], a_mat.dim, a_mat.csr.nnz
    assert held[0] <= 8 * nnz + 8 * n
    assert peak <= 12 * (lu.L.nnz + lu.U.nnz) + 8 * nnz + 32 * n


def test_pencil_on_differing_patterns_solves_on_their_union():
    # A: a path Laplacian with an explicit stored zero off its band; B:
    # diagonal.  Both go onto one pattern, the union, which keeps the zero
    n, k = 40, 6
    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tolil()
    a[0, 7] = a[7, 0] = 1.0
    a = a.tocsr()
    a.data[a.data == 1.0] = 0.0
    b = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
    before = [x.copy() for m in (a, b) for x in (m.data, m.indices, m.indptr)]
    a_csr, b_csr = csr_pencil(a, b)
    assert a_csr.indptr is b_csr.indptr and np.shares_memory(a_csr.indices, b_csr.indices)
    assert a_csr.nnz == a.nnz and np.count_nonzero(a_csr.data == 0.0) == 2
    assert np.array_equal(a_csr.toarray(), a.toarray())
    assert np.array_equal(b_csr.toarray(), b.toarray())
    dense = solve_dense(a, b, k).eigenvalues
    result = solve_sparse(a, b, k)
    assert np.allclose(result.eigenvalues, dense, rtol=1e-10, atol=0)
    tau = 0.5 * (dense[-1] + solve_dense(a, b, k + 1).eigenvalues[-1])
    assert _inertia(a, b, tau) == k
    after = [a.data, a.indices, a.indptr, b.data, b.indices, b.indptr]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


@pytest.mark.parametrize("b_dim,a_cols", [(6, 5), (5, 6)])
def test_pencil_of_mismatched_shapes_rejected(b_dim, a_cols):
    a = sp.random(5, a_cols, density=0.5, random_state=1, format="csr")
    for solve in (solve_dense, solve_sparse):
        with pytest.raises(ParameterError, match="not square of one shape"):
            solve(a, sp.identity(b_dim, format="csr"), 2)


def test_convergence_error_carries_residuals():
    chart = make_chart("flat_rectangle")
    mesh = build_structured(chart.domain, 24)
    a_mat, b_mat, _ = assemble(chart, mesh)
    with pytest.raises(ConvergenceError) as excinfo:
        solve_sparse(a_mat, b_mat, 10, maxiter=12)
    # cap too small to converge ten pairs; best residuals are reported
    assert excinfo.value.best_residuals is None or len(excinfo.value.best_residuals) == 10


def test_small_problem_exhausts_krylov_space():
    # Lanczos must terminate exactly once the basis spans the whole space
    a, b = _diag_problem([1.0, 1.0, 2.0, 5.0])
    result = solve_sparse(a, b, 3)
    assert np.allclose(result.eigenvalues, [1.0, 1.0, 2.0])


def test_triple_multiplicity_certified():
    # in exact arithmetic a single-vector Krylov space holds one copy of the
    # triple eigenvalue; the inertia count below the k-th value must show the
    # others missing, and fill sweeps that deflate the pairs found so far
    # must find them, on a space they do not exhaust
    a, b = _diag_problem([1.0, 1.0, 1.0] + [float(v) for v in range(2, 42)])
    result = solve_sparse(a, b, 5)
    assert np.allclose(result.eigenvalues, [1.0, 1.0, 1.0, 2.0, 3.0], rtol=0, atol=1e-10)
    assert result.residuals.max() <= 1e-8
    gram = result.vectors @ (b @ result.vectors.T)
    assert np.abs(gram - np.eye(5)).max() <= 1e-8


def _clusters(values, rel=1e-8):
    """Sizes of the runs of ascending values tied within ``rel``."""
    sizes = [1]
    for lo, hi in zip(values[:-1], values[1:]):
        if hi - lo <= rel * abs(hi):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _hemisphere(res):
    chart = make_chart("stereographic_sphere", (1.0,))
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, res))
    return a_mat.to_csr(), b_mat.to_csr()


@pytest.mark.parametrize("pencil", ["diag_triple", "diag_fivefold", "hemisphere_12"])
def test_inertia_counts_eigenvalues_below_each_gap(pencil):
    if pencil == "hemisphere_12":
        a, b = _hemisphere(12)
        copies = 2
    else:
        copies = 3 if pencil == "diag_triple" else 5
        avals = [2.0] * copies + [0.5, 3.0, 3.0] + [float(v) for v in range(4, 20)]
        bvals = np.linspace(0.5, 2.0, len(avals))
        a, b = _diag_problem(np.array(avals) * bvals, bvals)  # eigenvalues avals
    lams = solve_dense(a, b, a.shape[0]).eigenvalues
    sizes = _clusters(lams)
    assert max(sizes) == copies
    ends = np.cumsum(sizes)
    for below in ends[:-1]:
        tau = 0.5 * (lams[below - 1] + lams[below])
        assert _inertia(a, b, tau) == below


def _count_sweeps(monkeypatch):
    """Record the ``(want, result)`` of every Lanczos sweep of a solve, as
    returned: a copy, since the solver B-normalizes converged rows in place."""
    sweeps = []
    sweep = eigensolve._lanczos_sweep

    def counted(*args):
        result = sweep(*args)
        want = inspect.signature(sweep).bind(*args).arguments["want"]
        sweeps.append((want, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(eigensolve, "_lanczos_sweep", counted)
    return sweeps


def _block_sizes(monkeypatch, sizes):
    """Run the loop body once per Lanczos block size in ``sizes``."""
    for p in sizes:
        monkeypatch.setattr(eigensolve, "_block_size", lambda k, p=p: p)
        yield p


def test_simple_spectrum_needs_one_sweep(monkeypatch):
    chart = make_chart("flat_interval")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 300))
    sweeps = _count_sweeps(monkeypatch)
    dense = solve_dense(a_mat, b_mat, 10)
    for p in _block_sizes(monkeypatch, [_block_size(10), 3]):
        sweeps.clear()
        sparse = solve_sparse(a_mat, b_mat, 10)
        assert len(sweeps) == 1, p
        assert np.max(np.abs(sparse.eigenvalues - dense.eigenvalues) / dense.eigenvalues) <= 1e-8


def test_fivefold_copies_missed_by_the_fill_sweep_are_completed(monkeypatch):
    # a block of p vectors sees at most p copies, fewer than five here
    a, b = _diag_problem([1.0] * 5 + [float(v) for v in range(2, 42)])
    sweeps = _count_sweeps(monkeypatch)
    for p in _block_sizes(monkeypatch, [_block_size(7), 2]):
        sweeps.clear()
        result = solve_sparse(a, b, 7)
        assert np.allclose(result.eigenvalues, [1.0] * 5 + [2.0, 3.0], rtol=0, atol=1e-10)
        first = sweeps[0][1][0]
        assert len(first) == 7 and np.sum(np.abs(first - 1.0) <= 1e-10) < 5, p
        assert len(sweeps) > 1
        gram = result.vectors @ (b @ result.vectors.T)
        assert np.abs(gram - np.eye(7)).max() <= 1e-8


class _PivotedLU:
    """A factor whose row permutation is not its column permutation."""

    def __init__(self, lu):
        self.U, self.perm_c = lu.U, lu.perm_c
        self.perm_r = lu.perm_c[::-1].copy()


def _failing_factor(monkeypatch, failure, which):
    """Make the factorization at index ``which`` of each solve's calls (0:
    the shift, 1: the inertia count) fail as ``failure``; record the keywords
    of every factorization.  Clear the record between solves."""
    calls = []

    def splu(matrix, **kwargs):
        calls.append(kwargs)
        lu = spla.splu(matrix, **kwargs)
        if len(calls) != which + 1:
            return lu
        if failure == "singular":
            raise RuntimeError("Factor is exactly singular")
        return _PivotedLU(lu)

    monkeypatch.setattr(eigensolve, "spla", types.SimpleNamespace(splu=splu))
    return calls


INERTIA_CONFIG = """
scenario.name = inertia
chart.id = flat_rectangle
eta.kind = zero
tensor.kind = metric
mesh.resolutions = 8
eigen.k_max = 4
checks = all
appendix.c = 1
constants.resolution = 16
"""


@pytest.mark.parametrize("which,failure", [
    pytest.param(1, "off_diagonal_pivot", id="off_diagonal_pivot"),
    pytest.param(1, "singular", id="singular"),
    pytest.param(0, "off_diagonal_pivot", id="shift_off_diagonal_pivot"),
    pytest.param(0, "singular", id="shift_singular"),
])
def test_inertia_failure_is_a_convergence_error(tmp_path, capsys, monkeypatch, which, failure):
    a, b = _diag_problem([float(v) for v in range(1, 30)])
    calls = _failing_factor(monkeypatch, failure, which)
    what = "factorization of " + ("A - tau B for the inertia count" if which else "A failed")
    with pytest.raises(ConvergenceError, match=what):
        solve_sparse(a, b, 4)
    assert len(calls) == which + 1
    calls.clear()
    cfg = tmp_path / "inertia.cfg"
    cfg.write_text(INERTIA_CONFIG)
    monkeypatch.setenv("SPECTRA_OUT", str(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ConvergenceError: " + what)
    manifest = (tmp_path / "out" / "inertia" / "MANIFEST").read_text()
    assert "status incomplete" in manifest


class _NumpyWith:
    """numpy with ``empty`` replaced."""

    def __init__(self, empty):
        self.empty = empty

    def __getattr__(self, name):
        return getattr(np, name)


def _refuse(shape, *args, **kwargs):  # as a refused reservation fails
    raise MemoryError(f"Unable to allocate basis of shape {shape}")


def test_refused_basis_allocation_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eigensolve, "np", _NumpyWith(_refuse))
    cfg = tmp_path / "inertia.cfg"
    cfg.write_text(INERTIA_CONFIG)
    monkeypatch.setenv("SPECTRA_OUT", str(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    # one line, in the form of every module error of a run
    assert len(err) == 1 and err[0].startswith("MemoryError: Unable to allocate basis")
    manifest = (tmp_path / "out" / "inertia" / "MANIFEST").read_text().splitlines()
    assert "status incomplete" in manifest
    assert any(line.startswith("error MemoryError: ") for line in manifest)


def test_pairs_failing_after_the_probe_are_found_by_a_deflated_sweep(monkeypatch):
    # the probe passes but one formed pair is made to fail its residual test:
    # the sweep returns, and the pool keeps only the pairs that passed
    chart = make_chart("flat_interval")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 300))
    a, b = a_mat.to_csr(), b_mat.to_csr()
    default = solve_sparse(a, b, 10)
    failed = []

    def residuals(a_csr, b_csr, lams, vecs):
        res = _relative_residuals(a_csr, b_csr, lams, vecs)
        if len(lams) > 1 and not failed:
            failed.append(lams[-1])
            res[-1] = 1.0
        return res

    monkeypatch.setattr(eigensolve, "_relative_residuals", residuals)
    sweeps = _count_sweeps(monkeypatch)
    result = solve_sparse(a, b, 10)
    assert [want for want, _ in sweeps] == [10, 1]
    assert np.sum(sweeps[0][1][2] <= 1e-8) == 9
    assert np.allclose(result.eigenvalues, default.eigenvalues, rtol=1e-12, atol=0.0)
    assert np.all(result.residuals <= 1e-8)
    gram = result.vectors @ (b @ result.vectors.T)
    assert np.abs(gram - np.eye(10)).max() <= 1e-8


def test_basis_is_reserved_once_at_the_restart_cap(monkeypatch):
    # m_max = max(2 want + 2 p, 80) rows, or fewer where the space or the
    # step cap ends the sweep first, and one block more: 0.44 GB at k = 100
    # on 261,121 dofs.  The 80 rows hold the 36-72 columns that the measured
    # sweeps at k = 13 use, so those do not restart.
    shapes = []

    def refuse(shape, *args, **kwargs):
        shapes.append(shape)
        raise MemoryError

    monkeypatch.setattr(eigensolve, "np", _NumpyWith(refuse))
    for n, want, p, step_cap, rows in [(261_121, 100, 4, 5000, 212), (261_121, 13, 1, 650, 81),
                                       (1521, 60, 2, 3000, 126), (45, 7, 2, 350, 48),
                                       (600, 10, 2, 39, 40)]:
        identity = sp.identity(n, format="csr")
        with pytest.raises(MemoryError):
            _lanczos_sweep(None, identity, identity, None, None, want, step_cap, p)
        assert shapes[-1] == (rows, n)
    assert 212 * 261_121 * 8 <= 0.5e9


def test_solve_peak_is_the_basis_and_one_set_of_vectors():
    # k = 100 on the res-64 square: the (m_max + p)-row basis, then the k rows
    # it shrinks to, with no k x n copy of the pool or of |vectors| beside them
    chart = make_chart("flat_rectangle")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 64))
    a, b = a_mat.to_csr(), b_mat.to_csr()
    k, p, n = 100, _block_size(100), a.shape[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = solve_sparse(a, b, k)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.vectors.shape == (k, n)
    assert peak < (max(2 * k + 2 * p, 80) + p) * n * 8 + k * n * 8


def test_solve_under_a_tracer_gives_the_same_pairs():
    # a trace function, as coverage tools and debuggers install, makes each
    # frame's locals hold references to its arrays: the basis cannot be
    # resized in place at the end of a sweep
    chart = make_chart("flat_rectangle")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 16))
    plain = solve_sparse(a_mat, b_mat, 10)

    def trace(frame, event, arg):
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        traced = solve_sparse(a_mat, b_mat, 10)
    finally:
        sys.settrace(previous)
    assert np.array_equal(traced.eigenvalues, plain.eigenvalues)
    assert np.array_equal(traced.vectors, plain.vectors)


def test_ritz_vectors_are_formed_inside_the_basis(monkeypatch):
    # Ritz vectors beside the basis would add k n 8 bytes to a sweep's traced
    # peak.  The sweep's own peak is measured: with the basis capped, the
    # solve's is the inertia count's copy of its factor (18.0 MB here)
    chart = make_chart("flat_rectangle")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 128))
    a, b = a_mat.to_csr(), b_mat.to_csr()
    k, n = 40, a.shape[0]
    reserved, peaks, sweep = [], [], eigensolve._lanczos_sweep

    def empty(shape, *args, **kwargs):
        reserved.append(8 * math.prod(shape))
        return np.empty(shape, *args, **kwargs)

    def traced_sweep(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = sweep(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return result

    monkeypatch.setattr(eigensolve, "np", _NumpyWith(empty))
    monkeypatch.setattr(eigensolve, "_lanczos_sweep", traced_sweep)
    tracemalloc.start()
    try:
        result = solve_sparse(a, b, k)
    finally:
        tracemalloc.stop()
    assert reserved and max(peaks) < max(reserved) + 0.5 * k * n * 8
    assert result.vectors.shape == (k, n)
    assert result.vectors.flags.owndata and result.vectors.base is None
    assert np.all(result.residuals <= 1e-8)


def test_sparse_matches_eigsh_with_multiplicities_above_dense_limit(monkeypatch):
    a, b = _hemisphere(32)
    assert a.shape[0] == 5953 > DENSE_LIMIT
    sweeps = _count_sweeps(monkeypatch)
    for k in (13, 40):
        sparse = solve_sparse(a, b, k)
        ref = np.sort(spla.eigsh(a, k, M=b, sigma=0, return_eigenvectors=False))
        assert np.max(np.abs(sparse.eigenvalues - ref) / ref) <= 1e-8
        sizes = _clusters(sparse.eigenvalues)
        assert max(sizes) >= 2
        assert sizes == _clusters(ref)
    # at k = 40 a sweep outgrew the basis's max(2 k + 2, 80) = 82 rows and restarted
    assert max(result[3] for _, result in sweeps) > 82


def test_step_capped_fill_sweep_reports_its_last_pairs(monkeypatch):
    chart = make_chart("flat_rectangle")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 24))
    a, b = a_mat.to_csr(), b_mat.to_csr()
    probes = []

    def residuals(a_csr, b_csr, lams, vecs):
        res = _relative_residuals(a_csr, b_csr, lams, vecs)
        if len(lams) == 1:
            probes.append(res[0])
        return res

    monkeypatch.setattr(eigensolve, "_relative_residuals", residuals)
    sweeps = _count_sweeps(monkeypatch)
    # caps where the estimates pass at the last block but the probe does not
    for p, cap in zip(_block_sizes(monkeypatch, [_block_size(10), 2]), [39, 50]):
        sweeps.clear()
        probes.clear()
        with pytest.raises(ConvergenceError) as excinfo:
            solve_sparse(a, b, 10, maxiter=cap)
        assert len(sweeps) == 1 and sweeps[0][0] == 10
        lams, vecs, res, steps = sweeps[0][1]
        # the estimates passed at the capped step, but the probed residual did
        # not, so the returned pairs were formed only after the sweep ended
        assert steps == cap
        assert probes and probes[-1] > 1.01 * 1e-8, p
        best = excinfo.value.best_residuals
        assert len(best) == 10
        assert np.array_equal(best, res)
        assert np.array_equal(best, _relative_residuals(a, b, lams, vecs))


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 0, 3, 1], [3, 2, 1, 0]],
                         ids=["descending", "mixed", "ascending"])
def test_ritz_pairs_ascending_for_any_theta_order(order, monkeypatch):
    # exact eigenvectors and two more rows as the basis: the Ritz vector of
    # column j is row order[j], so each formed row must be the row of its value
    chart = make_chart("flat_interval")
    a_mat, b_mat, _ = assemble(chart, build_structured(chart.domain, 40))
    a, b = a_mat.to_csr(), b_mat.to_csr()
    exact = solve_dense(a, b, 4)
    extra = np.random.default_rng(0).standard_normal((2, a.shape[0]))
    basis = np.vstack([exact.vectors, extra])
    thetas = 1.0 / exact.eigenvalues[order]
    monkeypatch.setattr(eigensolve, "RESIDUAL_BYTES", 8 * 4 * 7)  # slices of 7 columns
    lams = _ritz_pairs(np.eye(6)[:, order], thetas, basis)
    assert np.all(np.diff(lams) > 0)
    assert np.allclose(lams, exact.eigenvalues, rtol=1e-13, atol=0.0)
    assert np.array_equal(basis[:4], exact.vectors)
    assert np.array_equal(basis[4:], extra)  # rows beyond the pairs are not written
    assert np.all(_relative_residuals(a, b, lams, basis[:4]) <= 1e-8)

