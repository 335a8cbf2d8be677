import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    AmbientCoordinate,
    diag_tensor,
    dump,
    from_entries,
    linear_eta,
    to_dense,
    weighted_volume,
)
from spectralab import assembly
from spectralab.assembly import assemble
from spectralab.errors import MeshTooCoarseError, TensorError
from spectralab.eigensolve import solve_dense
from spectralab.geometry import (
    CHARTS,
    LinearWeight,
    ZeroWeight,
    apply_operator_pointwise,
    chart_fields,
    immersion_operator_terms,
    make_chart,
    make_eta,
    make_tensor,
)
from spectralab.meshing import Mesh, build_structured


class QuadraticField:
    """h(xi) = xi^2 on a 1d chart."""

    def value(self, pts):
        return np.atleast_2d(pts)[:, 0] ** 2

    def gradient(self, pts):
        return 2.0 * np.atleast_2d(pts)[:, :1]


def test_interval_textbook_matrices():
    chart = make_chart("flat_interval")
    mesh = build_structured(chart.domain, 4)
    a_mat, b_mat, dof_map = assemble(chart, mesh)
    h = 0.25
    expected_a = (1 / h) * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
    expected_b = (h / 6) * (4 * np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1))
    assert np.allclose(to_dense(a_mat), expected_a, atol=1e-14)
    assert np.allclose(to_dense(b_mat), expected_b, atol=1e-14)
    assert list(dof_map) == [-1, 0, 1, 2, -1]


def test_storage_is_upper_triangular_and_symmetric():
    chart = make_chart("stereographic_sphere", (1.0,))
    mesh = build_structured(chart.domain, 4)
    a_mat, b_mat, _ = assemble(chart, mesh)
    for mat in (a_mat, b_mat):
        assert np.all(mat.rows <= mat.cols)
        dense = to_dense(mat)
        assert np.array_equal(dense, dense.T)
    # both matrices of the pencil are positive definite on desk sizes
    assert np.linalg.eigvalsh(to_dense(a_mat)).min() > 0
    assert np.linalg.eigvalsh(to_dense(b_mat)).min() > 0


def test_assembly_is_deterministic():
    chart = make_chart("associate_family", (0.4,), eta=linear_eta(0.2, -0.1))
    mesh = build_structured(chart.domain, 6)
    first = assemble(chart, mesh)[0]
    second = assemble(chart, mesh)[0]
    assert np.array_equal(first.vals, second.vals)
    assert np.array_equal(first.rows, second.rows)


def _dunavant5_volume(chart, mesh):
    """Weighted mesh volume by a degree-5 triangle rule (independent of the
    midpoint-rule mass matrix)."""
    bary = np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [0.059715871789770, 0.470142064105115, 0.470142064105115],
        [0.470142064105115, 0.059715871789770, 0.470142064105115],
        [0.470142064105115, 0.470142064105115, 0.059715871789770],
        [0.797426985353087, 0.101286507323456, 0.101286507323456],
        [0.101286507323456, 0.797426985353087, 0.101286507323456],
        [0.101286507323456, 0.101286507323456, 0.797426985353087]])
    wts = np.array([0.225,
                    0.132394152788506, 0.132394152788506, 0.132394152788506,
                    0.125939180544827, 0.125939180544827, 0.125939180544827])
    verts = mesh.vertices[mesh.cells]
    areas = mesh.cell_measures()
    total = 0.0
    for lam, w in zip(bary, wts):
        pts = np.einsum("a,cad->cd", lam, verts)
        jac = chart.immersion.jacobian(pts)
        g = np.einsum("pai,paj->pij", jac, jac)
        integrand = np.exp(-chart.eta.value(pts)) * np.sqrt(np.linalg.det(g))
        total += float((w * areas * integrand).sum())
    return total


def _total_mass(chart, mesh):
    """1^T B 1 over every vertex, boundary included: the element mass
    entries of all cells summed, each off-diagonal pair twice."""
    upper = np.triu_indices(mesh.cells.shape[1])
    _, b_entries, _ = assembly._element_entries(chart, mesh, slice(None), upper)
    return float((np.where(upper[0] == upper[1], 1.0, 2.0) @ b_entries).sum())


def test_weighted_measure_consistency_interval():
    # 1^T B 1 without elimination equals the weighted volume by independent
    # Gauss quadrature (2-pt elementwise rule leaves O(h^4) error)
    chart = make_chart("flat_interval", eta=make_eta("linear", (2.0,), dim=1))
    mesh = build_structured(chart.domain, 2000)
    assert _total_mass(chart, mesh) == pytest.approx(weighted_volume(chart, nodes=96), rel=1e-10)


def test_weighted_measure_consistency_curved():
    # on the curved chart the fan polygon is the integration region, so the
    # independent rule runs cell by cell at degree 5
    chart = make_chart("stereographic_sphere", (1.0,),
                       eta=make_eta("radial_quadratic", (0.2,)))
    mesh = build_structured(chart.domain, 24)
    assert _total_mass(chart, mesh) == pytest.approx(_dunavant5_volume(chart, mesh), rel=1e-7)


def test_weighted_measure_consistency_flat_exact():
    chart = make_chart("flat_rectangle", eta=make_eta("linear", (0.5, -0.25)))
    mesh = build_structured(chart.domain, 16)
    # midpoint rule is exact through quadratics but exp(-eta) is not
    # polynomial; 16^2 cells leave O(h^4) quadrature error
    assert _total_mass(chart, mesh) == pytest.approx(weighted_volume(chart, nodes=64), rel=1e-8)


def test_tensor_scaling_covariance_exact():
    mesh = build_structured(make_chart("flat_rectangle").domain, 8)
    base = assemble(make_chart("flat_rectangle", tensor=diag_tensor(0.5, 1.0)), mesh)
    doubled = assemble(make_chart("flat_rectangle", tensor=diag_tensor(1.0, 2.0)), mesh)
    assert np.array_equal(2.0 * base[0].vals, doubled[0].vals)
    assert np.array_equal(base[1].vals, doubled[1].vals)


def test_dirichlet_form_identity():
    chart = make_chart("flat_rectangle")
    mesh = build_structured(chart.domain, 12)
    a_mat, b_mat, _ = assemble(chart, mesh)
    result = solve_dense(a_mat, b_mat, 5)
    a_csr, b_csr = a_mat.to_csr(), b_mat.to_csr()
    for lam, vec in zip(result.eigenvalues, result.vectors):
        quotient = (vec @ (a_csr @ vec)) / (vec @ (b_csr @ vec))
        assert quotient == pytest.approx(lam, rel=1e-12)


def _expression_chart():
    return make_chart("cylinder", (0.5,), eta=make_eta("expr", expr="0.3*sin(x)*y", dim=2),
                      tensor=make_tensor("expr", expr="1 + 0.2*y; 0.1*x; 1.5", dim=2))


def _interval_chart():
    return make_chart("flat_interval", eta=linear_eta(2.0),
                      tensor=make_tensor("expr", expr="1 + x*x", dim=1))


@pytest.mark.parametrize("chart_fn,resolution", [(_expression_chart, 12), (_interval_chart, 100)],
                         ids=["cylinder_expr", "interval"])
def test_assembly_independent_of_block_size(monkeypatch, chart_fn, resolution):
    chart = chart_fn()
    mesh = build_structured(chart.domain, resolution)
    cells_per_block = 7
    assert mesh.num_cells > 5 * cells_per_block and mesh.num_cells % cells_per_block
    budget = cells_per_block * mesh.cells.shape[1] * assembly._point_bytes(chart)
    results = []
    for block_bytes in (budget, 1 << 40):  # many blocks with a ragged last one, then one
        monkeypatch.setattr(assembly, "BLOCK_BYTES", block_bytes)
        results.append(assemble(chart, mesh))
    (a_blocked, b_blocked, map_blocked), (a_whole, b_whole, map_whole) = results
    assert np.array_equal(map_blocked, map_whole)
    for blocked, whole in ((a_blocked, a_whole), (b_blocked, b_whole)):
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))


def test_indefinite_tensor_names_cell(monkeypatch):
    chart = make_chart("flat_rectangle", tensor=diag_tensor(1.0, -2.0))
    mesh = build_structured(chart.domain, 4)
    with pytest.raises(TensorError, match="cell"):
        assemble(chart, mesh)
    # indefinite where x > 0.7 only: the first bad cell (80 of 128, as the
    # whole-mesh pass reports it) lies many blocks into the mesh
    chart = make_chart("flat_rectangle", tensor=make_tensor("expr", expr="1; 0; 0.7 - x", dim=2))
    mesh = build_structured(chart.domain, 8)
    for cells_per_block in (3, mesh.num_cells):
        monkeypatch.setattr(assembly, "BLOCK_BYTES",
                            cells_per_block * 3 * assembly._point_bytes(chart))
        with pytest.raises(TensorError, match=r"of cell 80$"):
            assemble(chart, mesh)


def test_assembly_peak_memory_bounded_by_block_budget(monkeypatch):
    # the per-point fields live one cell block at a time, so what stays is
    # the budget plus a few copies of the entries, the size of the output
    monkeypatch.setattr(assembly, "BLOCK_BYTES", 1 << 20)
    chart = make_chart("stereographic_sphere", (1.0,), eta=make_eta("radial_quadratic", (0.2,)))
    mesh = build_structured(chart.domain, 48)
    tracemalloc.start()
    try:
        a_mat, b_mat, _ = assemble(chart, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(x.nbytes for x in (a_mat.rows, a_mat.cols, a_mat.vals, b_mat.vals))
    assert peak < assembly.BLOCK_BYTES + 6 * output
    # one block stays within its per-point count, for the metric tensor (T
    # is g), a diagonal tensor and an expression tensor (T held apart)
    for chart in (chart, make_chart("flat_rectangle", tensor=diag_tensor(1.0, 2.0)),
                  _expression_chart()):
        mesh = build_structured(chart.domain, 48)
        budget = 3 * assembly._point_bytes(chart)  # one point per node
        cells = assembly.BLOCK_BYTES // budget
        tracemalloc.start()
        try:
            assembly._element_entries(chart, mesh, slice(0, cells), np.triu_indices(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cells * budget


def test_all_boundary_mesh_rejected():
    verts = np.array([[0.0], [0.5], [1.0]])
    cells = np.array([[0, 1], [1, 2]])
    mesh = Mesh(verts, cells, np.array([True, True, True]), 0.5)
    with pytest.raises(MeshTooCoarseError):
        assemble(make_chart("flat_interval"), mesh)


def test_matrix_dump_format(tmp_path):
    chart = make_chart("flat_interval")
    mesh = build_structured(chart.domain, 4)
    a_mat, _, _ = assemble(chart, mesh)
    path = tmp_path / "a.txt"
    dump(a_mat, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(a_mat.vals)
    i, j, v = lines[0].split()
    assert int(i) <= int(j)
    assert float(v) == a_mat.vals[0]


def test_from_entries_coalesces_duplicates():
    mat = from_entries(3, [0, 1, 0, 2], [1, 0, 1, 2], [1.0, 2.0, 3.0, 4.0])
    dense = to_dense(mat)
    assert dense[0, 1] == 6.0 and dense[1, 0] == 6.0
    assert dense[2, 2] == 4.0


# ---------------------------------------------------------------------------
# pointwise operator application
# ---------------------------------------------------------------------------

def test_apply_Lh_constant_is_zero():
    chart = make_chart("flat_interval")
    mesh = build_structured(chart.domain, 8)
    values = apply_operator_pointwise(chart, ZeroWeight(), mesh.vertices)
    assert np.abs(values).max() == 0.0


def test_apply_Lh_quadratic_flat():
    chart = make_chart("flat_interval")
    mesh = build_structured(chart.domain, 8)
    values = apply_operator_pointwise(chart, QuadraticField(), mesh.vertices)
    assert np.allclose(values, 2.0, atol=1e-9)


def test_apply_Lh_linear_with_drift():
    # L h = h'' - eta' h' = 0 - 2 for h = xi, eta = 2 xi
    chart = make_chart("flat_interval", eta=make_eta("linear", (2.0,), dim=1))
    mesh = build_structured(chart.domain, 8)
    values = apply_operator_pointwise(chart, LinearWeight([1.0]), mesh.vertices)
    assert np.allclose(values, -2.0, atol=1e-9)


def test_apply_Lh_sphere_coordinate():
    # restriction of an ambient coordinate to the unit sphere satisfies
    # Laplace-Beltrami(x_l) = -2 x_l
    chart = make_chart("stereographic_sphere", (1.0,))
    mesh = build_structured(chart.domain, 6)
    field = AmbientCoordinate(chart, 0)
    values = apply_operator_pointwise(chart, field, mesh.vertices)
    expected = -2.0 * field.value(mesh.vertices)
    assert np.allclose(values, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# L x in closed form from the immersion identity
# ---------------------------------------------------------------------------

def _vertex_lx(chart, resolution=6):
    """The mesh and the closed-form ``L x`` at its vertices, ``(m, V)``."""
    mesh = build_structured(chart.domain, resolution)
    return mesh, immersion_operator_terms(chart, chart_fields(chart, mesh.vertices))[0].T


@pytest.mark.parametrize("chart_id,params,expected", [
    # mean-curvature vectors: -2 x / r^2 on the sphere, -(x, y, 0) / r^2 on
    # the cylinder, 0 on the minimal associate family
    ("stereographic_sphere", (1.0,), lambda x, r: -2.0 * x / r ** 2),
    ("stereographic_sphere", (2.0,), lambda x, r: -2.0 * x / r ** 2),
    ("cylinder", (1.5,), lambda x, r: -x * np.array([1.0, 1.0, 0.0]) / r ** 2),
    ("associate_family", (0.0,), lambda x, r: 0.0 * x),
    ("associate_family", (0.7,), lambda x, r: 0.0 * x),
])
def test_closed_form_lx_exact_on_metric_tensor(chart_id, params, expected):
    chart = make_chart(chart_id, params)
    mesh, lx = _vertex_lx(chart, 8)
    x = chart.immersion.position(mesh.vertices)
    assert lx.shape == (3, mesh.num_vertices)
    assert np.abs(lx.T - expected(x, params[0])).max() <= 1e-12 * (1.0 + np.abs(lx).max())


_TENSORS = {
    1: {"metric": ((), None), "diag": ((1.7,), None), "expr": ((), "1 + 0.3*x^2")},
    2: {"metric": ((), None), "diag": ((1.0, 2.0), None),
        "expr": ((), "1.2 + 0.2*x*x; 0.1*x*y; 1.5 + 0.1*sin(y)")},
}
_ETAS = {
    1: {"zero": ((), None), "linear": ((0.4,), None), "radial_quadratic": ((0.3,), None),
        "expr": ((), "0.3*sin(x)")},
    2: {"zero": ((), None), "linear": ((0.4, -0.2), None),
        "radial_quadratic": ((0.3,), None), "expr": ((), "0.3*sin(x) + 0.2*x*y")},
}


@pytest.mark.parametrize("tensor_kind", ["metric", "diag", "expr"])
@pytest.mark.parametrize("chart_id", sorted(CHARTS))
def test_closed_form_lx_matches_finite_difference_operator(chart_id, tensor_kind):
    dim = CHARTS[chart_id].dim
    params, expr = _TENSORS[dim][tensor_kind]
    tensor = make_tensor(tensor_kind, params, expr, dim=dim)
    for eta_kind, (eta_params, eta_expr) in _ETAS[dim].items():
        chart = make_chart(chart_id, eta=make_eta(eta_kind, eta_params, eta_expr, dim=dim),
                           tensor=tensor)
        mesh, lx = _vertex_lx(chart)
        oracle = np.stack([apply_operator_pointwise(chart, AmbientCoordinate(chart, a),
                                                    mesh.vertices)
                           for a in range(chart.dim_m)])
        # the metric tensor is exact in closed form; otherwise the covariant
        # derivative of T carries trace_grad_tensor's step-1/1024 differences
        rel = 1e-9 if tensor_kind == "metric" else 1e-5
        assert np.abs(lx - oracle).max() <= rel * (1.0 + np.abs(oracle).max()), eta_kind
