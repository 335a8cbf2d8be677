"""Shared pipeline shortcuts for the test suite."""

import math
import os

import numpy as np

from spectralab.assembly import (
    EigenfunctionQuadrature,
    SparseSymMatrix,
    _cell_geometry,
    _dm_weight,
    assemble,
)
from spectralab.eigensolve import solve_sparse, vertex_fields
from spectralab.geometry import (
    CallableImmersion,
    Chart,
    PointFields,
    Rectangle,
    _inv_spd,
    chart_fields,
    immersion_operator_terms,
    make_chart,
    make_eta,
    make_tensor,
)
from spectralab.meshing import build_structured


class AmbientCoordinate:
    """Scalar field xi -> x_l(xi): one ambient coordinate of the immersion,
    the test function that ``apply_operator_pointwise`` takes as an oracle
    for the closed-form ``L x``."""

    def __init__(self, chart, axis):
        self.chart = chart
        self.axis = axis

    def value(self, pts):
        return self.chart.immersion.position(pts)[:, self.axis]

    def gradient(self, pts):
        return self.chart.immersion.jacobian(pts)[:, self.axis, :]


def pipeline(chart_id, params=(), resolution=16, k=13, eta=None, tensor=None,
             domain=None):
    """Chart -> mesh -> assemble -> sparse solve, returning all stages."""
    chart = make_chart(chart_id, params, domain=domain, eta=eta, tensor=tensor)
    return (chart,) + solve_chart(chart, resolution, k)


def solve_chart(chart, resolution=16, k=13):
    """Mesh -> assemble -> sparse solve of a built chart: (mesh, matrices, result)."""
    mesh = build_structured(chart.domain, resolution)
    a_mat, b_mat, dof_map = assemble(chart, mesh)
    result = solve_sparse(a_mat, b_mat, k)
    result.vertex_values = vertex_fields(result, dof_map)
    return mesh, (a_mat, b_mat, dof_map), result


def flat_square_in_r3():
    """The unit square at height 1 in R^3: a codimension-1 chart whose third
    ambient coordinate is constant."""
    immersion = CallableImmersion(
        2, 3,
        position=lambda p: np.stack([p[:, 0], p[:, 1], np.ones(len(p))], axis=-1),
        jacobian=lambda p: np.broadcast_to(np.eye(3, 2), (len(p), 3, 2)),
        hessian=lambda p: np.zeros((len(p), 3, 2, 2)))
    return Chart(2, 3, Rectangle(((0.0, 1.0), (0.0, 1.0))), immersion,
                 make_eta("zero"), make_tensor("metric"))


def reference_assemble(chart, mesh):
    """Dirichlet A and B with every per-point contraction written as
    ``np.einsum``: the oracle that ``assemble`` must match bit for bit."""
    qpts, qw, grads, phi = _cell_geometry(mesh)
    ncells, nq = qw.shape
    flat = qpts.reshape(-1, mesh.dim)
    jac = chart.immersion.jacobian(flat)
    g = np.einsum("pai,paj->pij", jac, jac)
    ginv = _inv_spd(g)
    t = chart.tensor.value(flat, g)
    k = np.einsum("pia,pab,pbj->pij", ginv, t, ginv)
    wq = _dm_weight(chart, PointFields(flat, jac, g, ginv, t, k)).reshape(ncells, nq) * qw
    k_eff = np.einsum("cq,cqij->cij", wq, k.reshape(ncells, nq, mesh.dim, mesh.dim))
    a_elem = np.einsum("cai,cij,cbj->cab", grads, k_eff, grads)
    b_elem = np.einsum("cq,cqa,cqb->cab", wq, phi, phi)
    nodes = mesh.cells.shape[1]
    pairs = [(a, b) for a in range(nodes) for b in range(a, nodes)]
    rows = np.concatenate([mesh.cells[:, a] for a, _ in pairs])
    cols = np.concatenate([mesh.cells[:, b] for _, b in pairs])
    dof_map = np.cumsum(~mesh.boundary) - 1
    dof_map[mesh.boundary] = -1
    keep = (dof_map[rows] >= 0) & (dof_map[cols] >= 0)
    return SparseSymMatrix.from_shared_entries(
        int((~mesh.boundary).sum()), dof_map[rows[keep]], dof_map[cols[keep]],
        np.concatenate([a_elem[:, a, b] for a, b in pairs])[keep],
        np.concatenate([b_elem[:, a, b] for a, b in pairs])[keep])


def from_entries(dim, rows, cols, vals):
    """One matrix from (row, col, value) entries: duplicates coalesced,
    stored as the upper triangle."""
    return SparseSymMatrix.from_shared_entries(dim, rows, cols, vals)[0]


def to_dense(mat):
    return mat.to_csr().toarray()


def dump(mat, path):
    """Coordinate text format `i j value` (upper triangle, 17 digits)."""
    with open(path, "w") as handle:
        for i, j, v in zip(mat.rows, mat.cols, mat.vals):
            handle.write(f"{i} {j} {v:.17g}\n")


def export_text(mesh):
    """Plain-text listing of a mesh: `v x1 [x2]`, `c i j [k]`, `b i` records."""
    lines = ["v " + " ".join(f"{x:.17g}" for x in vert) for vert in mesh.vertices]
    lines += ["c " + " ".join(str(i) for i in cell) for cell in mesh.cells]
    lines += [f"b {idx}" for idx in np.nonzero(mesh.boundary)[0]]
    return "\n".join(lines) + "\n"


def quadrature_context(chart, mesh, result):
    return EigenfunctionQuadrature(chart, mesh, result.vertex_values)


class QuadratureFields:
    """The chart-field record, dm weights and P1 data at every quadrature
    point of a mesh at once, from the chart and the mesh: what the
    per-eigenfunction oracles integrate against."""

    def __init__(self, chart, mesh):
        qpts, qw, self.grads, phi = _cell_geometry(mesh)
        self.ncells, self.nq = qw.shape
        self.cells = mesh.cells
        self.phi = np.asarray(phi)
        self.fields = chart_fields(chart, qpts.reshape(-1, mesh.dim))
        self.dm_weights = (_dm_weight(chart, self.fields).reshape(self.ncells, self.nq)
                           * qw).ravel()

    def integrate(self, values_flat):
        """Integral of a quadrature-point sampled function against dm."""
        return float((self.dm_weights * values_flat).sum())

    def values(self, vertex_field):
        """P1 values of a vertex field at the quadrature points, cell by cell."""
        return np.einsum("cqa,ca->cq", self.phi, np.asarray(vertex_field)[self.cells]).ravel()

    def gradient(self, vertex_field):
        """Chart gradient of a vertex field, repeated at each quadrature point."""
        nodal = np.asarray(vertex_field)[self.cells]
        return np.repeat(np.einsum("cai,ca->ci", self.grads, nodal), self.nq, axis=0)


def reference_proposition_integrals(quad, axis, k_top):
    """Test-function integrals for ``h = x^axis`` one eigenfunction at a
    time, with the closed-form ``L x`` at the quadrature points: the oracle
    for ``EigenfunctionQuadrature.proposition_integrals``."""
    quad_fields = QuadratureFields(quad.chart, quad.mesh)
    fields = quad_fields.fields
    grad_h = AmbientCoordinate(quad.chart, axis).gradient(fields.points)
    t_hh = np.einsum("pij,pi,pj->p", fields.k, grad_h, grad_h)
    lh_q = immersion_operator_terms(quad.chart, fields)[0][:, axis]
    weights = np.empty(k_top)
    rayleigh = np.empty(k_top)
    for i in range(k_top):
        u_q = quad_fields.values(quad.vertex_values[i])
        t_h_u = np.einsum("pij,pi,pj->p", fields.k, grad_h,
                          quad_fields.gradient(quad.vertex_values[i]))
        weights[i] = quad_fields.integrate(u_q ** 2 * t_hh)
        rayleigh[i] = quad_fields.integrate((u_q * lh_q + 2.0 * t_h_u) ** 2)
    return weights, rayleigh


def reference_tensor_integrals(quad, k):
    """Integrated tensor-bound integrals one eigenfunction at a time, as a
    ``(k, 3)`` array: the oracle for ``EigenfunctionQuadrature.tensor_integrals``."""
    quad_fields = QuadratureFields(quad.chart, quad.mesh)
    fields = quad_fields.fields
    g, k_field = fields.g, fields.k
    tr_t = np.einsum("pij,pji->p", fields.ginv, fields.t)
    _, normal, tangential = immersion_operator_terms(quad.chart, fields)
    square_field = (normal ** 2).sum(axis=1) + np.einsum("pab,pa,pb->p", g, tangential,
                                                         tangential)
    rows = []
    for i in range(k):
        u_q = quad_fields.values(quad.vertex_values[i])
        t_grad_u = np.einsum("pij,pj->pi", k_field, quad_fields.gradient(quad.vertex_values[i]))
        rows.append((quad_fields.integrate(u_q ** 2 * tr_t),
                     quad_fields.integrate(u_q ** 2 * square_field),
                     quad_fields.integrate(
                         u_q * np.einsum("pab,pa,pb->p", g, tangential, t_grad_u))))
    return np.array(rows)


def linear_eta(*coeffs):
    return make_eta("linear", coeffs, dim=len(coeffs))


def radial_eta(coeff):
    return make_eta("radial_quadratic", (coeff,), dim=2)


def diag_tensor(*entries):
    return make_tensor("diag", entries, dim=len(entries))


def weighted_volume(chart, nodes=64):
    """Independent quadrature of the weighted measure exp(-eta) dM."""
    pts, wts = chart.domain.quadrature(nodes)
    jac = chart.immersion.jacobian(pts)
    g = np.einsum("pai,paj->pij", jac, jac)
    det = np.linalg.det(g) if chart.dim_n > 1 else g[:, 0, 0]
    return float((wts * np.exp(-chart.eta.value(pts)) * np.sqrt(det)).sum())


GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_scenarios.json")
GOLDEN_REL = 1e-10


def _num(x):
    """JSON-safe float: non-finite values are kept as their string form."""
    x = float(x)
    return x if math.isfinite(x) else str(x)


def scenario_snapshot(run):
    """Eigenvalues per resolution and every report row of one RunResult."""
    return {
        "eigenvalues": {str(res): [float(v) for v in values]
                        for res, values in run.eigenvalues.items()},
        "reports": [[r.name, r.k, _num(r.lhs), _num(r.rhs), _num(r.ratio),
                     r.holds, r.skipped] for r in run.reports],
    }


def golden_close(actual, expected):
    """Whether a number matches its recorded value: to GOLDEN_REL relative,
    or exactly as text where either is non-finite (stored as text)."""
    if isinstance(expected, str) or isinstance(actual, str):
        return str(actual) == str(expected)
    return abs(actual - expected) <= GOLDEN_REL * abs(expected)


def golden_row_matches(row, ref):
    """Whether a report row matches its recorded row: name, k, holds and
    skipped exactly; lhs, rhs and ratio by :func:`golden_close`."""
    name, k, lhs, rhs, ratio, holds, skipped = row
    return ([name, k, holds, skipped] == [ref[0], ref[1], ref[5], ref[6]]
            and all(map(golden_close, (lhs, rhs, ratio), ref[2:5])))


def golden_mismatches(snapshot, expected):
    """Differences from a recorded snapshot: names, k, row order, holds and
    skipped exactly; eigenvalues, lhs, rhs and ratio to GOLDEN_REL relative."""
    problems = []
    if sorted(snapshot["eigenvalues"]) != sorted(expected["eigenvalues"]):
        problems.append(("resolutions", sorted(snapshot["eigenvalues"]),
                         sorted(expected["eigenvalues"])))
    for res, values in expected["eigenvalues"].items():
        got = snapshot["eigenvalues"].get(res, [])
        if len(got) != len(values) or not all(map(golden_close, got, values)):
            problems.append(("eigenvalues", res, got, values))
    rows, want = snapshot["reports"], expected["reports"]
    if len(rows) != len(want):
        problems.append(("report count", len(rows), len(want)))
    for index, (row, ref) in enumerate(zip(rows, want)):
        if not golden_row_matches(row, ref):
            problems.append(("report", index, row, ref))
    return problems
