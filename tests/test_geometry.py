import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import AmbientCoordinate, reference_assemble
from spectralab import assembly, geometry
from spectralab.assembly import assemble
from spectralab.errors import DegeneracyError, EvaluationError, ParameterError, TensorError
from spectralab.expressions import compile_expression
from spectralab.geometry import (
    CHARTS,
    CallableImmersion,
    Chart,
    Disk,
    ExpressionWeight,
    Rectangle,
    chart_fields,
    compute_constants,
    contract,
    make_chart,
    make_eta,
    make_tensor,
    omega_n,
    second_form_hs_norm,
    second_fundamental_form,
    shape_operator_norms,
)
from spectralab.meshing import build_structured
from spectralab.reporting import build_chart, load_scenario

RNG = np.random.default_rng(7)


def test_flat_rectangle_metric_is_identity():
    chart = make_chart("flat_rectangle")
    pts = RNG.uniform(0, 1, (20, 2))
    g = chart_fields(chart, pts).g
    assert np.allclose(g, np.eye(2), atol=1e-15)


def test_sphere_metric_at_origin_is_conformal():
    chart = make_chart("stereographic_sphere", (1.0,))
    g = chart_fields(chart, [[0.0, 0.0]]).g
    assert np.allclose(g[0], 4.0 * np.eye(2), atol=1e-14)
    # conformal factor 4/(1+|xi|^2)^2 away from the origin
    g = chart_fields(chart, [[0.3, -0.4]]).g
    factor = 4.0 / (1.0 + 0.25) ** 2
    assert np.allclose(g[0], factor * np.eye(2), atol=1e-14)


def test_sphere_points_lie_on_sphere():
    chart = make_chart("stereographic_sphere", (2.5,))
    pts = RNG.uniform(-1, 1, (50, 2))
    pos = chart.immersion.position(pts)
    assert np.allclose(np.linalg.norm(pos, axis=1), 2.5, atol=1e-13)


def test_associate_family_metric_theta_independent():
    pts = RNG.uniform([0.1, -0.7], [3.0, 0.7], (40, 2))
    reference = chart_fields(make_chart("associate_family", (0.0,)), pts).g
    for theta in (0.4, math.pi / 4, 1.2, math.pi / 2):
        g = chart_fields(make_chart("associate_family", (theta,)), pts).g
        assert np.abs(g - reference).max() <= 1e-10
    expected = np.cosh(pts[:, 1]) ** 2
    assert np.abs(reference - expected[:, None, None] * np.eye(2)).max() <= 1e-12


def test_degenerate_immersion_detected():
    collapse = CallableImmersion(
        2, 3,
        position=lambda p: np.stack([p[:, 0], p[:, 0], 0 * p[:, 0]], axis=-1),
        jacobian=lambda p: np.broadcast_to(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), (p.shape[0], 3, 2)).copy(),
        hessian=lambda p: np.zeros((p.shape[0], 3, 2, 2)))
    chart = Chart(2, 3, Rectangle(((0, 1), (0, 1))), collapse,
                  make_eta("zero"), make_tensor("metric"))
    for evaluate in (lambda: chart_fields(chart, [[0.5, 0.5]]),
                     lambda: compute_constants(chart, 8)):
        with pytest.raises(DegeneracyError):
            evaluate()


def test_flat_chart_has_no_curvature():
    chart = make_chart("flat_rectangle")
    frames, alpha, mean_curv = second_fundamental_form(chart, chart_fields(chart, [[0.3, 0.3]]))
    assert frames.shape == (1, 0, 2)
    assert np.all(alpha == 0) and np.all(mean_curv == 0)


def test_sphere_mean_curvature_is_unit():
    chart = make_chart("stereographic_sphere", (1.0,))
    pts = RNG.uniform(-0.8, 0.8, (10, 2))
    _, _, mean_curv = second_fundamental_form(chart, chart_fields(chart, pts))
    assert np.allclose(np.linalg.norm(mean_curv, axis=1), 1.0, atol=1e-12)
    assert np.allclose(shape_operator_norms(chart, pts), math.sqrt(2), atol=1e-12)


def test_associate_family_members_are_minimal():
    pts = RNG.uniform([0.1, -0.7], [3.0, 0.7], (25, 2))
    for theta in (0.0, math.pi / 4, math.pi / 2):
        chart = make_chart("associate_family", (theta,))
        _, _, mean_curv = second_fundamental_form(chart, chart_fields(chart, pts))
        assert np.linalg.norm(mean_curv, axis=1).max() <= 1e-8


def test_associate_family_alpha_norm_theta_independent():
    pts = RNG.uniform([0.1, -0.7], [3.0, 0.7], (25, 2))
    ref = second_form_hs_norm(make_chart("associate_family", (0.0,)), pts)
    # catenoid principal curvatures are +-1/cosh^2 v
    assert np.allclose(ref, math.sqrt(2) / np.cosh(pts[:, 1]) ** 2, atol=1e-12)
    for theta in (math.pi / 4, math.pi / 2):
        norms = second_form_hs_norm(make_chart("associate_family", (theta,)), pts)
        assert np.abs(norms - ref).max() <= 1e-8


def _circle_immersion(coords, radius, dim_m):
    """The closed curve ``radius (cos u, sin u)`` in the plane of ambient
    axes ``coords`` of R^dim_m, as immersion data of the parameter ``u``
    ``(N,)``: position ``(N, m)``, Jacobian column and Hessian entry."""
    def embed(p, first, second):
        out = np.zeros(p.shape + (dim_m,))
        out[..., coords[0]], out[..., coords[1]] = radius * first, radius * second
        return out
    return (lambda u: embed(u, np.cos(u), np.sin(u)),
            lambda u: embed(u, -np.sin(u), np.cos(u)),
            lambda u: embed(u, -np.cos(u), -np.sin(u)))


def test_clifford_torus_in_r4_frame_and_curvatures():
    # r (cos u, sin u, cos v, sin v), r = 1/sqrt 2: minimal in S^3, H = -x
    first = _circle_immersion((0, 1), 1.0 / math.sqrt(2.0), 4)
    second = _circle_immersion((2, 3), 1.0 / math.sqrt(2.0), 4)

    def hessian(p):
        hess = np.zeros((p.shape[0], 4, 2, 2))
        hess[:, :, 0, 0], hess[:, :, 1, 1] = first[2](p[:, 0]), second[2](p[:, 1])
        return hess
    torus = CallableImmersion(
        2, 4, position=lambda p: first[0](p[:, 0]) + second[0](p[:, 1]),
        jacobian=lambda p: np.stack([first[1](p[:, 0]), second[1](p[:, 1])], axis=-1),
        hessian=hessian)
    chart = Chart(2, 4, Rectangle(((0, 2 * math.pi), (0, 2 * math.pi))), torus,
                  make_eta("zero"), make_tensor("metric"))
    pts = np.random.default_rng(11).uniform(0, 2 * math.pi, (500, 2))
    fields = chart_fields(chart, pts)
    frames, _, mean_curv = second_fundamental_form(chart, fields)
    assert frames.shape == (500, 2, 4)
    assert np.abs(frames @ frames.transpose(0, 2, 1) - np.eye(2)).max() <= 1e-14
    assert np.abs(frames @ fields.jac).max() <= 1e-12
    assert np.abs(mean_curv + torus.position(pts)).max() <= 1e-12
    assert np.abs(second_form_hs_norm(chart, pts) - 2.0).max() <= 1e-12


def test_circle_in_r3_has_a_two_normal_frame():
    radius = 2.0
    position, jacobian, hessian = _circle_immersion((0, 1), radius, 3)
    circle = CallableImmersion(
        1, 3, position=lambda p: position(p[:, 0]),
        jacobian=lambda p: jacobian(p[:, 0])[:, :, None],
        hessian=lambda p: hessian(p[:, 0])[:, :, None, None])
    chart = Chart(1, 3, Rectangle(((0, 2 * math.pi),)), circle,
                  make_eta("zero"), make_tensor("metric"))
    pts = np.random.default_rng(12).uniform(0, 2 * math.pi, (500, 1))
    fields = chart_fields(chart, pts)
    frames, _, mean_curv = second_fundamental_form(chart, fields)
    assert frames.shape == (500, 2, 3)
    assert np.abs(frames @ frames.transpose(0, 2, 1) - np.eye(2)).max() <= 1e-14
    assert np.abs(frames @ fields.jac).max() <= 1e-12
    assert np.abs(mean_curv + circle.position(pts) / radius ** 2).max() <= 1e-12
    assert np.abs(second_form_hs_norm(chart, pts) - 1.0 / radius).max() <= 1e-12


def test_tiny_sphere_mean_curvature_scales():
    # the frame depends only on the projection I - J g^-1 J^T, not on |J|
    radius = 1e-13
    chart = make_chart("stereographic_sphere", (radius,))
    pts = RNG.uniform(-0.8, 0.8, (10, 2))
    _, _, mean_curv = second_fundamental_form(chart, chart_fields(chart, pts))
    assert np.allclose(np.linalg.norm(mean_curv, axis=1) * radius, 1.0, atol=1e-12)


def test_cylinder_curvatures():
    chart = make_chart("cylinder", (0.5,))
    pts = RNG.uniform([0.1, 0.1], [1.4, 0.9], (10, 2))
    _, _, mean_curv = second_fundamental_form(chart, chart_fields(chart, pts))
    assert np.allclose(np.linalg.norm(mean_curv, axis=1), 1.0, atol=1e-12)  # 1/(2r)
    assert np.allclose(shape_operator_norms(chart, pts), 2.0, atol=1e-12)   # 1/r


# ---------------------------------------------------------------------------
# geometric constants
# ---------------------------------------------------------------------------

def test_interval_drift_constants():
    # eta = 2 xi: |eta'| = 2 and L eta = eta'' - (eta')^2 = -4
    chart = make_chart("flat_interval", eta=make_eta("linear", (2.0,), dim=1))
    consts = compute_constants(chart, 16)
    assert consts.eta0 == pytest.approx(2.0, abs=1e-12)
    assert consts.eta_bar0 == pytest.approx(-4.0, abs=1e-10)
    assert consts.h0 == 0.0 and consts.a0 == 0.0
    assert consts.vol_omega == pytest.approx(1.0, abs=1e-12)


def test_flat_square_constants():
    consts = compute_constants(make_chart("flat_rectangle"), 8)
    assert consts.eta0 == 0.0 and consts.eta_bar0 == pytest.approx(0.0, abs=1e-12)
    assert consts.h0 == 0.0 and consts.a0 == 0.0 and consts.t0 == 0.0
    assert consts.t_star == pytest.approx(math.sqrt(2), rel=1e-12)
    assert consts.tr_t_inf == pytest.approx(2.0, rel=1e-12)
    assert consts.vol_omega == pytest.approx(1.0, rel=1e-12)


def test_hemisphere_constants():
    consts = compute_constants(make_chart("stereographic_sphere", (1.0,)), 32)
    assert consts.h0 == pytest.approx(1.0, abs=1e-6)
    assert consts.a0 == pytest.approx(math.sqrt(2), abs=1e-6)
    assert consts.vol_omega == pytest.approx(2 * math.pi, abs=1e-3)
    assert consts.t_star == pytest.approx(math.sqrt(2), rel=1e-12)
    assert consts.t0 == 0.0  # metric tensor is parallel


def test_hemisphere_weighted_constants_closed_form():
    # eta = c|xi|^2 on the stereographic chart: |grad eta| = 2c|xi|/(conformal)
    # peaks at 0.4 on the rim; L eta = (1+s)^2 (c - c^2 s) peaks at 0.64
    chart = make_chart("stereographic_sphere", (1.0,),
                       eta=make_eta("radial_quadratic", (0.2,)))
    consts = compute_constants(chart, 32)
    assert consts.eta0 == pytest.approx(0.4, abs=1e-10)
    assert consts.eta_bar0 == pytest.approx(0.64, abs=1e-8)


def test_constants_refinement_monotone():
    charts = [
        make_chart("stereographic_sphere", (1.0,),
                   eta=make_eta("radial_quadratic", (0.2,))),
        make_chart("flat_rectangle",
                   eta=make_eta("expr", expr="sin(3*x)*cosh(y)", dim=2)),
    ]
    for chart in charts:
        coarse = compute_constants(chart, 12)
        fine = compute_constants(chart, 24)
        for name in ("eta0", "eta_bar0", "h0", "a0", "t_star", "t0", "tr_t_sup"):
            assert getattr(coarse, name) <= getattr(fine, name) + 1e-12, name
        assert coarse.tr_t_inf >= fine.tr_t_inf - 1e-12


def test_constants_invariant_under_affine_reparameterization():
    # same flat patch charted over [0,1]^2 and over [0,2]x[0,1] with the
    # first coordinate halved
    eta_a = make_eta("expr", expr="sin(x) + y^2", dim=2)
    chart_a = make_chart("flat_rectangle", eta=eta_a)

    scale = np.array([0.5, 1.0])
    stretched = CallableImmersion(
        2, 2,
        position=lambda p: p * scale,
        jacobian=lambda p: np.broadcast_to(np.diag(scale), (p.shape[0], 2, 2)).copy(),
        hessian=lambda p: np.zeros((p.shape[0], 2, 2, 2)))
    eta_b = make_eta("expr", expr="sin(x/2) + y^2", dim=2)
    chart_b = Chart(2, 2, Rectangle(((0, 2), (0, 1))), stretched, eta_b,
                    make_tensor("metric"))

    const_a = compute_constants(chart_a, 16)
    const_b = compute_constants(chart_b, 16)
    for name in ("eta0", "eta_bar0", "h0", "a0", "t_star", "t0",
                 "tr_t_inf", "tr_t_sup", "vol_omega"):
        va, vb = getattr(const_a, name), getattr(const_b, name)
        assert va == pytest.approx(vb, rel=1e-8, abs=1e-8), name


def test_expression_tensor_parallel_when_proportional_to_metric():
    # a scaled metric written as expression entries exercises the generic
    # finite-difference covariant-derivative path; nabla(c g) = 0
    conformal = "6.8/(1+x^2+y^2)^2"
    chart = make_chart("stereographic_sphere", (1.0,),
                       tensor=make_tensor("expr", expr=f"{conformal}; 0; {conformal}",
                                          dim=2))
    consts = compute_constants(chart, 16)
    assert consts.t0 <= 1e-9
    assert consts.t_star == pytest.approx(1.7 * math.sqrt(2), rel=1e-10)
    assert consts.tr_t_inf == pytest.approx(3.4, rel=1e-10)


def test_indefinite_tensor_rejected():
    chart = make_chart("flat_rectangle", tensor=make_tensor("diag", (1.0, -1.0)))
    with pytest.raises(TensorError, match=r"definite at sample \(0\.0, 0\.0\)$"):
        compute_constants(chart, 8)


def _expression_fields_chart(chart_id):
    """The catalog chart with an expression weight and an expression tensor."""
    if CHARTS[chart_id].dim == 1:
        return make_chart(chart_id, eta=make_eta("expr", expr="0.5*x*x", dim=1),
                          tensor=make_tensor("expr", expr="1 + x*x", dim=1))
    return make_chart(chart_id, eta=make_eta("expr", expr="0.3*sin(x)*y", dim=2),
                      tensor=make_tensor("expr", expr="1 + 0.2*y; 0.1*x; 1.5", dim=2))


@pytest.mark.parametrize("chart_id", sorted(CHARTS))
def test_constants_independent_of_block_size(monkeypatch, chart_id):
    # the expression fields run the weight's operator and tr(nabla T) on blocks
    chart = _expression_fields_chart(chart_id)
    resolution = 12 if chart.dim_n == 2 else 50
    points = len(chart.domain.sample_grid(resolution))
    points_per_block = 7
    assert points > 5 * points_per_block and points % points_per_block
    calls = []
    block_extremes = geometry._block_extremes
    monkeypatch.setattr(geometry, "_block_extremes",
                        lambda chart, pts: calls.append(len(pts)) or block_extremes(chart, pts))
    results = []
    # many blocks with a ragged last one, then one
    for block_bytes in (points_per_block * geometry._constants_point_bytes(chart), 1 << 40):
        monkeypatch.setattr(assembly, "BLOCK_BYTES", block_bytes)
        results.append(compute_constants(chart, resolution).as_dict())
    assert calls == [points_per_block] * (points // points_per_block) + [
        points % points_per_block, points]
    assert results[0] == results[1]


def test_constants_tensor_error_after_every_block(monkeypatch):
    # indefinite where x > 0.7 only: the first bad sample, (0.75, 0.0) at 54
    # of the 81 grid points, lies many 7-point blocks in
    chart = make_chart("flat_rectangle", tensor=make_tensor("expr", expr="1; 0; 0.7 - x", dim=2))
    point_bytes = geometry._constants_point_bytes(chart)
    for points_per_block in (7, 81):
        monkeypatch.setattr(assembly, "BLOCK_BYTES", points_per_block * point_bytes)
        with pytest.raises(TensorError, match=r"definite at sample \(0\.75, 0\.0\)$"):
            compute_constants(chart, 8)
    # T is indefinite from the first sample on, and the weight is not finite
    # where x > 0.7: the field error of a later block comes first
    chart = make_chart("flat_rectangle", eta=make_eta("expr", expr="sqrt(0.7 - x)", dim=2),
                       tensor=make_tensor("expr", expr="1; 0; x - 0.3", dim=2))
    for points_per_block in (7, 81):
        monkeypatch.setattr(assembly, "BLOCK_BYTES", points_per_block * point_bytes)
        with pytest.raises(EvaluationError):
            compute_constants(chart, 8)


def test_constants_peak_memory_bounded_by_block_budget():
    # the per-point fields live one block of sample points at a time, so what
    # stays is the budget plus at most 32 B a sample or quadrature point: the
    # grid, the quadrature points and weights, and one value per point
    chart = make_chart("stereographic_sphere", (1.0,))
    resolution = 256
    points = (len(chart.domain.sample_grid(resolution))
              + len(chart.domain.quadrature(resolution)[1]))
    tracemalloc.start()
    try:
        compute_constants(chart, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= assembly.BLOCK_BYTES + 32 * points
    # one block stays within its per-point count, for the metric tensor,
    # a diagonal tensor, expression fields and a curve
    for chart in (make_chart("stereographic_sphere", (1.0,), eta=make_eta("radial_quadratic", (0.2,))),
                  make_chart("flat_rectangle", tensor=make_tensor("diag", (1.0, 2.0))),
                  _expression_fields_chart("cylinder"), _expression_fields_chart("flat_interval")):
        point_bytes = geometry._constants_point_bytes(chart)
        count = assembly.BLOCK_BYTES // point_bytes
        pts = chart.domain.sample_grid(80 if chart.dim_n == 2 else 4 * count)[:count]
        assert len(pts) == count
        geometry._block_extremes(chart, pts[:10])  # contract's plans are built once, apart
        tracemalloc.start()
        try:
            geometry._block_extremes(chart, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * point_bytes


def test_low_resolution_rejected():
    with pytest.raises(ParameterError):
        compute_constants(make_chart("flat_rectangle"), 4)


def test_unit_ball_volumes():
    assert omega_n(1) == pytest.approx(2.0, rel=1e-15)
    assert omega_n(2) == pytest.approx(math.pi, rel=1e-15)
    assert omega_n(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)


def test_ambient_coordinate_field_consistency():
    chart = make_chart("stereographic_sphere", (1.0,))
    field = AmbientCoordinate(chart, 2)
    pts = RNG.uniform(-0.5, 0.5, (6, 2))
    # finite differences of the value must match the analytic gradient
    step = 1e-6
    for axis in range(2):
        shift = np.zeros((6, 2))
        shift[:, axis] = step
        fd = (field.value(pts + shift) - field.value(pts - shift)) / (2 * step)
        assert np.allclose(fd, field.gradient(pts)[:, axis], atol=1e-8)


def test_expression_weight_gradient_matches_compiled_value():
    field = ExpressionWeight("sin(2*x)*y", 2)
    fn = compile_expression("sin(2*x)*y", 2)
    pts = RNG.uniform(0.1, 0.9, (8, 2))
    grad = field.gradient(pts)
    expected_x = 2 * np.cos(2 * pts[:, 0]) * pts[:, 1]
    expected_y = np.sin(2 * pts[:, 0])
    assert np.allclose(grad[:, 0], expected_x, atol=1e-7)
    assert np.allclose(grad[:, 1], expected_y, atol=1e-7)
    assert np.allclose(field.value(pts), fn(pts))


def test_chart_table_dimension_matches_immersion():
    for chart_id, entry in CHARTS.items():
        chart = make_chart(chart_id)
        assert chart.dim_n == entry.dim == chart.domain.dim


@pytest.mark.parametrize("build", [
    lambda: make_chart("cylinder", (1.0, 2.0)),
    lambda: make_eta("zero", (1.0,)),
    lambda: make_eta("linear", (1.0,), dim=2),
    lambda: make_eta("radial_quadratic", (), dim=2),
    lambda: make_eta("radial_quadratic", (1.0, 0.0), dim=2),
    lambda: make_tensor("metric", (1.0,)),
    lambda: make_tensor("diag", (1.0, 1.0, 1.0), dim=2),
    lambda: Disk((0.0, 0.0, 0.0)),
])
def test_wrong_parameter_count_rejected(build):
    with pytest.raises(ParameterError):
        build()


# every spec passed to contract in src/, with the kind of each label after
# the batch label: n intrinsic, m ambient, c codimension m - n, q quadrature
# points and v nodes per cell (n + 1 each)
CONTRACT_SPECS = {
    "pai,paj->pij": "mnn",
    "pia,pab,pbj->pij": "nnnn",
    "pka,paij->pkij": "cmnn",
    "pk,pka->pa": "cm",
    "pia,pjb,pkij,pkab->pk": "nnnnc",
    "pij,pj->pi": "nn",
    "pij,pi,pj->p": "nn",
    "pkl,pijl->pkij": "nnnn",
    "pkl,pjil->pkij": "nnnn",
    "pkl,plij->pkij": "nnnn",
    "plij,plk->pijk": "nnnn",
    "plik,pjl->pijk": "nnnn",
    "pij,pijk,pkb->pb": "nnnn",
    "pab,pa,pb->p": "nn",
    "pia,pab->pib": "nnn",
    "pjb,pba->pja": "nnn",
    "pi,pi->p": "n",
    "cq,cqij->cij": "qnn",
    "cai,cij,cbj->cab": "vnnv",
    "cq,cqa,cqb->cab": "qvv",
    "cqi,cai->cqa": "qnv",
    "pa,pab,pbj->pj": "nnn",
    "pai,pi->pa": "mn",
    "pii->p": "n",
    "pij,pji->p": "nn",
    "pij,pkij->pk": "nnc",
    "pk,pk->p": "m",
    "paj,pbj->pab": "mnm",
}
SRC = Path(__file__).resolve().parent.parent / "src" / "spectralab"


def _random_operands(spec, kinds, n, m, rng):
    inputs = spec.split("->")[0].split(",")
    labels = dict.fromkeys(c for c in "".join(inputs) if c != spec[0])
    size = {"n": n, "m": m, "c": m - n, "q": n + 1, "v": n + 1}
    sizes = {spec[0]: 40, **{c: size[kind] for c, kind in zip(labels, kinds, strict=True)}}
    operands = []
    for labels_of in inputs:
        op = rng.standard_normal([sizes[c] for c in labels_of])
        draw = rng.random(op.shape)
        op[draw < 0.05] = 0.0
        op[draw > 0.95] = -0.0
        operands.append(op)
    return operands


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4)])
@pytest.mark.parametrize("spec", sorted(CONTRACT_SPECS))
def test_contract_is_einsum_bit_for_bit(spec, n, m):
    # despite the name, a roundoff comparison: contract may sum in another
    # order than np.einsum, so each entry agrees to 1e-14 of the sum of its
    # terms' magnitudes (a few ulps for these sums of at most 16 terms)
    rng = np.random.default_rng(sum(map(ord, spec)) + 10 * n + m)
    operands = _random_operands(spec, CONTRACT_SPECS[spec], n, m, rng)
    expected = np.einsum(spec, *operands)
    got = contract(spec, *operands)
    assert got.shape == expected.shape
    magnitude = np.einsum(spec, *map(np.abs, operands))
    assert np.all(np.abs(got - expected) <= 1e-14 * magnitude)


def test_source_contractions_are_covered():
    text = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    contracted = set(re.findall(r'contract\(\s*"([^"]+)"', text))
    assert contracted, "no contract call found"
    assert contracted <= set(CONTRACT_SPECS), contracted - set(CONTRACT_SPECS)
    assert "np.einsum" not in text  # contract is the one contraction path


def test_source_has_one_factorization():
    text = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    # eigensolve._factor serves the shift and the inertia count
    assert text.count("spla.splu") == 1


@pytest.mark.parametrize("name", ["hemisphere", "square_diag_tensor"])
def test_assembly_matches_einsum_reference_bit_for_bit(name):
    scenario = load_scenario(str(SRC.parent.parent / "scenarios" / f"{name}.cfg"))
    chart = build_chart(scenario)
    mesh = build_structured(chart.domain, 12)
    a_mat, b_mat, _ = assemble(chart, mesh)
    a_ref, b_ref = reference_assemble(chart, mesh)
    for got, ref in ((a_mat, a_ref), (b_mat, b_ref)):
        assert np.array_equal(got.rows, ref.rows) and np.array_equal(got.cols, ref.cols)
        assert np.array_equal(got.vals, ref.vals)
