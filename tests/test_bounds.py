import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NESTED_WEIGHT,
    CallableImmersion,
    QuadratureFields,
    diag_tensor,
    flat_square_in_r3,
    pipeline,
    quadrature_context,
    radial_eta,
    reference_proposition_integrals,
    reference_tensor_integrals,
    solve_chart,
)
from spectralab import assembly, geometry
from spectralab.bounds import (
    Spectrum,
    check_cheng_yang_type,
    check_corollary_trio,
    check_polya_type,
    check_thm_drift,
    check_thm_tensor,
    intro_comparators,
    lemma_c_bound,
    proposition_reports,
    recursion_constant,
    recursion_lemma,
    shift_constant,
    upsilon_shift,
    weyl_constant,
    weyl_fit,
)
from spectralab.errors import ParameterError, ShiftPositivityError
from spectralab.geometry import (
    Chart,
    Disk,
    GeometricConstants,
    StereographicSphere,
    compute_constants,
    make_chart,
    make_eta,
    make_tensor,
)
from spectralab.meshing import build_structured
from spectralab.reference import (
    hemisphere_spectrum,
    interval_spectrum,
    rectangle_spectrum,
    square_diagonal_spectrum,
)

PI2 = math.pi ** 2
PI4 = math.pi ** 4


def zero_consts(n=2, m=2, **overrides):
    fields = dict(eta0=0.0, eta_bar0=0.0, h0=0.0, a0=0.0, t_star=math.sqrt(n),
                  t0=0.0, tr_t_inf=float(n), tr_t_sup=float(n), vol_omega=1.0,
                  dim_n=n, dim_m=m, sample_resolution=8)
    fields.update(overrides)
    return GeometricConstants(**fields)


def square(count=40):
    return Spectrum(rectangle_spectrum(count), 2, "closed_form")


def interval(count=20):
    return Spectrum(interval_spectrum(count), 1, "closed_form")


# ---------------------------------------------------------------------------
# upsilon shift
# ---------------------------------------------------------------------------

def test_shift_zero_constants_is_identity():
    spec = square()
    shifted = upsilon_shift(spec, zero_consts())
    assert np.array_equal(shifted.values, spec.values)


def test_shift_drift_interval_recovers_interval_spectrum():
    # eta = 2 xi: constants (eta0, eta_bar0) = (2, -4), flat so H0 = 0; the
    # shift is (0 + 4 - 8)/4 = -1 and maps 1 + k^2 pi^2 onto k^2 pi^2
    consts = zero_consts(n=1, m=1, t_star=1.0, tr_t_inf=1.0, tr_t_sup=1.0,
                         eta0=2.0, eta_bar0=-4.0)
    assert shift_constant(consts) == -1.0
    raw = Spectrum(1.0 + interval_spectrum(6), 1, "closed_form")
    shifted = upsilon_shift(raw, consts)
    assert np.allclose(shifted.values, interval_spectrum(6), rtol=1e-15)


def test_shift_hemisphere_is_plus_one():
    consts = zero_consts(m=3, h0=1.0, t_star=math.sqrt(2), vol_omega=2 * math.pi)
    assert shift_constant(consts) == 1.0


def test_shift_positivity_error():
    consts = zero_consts(eta_bar0=-50.0)
    with pytest.raises(ShiftPositivityError):
        upsilon_shift(square(5), consts)


# ---------------------------------------------------------------------------
# drifting-Laplacian gap bound
# ---------------------------------------------------------------------------

def test_thm_drift_square_k3_closed_form():
    # lambda/pi^2 = 2, 5, 5, 8: lhs = (6^2+3^2+3^2) pi^4, rhs = 2(6*2+3*5+3*5) pi^4
    report = check_thm_drift(square(4), zero_consts(), 3)
    assert report.lhs == pytest.approx(54 * PI4, rel=1e-12)
    assert report.rhs == pytest.approx(84 * PI4, rel=1e-12)
    assert report.holds


def test_thm_drift_degenerate_gap():
    spec = Spectrum([3.0, 3.0, 7.0], 2, "synthetic")
    report = check_thm_drift(spec, zero_consts(), 1)
    assert report.lhs == 0.0 and report.holds


def test_thm_drift_equals_yang_form_on_shifted_sequence():
    # algebraic identity: gaps are shift invariant
    consts = zero_consts(m=3, h0=1.0, eta0=0.3, eta_bar0=-0.1)
    raw = Spectrum(hemisphere_spectrum(12), 2, "closed_form")
    shifted = upsilon_shift(raw, consts)
    for k in range(1, 11):
        drift = check_thm_drift(raw, consts, k)
        v = shifted.values
        gaps = v[k] - v[:k]
        yang_lhs = float((gaps ** 2).sum())
        yang_rhs = float(2.0 * (gaps * v[:k]).sum())
        assert drift.lhs == pytest.approx(yang_lhs, rel=1e-12)
        assert drift.rhs == pytest.approx(yang_rhs, rel=1e-12)


def test_thm_drift_k_out_of_range():
    with pytest.raises(ParameterError):
        check_thm_drift(square(4), zero_consts(), 4)


# ---------------------------------------------------------------------------
# tensor gap bound
# ---------------------------------------------------------------------------

def test_thm_tensor_inf_trace_reduces_to_yang_on_flat_square():
    # T = g on the flat square: A0 = T0 = eta0 = 0, trT = 2, so the bound
    # reads 2 sum L^2 <= 4 sum L lambda (the first Yang form)
    spec = square(12)
    for k in range(1, 11):
        report = check_thm_tensor(spec, zero_consts(), k, mode="inf_trace")
        lam = spec.values
        gaps = lam[k] - lam[:k]
        assert report.lhs == pytest.approx(2 * (gaps ** 2).sum(), rel=1e-12)
        assert report.rhs == pytest.approx(4 * (gaps * lam[:k]).sum(), rel=1e-12)
        assert report.holds


def test_thm_tensor_degenerate_gap():
    spec = Spectrum([3.0, 3.0], 2, "synthetic")
    report = check_thm_tensor(spec, zero_consts(), 1)
    assert report.lhs == 0.0 and report.holds


def test_thm_tensor_integrated_requires_quadrature():
    with pytest.raises(ParameterError):
        check_thm_tensor(square(4), zero_consts(), 2, mode="integrated")


def test_thm_tensor_hemisphere_full_pipeline():
    chart, mesh, _, result = pipeline("stereographic_sphere", (1.0,),
                                      resolution=16, k=7)
    consts = compute_constants(chart, 32)
    spec = Spectrum(result.eigenvalues, 2, "computed")
    report = check_thm_tensor(spec, consts, 5, mode="inf_trace")
    assert report.holds
    assert consts.a0 == pytest.approx(math.sqrt(2), abs=1e-6)
    quad = quadrature_context(chart, mesh, result)
    integrated = check_thm_tensor(spec, consts, 5, mode="integrated", quad=quad)
    assert integrated.holds
    # the integral form is sharper than the constant-suprema form
    assert integrated.rhs <= report.rhs * (1 + 1e-9)


# ---------------------------------------------------------------------------
# corollary trio
# ---------------------------------------------------------------------------

def test_trio_interval_k1_closed_form():
    trio = check_corollary_trio(interval(3), 1)
    assert trio[0].lhs == pytest.approx(4 * PI2, rel=1e-12)
    assert trio[0].rhs == pytest.approx(5 * PI2, rel=1e-12)
    assert all(r.holds for r in trio)


def test_trio_constant_sequence_gap_zero():
    spec = Spectrum([2.0, 2.0, 2.0, 2.0], 2, "synthetic")
    trio = check_corollary_trio(spec, 2)
    assert trio[2].lhs == 0.0
    assert all(r.holds for r in trio)


def test_trio_square_k5_all_hold():
    trio = check_corollary_trio(square(10), 5)
    assert all(r.holds for r in trio)
    # lambda_5 = lambda_6 = 10 pi^2, so the gap ratio is exactly zero
    assert all(0 <= r.ratio <= 1 for r in trio if r.rhs > 0)


def test_trio_negative_discriminant_reported_not_failed():
    spec = Spectrum([1.0, 9.0, 10.0], 2, "synthetic")  # violates the Yang form
    trio = check_corollary_trio(spec, 2)
    assert trio[1].skipped and trio[2].skipped
    assert "discriminant" in trio[1].note


# ---------------------------------------------------------------------------
# mean lower bound / growth bound
# ---------------------------------------------------------------------------

def test_polya_square_k1():
    report = check_polya_type(square(2), 2, 1.0, 1)
    assert report.lhs == pytest.approx((2 / math.sqrt(24)) * 4 * math.pi, rel=1e-12)
    assert report.rhs == pytest.approx(2 * PI2, rel=1e-12)
    assert report.holds


def test_polya_interval_k1():
    report = check_polya_type(interval(2), 1, 1.0, 1)
    assert report.lhs == pytest.approx(PI2 / math.sqrt(15), rel=1e-12)
    assert report.holds


def test_polya_square_k100():
    report = check_polya_type(square(120), 2, 1.0, 100)
    assert report.holds


def test_cheng_yang_interval_k1():
    report = check_cheng_yang_type(interval(3), 1, 1)
    assert report.lhs == pytest.approx(4 * PI2, rel=1e-12)
    assert report.rhs == pytest.approx(5 * PI2, rel=1e-12)
    assert report.holds


def test_cheng_yang_tie_holds_strictly():
    spec = Spectrum([2.0, 2.0], 2, "synthetic")
    assert check_cheng_yang_type(spec, 2, 1).holds


def test_cheng_yang_square_k24():
    # enumeration gives lambda_25 = 40 pi^2 (values 2,5,5,8,... sorted)
    spec = square(30)
    report = check_cheng_yang_type(spec, 2, 24)
    assert report.lhs == pytest.approx(40 * PI2, rel=1e-12)
    assert report.rhs == pytest.approx(3 * 24 * 2 * PI2, rel=1e-12)
    assert report.holds


# ---------------------------------------------------------------------------
# appendix recursion machinery
# ---------------------------------------------------------------------------

def test_recursion_constant_exact_value():
    assert recursion_constant(2, 1, 1) == 0.96875


def test_recursion_constant_in_unit_interval():
    for n in (1, 2, 3):
        for c in (1, 2):
            for k in range(1, 51):
                assert 0.0 < recursion_constant(n, k, c) < 1.0


def test_recursion_constant_sequence():
    spec = Spectrum(np.ones(5), 2, "synthetic")
    report = recursion_lemma(spec, 2, 1.0, 2)
    # constant sequence: hypothesis holds with equality, F_k = 2c/n = 1, so
    # rhs = C(2, 2, 1) ((k+1)/k)^(4c/n) F_k
    assert report.rhs == pytest.approx(recursion_constant(2, 2, 1.0) * 1.5 ** 2, rel=1e-15)
    assert not report.skipped and report.holds


def test_recursion_square_spectrum_k20():
    spec = square(30)
    for k in range(1, 21):
        report = recursion_lemma(spec, 2, 1.0, k)
        assert not report.skipped
        assert report.holds
        assert report.rhs > 0
        assert 0 < recursion_constant(2, k, 1.0) < 1


def test_recursion_hypothesis_failure_is_not_applicable():
    spec = Spectrum([1.0, 9.0, 100.0], 2, "synthetic")
    report = recursion_lemma(spec, 2, 1.0, 2)
    assert report.skipped and "not applicable" in report.note


def test_lemma_c_bound_specializes_to_cheng_yang():
    spec = square(15)
    for k in range(1, 11):
        general = lemma_c_bound(spec, 2, 1.0, k)
        special = check_cheng_yang_type(spec, 2, k)
        assert general.holds == special.holds
        assert general.lhs == special.lhs
        assert general.rhs == pytest.approx(special.rhs, rel=1e-15)


def test_lemma_c_bound_two_term_sequence():
    # eta = (1, 2), c = 2, n = 2: hypothesis 1 <= 4, bound 2 <= 5
    spec = Spectrum([1.0, 2.0], 2, "synthetic")
    report = lemma_c_bound(spec, 2, 2.0, 1)
    assert not report.skipped
    assert report.lhs == 2.0 and report.rhs == 5.0 and report.holds


def test_lemma_c_bound_interval_k3():
    report = lemma_c_bound(interval(5), 1, 1.0, 3)
    assert report.lhs == pytest.approx(16 * PI2, rel=1e-12)
    assert report.rhs == pytest.approx(45 * PI2, rel=1e-12)
    assert report.holds


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------

def test_comparators_square_k3_yang_ratio():
    reports = {r.name: r for r in intro_comparators(square(6), 2, 3)}
    yang = reports["yang_first"]
    assert yang.lhs == pytest.approx(54 * PI4, rel=1e-12)
    assert yang.rhs == pytest.approx(84 * PI4, rel=1e-12)
    assert yang.ratio == pytest.approx(54 / 84, rel=1e-12)


def test_comparators_interval_ppw():
    reports = {r.name: r for r in intro_comparators(interval(4), 1, 1)}
    ppw = reports["ppw"]
    assert ppw.lhs == pytest.approx(3 * PI2, rel=1e-12)
    assert ppw.rhs == pytest.approx(4 * PI2, rel=1e-12)
    assert ppw.holds


def test_comparators_constant_sequence():
    spec = Spectrum([5.0] * 6, 2, "synthetic")
    reports = {r.name: r for r in intro_comparators(spec, 2, 3)}
    hile_protter = reports["hile_protter"]
    assert not hile_protter.skipped and hile_protter.holds
    assert hile_protter.rhs == math.inf and hile_protter.ratio == 0.0
    for name in ("ppw", "yang_first", "yang_gap"):
        assert reports[name].lhs == 0.0 and reports[name].holds


@pytest.mark.parametrize("consts", [None, "shifted"])
def test_comparators_same_verdicts_at_a_tie_and_one_ulp_apart(consts):
    # a tie decided by roundoff must not decide whether a row is evaluated
    values = np.array([2.0, 5.0, 5.0, 8.0, 8.0, 13.0])
    split = values.copy()
    split[[2, 4]] = np.nextafter(split[[2, 4]], np.inf)
    if consts is not None:
        consts = zero_consts(vol_omega=1.0)
    for k in range(1, 5):
        tied, apart = (intro_comparators(Spectrum(v, 2, "synthetic"), 2, k, consts=consts)
                       for v in (values, split))
        assert [(r.name, r.skipped, r.holds) for r in tied] == \
            [(r.name, r.skipped, r.holds) for r in apart], k


def test_comparators_all_hold_on_closed_forms():
    cases = [
        (square(20), 2, zero_consts(vol_omega=1.0)),
        (interval(20), 1, zero_consts(n=1, m=1, t_star=1.0, tr_t_inf=1.0,
                                      tr_t_sup=1.0, vol_omega=1.0)),
        (Spectrum(hemisphere_spectrum(20), 2, "closed_form"), 2,
         zero_consts(m=3, h0=1.0, vol_omega=2 * math.pi)),
    ]
    for spec, n, consts in cases:
        for k in range(1, 13):
            for report in intro_comparators(spec, n, k, consts=consts):
                assert report.skipped or report.holds, (report.name, k)


def test_comparators_without_constants_skip_li_yau():
    reports = {r.name: r for r in intro_comparators(square(5), 2, 2)}
    assert reports["li_yau"].skipped


# ---------------------------------------------------------------------------
# test-function inequality on the computed square
# ---------------------------------------------------------------------------

def test_proposition_square_first_coordinate():
    chart, mesh, _, result = pipeline("flat_rectangle", resolution=24, k=5)
    quad = quadrature_context(chart, mesh, result)
    report = proposition_reports(quad, result.eigenvalues, 0, [3])[0]
    assert report.holds and report.name == "proposition_testfunction(h=x1)"
    # with |grad h| = 1 the weight integrals reproduce the normalization
    fields = QuadratureFields(chart, mesh)
    weights = [fields.integrate(fields.values(result.vertex_values[i]) ** 2) for i in range(3)]
    assert np.allclose(weights, 1.0, atol=1e-6)


def test_proposition_constant_test_function_degenerate():
    # the square in R^3 with a constant third coordinate: h = x3 is constant
    chart = flat_square_in_r3()
    mesh, _, result = solve_chart(chart, 8, 3)
    quad = quadrature_context(chart, mesh, result)
    report = proposition_reports(quad, result.eigenvalues, 2, [2])[0]
    assert report.lhs == 0.0 and report.holds
    assert "degenerate" in report.note
    assert report.name == "proposition_testfunction(h=x3)"
    assert "degenerate" not in proposition_reports(quad, result.eigenvalues, 0, [2])[0].note


def test_proposition_reports_match_single_calls():
    chart, mesh, _, result = pipeline("flat_rectangle", resolution=12, k=5)
    quad = quadrature_context(chart, mesh, result)
    multi = proposition_reports(quad, result.eigenvalues, 1, [1, 3])
    single = proposition_reports(quad, result.eigenvalues, 1, [3])[0]
    assert multi[1].lhs == single.lhs and multi[1].rhs == single.rhs
    with pytest.raises(ParameterError):
        proposition_reports(quad, result.eigenvalues, 2, [1])


# ---------------------------------------------------------------------------
# eigenfunction integrals: per-point operators against the per-eigenfunction
# formulas in helpers
# ---------------------------------------------------------------------------

INTEGRAL_CASES = {
    # 2-node cells, 2-point Gauss
    "flat_interval": dict(chart_id="flat_interval", resolution=24, k=6),
    "diag_tensor_square": dict(chart_id="flat_rectangle", resolution=12, k=6,
                               tensor=diag_tensor(1.0, 2.5)),
    # codimension 1: three ambient axes, normal and tangential fields
    "weighted_sphere": dict(chart_id="stereographic_sphere", params=(1.0,), resolution=10,
                            k=6, eta=radial_eta(0.2)),
    "disk_expr_tensor": dict(chart_id="flat_rectangle", resolution=8, k=6,
                             domain=Disk((0.5, 0.5), 0.4),
                             tensor=make_tensor("expr", expr="1 + 0.2*y; 0.1*x; 1.5", dim=2)),
}


def _integral_context(case):
    chart, mesh, _, result = pipeline(**INTEGRAL_CASES[case])
    return chart, result, quadrature_context(chart, mesh, result)


def _assert_columns_close(actual, expected, rel):
    """Each column agrees to ``rel`` times its largest reference entry."""
    actual, expected = np.atleast_2d(actual), np.atleast_2d(expected)
    scale = np.abs(expected).max(axis=0)
    assert np.all(np.abs(actual - expected) <= rel * scale)


@pytest.mark.parametrize("case", sorted(INTEGRAL_CASES))
def test_eigenfunction_integrals_match_per_eigenfunction_reference(case):
    chart, _, quad = _integral_context(case)
    k = quad.vertex_values.shape[0]
    _assert_columns_close(quad.tensor_integrals(k), reference_tensor_integrals(quad, k), 1e-12)
    for axis in range(chart.dim_m):
        weights, rayleigh, _ = quad.proposition_integrals(axis, k)
        ref_weights, ref_rayleigh = reference_proposition_integrals(quad, axis, k)
        _assert_columns_close(np.stack([weights, rayleigh], axis=1),
                              np.stack([ref_weights, ref_rayleigh], axis=1), 1e-12)


def test_eigenfunction_integrals_independent_of_block_size(monkeypatch):
    chart, result, first = _integral_context("weighted_sphere")
    k = result.vertex_values.shape[0]
    point_bytes = geometry.point_bytes(chart, assembly._check_floats(chart, k), 1)
    cell_bytes = first.mesh.cells.shape[1] * point_bytes
    results = []
    # blocks of 7 and 400 cells, each with a ragged last block, then one block
    for cells_per_block in (7, 400, None):
        assert cells_per_block is None or first.mesh.num_cells % cells_per_block
        monkeypatch.setattr(assembly, "BLOCK_BYTES",
                            1 << 40 if cells_per_block is None else cells_per_block * cell_bytes)
        quad = quadrature_context(chart, first.mesh, result)
        results.append([quad.tensor_integrals(k)]
                       + [np.stack(quad.proposition_integrals(a, k)[:2], axis=1)
                          for a in range(chart.dim_m)])
    for blocked in results[:-1]:
        for part, whole in zip(blocked, results[-1]):
            _assert_columns_close(part, whole, 1e-14)


def test_check_integrals_evaluate_jacobian_and_hessian_once_per_block(monkeypatch):
    # codimension 1: a block's fields, second fundamental form, L x and grad h
    # all read one Jacobian and one Hessian evaluation, and tr(nabla T) one
    # set of Christoffel symbols
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    sphere = StereographicSphere(1.0)
    immersion = CallableImmersion(2, 3, sphere.position, counted("jacobian", sphere.jacobian),
                                  counted("hessian", sphere.hessian))
    monkeypatch.setattr(assembly, "_block_integrals", counted("blocks", assembly._block_integrals))
    monkeypatch.setattr(geometry, "christoffel", counted("christoffel", geometry.christoffel))
    cells_per_block = 7
    for tensor in (make_tensor("metric"), make_tensor("diag", (0.5, 1.0))):
        chart = Chart(2, 3, Disk(), immersion, make_eta("zero"), tensor)
        mesh = build_structured(chart.domain, 6)
        values = np.random.default_rng(3).standard_normal((3, mesh.num_vertices))
        monkeypatch.setattr(assembly, "BLOCK_BYTES", cells_per_block * mesh.cells.shape[1]
                            * geometry.point_bytes(chart, assembly._check_floats(chart, 3), 1))
        calls.update(dict.fromkeys(["jacobian", "hessian", "blocks", "christoffel"], 0))
        assembly.EigenfunctionQuadrature(chart, mesh, values)
        assert calls["blocks"] == -(-mesh.num_cells // cells_per_block) > 1
        assert calls["jacobian"] == calls["hessian"] == calls["christoffel"] == calls["blocks"]


def test_check_integrals_peak_memory_bounded_by_block_budget(monkeypatch):
    # fields and operators live one cell block at a time, so what stays is
    # the budget plus the one (V, k) copy of the eigenfunctions
    monkeypatch.setattr(assembly, "BLOCK_BYTES", 1 << 20)
    chart, mesh, _, result = pipeline("stereographic_sphere", params=(1.0,), resolution=32,
                                      k=20, eta=radial_eta(0.2))
    tracemalloc.start()
    try:
        quad = quadrature_context(chart, mesh, result)
        quad.tensor_integrals(20)
        for axis in range(chart.dim_m):
            quad.proposition_integrals(axis, 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < assembly.BLOCK_BYTES + 2 * result.vertex_values.nbytes
    # one block stays within its per-point count, also for a nested
    # expression weight with a diagonal tensor
    values = np.ascontiguousarray(result.vertex_values.T)
    for chart in (chart, make_chart("stereographic_sphere", (1.0,), eta=make_eta(
            "expr", expr=NESTED_WEIGHT), tensor=diag_tensor(0.5, 1.0))):
        point_bytes = geometry.point_bytes(chart, assembly._check_floats(chart, 20), 1)
        cell_bytes = mesh.cells.shape[1] * point_bytes
        cells = assembly.BLOCK_BYTES // cell_bytes
        assembly._block_integrals(chart, mesh, slice(0, 10), values)  # contract's plans, apart
        tracemalloc.start()
        try:
            assembly._block_integrals(chart, mesh, slice(0, cells), values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cells * cell_bytes


def test_integrated_tensor_report_independent_of_call_order():
    _, result, quad = _integral_context("weighted_sphere")
    consts = compute_constants(quad.chart, 16)
    spec = Spectrum(result.eigenvalues, 2, "computed")
    first = check_thm_tensor(spec, consts, 5, mode="integrated", quad=quad)
    quad = quadrature_context(quad.chart, quad.mesh, result)
    for k in range(1, 5):
        check_thm_tensor(spec, consts, k, mode="integrated", quad=quad)
    after = check_thm_tensor(spec, consts, 5, mode="integrated", quad=quad)
    assert (first.lhs, first.rhs, first.holds) == (after.lhs, after.rhs, after.holds)


# ---------------------------------------------------------------------------
# Weyl fit
# ---------------------------------------------------------------------------

def test_weyl_fit_interval_exact():
    fit = weyl_fit(interval(60), 1, 1.0, (1, 60))
    assert fit.target_constant == pytest.approx(PI2, rel=1e-14)
    assert fit.exponent == pytest.approx(2.0, rel=1e-12)
    assert fit.constant == pytest.approx(PI2, rel=1e-10)


def test_weyl_fit_needs_ten_points():
    with pytest.raises(ParameterError):
        weyl_fit(interval(20), 1, 1.0, (1, 9))


def test_weyl_constants():
    assert weyl_constant(1, 1.0) == pytest.approx(PI2, rel=1e-14)
    assert weyl_constant(2, 1.0) == pytest.approx(4 * math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# property sweeps
# ---------------------------------------------------------------------------

@st.composite
def yang_passing_spectra(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(min_value=3, max_value=12))
    scale = draw(st.floats(min_value=0.1, max_value=100.0))
    jitter = draw(st.lists(st.floats(min_value=0.0, max_value=0.4),
                           min_size=count, max_size=count))
    values = scale * np.array([(i + 1 + j) ** (2.0 / n)
                               for i, j in enumerate(jitter)])
    values = np.sort(values)
    return Spectrum(values, n, "synthetic"), n


@given(yang_passing_spectra(), st.data())
@settings(max_examples=200, deadline=None)
def test_yang_form_implies_second_yang(spectrum_n, data):
    spec, n = spectrum_n
    k = data.draw(st.integers(min_value=1, max_value=len(spec) - 1))
    v = spec.values
    gaps = v[k] - v[:k]
    if (gaps ** 2).sum() > (4.0 / n) * (gaps * v[:k]).sum() * (1 + 1e-9):
        return  # hypothesis fails: nothing to assert
    trio = check_corollary_trio(spec, k)
    assert trio[0].holds
    if not trio[1].skipped:
        assert trio[1].holds and trio[2].holds


@given(st.floats(min_value=0.5, max_value=50.0),
       st.integers(min_value=2, max_value=8),
       st.sampled_from([1, 2]))
@settings(max_examples=100, deadline=None)
def test_degenerate_gap_safety(value, count, n):
    # every checker holds when all eigenvalues coincide
    spec = Spectrum([value] * count, n, "synthetic")
    consts = zero_consts(n=n, m=n, t_star=math.sqrt(n), tr_t_inf=n, tr_t_sup=n)
    k = count - 1
    assert check_thm_drift(spec, consts, k).holds
    assert check_thm_tensor(spec, consts, k).holds
    trio = check_corollary_trio(spec, k)
    assert all(r.holds for r in trio)
    assert check_cheng_yang_type(spec, n, k).holds
    rec = recursion_lemma(spec, n, 1.0, k)
    assert rec.holds and not rec.skipped
    assert lemma_c_bound(spec, n, 1.0, k).holds
    for report in intro_comparators(spec, n, k):
        assert report.holds or report.skipped
