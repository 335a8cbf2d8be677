"""Acceptance suite: closed-form reproduction and inequality verification.

Each test prints one `[acceptance N] PASS/FAIL` line (run with ``-s`` to see
them all).  Tolerances are pinned here and nowhere else.

Criterion 6 is asserted exactly as specified (growth-law fit of the first
500 square eigenvalues).  The exact enumeration itself shows those
tolerances cannot be met at k = 500: the Dirichlet boundary correction
decays only like k^(-1/2) and still biases every fitted quantity by 6-48%
there.  The companion test below the criterion demonstrates that the same
code meets every tolerance once the asymptotic regime is reached
(k = 50000), so the red assertion documents a defect of the finite-k
tolerance, not of the implementation.
"""

import glob
import json
import math
import os
import time

import numpy as np
import pytest

from helpers import GOLDEN_PATH, golden_mismatches, pipeline, scenario_snapshot
from spectralab.assembly import assemble
from spectralab.bounds import (
    Spectrum,
    check_corollary_trio,
    recursion_constant,
    recursion_lemma,
    upsilon_shift,
    weyl_fit,
)
from spectralab.cli import main as cli_main
from spectralab.eigensolve import solve_dense, solve_sparse
from spectralab.geometry import compute_constants, make_chart, second_form_hs_norm
from spectralab.meshing import build_structured
from spectralab.reference import rectangle_spectrum
from spectralab.reporting import build_chart, load_scenario, run_scenario

PI2 = math.pi ** 2
SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scenarios")


def _line(num, ok, detail):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {detail}")


def _eigenvalues(chart_id, params, resolution, k, eta=None):
    chart, mesh, mats, result = pipeline(chart_id, params, resolution, k, eta=eta)
    return result.eigenvalues


def test_criterion_1_closed_form_spectra():
    start = time.perf_counter()
    lam_interval = _eigenvalues("flat_interval", (), 2000, 1)[0]
    interval_time = time.perf_counter() - start
    interval_ok = abs(lam_interval - PI2) / PI2 <= 1e-4

    start = time.perf_counter()
    lam32 = _eigenvalues("flat_rectangle", (), 32, 1)[0]
    lam64 = _eigenvalues("flat_rectangle", (), 64, 1)[0]
    lam16 = _eigenvalues("flat_rectangle", (), 16, 1)[0]
    square_time = time.perf_counter() - start
    sq32_ok = abs(lam32 - 2 * PI2) / (2 * PI2) <= 5e-3
    sq64_ok = abs(lam64 - 2 * PI2) / (2 * PI2) <= 2e-3

    order = math.log((lam16 - lam32) / (lam32 - lam64)) / math.log(2.0)
    order_ok = abs(order - 2.0) <= 0.3
    time_ok = interval_time <= 60.0 and square_time <= 60.0

    ok = interval_ok and sq32_ok and sq64_ok and order_ok and time_ok
    _line(1, ok, f"interval rel={abs(lam_interval - PI2) / PI2:.2e}, "
                 f"square32 rel={abs(lam32 - 2 * PI2) / (2 * PI2):.2e}, "
                 f"square64 rel={abs(lam64 - 2 * PI2) / (2 * PI2):.2e}, "
                 f"order={order:.3f}, t=({interval_time:.1f}s, {square_time:.1f}s)")
    assert interval_ok and sq32_ok and sq64_ok and order_ok and time_ok


def test_criterion_2_drifting_interval():
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "drift_interval.cfg"))
    chart = build_chart(scenario)
    mesh = build_structured(chart.domain, 2000)
    a_mat, b_mat, _ = assemble(chart, mesh)
    lam = solve_sparse(a_mat, b_mat, 5).eigenvalues
    exact = 1.0 + np.arange(1, 6) ** 2 * PI2
    raw_ok = np.max(np.abs(lam - exact) / exact) <= 1e-3

    consts = compute_constants(chart, 64)
    shifted = upsilon_shift(Spectrum(lam, 1, "computed"), consts)
    target = np.arange(1, 6) ** 2 * PI2
    shift_ok = np.max(np.abs(shifted.values - target) / target) <= 1e-3
    _line(2, raw_ok and shift_ok,
          f"raw rel={np.max(np.abs(lam - exact) / exact):.2e}, "
          f"shifted rel={np.max(np.abs(shifted.values - target) / target):.2e}")
    assert raw_ok and shift_ok


def test_criterion_3_hemisphere():
    lam1 = _eigenvalues("stereographic_sphere", (1.0,), 32, 1)[0]
    lam_ok = abs(lam1 - 2.0) / 2.0 <= 1e-2
    consts = compute_constants(make_chart("stereographic_sphere", (1.0,)), 64)
    h0_ok = abs(consts.h0 - 1.0) <= 1e-6
    vol_ok = abs(consts.vol_omega - 2 * math.pi) <= 1e-3
    _line(3, lam_ok and h0_ok and vol_ok,
          f"lambda1={lam1:.5f}, H0={consts.h0:.9f}, vol={consts.vol_omega:.6f}")
    assert lam_ok and h0_ok and vol_ok


def test_criterion_4_inequality_suite(tmp_path):
    start = time.perf_counter()
    configs = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg")))
    assert len(configs) == 9
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(load_scenario(p).name for p in configs)
    failures = []
    drift = {}
    for path in configs:
        scenario = load_scenario(path)
        run = run_scenario(scenario, out_dir=str(tmp_path / scenario.name))
        if run.exit_code != 0:
            failures.append((scenario.name, run.exit_code, run.messages[:3]))
        mismatches = golden_mismatches(scenario_snapshot(run), golden[scenario.name])
        if mismatches:
            drift[scenario.name] = mismatches[:3]
    verify_codes = {}
    for path in configs:
        name = os.path.basename(path)
        verify_codes[name] = cli_main(["verify", path])
    elapsed = time.perf_counter() - start
    ok = not failures and not drift \
        and all(code == 0 for code in verify_codes.values()) and elapsed <= 600.0
    _line(4, ok, f"{len(configs)} scenarios, verify exits "
                 f"{sorted(set(verify_codes.values()))}, "
                 f"{len(drift)} off the golden outputs, t={elapsed:.0f}s")
    assert not failures, failures
    assert not drift, drift
    assert all(code == 0 for code in verify_codes.values())
    assert elapsed <= 600.0


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    checked = 0
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg"))):
        scenario = load_scenario(path)
        chart = build_chart(scenario)
        for resolution in scenario.resolutions:
            mesh = build_structured(chart.domain, resolution)
            a_mat, b_mat, _ = assemble(chart, mesh)
            if a_mat.dim > 4000:
                continue
            k = min(10, a_mat.dim)
            dense = solve_dense(a_mat, b_mat, k)
            sparse = solve_sparse(a_mat, b_mat, k)
            rel = np.max(np.abs(sparse.eigenvalues - dense.eigenvalues)
                         / (1.0 + dense.eigenvalues))
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-8 and checked >= 20
    _line(5, ok, f"{checked} problems <= 4000 dofs, worst rel dev {worst:.2e}")
    assert ok


def test_criterion_6_weyl_fit_at_k500():
    spec = Spectrum(rectangle_spectrum(500), 2, "closed_form")
    fit = weyl_fit(spec, 2, 1.0, (1, 500))
    w = 4 * math.pi
    const_dev = abs(fit.constant - w) / w
    exp_dev = abs(fit.exponent - 1.0)
    mean_dev = abs(fit.mean_form - fit.mean_form_target) / fit.mean_form_target
    mean_sq_dev = abs(fit.mean_sq_form - fit.mean_sq_form_target) / fit.mean_sq_form_target
    ok = const_dev <= 0.05 and exp_dev <= 0.02 and mean_dev <= 0.05 \
        and mean_sq_dev <= 0.08
    _line(6, ok, f"constant dev={const_dev:.3f} (<=0.05), "
                 f"exponent dev={exp_dev:.3f} (<=0.02), "
                 f"mean dev={mean_dev:.3f} (<=0.05), "
                 f"mean-sq dev={mean_sq_dev:.3f} (<=0.08)")
    assert const_dev <= 0.05, "log-log fit constant biased by the boundary term"
    assert exp_dev <= 0.02, "log-log fit exponent biased by the boundary term"
    assert mean_dev <= 0.05, "mean form at k=500 still carries the 1.5/sqrt(k) correction"
    assert mean_sq_dev <= 0.08, "mean-square form at k=500 still carries 2.7/sqrt(k)"


def test_weyl_limits_converge_at_large_k():
    # companion to criterion 6: the same fit meets every stated tolerance
    # once the boundary correction has decayed (k = 50000, tail fit)
    spec = Spectrum(rectangle_spectrum(50000), 2, "closed_form")
    fit = weyl_fit(spec, 2, 1.0, (12500, 50000))
    w = 4 * math.pi
    assert abs(fit.constant - w) / w <= 0.05
    assert abs(fit.exponent - 1.0) <= 0.02
    assert abs(fit.mean_form - fit.mean_form_target) / fit.mean_form_target <= 0.05
    assert abs(fit.mean_sq_form - fit.mean_sq_form_target) / fit.mean_sq_form_target <= 0.08
    print(f"[acceptance 6 supplement] PASS at k=50000: constant={fit.constant:.4f}, "
          f"exponent={fit.exponent:.4f}, mean={fit.mean_form:.4f}, "
          f"mean_sq={fit.mean_sq_form:.4f}")


def test_criterion_7_appendix_arithmetic():
    exact_ok = recursion_constant(2, 1, 1) == 0.96875
    grid_ok = all(0.0 < recursion_constant(n, k, c) < 1.0
                  for n in (1, 2, 3) for k in range(1, 51) for c in (1, 2))
    spec = Spectrum(rectangle_spectrum(30), 2, "closed_form")
    recursion_ok = True
    for k in range(1, 21):
        report = recursion_lemma(spec, 2, 1.0, k)
        recursion_ok &= (not report.skipped) and report.holds
    ok = exact_ok and grid_ok and recursion_ok
    _line(7, ok, f"C(2,1,1)={recursion_constant(2, 1, 1)!r}, grid ok={grid_ok}, "
                 f"recursion k<=20 ok={recursion_ok}")
    assert ok


def test_criterion_8_isometric_family():
    charts = {theta: make_chart("associate_family", (theta,))
              for theta in (0.0, math.pi / 2)}
    spectra = {}
    for theta, chart in charts.items():
        mesh = build_structured(chart.domain, 24)
        a_mat, b_mat, _ = assemble(chart, mesh)
        spectra[theta] = solve_sparse(a_mat, b_mat, 5).eigenvalues
    rel = np.max(np.abs(spectra[0.0] - spectra[math.pi / 2]) / spectra[0.0])
    eig_ok = rel <= 1e-10

    pts = np.stack([np.linspace(0.2, 2.9, 30), np.linspace(-0.7, 0.7, 30)], axis=-1)
    alpha_dev = np.max(np.abs(second_form_hs_norm(charts[0.0], pts)
                              - second_form_hs_norm(charts[math.pi / 2], pts)))
    alpha_ok = alpha_dev <= 1e-8
    _line(8, eig_ok and alpha_ok,
          f"eigenvalue rel dev={rel:.2e}, |alpha| dev={alpha_dev:.2e}")
    assert eig_ok and alpha_ok


def test_criterion_9_property_sweep():
    rng = np.random.default_rng(20240817)
    accepted = 0
    counterexamples = 0
    attempts = 0
    while accepted < 1000 and attempts < 20000:
        attempts += 1
        n = int(rng.integers(1, 4))
        count = int(rng.integers(3, 14))
        scale = float(rng.uniform(0.1, 50.0))
        jitter = rng.uniform(0.0, 0.5, count)
        values = np.sort(scale * (np.arange(1, count + 1) + jitter) ** (2.0 / n))
        spec = Spectrum(values, n, "synthetic")
        k = int(rng.integers(1, count))
        gaps = values[k] - values[:k]
        if (gaps ** 2).sum() > (4.0 / n) * (gaps * values[:k]).sum() * (1 + 1e-9):
            continue  # Yang-form hypothesis fails: not part of the sweep
        accepted += 1
        trio = check_corollary_trio(spec, k)
        if not trio[0].holds:
            counterexamples += 1
        if not trio[1].skipped and not (trio[1].holds and trio[2].holds):
            counterexamples += 1
    ok = accepted == 1000 and counterexamples == 0
    _line(9, ok, f"{accepted} Yang-form sequences, {counterexamples} counterexamples")
    assert ok
