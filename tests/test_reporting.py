import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralab import reporting
from spectralab.errors import ConfigError, SpectralabError
from spectralab.geometry import CHARTS
from spectralab.reporting import (
    CHECKS,
    Scenario,
    build_chart,
    catalog_text,
    load_scenario,
    parse_config,
    run_scenario,
)

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scenarios")
PI2 = math.pi ** 2


def test_drift_interval_extrapolates_to_closed_form(tmp_path):
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "drift_interval.cfg"))
    run = run_scenario(scenario, out_dir=str(tmp_path))
    assert run.exit_code == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    last_lambda1 = [row for row in rows if row.startswith("1,2000,")]
    assert len(last_lambda1) == 1
    _, _, value, extrapolated, order = last_lambda1[0].split(",")
    assert float(extrapolated) == pytest.approx(1 + PI2, rel=1e-4)
    assert float(order) == pytest.approx(2.0, abs=0.3)


def test_square_convergence_order(tmp_path):
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "square_baseline.cfg"))
    run = run_scenario(scenario, out_dir=str(tmp_path), checks=False)
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    row = [r for r in rows if r.startswith("1,64,")][0]
    order = float(row.split(",")[4])
    assert order == pytest.approx(2.0, abs=0.3)
    extrapolated = float(row.split(",")[3])
    assert extrapolated == pytest.approx(2 * PI2, rel=2e-4)


def test_hemisphere_convergence_order(tmp_path):
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "hemisphere.cfg"))
    run = run_scenario(scenario, out_dir=str(tmp_path), checks=False)
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    row = [r for r in rows if r.startswith("1,32,")][0]
    assert float(row.split(",")[4]) == pytest.approx(2.0, abs=0.3)


def test_weyl_fit_json_contents(tmp_path):
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "square_baseline.cfg"))
    run_scenario(scenario, out_dir=str(tmp_path), checks=False)
    data = json.loads((tmp_path / "weyl_fit.json").read_text())
    assert data["target_constant"] == pytest.approx(4 * math.pi, rel=1e-12)
    assert data["target_exponent"] == 1.0
    # 13 computed eigenvalues sit far from the asymptotic regime; the fit is
    # reported, not asserted
    assert 0.5 < data["exponent"] < 1.5


def test_eigenvalues_csv_shape(tmp_path):
    scenario = parse_config("""
scenario.name = tiny
chart.id = flat_interval
mesh.resolutions = 8 16
eigen.k_max = 3
checks = thm_drift
constants.resolution = 8
""")
    run = run_scenario(scenario, out_dir=str(tmp_path))
    lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "resolution,k,lambda,residual"
    assert len(lines) == 1 + 2 * 3
    res, k, lam, residual = lines[1].split(",")
    assert (res, k) == ("8", "1")
    assert float(residual) <= 1e-8


def test_constants_json_provenance(tmp_path):
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "hemisphere.cfg"))
    run_scenario(scenario, out_dir=str(tmp_path), checks=False)
    data = json.loads((tmp_path / "constants.json").read_text())
    assert data["h0"] == pytest.approx(1.0, abs=1e-6)
    assert data["sample_resolution"] == 64
    assert data["metadata"]["quadrature_nodes"] == 64
    assert not [key for key in data["metadata"] if key.endswith("_step")]


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(name="x", chart_id="nope", resolutions=(4,))
    with pytest.raises(ConfigError):
        Scenario(name="x", chart_id="flat_interval", resolutions=(4,), k_max=1)
    with pytest.raises(ConfigError):
        Scenario(name="x", chart_id="flat_interval", resolutions=(4,),
                 checks=("unknown_check",))


def test_catalog_lists_all_checks():
    text = catalog_text()
    for name in CHECKS:
        assert name in text


def test_build_chart_from_expression_fields():
    scenario = parse_config("""
scenario.name = expr
chart.id = flat_rectangle
eta.kind = expr
eta.expr = sin(x)*y
tensor.kind = expr
tensor.expr = 1 + x/2; 0; 1 + y/2
mesh.resolutions = 4
eigen.k_max = 3
""")
    chart = build_chart(scenario)
    pts = np.array([[0.5, 0.5]])
    assert chart.eta.value(pts)[0] == pytest.approx(math.sin(0.5) * 0.5)
    g = np.eye(2)[None]
    tensor = chart.tensor.value(pts, g)
    assert tensor[0, 0, 0] == pytest.approx(1.25)
    assert tensor[0, 0, 1] == 0.0


SCENARIO_KEYS = ["chart.params", "domain.kind", "domain.bounds", "domain.center",
                 "domain.radius", "eta.kind", "eta.params", "eta.expr", "tensor.kind",
                 "tensor.params", "tensor.expr", "mesh.resolutions", "eigen.k_max",
                 "checks", "appendix.c", "constants.resolution", "output.dir"]
VALUE_TOKENS = (sorted(CHARTS) + sorted(CHECKS)
                + ["rectangle", "disk", "zero", "linear", "radial_quadratic", "expr",
                   "metric", "diag", "all", "0", "1", "-1", "2", "0.5", "1e400", "nan",
                   "inf", "8", "16", "1o", "x*y", "sin(x", "1/0", "x; 0; 1", ";", "#"])
scenario_values = st.one_of(
    st.lists(st.sampled_from(VALUE_TOKENS), max_size=4).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(chart_id=st.one_of(st.sampled_from(sorted(CHARTS)), scenario_values),
       entries=st.dictionaries(st.sampled_from(SCENARIO_KEYS), scenario_values,
                               max_size=8))
def test_scenario_text_builds_a_chart_or_raises_module_error(chart_id, entries):
    lines = ["scenario.name = fuzz", f"chart.id = {chart_id}"]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    try:
        build_chart(parse_config("\n".join(lines)))
    except SpectralabError:
        pass


MANY_MODES_CONFIG = """
scenario.name = many_modes
chart.id = flat_rectangle
eta.kind = zero
tensor.kind = metric
mesh.resolutions = 16 24
eigen.k_max = 40
checks = all
appendix.c = 1
constants.resolution = 16
"""


def test_checks_see_one_eigenvector_array_of_the_finest_level(monkeypatch):
    # the vertex values replace the reduced rows in the SpectralResult, which
    # the run keeps to its end: at the checks, no k x n array is left beside them
    run_checks, arrays = reporting._run_checks, []

    def counted(scenario, chart, consts, mesh, result):
        interior = mesh.num_vertices - np.count_nonzero(mesh.boundary)
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        arrays.append(sum(trace.size >= scenario.k_max * interior * 8
                          for trace in snapshot.traces))
        return run_checks(scenario, chart, consts, mesh, result)

    monkeypatch.setattr(reporting, "_run_checks", counted)
    tracemalloc.start()
    try:
        run = run_scenario(parse_config(MANY_MODES_CONFIG), write=False)
    finally:
        tracemalloc.stop()
    assert run.exit_code == 0
    assert arrays == [1]
