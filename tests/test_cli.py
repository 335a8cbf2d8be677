import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralab import reporting
from spectralab.assembly import _cell_geometry
from spectralab.cli import main
from spectralab.errors import ConfigError, SpectralabError
from spectralab.expressions import compile_expression
from spectralab.geometry import make_chart
from spectralab.meshing import build_structured
from spectralab.reporting import catalog_text, parse_config, run_scenario

SMALL_CONFIG = """
scenario.name = smoke
chart.id = flat_rectangle
eta.kind = zero
tensor.kind = metric
mesh.resolutions = 4 8 16
eigen.k_max = 6
checks = all
appendix.c = 1
constants.resolution = 16
"""

FAILING_CONFIG = """
# coefficient tensor with trace above 2: the tensor gap bound is violated
scenario.name = failing
chart.id = flat_rectangle
tensor.kind = diag
tensor.params = 2.0 2.0
mesh.resolutions = 8 16
eigen.k_max = 8
checks = thm_tensor
constants.resolution = 16
"""

INDEFINITE_CONFIG = """
scenario.name = indefinite
chart.id = flat_rectangle
tensor.kind = diag
tensor.params = 1.0 -1.0
mesh.resolutions = 8
eigen.k_max = 4
checks = thm_drift
constants.resolution = 16
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_list_is_stable_and_complete(capsys):
    assert main(["list"]) == 0
    first = capsys.readouterr().out
    assert main(["list"]) == 0
    second = capsys.readouterr().out
    assert first == second == catalog_text()
    for name in ("flat_rectangle", "stereographic_sphere", "associate_family"):
        assert name in first
    for name in ("thm_drift", "thm_tensor", "polya_type", "recursion_lemma"):
        assert name in first


def test_run_small_scenario_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "smoke.cfg", SMALL_CONFIG)
    scenario = parse_config(SMALL_CONFIG)
    out = run_scenario(scenario, out_dir=str(tmp_path / "out"))
    assert out.exit_code == 0
    for name in ("eigenvalues.csv", "constants.json", "bounds.csv",
                 "convergence.csv", "weyl_fit.json", "MANIFEST"):
        assert (tmp_path / "out" / name).exists()
    bounds = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
    assert bounds[0] == "name,k,lhs,rhs,ratio,holds,slack"
    assert all(",true," in line for line in bounds[1:])
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "status complete" in manifest


def test_runs_are_byte_identical(tmp_path):
    scenario = parse_config(SMALL_CONFIG)
    run_scenario(scenario, out_dir=str(tmp_path / "a"))
    run_scenario(scenario, out_dir=str(tmp_path / "b"))
    for name in ("eigenvalues.csv", "constants.json", "bounds.csv",
                 "convergence.csv", "weyl_fit.json", "MANIFEST"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_exit_contract_matches_bounds_rows(tmp_path, capsys):
    cfg = _write(tmp_path, "failing.cfg", FAILING_CONFIG)
    env_out = str(tmp_path / "out_failing")
    scenario = parse_config(FAILING_CONFIG)
    run = run_scenario(scenario, out_dir=env_out)
    assert run.exit_code == 1
    rows = (tmp_path / "out_failing" / "bounds.csv").read_text().splitlines()[1:]
    false_rows = [row for row in rows if ",false," in row]
    assert false_rows, "expected at least one violated inequality"


def test_run_cli_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "smoke.cfg", SMALL_CONFIG)
    os.environ["SPECTRA_OUT"] = str(tmp_path / "envout")
    try:
        assert main(["run", good]) == 0
    finally:
        del os.environ["SPECTRA_OUT"]
    capsys.readouterr()
    assert (tmp_path / "envout" / "smoke" / "bounds.csv").exists()

    bad = _write(tmp_path, "failing.cfg", FAILING_CONFIG)
    os.environ["SPECTRA_OUT"] = str(tmp_path / "envout")
    try:
        assert main(["run", bad]) == 1
    finally:
        del os.environ["SPECTRA_OUT"]
    capsys.readouterr()


def test_module_error_gives_exit_two_and_manifest(tmp_path, capsys):
    scenario = parse_config(INDEFINITE_CONFIG)
    run = run_scenario(scenario, out_dir=str(tmp_path / "out"))
    assert run.exit_code == 2
    assert any("TensorError" in m for m in run.messages)
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "status incomplete" in manifest
    assert "TensorError" in manifest


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("name,exc", [
    ("compute_constants", np.linalg.LinAlgError("Singular matrix")),
    ("_solve_level", ValueError("array must not contain infs or NaNs")),
])
def test_unexpected_exception_gives_exit_two_and_manifest(tmp_path, capsys, monkeypatch,
                                                          name, exc):
    monkeypatch.setattr(reporting, name, _raise(exc))
    monkeypatch.setenv("SPECTRA_OUT", str(tmp_path / "out"))
    assert main(["run", _write(tmp_path, "smoke.cfg", SMALL_CONFIG)]) == 2
    err = capsys.readouterr().err
    message = f"{type(exc).__name__}: {exc}"
    assert "Traceback" not in err and message in err
    manifest = (tmp_path / "out" / "smoke" / "MANIFEST").read_text().splitlines()
    assert "status incomplete" in manifest
    assert f"error {message}" in manifest


def _override(text, lines):
    """``text`` with each ``key = value`` line of ``lines`` in place of that key's
    line, or appended where ``text`` has no such key."""
    new = dict(line.split(" = ", 1) for line in lines.splitlines())
    kept = [line for line in text.splitlines() if line.split(" = ")[0] not in new]
    return "\n".join(kept + [f"{key} = {value}" for key, value in new.items()]) + "\n"


MAGNITUDE_CONFIG = _override(SMALL_CONFIG, "mesh.resolutions = 4 8\neigen.k_max = 5")


@pytest.mark.parametrize("lines,error", [
    ("eta.kind = expr\neta.expr = -1e3 + x", "overflow encountered in exp in the solve stage"),
    ("chart.id = cylinder\nchart.params = 1e-300",
     "overflow encountered in multiply in the constants stage"),
    ("eta.kind = linear\neta.params = 1e200 0",
     "overflow encountered in multiply in the constants stage"),
    ("tensor.kind = diag\ntensor.params = 1e300 1e300",
     "overflow encountered in multiply in the constants stage"),
    # SPD, but its determinant overflows
    ("tensor.kind = diag\ntensor.params = 1e200 1",
     "overflow encountered in square in the constants stage"),
    # math's OverflowError of h_max ** 2 in the test-function checks
    ("domain.kind = rectangle\ndomain.bounds = 0 1e200 0 1",
     "(34, 'Numerical result out of range') in the checks stage"),
    ("domain.kind = disk\ndomain.radius = 1e200",
     "overflow encountered in multiply in the constants stage"),
    # A^-1 B past the float range, in SuperLU's solves, which raise no error of their
    # own (the res-4 interval has 3 dofs)
    ("chart.id = flat_interval\ndomain.kind = rectangle\ndomain.bounds = 10 1e281\n"
     "eigen.k_max = 2",
     "non-finite value in the shift-invert solves in the solve stage"),
], ids=["eta_expr_exp", "cylinder_radius_1e-300", "linear_1e200", "diag_1e300",
        "diag_1e200_1", "rectangle_1e200", "disk_radius_1e200", "interval_1e281"])
def test_overflowing_weight_exits_two_with_one_line(tmp_path, capsys, monkeypatch, lines, error):
    # numbers past the float range: one error naming the stage, not numpy warnings
    monkeypatch.setenv("SPECTRA_OUT", str(tmp_path / "out"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", _write(tmp_path, "smoke.cfg", _override(MAGNITUDE_CONFIG, lines))]) == 2
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert err == [f"EvaluationError: {error}"]
    manifest = (tmp_path / "out" / "smoke" / "MANIFEST").read_text().splitlines()
    assert manifest[-1] == f"error EvaluationError: {error}"


def test_weight_without_a_derivative_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # sqrt(x) has no derivative at x = 0, on the constants grid: an error,
    # not numpy warnings
    text = SMALL_CONFIG.replace("eta.kind = zero", "eta.kind = expr\neta.expr = sqrt(x)")
    monkeypatch.setenv("SPECTRA_OUT", str(tmp_path / "out"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", _write(tmp_path, "smoke.cfg", text)]) == 2
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert err == ["EvaluationError: expression 'sqrt(x)' produced non-finite first derivatives"]


def test_verify_writes_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, "smoke.cfg", SMALL_CONFIG)
    workdir = tmp_path / "verify_out"
    os.environ["SPECTRA_OUT"] = str(workdir)
    try:
        assert main(["verify", cfg]) == 0
    finally:
        del os.environ["SPECTRA_OUT"]
    out = capsys.readouterr().out
    assert "smoke: ok" in out
    assert not workdir.exists()


def test_convergence_verb_skips_bounds(tmp_path, capsys):
    cfg = _write(tmp_path, "smoke.cfg", SMALL_CONFIG)
    os.environ["SPECTRA_OUT"] = str(tmp_path / "conv")
    try:
        assert main(["convergence", cfg]) == 0
    finally:
        del os.environ["SPECTRA_OUT"]
    out_dir = tmp_path / "conv" / "smoke"
    assert (out_dir / "convergence.csv").exists()
    assert (out_dir / "eigenvalues.csv").exists()
    assert not (out_dir / "bounds.csv").exists()


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(SMALL_CONFIG + "\nbogus.key = 1\n")


def test_descending_resolutions_rejected():
    bad = SMALL_CONFIG.replace("4 8 16", "16 8")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_missing_config_file_exit_two(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 2


@pytest.mark.parametrize("key,bad", [
    ("mesh.resolutions", "4 8 1o"),   # ints
    ("appendix.c", "1 2,5"),          # floats
    ("eigen.k_max", ""),              # scalars: exactly one value
    ("eigen.k_max", "3 4"),
    ("constants.resolution", ""),
    ("domain.radius", ""),
    ("appendix.c", "nan"),            # non-finite floats
    ("appendix.c", "inf"),
    ("domain.bounds", "0 inf 0 1"),
    # an int past the float range
    pytest.param("constants.resolution", "1" + "0" * 400, id="constants.resolution-1e400"),
])
def test_malformed_number_exits_two_without_traceback(tmp_path, key, bad):
    base = SMALL_CONFIG + {
        "domain.radius": "domain.kind = disk\ndomain.radius = 1\n",
        "domain.bounds": "domain.kind = rectangle\ndomain.bounds = 0 1 0 1\n",
    }.get(key, "")
    text = "\n".join(f"{key} = {bad}" if line.startswith(f"{key} =") else line
                     for line in base.splitlines())
    assert f"{key} = {bad}" in text
    cfg = _write(tmp_path, "bad.cfg", text)
    result = subprocess.run(
        [sys.executable, "-m", "spectralab", "run", cfg],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src", "SPECTRA_OUT": str(tmp_path / "out")},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lineno = text.splitlines().index(f"{key} = {bad}") + 1
    assert result.stderr.startswith(f"error: line {lineno}: {key} ")


@pytest.mark.parametrize("key,line", [
    ("mesh.resolutions", "mesh.resolutions = 4 100000"),
    ("constants.resolution", "constants.resolution = 100000"),
    ("mesh.resolutions", "domain.kind = disk\nmesh.resolutions = 4 300"),
])
def test_oversized_scenario_rejected_before_allocation(tmp_path, key, line):
    text = "\n".join(line if entry.startswith(f"{key} =") else entry
                     for entry in SMALL_CONFIG.splitlines())
    with pytest.raises(ConfigError, match=f"^{key}: resolution .* above the limit of "
                                          f"{reporting.MAX_VERTICES}$"):
        parse_config(text)
    result = subprocess.run(
        [sys.executable, "-m", "spectralab", "run", _write(tmp_path, "big.cfg", text)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": "src", "SPECTRA_OUT": str(tmp_path / "out")},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {key}: resolution ")
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines,error,manifest", [
    # an IndexError and a ValueError deep in the sampling before the check
    ("domain.kind = disk\ndomain.center = 0.5", "error: disk center needs 2 coordinates", False),
    ("domain.kind = disk\ndomain.center = 0 0 0", "error: disk center needs 2 coordinates",
     False),
    # malformed domains are load-time errors too
    ("domain.kind = disk\ndomain.radius = 0", "error: disk radius must be positive", False),
    ("domain.kind = disk\ndomain.radius = -0.5", "error: disk radius must be positive", False),
    ("domain.kind = rectangle\ndomain.bounds = 0 1 0.5 0.5",
     "error: empty rectangle extent (0.5, 0.5)", False),
    ("domain.kind = rectangle\ndomain.bounds = 1 0 0 1",
     "error: empty rectangle extent (1.0, 0.0)", False),
    # a broadcast ValueError on a 2d chart before the check
    ("eta.kind = radial_quadratic\neta.params = 1 0 0 0",
     "ParameterError: radial_quadratic takes 1 or 3 parameters, got 4", True),
    # silently ignored before the check
    ("chart.params = 1 2", "ParameterError: flat_rectangle takes 0 parameters, got 2", True),
], ids=["disk_center_1", "disk_center_3", "disk_radius_0", "disk_radius_negative",
        "rectangle_equal_bounds", "rectangle_inverted_bounds", "radial_quadratic_4",
        "flat_rectangle_2"])
def test_wrong_parameter_count_exits_two_without_traceback(tmp_path, lines, error, manifest):
    text = SMALL_CONFIG.replace("eta.kind = zero\n", "") + lines + "\n"
    cfg = _write(tmp_path, "bad.cfg", text)
    result = subprocess.run(
        [sys.executable, "-m", "spectralab", "run", cfg],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src", "SPECTRA_OUT": str(tmp_path / "out")},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(error)
    # a count checked when the chart is built leaves an incomplete MANIFEST;
    # a domain is checked when the scenario is read, before there is a run
    # or an output directory
    path = tmp_path / "out" / "smoke" / "MANIFEST"
    assert path.exists() == manifest
    assert (tmp_path / "out").exists() == manifest
    if manifest:
        assert "status incomplete" in path.read_text()


def test_undecodable_config_exits_two_without_traceback(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe\x00scenario.name = smoke\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "codec can't decode" in err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "spectralab", "list"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert result.returncode == 0
    assert "flat_rectangle" in result.stdout


def test_deeply_nested_expression_exits_two_without_traceback(tmp_path):
    text = SMALL_CONFIG.replace("eta.kind = zero",
                                "eta.kind = expr\neta.expr = " + "(" * 1000 + "x" + ")" * 1000)
    cfg = _write(tmp_path, "deep.cfg", text)
    result = subprocess.run(
        [sys.executable, "-m", "spectralab", "run", cfg],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src", "SPECTRA_OUT": str(tmp_path / "out")},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "ParameterError" in result.stderr
    assert "status incomplete" in (tmp_path / "out" / "smoke" / "MANIFEST").read_text()


def test_parallel_flag_is_a_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, "smoke.cfg", SMALL_CONFIG)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", cfg, "--parallel"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


def _verify_text(config):
    """Exit code, stderr lines and caught warnings of ``spectralab verify`` on
    the scenario text ``config``; an uncaught exception propagates out of
    ``main``, so it fails the calling test."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "scenario.cfg")
        with open(cfg, "w") as handle:
            handle.write(config)
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(["verify", cfg])
    return code, err.getvalue().splitlines(), caught


# long expressions: well-formed ones from the grammar, joined into sums of
# many terms, and token soup that is mostly malformed
_ATOMS = st.sampled_from(["x", "y", "u", "v", "pi", "e", "0", "1", "2.5", ".5", "1e3", "1e400"])
_FORMED = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
    st.tuples(st.sampled_from(["sin", "cos", "cosh", "sinh", "exp", "log", "sqrt"]),
              inner).map(lambda call: f"{call[0]}({call[1]})"),
    inner.map(lambda node: f"({node})"),
    inner.map(lambda node: f"-{node}")), max_leaves=60)
_SOUP = st.lists(st.sampled_from(["x", "y", "1", "2", ".", "e", "+", "-", "*", "/", "^", "(",
                                  ")", "sin", "sqrt", "log", " "]),
                 min_size=100, max_size=400).map("".join)
LONG_EXPRESSIONS = st.one_of(st.lists(_FORMED, min_size=8, max_size=30).map(" + ".join), _SOUP)


@settings(max_examples=40, deadline=None)
@given(text=LONG_EXPRESSIONS, key=st.sampled_from(["eta", "tensor"]))
def test_long_expression_runs_or_exits_two_with_one_error_line(text, key):
    # as the weight, or inside the first entry of an SPD tensor
    fields = {"eta": f"eta.kind = expr\neta.expr = {text}",
              "tensor": f"tensor.kind = expr\ntensor.expr = 1 + ({text})^2; 0; 1"}[key]
    config = SMALL_CONFIG.replace("eta.kind = zero\ntensor.kind = metric", fields)
    config = config.replace("mesh.resolutions = 4 8 16", "mesh.resolutions = 4")
    config = config.replace("eigen.k_max = 6", "eigen.k_max = 3")
    # points where the run evaluates it for sure: the weight at the
    # quadrature points of the mesh, the tensor on the constants grid
    domain = make_chart("flat_rectangle").domain
    points = (_cell_geometry(build_structured(domain, 4), slice(None))[0].reshape(-1, 2)
              if key == "eta" else domain.sample_grid(16))
    try:
        compile_expression(text, 2)(points)
        finite = True
    except SpectralabError:
        finite = False
    code, lines, caught = _verify_text(config)
    # a warning would be one more stderr line from the command line
    assert not caught
    assert code in ((0, 1, 2) if finite else (2,))
    if code == 2:
        assert len(lines) == 1 and "Traceback" not in lines[0]
        assert lines[0].startswith("error: ") or lines[0].split(":")[0].endswith("Error")


# scenario numbers over the whole float range: 0, and either sign from 1e-300
# to 1e300; half of them positive, so that more runs get past the checks of
# radii and extents
_MAGNITUDES = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                        st.sampled_from([1.0, 1.0, -1.0, 0.0]), st.floats(1.0, 9.99),
                        st.integers(-300, 299))


@st.composite
def _magnitude_scenarios(draw):
    """Scenario texts with chart parameters, domain, weight coefficients and
    tensor diagonal drawn from ``_MAGNITUDES``."""
    def numbers(count, ascending=False):
        values = draw(st.lists(_MAGNITUDES, min_size=count, max_size=count))
        return " ".join(map(repr, sorted(values) if ascending else values))

    chart_id = draw(st.sampled_from(sorted(reporting.CHARTS)))
    dim = reporting.CHARTS[chart_id].dim
    lines = [f"chart.id = {chart_id}"]
    if reporting.CHARTS[chart_id].defaults:
        lines.append(f"chart.params = {numbers(1)}")
    domain = draw(st.sampled_from(["default", "default", "rectangle"] + ["disk"] * (dim == 2)))
    if domain == "rectangle":
        lines.append("domain.kind = rectangle\ndomain.bounds = "
                     + " ".join(numbers(2, ascending=True) for _ in range(dim)))
    elif domain == "disk":
        lines.append(f"domain.kind = disk\ndomain.center = {numbers(2)}\n"
                     f"domain.radius = {numbers(1)}")
    eta = draw(st.sampled_from(["zero", "linear", "radial_quadratic"]))
    if eta != "zero":
        count = dim if eta == "linear" else draw(st.sampled_from([1, 1 + dim]))
        lines.append(f"eta.kind = {eta}\neta.params = {numbers(count)}")
    if draw(st.booleans()):
        lines.append(f"tensor.kind = diag\ntensor.params = {numbers(dim)}")
    lines.append(f"mesh.resolutions = {draw(st.sampled_from(['4', '8', '4 8']))}\n"
                 f"eigen.k_max = {draw(st.integers(2, 6))}\nconstants.resolution = 8")
    return _override(SMALL_CONFIG, "\n".join(lines))


@settings(max_examples=200, deadline=None)
@given(config=_magnitude_scenarios())
def test_scenario_numbers_run_or_exit_two_with_one_error_line(config):
    # k_max <= 6 skips the Weyl fit, so no error can follow a FAILED line
    code, lines, caught = _verify_text(config)
    assert not caught
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1 and "Traceback" not in lines[0]
