"""``tests/compare_snapshots.py`` accepts near-equal bounds and nothing else."""

import compare_snapshots

BOUNDS = ("name,k,lhs,rhs,ratio,holds,slack\n"
          "thm_drift,1,16.060330499807094,24.050339125592835,0.66777979370431062,true,1e-06\n"
          "ppw,2,1.5,nan,inf,false,1e-06\n")


def _snapshot(root, bounds=BOUNDS, eigenvalues="1,19.7\n"):
    (root / "square").mkdir(parents=True)
    (root / "square" / "bounds.csv").write_text(bounds)
    (root / "square" / "eigenvalues.csv").write_text(eigenvalues)
    return str(root)


def test_identical_and_near_equal_snapshots_pass(tmp_path, capsys):
    a = _snapshot(tmp_path / "a")
    assert compare_snapshots.main([a, _snapshot(tmp_path / "b")]) == 0
    near = BOUNDS.replace("16.060330499807094", "16.060330499807101")
    assert compare_snapshots.main([a, _snapshot(tmp_path / "c", bounds=near)]) == 0
    assert "worst relative difference 4.42e-16" in capsys.readouterr().out


def test_mismatches_exit_one(tmp_path):
    a = _snapshot(tmp_path / "a")
    cases = {
        "far": dict(bounds=BOUNDS.replace("24.050339125592835", "24.05034")),
        "holds": dict(bounds=BOUNDS.replace("true", "false")),
        "name": dict(bounds=BOUNDS.replace("ppw", "yang_gap")),
        "non_finite": dict(bounds=BOUNDS.replace("nan", "inf")),
        "rows": dict(bounds=BOUNDS + "ppw,3,1,2,0.5,true,1e-06\n"),
        "other_file": dict(eigenvalues="1,19.700000000000003\n"),
    }
    for label, changes in cases.items():
        assert compare_snapshots.main([a, _snapshot(tmp_path / label, **changes)]) == 1, label
    (tmp_path / "extra").mkdir()
    extra = _snapshot(tmp_path / "extra" / "snap")
    (tmp_path / "extra" / "snap" / "MANIFEST").write_text("status complete\n")
    assert compare_snapshots.main([a, extra]) == 1
    assert compare_snapshots.main([a, _snapshot(tmp_path / "loose", **cases["far"]),
                                   "--rtol", "1e-6"]) == 0


def test_worst_difference_printed_per_family(tmp_path, capsys):
    bounds = BOUNDS + "proposition_testfunction(h=x1),1,2.5,4.0,0.625,true,1e-06\n"
    a = _snapshot(tmp_path / "a", bounds=bounds)
    moved = (bounds.replace("16.060330499807094", "16.060330499807101")
             .replace("2.5,4.0", "2.5000000000005,4.0"))
    assert compare_snapshots.main([a, _snapshot(tmp_path / "b", bounds=moved)]) == 0
    out = capsys.readouterr().out
    assert "worst relative difference 2e-13" in out
    assert "\n  proposition_testfunction: 2e-13\n" in out
    assert "\n  thm_drift: 4.42e-16\n" in out
    assert "ppw:" not in out  # no difference, no line


EIGENVALUES = ("resolution,k,lambda,residual\n"
               "8,1,19.7,3.5e-14\n"
               "8,2,49.3,8.1e-13\n")


def test_eigenvalue_differences_are_explained(tmp_path, capsys):
    a = _snapshot(tmp_path / "a", eigenvalues=EIGENVALUES)
    residual_only = EIGENVALUES.replace("8.1e-13", "9.25e-13")
    assert compare_snapshots.main(
        [a, _snapshot(tmp_path / "b", eigenvalues=residual_only)]) == 1
    out = capsys.readouterr().out
    assert ("square/eigenvalues.csv: bytes differ: resolution,k,lambda identical; "
            "largest residual 8.1e-13 against 9.25e-13\n") in out
    moved = EIGENVALUES.replace("49.3", "49.300000000000004")
    assert compare_snapshots.main([a, _snapshot(tmp_path / "c", eigenvalues=moved)]) == 1
    assert "resolution,k,lambda differ; largest residual 8.1e-13 against 8.1e-13" in (
        capsys.readouterr().out)
    assert compare_snapshots.main([a, _snapshot(tmp_path / "d", eigenvalues="1,19.7\n")]) == 1
    assert "bytes differ: no resolution,k,lambda,residual header" in capsys.readouterr().out
    short = EIGENVALUES.replace("8,2,49.3,8.1e-13", "8,2,49.3")
    assert compare_snapshots.main([a, _snapshot(tmp_path / "e", eigenvalues=short)]) == 1
    assert "bytes differ: a row does not parse" in capsys.readouterr().out


CONSTANTS = ('{\n  "eta_bar0": 0.6400000000143309,\n  "h0": 1.0,\n  "metadata": {\n'
             '    "flux_step": 8e-06,\n    "quadrature_nodes": 64\n  },\n  "t0": 0.0\n}\n')


def test_constants_differences_are_explained(tmp_path, capsys):
    def snapshot(label, constants):
        root = tmp_path / label
        _snapshot(root)
        (root / "square" / "constants.json").write_text(constants)
        return str(root)

    a = snapshot("a", CONSTANTS)
    assert compare_snapshots.main([a, snapshot("same", CONSTANTS)]) == 0
    moved = (CONSTANTS.replace("0.6400000000143309", "0.6400000000000001")
             .replace('    "flux_step": 8e-06,\n', "").replace('"t0": 0.0', '"t0": 0.0,\n  "x": 1'))
    assert compare_snapshots.main([a, snapshot("b", moved)]) == 1  # still a mismatch
    out = capsys.readouterr().out
    assert ("square/constants.json: bytes differ: metadata.flux_step only in A; x only in B; "
            "eta_bar0 moved 2.24e-11\n") in out
    assert "largest constants.json moves: eta_bar0 2.24e-11\n" in out
    assert compare_snapshots.main([a, snapshot("c", "[]\n")]) == 1
    assert "bytes differ: not a JSON object" in capsys.readouterr().out
