"""``tests/record_golden.py`` rewrites only the values and rows that moved."""

import json

from helpers import GOLDEN_REL
from record_golden import record

ROWS = [["thm_drift", 1, 16.060330499807094, 24.050339125592835, 0.6677797937043106, True,
         False],
        ["ppw", 2, 1.5, "nan", "inf", False, False],
        ["yang_gap", 2, 3.25, 4.5, 0.7222222222222222, True, False]]


def _snapshot(eigenvalues, rows):
    return {"square": {"eigenvalues": {"4": eigenvalues}, "reports": rows}}


def test_rerecord_keeps_matching_rows_and_rewrites_moved_ones(tmp_path):
    path = tmp_path / "golden.json"
    record(_snapshot([19.7, 49.3], ROWS), path)
    before = path.read_text().splitlines()

    near = 1.0 + 0.5 * GOLDEN_REL  # within the comparison's tolerance
    rows = [[*ROWS[0][:2], ROWS[0][2] * near, ROWS[0][3], ROWS[0][4] * near, True, False],
            ROWS[1],
            [*ROWS[2][:2], 3.5, *ROWS[2][3:]]]  # moved
    record(_snapshot([19.7 * near, 49.4], rows), path)
    after = path.read_text().splitlines()

    assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] == [2, 6]
    assert len(after) == len(before)
    saved = json.loads(path.read_text())["square"]
    assert saved["eigenvalues"]["4"] == [19.7, 49.4]
    assert saved["reports"] == [ROWS[0], ROWS[1], rows[2]]

    record(_snapshot([19.7, 49.4], rows), path)  # nothing moved: byte-identical
    assert path.read_text().splitlines() == after


def test_rerecord_rewrites_changed_flags_and_new_rows(tmp_path):
    path = tmp_path / "golden.json"
    record(_snapshot([19.7], ROWS[:2]), path)
    rows = [[*ROWS[0][:5], False, False], ROWS[1], ROWS[2]]
    record(_snapshot([19.7, 49.3], rows), path)
    saved = json.loads(path.read_text())["square"]
    assert saved == {"eigenvalues": {"4": [19.7, 49.3]}, "reports": rows}


def test_rerecord_prints_each_rewritten_row(tmp_path, capsys):
    path = tmp_path / "golden.json"
    record(_snapshot([19.7], ROWS), path)
    assert capsys.readouterr().out == ""  # nothing recorded before: nothing rewritten
    rows = [[*ROWS[0][:5], False, False], ROWS[1], [*ROWS[2][:2], 3.5, *ROWS[2][3:]]]
    record(_snapshot([19.7], rows), path)
    assert capsys.readouterr().out.splitlines() == [
        "square thm_drift k=1 moved 0.0e+00 holds True -> False",
        "square yang_gap k=2 moved 7.7e-02"]
    record(_snapshot([19.7], [ROWS[0], [*ROWS[1][:3], 2.0, *ROWS[1][4:]], *rows[2:]]), path)
    assert capsys.readouterr().out.splitlines() == [
        "square thm_drift k=1 moved 0.0e+00 holds False -> True",
        "square ppw k=2 moved inf"]
