"""Record the expected outputs of the shipped scenarios.

Run from the repository root with ``PYTHONPATH=src python
tests/record_golden.py``; run so, it pins BLAS to one thread (see
``BLAS_VARS``; threaded BLAS moves the last digits of some integrals, well
inside the comparison's tolerance).  It runs every ``scenarios/*.cfg`` without
writing artifacts and stores its eigenvalues per resolution and every
report row in ``tests/golden_scenarios.json``, which
``test_criterion_4_inequality_suite`` compares fresh runs against.  Each
recorded eigenvalue and report row that still matches under that
comparison keeps its recorded text; only the ones that moved are
rewritten, so the diff of a re-record shows what a change moved, and
each rewritten row is printed with its largest relative move and any
change of ``holds`` or ``skipped``.
Re-record only for an intended change of results, never to make a
refactor pass.
"""

import glob
import json
import math
import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # read when numpy loads BLAS, below; an import leaves them
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

from helpers import GOLDEN_PATH, golden_close, golden_row_matches, scenario_snapshot  # noqa: E402
from spectralab.reporting import load_scenario, run_scenario  # noqa: E402

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(GOLDEN_PATH)), "scenarios")


def describe(scenario, row, old):
    """One line for a report row rewritten from the recorded ``old``:
    scenario, name, k, the largest relative move of lhs, rhs and ratio (inf
    where a value changed to or from text, a non-finite value, or from 0)
    and any change of holds or skipped."""
    def move(new, was):
        if str(new) == str(was):
            return 0.0
        if isinstance(new, str) or isinstance(was, str) or was == 0:
            return math.inf
        return abs(new - was) / abs(was)
    flags = [f" {label} {old[i]} -> {row[i]}"
             for label, i in (("holds", 5), ("skipped", 6)) if row[i] != old[i]]
    largest = max(map(move, row[2:5], old[2:5]))
    return f"{scenario} {row[0]} k={row[1]} moved {largest:.1e}" + "".join(flags)


def keep_matching(scenario, snapshot, recorded):
    """``snapshot`` with each eigenvalue and report row that still matches
    the ``recorded`` snapshot of the same scenario replaced by the recorded
    one; eigenvalue lists of another length and rows past the recorded ones
    are new.  Prints a line for each recorded row that is rewritten."""
    eigenvalues = {}
    for res, values in snapshot["eigenvalues"].items():
        old = recorded["eigenvalues"].get(res, [])
        if len(old) == len(values):
            values = [o if golden_close(v, o) else v for v, o in zip(values, old)]
        eigenvalues[res] = values
    rows, old_rows, reports = snapshot["reports"], recorded["reports"], []
    for row, old in zip(rows, old_rows):
        if golden_row_matches(row, old):
            row = old
        else:
            print(describe(scenario, row, old))
        reports.append(row)
    return {"eigenvalues": eigenvalues, "reports": reports + rows[len(old_rows):]}


def record(fresh, path):
    """Write the snapshots ``fresh`` (scenario name -> snapshot) to
    ``path``, keeping what the file there already holds where it matches."""
    recorded = {}
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
    golden = {name: keep_matching(name, snap, recorded[name]) if name in recorded else snap
              for name, snap in fresh.items()}
    lines = ["{"]
    for i, (name, snap) in enumerate(golden.items()):
        lines.append(f'  {json.dumps(name)}: {{')
        lines.append(f'    "eigenvalues": {json.dumps(snap["eigenvalues"])},')
        lines.append('    "reports": [')
        rows = [f"      {json.dumps(row)}" for row in snap["reports"]]
        lines.append(",\n".join(rows))
        lines.append("    ]")
        lines.append("  }" + ("," if i < len(golden) - 1 else ""))
    lines.append("}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def main():
    fresh = {}
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg"))):
        scenario = load_scenario(path)
        fresh[scenario.name] = scenario_snapshot(run_scenario(scenario, write=False))
    record(fresh, GOLDEN_PATH)


if __name__ == "__main__":
    main()
