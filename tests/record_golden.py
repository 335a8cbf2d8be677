"""Record the expected outputs of the shipped scenarios.

Run from the repository root with ``PYTHONPATH=src OMP_NUM_THREADS=1 python
tests/record_golden.py`` (threaded BLAS moves the last digits of some
integrals, well inside the comparison's tolerance).  It runs every ``scenarios/*.cfg`` without
writing artifacts and stores its eigenvalues per resolution and every
report row in ``tests/golden_scenarios.json``, which
``test_criterion_4_inequality_suite`` compares fresh runs against.  Re-record
only for an intended change of results, never to make a refactor pass.
"""

import glob
import json
import os

from helpers import GOLDEN_PATH, scenario_snapshot
from spectralab.reporting import load_scenario, run_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(GOLDEN_PATH)), "scenarios")


def main():
    golden = {}
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg"))):
        scenario = load_scenario(path)
        golden[scenario.name] = scenario_snapshot(run_scenario(scenario, write=False))
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
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
