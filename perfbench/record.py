"""Record ``golden.json``: what every problem gives at the current commit.

    python3 perfbench/record.py

The correctness gate compares later runs against these values, so rerun
this only when a change is meant to alter eigenvalues or check counts.
"""

import json
import sys
import time

from run import OUT, ROOT  # pins the BLAS threads and puts src/ on sys.path
from spectralab import reporting

import problems
import tracing


def main():
    golden = {}
    for problem in problems.every_problem(ROOT):
        results = []
        start = time.perf_counter()
        scenario = reporting.parse_config(problem.text)
        with tracing.instrument(results):
            run = reporting.run_scenario(scenario, out_dir=str(OUT / "record" / scenario.name),
                                         **problem.kwargs)
        worst = max(float(r.residuals.max()) for r in results)
        print(f"{problem.key}: exit {run.exit_code}, {time.perf_counter() - start:.2f} s, "
              f"iterations {[r.iterations for r in results]}, max residual {worst:.2g}",
              flush=True)
        golden[problem.key] = problems.record(run)
    with open(problems.GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
