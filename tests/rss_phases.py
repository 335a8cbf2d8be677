"""Peak resident memory per phase of one benchmark warm-up pass.  Linux only:
it reads ``VmRSS`` from ``/proc/self/status``.

Run from the repository root:

    python3 tests/rss_phases.py many_modes [--seed 1] [--interval 0.001]

It runs the problems of one ``perfbench`` workload once, in the listed order
and through ``perfbench/tracing.instrument``, as the warm-up pass of
``perfbench/run.py`` does in a fresh process, with BLAS on one thread.  A
thread reads ``VmRSS`` every ``--interval`` seconds and charges the reading
to the innermost phase running when it reads:

* ``sweep``: ``eigensolve._lanczos_sweep``;
* ``factor A``: ``eigensolve._factor`` called outside the count: the shift;
* ``factor A - tau B``: ``eigensolve._factor`` called from the count;
* ``inertia``: the rest of ``eigensolve._inertia``, the count that
  certifies a solve: its ``A - tau B`` values and the read of the pivots;
* ``solve_sparse``: the rest of ``eigensolve.solve_sparse``, such as the
  pencil's CSR pattern and the returned vectors;
* ``vertex_fields``: ``reporting.vertex_fields``;
* ``checks``: ``reporting._run_checks``;
* ``constants``: ``reporting.compute_constants``, the geometric constants;
* ``assembly``: ``reporting.assemble``, the pencil of one mesh level;
* ``other``: everything else (charts, meshes, writing).

It prints the peak of each phase in MB, then the process's ``ru_maxrss``,
which the benchmark reports as ``peak_rss_mb``.  A peak shorter than the
interval, or held while a C call keeps the interpreter lock, can be missed;
a reading taken as a phase ends can be charged to it.  The file is not a
test module: pytest does not collect it.
"""

import argparse
import functools
import os
import random
import resource
import sys
import tempfile
import threading
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench/run.py pins them, before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import problems  # noqa: E402
import tracing  # noqa: E402

from spectralab import eigensolve, reporting  # noqa: E402

# (module, name, phase): the names each phase is wrapped at; a callable phase
# is named from the stack of the phases running when the call starts
PHASES = [
    (eigensolve, "_lanczos_sweep", "sweep"),
    (eigensolve, "_inertia", "inertia"),
    (eigensolve, "_factor",
     lambda stack: "factor A - tau B" if stack[-1:] == ["inertia"] else "factor A"),
    (reporting, "solve_sparse", "solve_sparse"),
    (reporting, "vertex_fields", "vertex_fields"),
    (reporting, "_run_checks", "checks"),
    (reporting, "compute_constants", "constants"),
    (reporting, "assemble", "assembly"),
]


def vm_rss_mb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


class PhaseSampler:
    """Peak ``VmRSS`` per phase, read by a thread; phases nest on a stack."""

    def __init__(self, interval):
        self.stack, self.peaks = [], {}
        self._interval = interval
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._done.wait(self._interval):
            phase = self.stack[-1] if self.stack else "other"
            self.peaks[phase] = max(self.peaks.get(phase, 0.0), vm_rss_mb())

    def wrap(self, fn, phase):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append(phase(self.stack) if callable(phase) else phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
        return wrapper

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join(timeout=10.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=problems.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="draws the ladder parameters")
    parser.add_argument("--interval", type=float, default=0.001, help="seconds between reads")
    args = parser.parse_args(argv)

    plist = problems.workload_problems(args.workload, random.Random(args.seed), ROOT)
    sampler = PhaseSampler(args.interval)
    originals = [(module, name, getattr(module, name)) for module, name, _ in PHASES]
    for module, name, phase in PHASES:
        setattr(module, name, sampler.wrap(getattr(module, name), phase))
    results = []
    try:
        with tempfile.TemporaryDirectory() as out, sampler, tracing.instrument(results):
            for problem in plist:
                results.clear()
                scenario = reporting.parse_config(problem.text)
                run = reporting.run_scenario(scenario, out_dir=os.path.join(out, scenario.name),
                                             **problem.kwargs)
                if run.exit_code:
                    print(f"{problem.key}: exit code {run.exit_code} {run.messages[:3]}",
                          file=sys.stderr)
    finally:
        for module, name, original in originals:
            setattr(module, name, original)

    print(f"# {args.workload} seed={args.seed} warm-up pass, VmRSS read every "
          f"{args.interval:g} s; peak per phase")
    for phase, peak in sorted(sampler.peaks.items(), key=lambda item: -item[1]):
        print(f"{phase:18s} {peak:8.1f} MB")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{'ru_maxrss':18s} {peak_kib / 1024.0:8.1f} MB")


if __name__ == "__main__":
    main()
