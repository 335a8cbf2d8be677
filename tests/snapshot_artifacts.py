"""Write every artifact and every assembled pencil of a fixed set of problems.

Run from the repository root with ``PYTHONPATH=src python
tests/snapshot_artifacts.py OUT_DIR``; run so, it pins BLAS to one thread
(see ``BLAS_VARS``), since the k = 100 eigenvalues move with the thread
count.  It runs the nine ``scenarios/*.cfg``, the first draw of each
``perfbench/problems.py`` ladder, the many-modes text and two small
scenarios for the catalog entries those leave out.  Under ``OUT_DIR/<problem>/`` it writes the problem's
artifacts, its exit code and messages, and for each mesh level the mesh
arrays and the A/B ``rows/cols/vals`` as ``.npy`` files; ``OUT_DIR/list.txt``
holds the ``spectralab list`` text.  ``diff -r`` on the snapshots of two
commits then shows whether a change is bit-for-bit.
"""

import os
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # read when numpy loads BLAS, below; an import leaves them
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import problems  # noqa: E402

from spectralab import reporting  # noqa: E402

# cylinder, disk domain, linear 2d and expression weights, expression tensor
EXTRA = {
    "cylinder_expr": """\
scenario.name = cylinder_expr
chart.id = cylinder
chart.params = 0.5
eta.kind = expr
eta.expr = 0.3*sin(x)*y
tensor.kind = expr
tensor.expr = 1 + 0.2*y; 0.1*x; 1.5
mesh.resolutions = 6 12 24
eigen.k_max = 10
constants.resolution = 16
""",
    "sphere_disk_linear": """\
scenario.name = sphere_disk_linear
chart.id = stereographic_sphere
domain.kind = disk
domain.center = 0.1 -0.05
domain.radius = 0.8
eta.kind = linear
eta.params = 0.4 -0.2
mesh.resolutions = 4 8 16
eigen.k_max = 10
constants.resolution = 16
""",
}


def chosen_problems():
    """The shipped scenarios, one draw per ladder, many_modes and EXTRA."""
    chosen, families = [], set()
    for problem in problems.every_problem(ROOT):
        family = problem.key.split()[0]
        if family not in families:
            families.add(family)
            chosen.append(problem)
    return chosen + [problems.Problem(key, text, "run") for key, text in EXTRA.items()]


def snapshot(problem, out):
    levels = []
    assemble = reporting.assemble

    def capture(chart, mesh, *args, **kwargs):
        pencil = assemble(chart, mesh, *args, **kwargs)
        levels.append((mesh, pencil))
        return pencil

    reporting.assemble = capture
    try:
        run = reporting.run_scenario(reporting.parse_config(problem.text), out_dir=str(out),
                                     checks=problem.command != "convergence")
    finally:
        reporting.assemble = assemble
    (out / "run.txt").write_text(f"exit {run.exit_code}\n"
                                 + "".join(f"{m}\n" for m in run.messages))
    for level, (mesh, (a_mat, b_mat, dof_map)) in enumerate(levels):
        arrays = {"vertices": mesh.vertices, "cells": mesh.cells,
                  "boundary": mesh.boundary, "h_max": np.float64(mesh.h_max),
                  "dof_map": dof_map}
        for name, mat in (("A", a_mat), ("B", b_mat)):
            arrays.update({f"{name}_dim": np.int64(mat.dim), f"{name}_rows": mat.rows,
                           f"{name}_cols": mat.cols, f"{name}_vals": mat.vals})
        for name, array in arrays.items():
            np.save(out / f"level{level}_{name}.npy", array)


def main(out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "list.txt").write_text(reporting.catalog_text())
    for problem in chosen_problems():
        out = out_dir / problem.key.replace(" ", "_")
        out.mkdir(exist_ok=True)
        snapshot(problem, out)
        print(problem.key, flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: snapshot_artifacts.py OUT_DIR")
    main(sys.argv[1])
