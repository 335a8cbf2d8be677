"""The benchmark's per-layer trace still finds the layer entry points.

``perfbench/tracing.py`` wraps names that ``spectralab.reporting`` calls
into each layer, and ``splu`` as ``spectralab.eigensolve`` calls it.  A
refactor that renames or bypasses one of them leaves its span empty.
"""

import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))

import tracing  # noqa: E402

import spectralab  # noqa: E402
from spectralab import bounds  # noqa: E402
from spectralab.reporting import parse_config, run_scenario  # noqa: E402

SMALL_CONFIG = """
scenario.name = traced
chart.id = flat_rectangle
eta.kind = zero
tensor.kind = metric
mesh.resolutions = 8 16
eigen.k_max = 10
checks = all
appendix.c = 1
constants.resolution = 16
"""


def test_traced_run_records_every_layer():
    tracer = tracing.Tracer()
    results = []
    with tracing.instrument(results, tracer):
        run = run_scenario(parse_config(SMALL_CONFIG), write=False)
    assert run.exit_code == 0
    assert len(results) == 2
    names = {span[0] for span in tracer.spans}
    for name in ("geometry.compute_constants", "meshing.build_structured",
                 "assembly.assemble", "assembly.quadrature", "eigensolve.solve_sparse",
                 "eigensolve.splu", "eigensolve.lu_solve", "eigensolve.vertex_fields"):
        assert name in names
    # k_max >= 10 reaches weyl_fit, so every bounds family records a span
    for name, family in tracing.BOUNDS_FAMILIES.items():
        assert callable(getattr(bounds, name))
        assert f"bounds.{family}" in names
    assert tracer.counters["eigensolve.lu_fill"] > 0


def test_public_names_resolve():
    for name in spectralab.__all__:
        assert hasattr(spectralab, name), name
