import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from helpers import export_text
from spectralab.errors import ParameterError
from spectralab.geometry import Disk, Rectangle
from spectralab.meshing import build_structured, vertex_count

UNIT_SQUARE = Rectangle(((0.0, 1.0), (0.0, 1.0)))
UNIT_INTERVAL = Rectangle(((0.0, 1.0),))
UNIT_DISK = Disk((0.0, 0.0), 1.0)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, Rectangle(((0.0, 1.0), (0.0, 2.0))), UNIT_DISK])
def test_vertex_count_matches_built_mesh_and_sample_grid(domain):
    for res in (2, 5, 16, 33):
        assert vertex_count(domain, res) == build_structured(domain, res).num_vertices
        assert vertex_count(domain, res) == len(domain.sample_grid(res))


def test_interval_mesh_counts():
    mesh = build_structured(UNIT_INTERVAL, 4)
    assert mesh.num_vertices == 5
    assert mesh.num_cells == 4
    assert list(np.nonzero(mesh.boundary)[0]) == [0, 4]
    assert mesh.h_max == 0.25


def test_unit_square_resolution_two():
    mesh = build_structured(UNIT_SQUARE, 2)
    assert mesh.num_vertices == 9
    assert mesh.num_cells == 8
    assert int(mesh.boundary.sum()) == 8


def test_square_cells_counterclockwise_and_cover():
    mesh = build_structured(UNIT_SQUARE, 7)
    areas = mesh.cell_measures()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-10)


def test_disk_mesh_structure():
    resolution = 3
    mesh = build_structured(UNIT_DISK, resolution)
    ring = 6 * resolution
    assert mesh.num_vertices == 1 + resolution * ring
    flagged = np.nonzero(mesh.boundary)[0]
    assert len(flagged) == ring
    # only the outermost ring is flagged, and it sits on the circle
    radii = np.linalg.norm(mesh.vertices[flagged], axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-12
    inner = np.linalg.norm(mesh.vertices[~mesh.boundary], axis=1)
    assert inner.max() < 1.0 - 1e-9
    # fan area approximates the chart disk; the inscribed-polygon deficit
    # scales with h_max^2 (measured factor 0.33 at the coarsest fan)
    area = mesh.cell_measures().sum()
    assert area == pytest.approx(math.pi, rel=0.05)
    assert math.pi - area <= 0.35 * mesh.h_max ** 2


def test_boundary_vertices_on_analytic_boundary():
    mesh = build_structured(UNIT_SQUARE, 5)
    on_edge = np.minimum(np.minimum(mesh.vertices[:, 0], 1 - mesh.vertices[:, 0]),
                         np.minimum(mesh.vertices[:, 1], 1 - mesh.vertices[:, 1]))
    assert np.abs(on_edge[mesh.boundary]).max() <= 1e-12


def test_no_duplicate_vertices():
    for domain, res in ((UNIT_SQUARE, 6), (UNIT_DISK, 4), (UNIT_INTERVAL, 9)):
        mesh = build_structured(domain, res)
        if mesh.dim == 1:
            gaps = np.diff(np.sort(mesh.vertices[:, 0]))
            assert gaps.min() > 1e-14
        else:
            assert pdist(mesh.vertices).min() > 1e-14


def test_h_max_halves_under_refinement():
    coarse = build_structured(UNIT_SQUARE, 8)
    fine = build_structured(UNIT_SQUARE, 16)
    assert fine.h_max == pytest.approx(coarse.h_max / 2, rel=1e-14)
    coarse = build_structured(UNIT_DISK, 8)
    fine = build_structured(UNIT_DISK, 16)
    assert fine.h_max == pytest.approx(coarse.h_max / 2, rel=0.10)


def test_resolution_below_two_rejected():
    with pytest.raises(ParameterError):
        build_structured(UNIT_SQUARE, 1)


def test_export_text_roundtrip_format():
    mesh = build_structured(UNIT_INTERVAL, 2)
    text = export_text(mesh)
    lines = text.strip().splitlines()
    assert lines[0].startswith("v ")
    assert sum(1 for ln in lines if ln.startswith("v ")) == 3
    assert sum(1 for ln in lines if ln.startswith("c ")) == 2
    assert [ln for ln in lines if ln.startswith("b ")] == ["b 0", "b 2"]


def test_rectangular_domain_anisotropic():
    domain = Rectangle(((0.0, math.pi), (-0.8, 0.8)))
    mesh = build_structured(domain, 12)
    assert mesh.cell_measures().sum() == pytest.approx(math.pi * 1.6, abs=1e-10)
    assert int(mesh.boundary.sum()) == 4 * 12
