"""Structured simplicial meshes of chart parameter domains.

Rectangles become uniform grids split into two triangles per quad with a
fixed lower-left to upper-right diagonal; disks become concentric-ring fans
around a central vertex; 1d intervals become uniform segment chains.  All
constructions are deterministic, so assembled matrices are bit-identical
across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import Disk, Rectangle


@dataclass
class Mesh:
    """Simplicial mesh in chart coordinates.

    Attributes
    ----------
    vertices : (V, n) float array
    cells : (C, n+1) int array; segments for n=1, counterclockwise
        triangles for n=2
    boundary : (V,) bool array, True on Dirichlet boundary vertices
    h_max : float, maximum cell diameter in chart coordinates
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary: np.ndarray
    h_max: float

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    def cell_measures(self):
        """Lengths (n=1) or signed areas (n=2) of all cells."""
        v = self.vertices[self.cells]
        if self.dim == 1:
            return v[:, 1, 0] - v[:, 0, 0]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _interval_mesh(domain, resolution):
    (a, b), = domain.bounds
    verts = domain.sample_grid(resolution)
    cells = np.stack([np.arange(resolution), np.arange(1, resolution + 1)], axis=-1)
    boundary = np.zeros(resolution + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return Mesh(verts, cells, boundary, (b - a) / resolution)


def _rectangle_mesh(domain, resolution):
    (ax, bx), (ay, by) = domain.bounds
    nx = ny = resolution
    # the sample grid puts vertex (ix, iy) at index ix * (ny + 1) + iy; two
    # triangles per quad, quads in (ix, iy) row-major order
    verts = domain.sample_grid(resolution)
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    v00 = (ix * (ny + 1) + iy).ravel()
    v10, v01 = v00 + ny + 1, v00 + 1
    v11 = v10 + 1
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)

    ix_all, iy_all = np.divmod(np.arange(verts.shape[0]), ny + 1)
    boundary = (ix_all == 0) | (ix_all == nx) | (iy_all == 0) | (iy_all == ny)
    hx, hy = (bx - ax) / nx, (by - ay) / ny
    return Mesh(verts, cells, boundary, math.hypot(hx, hy))


def _disk_mesh(domain, resolution):
    # rings at radius j*R/resolution, each carrying 6*resolution vertices on
    # common angles; central vertex index 0
    n_theta = 6 * resolution
    # the sample grid puts vertex i of ring j at index 1 + (j - 1) * n_theta + i;
    # a fan around the center, then two triangles per quad in (ring, i) order
    verts = domain.sample_grid(resolution)
    i = np.arange(n_theta)
    nxt = (i + 1) % n_theta
    fan = np.stack([np.zeros_like(i), 1 + i, 1 + nxt], axis=-1)
    ring = 1 + n_theta * np.arange(resolution - 1)[:, None]
    a, d = ring + i, ring + nxt
    b, c = a + n_theta, d + n_theta
    quads = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    cells = np.vstack([fan, quads])

    boundary = np.zeros(verts.shape[0], dtype=bool)
    boundary[1 + (resolution - 1) * n_theta:] = True

    v = verts[cells]
    edge = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 1], v[:, 0] - v[:, 2]])
    h_max = float(np.linalg.norm(edge, axis=-1).max())
    return Mesh(verts, cells, boundary, h_max)


def vertex_count(domain, resolution):
    """Vertices of ``build_structured(domain, resolution)`` and of
    ``domain.sample_grid(resolution)``, without building either."""
    return 1 + 6 * resolution ** 2 if isinstance(domain, Disk) else (resolution + 1) ** domain.dim


def build_structured(domain, resolution):
    """Build a structured mesh of a Rectangle / Disk parameter domain.

    Parameters
    ----------
    domain : Rectangle or Disk
    resolution : int
        Cells per axis (rectangles/intervals) or number of concentric rings
        (disks); must be at least 2.

    Returns
    -------
    Mesh
    """
    if resolution < 2:
        raise ParameterError("mesh resolution must be at least 2")
    if isinstance(domain, Rectangle):
        if domain.dim == 1:
            mesh = _interval_mesh(domain, resolution)
        else:
            mesh = _rectangle_mesh(domain, resolution)
    elif isinstance(domain, Disk):
        mesh = _disk_mesh(domain, resolution)
    else:
        raise ParameterError(f"unsupported domain type {type(domain).__name__}")
    measures = mesh.cell_measures()
    if np.any(measures <= 0):
        raise ParameterError("mesh construction produced degenerate cells")
    return mesh
