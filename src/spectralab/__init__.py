"""spectralab: Dirichlet eigenvalue laboratory for weighted divergence-form operators.

The package solves ``-div_eta(T(grad u)) = lambda u`` with Dirichlet
boundary conditions on single-chart patches of immersed surfaces, computes
the geometric constants of the associated spectral bounds, and verifies a
suite of universal eigenvalue inequalities against computed or closed-form
spectra.
"""

from .geometry import (
    CHARTS,
    Chart,
    Disk,
    GeometricConstants,
    Rectangle,
    compute_constants,
    make_chart,
    make_eta,
    make_tensor,
    omega_n,
    second_fundamental_form,
)
from .meshing import Mesh, build_structured
from .assembly import SparseSymMatrix, assemble, EigenfunctionQuadrature
from .eigensolve import SpectralResult, solve_dense, solve_sparse, vertex_fields
from .bounds import (
    BoundReport,
    Spectrum,
    check_cheng_yang_type,
    check_corollary_trio,
    check_polya_type,
    check_thm_drift,
    check_thm_tensor,
    intro_comparators,
    lemma_c_bound,
    proposition_reports,
    recursion_constant,
    recursion_lemma,
    upsilon_shift,
    shift_constant,
    weyl_constant,
    weyl_fit,
)
from .reporting import Scenario, load_scenario, parse_config, run_scenario

__version__ = "0.1.0"

__all__ = [
    "CHARTS", "Chart", "Disk", "GeometricConstants", "Rectangle",
    "compute_constants", "make_chart", "make_eta", "make_tensor",
    "omega_n", "second_fundamental_form",
    "Mesh", "build_structured",
    "SparseSymMatrix", "assemble", "EigenfunctionQuadrature",
    "SpectralResult", "solve_dense", "solve_sparse", "vertex_fields",
    "BoundReport", "Spectrum",
    "check_cheng_yang_type", "check_corollary_trio", "check_polya_type",
    "check_thm_drift", "check_thm_tensor",
    "intro_comparators", "lemma_c_bound", "proposition_reports",
    "recursion_constant", "recursion_lemma",
    "upsilon_shift", "shift_constant", "weyl_constant", "weyl_fit",
    "Scenario", "load_scenario", "parse_config", "run_scenario",
    "__version__",
]
