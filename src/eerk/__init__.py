"""Explicit exponential Runge-Kutta (EERK) methods for gradient flows.

The package bundles:

* numerically stable phi-function evaluation, and the basis
  ``P(k, c) = phi_k(c z)`` on which tableau coefficients are computed as
  written (:mod:`eerk.phi`),
* a catalog of EERK Butcher tableaux with parameterized abscissas, one
  table of names and builders (each builder is its method's coefficient
  formula over ``P``) and descriptions, the evaluation ``A(z)`` that every
  run-time path uses, and the Butcher-Diff form (:mod:`eerk.tableaux`),
* the energy-dissipation machinery: discrete orthogonal convolution
  kernels, and differentiation matrices, leading-principal-minor
  classification and average dissipation rates, all read from the
  evaluated ``A(z)`` (:mod:`eerk.dissipation`),
* a spectral 1-D Dirichlet Laplacian, diagonalised by the orthonormal
  DST-I, and the Cahn-Hilliard problem setup (:mod:`eerk.spatial`),
* the generic stage loop with optional stage-energy-law monitoring, for
  one tableau or an ensemble of tableaux advanced together
  (:mod:`eerk.integrator`),
* benchmark drivers and a CSV-emitting command line front end
  (:mod:`eerk.bench`, :mod:`eerk.cli`).
"""

from eerk.dissipation import (
    Classification,
    average_dissipation_rate,
    classify_method,
    default_z_grid,
    differentiation_matrix,
    doc_kernels,
    leading_principal_minors,
)
from eerk.integrator import Ensemble, EnsembleReport, RunReport, integrate
from eerk.phi import phi
from eerk.spatial import CahnHilliard, Problem, SpectralOperator, StabilizedSemilinear
from eerk.tableaux import (
    Tableau,
    butcher_diff,
    get_method,
    parse_method,
)

__all__ = [
    "phi",
    "Tableau",
    "get_method",
    "parse_method",
    "butcher_diff",
    "doc_kernels",
    "differentiation_matrix",
    "leading_principal_minors",
    "average_dissipation_rate",
    "classify_method",
    "default_z_grid",
    "Classification",
    "SpectralOperator",
    "CahnHilliard",
    "StabilizedSemilinear",
    "Problem",
    "integrate",
    "Ensemble",
    "RunReport",
    "EnsembleReport",
]

__version__ = "0.1.0"
