"""Explicit exponential Runge-Kutta (EERK) methods for gradient flows.

The package bundles:

* numerically stable phi-function evaluation and symbolic tableau
  coefficients (:mod:`eerk.phi`),
* a catalog of EERK Butcher tableaux with parameterized abscissas
  (:mod:`eerk.tableaux`),
* the energy-dissipation machinery: discrete orthogonal convolution
  kernels, differentiation matrices, leading-principal-minor
  classification and average dissipation rates (:mod:`eerk.dissipation`),
* a spectral 1-D Dirichlet Laplacian, diagonalised by the orthonormal
  DST-I, and the Cahn-Hilliard problem setup (:mod:`eerk.spatial`),
* the generic stage loop with optional stage-energy-law monitoring
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
from eerk.integrator import RunReport, integrate
from eerk.phi import Const, Negate, Phi, PhiExpr, Product, Sum, Var, evaluate, phi
from eerk.spatial import CahnHilliard, Problem, SpectralOperator, StabilizedSemilinear
from eerk.tableaux import (
    Tableau,
    butcher_diff,
    get_method,
    parse_method,
    verify_order_conditions,
    verify_row_sums,
)

__all__ = [
    "phi",
    "evaluate",
    "Const",
    "Var",
    "Phi",
    "Sum",
    "Product",
    "Negate",
    "PhiExpr",
    "Tableau",
    "get_method",
    "parse_method",
    "butcher_diff",
    "verify_row_sums",
    "verify_order_conditions",
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
    "RunReport",
]

__version__ = "0.1.0"
