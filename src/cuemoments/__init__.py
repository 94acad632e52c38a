"""Exact and numerical tools for joint moments of characteristic-polynomial
derivatives over the unitary group and the associated Hua-Pickrell (Cauchy)
ensemble: exact rational joint moments at finite matrix size, their large-size
limits, Hankel-determinant representations with Painlevé-type equations, and
Monte Carlo / quadrature cross-checks.
"""

from .cauchy import (
    MomentSpec,
    finite_joint_moment,
    hp_expectation,
    keating_snaith_constant,
    limiting_moment,
    oracle_finiteN_F20,
    oracle_second_moment_V,
    oracle_second_moment_Y,
)
from .exact import Poly, PowerSeries, RationalFunction, series_logderiv
from .hankel import (
    MultiSeries,
    appendix_matrices,
    exp_derivative,
    hankel_det,
    mixed_derivative,
    theta,
    trace_adjugate,
    verify_vector_recursion,
)
from .mc import (
    ChainConfig,
    estimate_joint_moment,
    quadrature_expectation,
    sample_hp,
)
from .painleve import (
    fractional_moment_q1,
    painleve5_residual,
    phi_series,
    sigma_p3_residual,
    tau_finiteN,
    tau_limit,
)
from .sympoly import SymPoly
from .symfunc import a_coeff, v_variant_integrand, xi_poly

__version__ = "0.1.0"
