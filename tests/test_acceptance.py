"""Acceptance suite: the ten headline guarantees of the package, each with
its stated tolerance and runtime budget.

1.  Finite-size second-derivative moment equals its independent closed-form
    oracle for N = 1..6, exactly.
2.  The limiting-moment alternating sum equals the double-binomial oracle
    for n = 1, 2, 3, exactly.
3.  E[Y_1^2] = 1/(4s^2-1); at s = 1 it equals 1/3 and the Bessel-series
    coefficient route, exactly.
4.  The finite-size tau function solves its Painlevé-V-type ODE exactly for
    (N, s) in {1..4} x {1,2,3}.
5.  The limiting tau function solves the sigma-Painlevé-III'-type ODE with
    all series coefficients zero through order 12 for s in {1, 2}.
6.  The Hankel-determinant identity suite (theta recurrences, alternating
    sums, initial conditions, vector recursion, characteristic-function
    relations) holds with exact-zero residuals.
7.  Monte Carlo estimates land within 4 standard errors of three known
    targets in at least 38 of 40 fixed seeds.
8.  Tensor quadrature matches the exact engine to relative 1e-9 on all
    integrable monomial symmetric integrands of degree <= 6, N <= 3,
    s in {1,2,3}.
9.  The derivative-expansion coefficient EGF matches brute-force
    enumeration, with exact diagonal values and parity zeros.
10. The Barnes-G constant is exact at integer arguments and the float route
    agrees.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cuemoments.cauchy import (
    MomentSpec,
    finite_joint_moment,
    hp_expectation,
    keating_snaith_constant,
    limiting_moment,
    oracle_finiteN_F20,
    oracle_second_moment_Y,
)
from cuemoments.exact import Poly, RationalFunction
from cuemoments.hankel import (
    alternating_sum_residual,
    cor_relation_residuals,
    initial_condition_residuals,
    theta_derivative_residual,
    theta_three_term_residual,
    verify_vector_recursion,
)
from cuemoments.mc import (
    ChainConfig,
    estimate_joint_moment,
    quadrature_expectation,
    sample_hp,
)
from cuemoments.painleve import (
    painleve5_residual,
    phi_series,
    sigma_p3_residual,
    tau_finiteN,
    tau_limit,
)
from cuemoments.symfunc import a_coeff
from cuemoments.sympoly import SymPoly
from oracles import a_coeff_bruteforce


def test_criterion_1_finite_size_oracle_equality():
    """finite_joint_moment(Z, n=(2,), 2h=(2,)) == oracle_finiteN_F20(N),
    bit-identical as canonical rational functions, N = 1..6."""
    for N in range(1, 7):
        spec = MomentSpec(orders=(2,), exponents=(2,), variant="Z", size=N)
        assert finite_joint_moment(spec) == oracle_finiteN_F20(N), N


def test_criterion_2_limiting_vs_double_binomial_oracle():
    for n in (1, 2, 3):
        assert limiting_moment((n,), (2,)) == oracle_second_moment_Y(n), n


def test_criterion_3_derived_benchmark():
    rf = limiting_moment((1,), (2,))
    assert rf == RationalFunction(Poly((1,)), Poly((-1, 0, 4)))
    at_one = rf.eval(Fraction(1))
    assert at_one == Fraction(1, 3)
    assert at_one == -2 * phi_series(1, 4)[2]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_criterion_4_painleve5_finite(N, s):
    tau = tau_finiteN(N, s)
    assert painleve5_residual(tau, N, s).is_zero()
    if (N, s) == (1, 1):
        assert tau == RationalFunction(Poly((0, 0, -1)), Poly((4, 2)))


@pytest.mark.parametrize("s", [1, 2])
def test_criterion_5_sigma_p3_limit(s):
    res = sigma_p3_residual(tau_limit(s, K=16), s)
    assert all(res[k] == 0 for k in range(13))


class TestCriterion6IdentitySuite:
    @pytest.mark.parametrize("N,s", [(1, 1), (2, 2), (3, 3)])
    def test_theta_recurrences(self, N, s):
        for m in range(0, 21):
            assert theta_derivative_residual(m, N, s).is_zero()
            assert theta_three_term_residual(m, N, s).is_zero()

    def test_alternating_sums(self):
        for N in (1, 2, 3):
            for s in (1, 2, 3):
                for l in (1, 2, 3, 4):
                    assert alternating_sum_residual(N, s, l).is_zero()

    def test_initial_conditions(self):
        for N in (1, 2, 3):
            for s in (1, 2, 3):
                r1, r2 = initial_condition_residuals(N, s)
                assert r1.is_zero_through_ord()
                assert r2.is_zero_through_ord()

    @pytest.mark.parametrize("l", [3, 4])
    @pytest.mark.parametrize("k", [2, 3])
    def test_vector_recursion(self, l, k):
        for N in (1, 2, 3):
            for s in (1, 2, 3):
                assert verify_vector_recursion(l, k, N, s) == 0, (l, k, N, s)

    def test_characteristic_function_relations(self):
        for N in (1, 2, 3):
            for s in (1, 2, 3):
                r1, r2 = cor_relation_residuals(N, s)
                assert r1.is_zero() and r2.is_zero()


class TestCriterion7MonteCarlo:
    SEEDS = range(1, 41)

    @staticmethod
    def _run(seed, N, s, spec):
        cfg = ChainConfig(N=N, s=s, chains=4, burn_in=300, samples=1500,
                          seed=seed)
        return estimate_joint_moment(sample_hp(cfg), spec)

    def _hit_count(self, N, s, spec, target):
        hits = 0
        for seed in self.SEEDS:
            est, stderr, _ = self._run(seed, N, s, spec)
            if abs(est - target) <= 4 * stderr:
                hits += 1
        return hits

    def test_first_derivative_target(self):
        # E_1^{(2)}[x^2]/4 = 1/12 (first-derivative spec at N = 1)
        spec = MomentSpec(orders=(1,), exponents=(2,), variant="Z", size=1)
        assert self._hit_count(1, 2, spec, 1 / 12) >= 38

    def test_second_derivative_target(self):
        # the N = 2, s = 2 value of criterion 1's quantity: 2/5 (the oracle
        # already carries the 2^{-4} prefactor, as does the estimator)
        spec = MomentSpec(orders=(2,), exponents=(2,), variant="Z", size=2)
        target = float(oracle_finiteN_F20(2).eval(Fraction(2)))
        assert self._hit_count(2, 2, spec, target) >= 38

    def test_fractional_exponent_vs_quadrature(self):
        # non-integer exponent: E[|x|]/2 at N = 1, s = 2, quadrature target
        spec = MomentSpec(orders=(1,), exponents=(1.0,), variant="Z", size=1)
        target = 0.5 * quadrature_expectation(
            1, 2, lambda X: np.abs(X[:, 0]), nodes_per_dim=400, check=False)
        assert target == pytest.approx(2 / (3 * math.pi), rel=1e-4)
        assert self._hit_count(1, 2, spec, target) >= 38


def _monomial_symmetric(N, parts):
    """m_lambda at arity N: the sum over distinct coordinate arrangements."""
    padded = tuple(parts) + (0,) * (N - len(parts))
    terms = {expo: Fraction(1) for expo in set(itertools.permutations(padded))}
    return SymPoly(N, terms)


def _partitions(total, max_parts):
    def gen(rest, bound, prefix):
        if rest == 0:
            yield prefix
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(rest, bound), 0, -1):
            yield from gen(rest - part, part, prefix + (part,))
    yield from gen(total, total, ())


def test_criterion_8_quadrature_matches_exact():
    checked = 0
    for N in (1, 2, 3):
        for s in (1, 2, 3):
            for degree in range(1, 7):
                for parts in _partitions(degree, N):
                    # tail-decay precondition for per-variable degree d:
                    # d + 2(N-1) < 2(s+N) - 1, else the integral diverges
                    if parts[0] + 2 * (N - 1) >= 2 * (s + N) - 1:
                        continue
                    P = _monomial_symmetric(N, parts)
                    exact = float(hp_expectation(P, N).eval(Fraction(s)))
                    val = quadrature_expectation(N, s, P)
                    scale = max(abs(exact), 1e-3)
                    assert abs(val - exact) / scale < 1e-9, (N, s, parts)
                    checked += 1
    assert checked > 80


class TestCriterion9CoefficientSuite:
    def test_egf_matches_bruteforce(self):
        for N in range(1, 7):
            for n in range(0, 7):
                for l in range(0, min(n, N) + 1):
                    assert a_coeff(n, l, N) == a_coeff_bruteforce(n, l, N)

    def test_diagonal_values(self):
        for n in range(0, 7):
            assert a_coeff(n, n, 6) == (-1) ** n * math.factorial(n)

    def test_parity_zeros(self):
        for n in range(0, 9):
            for l in range(0, min(n, 6) + 1):
                if (n - l) % 2:
                    assert a_coeff(n, l, 6) == 0


def test_criterion_10_barnes_constant():
    assert keating_snaith_constant(1) == 1
    assert keating_snaith_constant(2) == Fraction(1, 12)
    assert float(keating_snaith_constant(1.0)) == pytest.approx(1.0, rel=1e-6)
    assert float(keating_snaith_constant(2.0)) == pytest.approx(1 / 12,
                                                                rel=1e-6)
