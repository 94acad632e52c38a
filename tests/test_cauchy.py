"""Tests for exact expectations over the heavy-tailed eigenvalue measure:
weight moments, collected expectations, limiting and finite-size joint
moments, and the independent closed-form oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuemoments.cauchy import (
    MomentSpec,
    _even_moments,
    cauchy_det_bruteforce,
    cauchy_det_leading_coeff,
    domain,
    finite_joint_moment,
    hp_expectation,
    keating_snaith_constant,
    limiting_moment,
    oracle_finiteN_F20,
    oracle_second_moment_V,
    oracle_second_moment_Y,
    weight_moment,
)
from cuemoments.exact import Poly, RationalFunction
from cuemoments.sympoly import SymPoly
from cuemoments.symfunc import vandermonde_squared

S = Poly((0, 1))


class TestWeightMoment:
    def test_odd_is_zero(self):
        assert weight_moment(1, 1).is_zero()
        assert weight_moment(3, 2).is_zero()

    def test_second_moment(self):
        assert weight_moment(2, 1) == RationalFunction(Poly((1,)), Poly((-1, 2)))

    def test_fourth_moment(self):
        # 3/((2s-1)(2s-3))
        assert weight_moment(4, 1) == RationalFunction(
            Poly((3,)), Poly((-1, 2)) * Poly((-3, 2)))

    def test_normalization(self):
        assert weight_moment(0, 3) == RationalFunction.const(1)


class TestHpExpectation:
    def test_constant(self):
        for m in (1, 2, 3):
            assert hp_expectation(SymPoly.const(m, 5), m) == RationalFunction.const(5)

    def test_single_variable_square(self):
        assert hp_expectation(SymPoly(1, {(2,): 1}), 1) == weight_moment(2, 1)

    def test_pair_sum_square(self):
        # E[(x1+x2)^2] = 3/(2s-1) - 1/(2s+1)
        e1 = SymPoly(2, {(1, 0): 1, (0, 1): 1})
        expected = RationalFunction(Poly((3,)), Poly((-1, 2))) \
            - RationalFunction(Poly((1,)), Poly((1, 2)))
        assert hp_expectation(e1 * e1, 2) == expected

    def test_parity_invariance(self):
        # odd-degree monomial content integrates to zero
        P = SymPoly(2, {(1, 0): 1, (3, 2): 7, (1, 1): -2})
        flipped = SymPoly(2, {e: c * (-1) ** sum(e) for e, c in P.terms.items()})
        assert hp_expectation(P, 2) == hp_expectation(flipped, 2)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(-3, 3)), max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, terms):
        P = SymPoly(2, {(a, b): c for a, b, c in terms})
        Q = SymPoly(2, {(1, 1): 2})
        lhs = hp_expectation(P + Q, 2)
        rhs = hp_expectation(P, 2) + hp_expectation(Q, 2)
        assert lhs == rhs

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            hp_expectation(SymPoly.const(8, 1), 8)


def _dense_even_moments(Q):
    """Reference: the even-monomial sums of an expanded Q, keyed by the
    non-increasing tuple of halved exponents (the dense route that expanded
    P * Delta^2 monomial by monomial)."""
    agg = {}
    for expo, coeff in Q.terms.items():
        if any(x % 2 for x in expo):
            continue
        key = tuple(sorted((x // 2 for x in expo), reverse=True))
        agg[key] = agg.get(key, Fraction(0)) + coeff
    return {k: v for k, v in agg.items() if v != 0}


def _dense_expectation(P, m):
    """Reference: <P * Delta^2> / <Delta^2> from the expanded product, each
    even monomial integrated as a product of one-dimensional weight moments."""
    def unnorm(Q):
        total = RationalFunction(Poly())
        for key, coeff in _dense_even_moments(Q).items():
            term = RationalFunction.const(coeff)
            for p in key:
                term = term * weight_moment(2 * p, m)
            total = total + term
        return total

    delta2 = vandermonde_squared(m)
    return unnorm(P * delta2) / unnorm(delta2)


@st.composite
def integrands(draw):
    """An arbitrary, usually non-symmetric SymPoly of arity 1-4 with mixed
    denominators; odd monomials, constants and the zero polynomial occur."""
    m = draw(st.integers(1, 4))
    top = draw(st.sampled_from([0, 1, 3, 6]))
    expos = st.tuples(*[st.integers(0, top)] * m)
    coeffs = st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]),
        st.fractions(max_denominator=30, min_value=Fraction(-50), max_value=Fraction(50)))
    return SymPoly(m, draw(st.dictionaries(expos, coeffs, max_size=6))), m


class TestEvenOrbitContraction:
    @given(integrands())
    @example((SymPoly(3), 3))
    @example((SymPoly.const(4, Fraction(-7, 3)), 4))
    @example((SymPoly(2, {(3, 0): 1}), 2))
    @example((SymPoly(3, {(2, 1, 0): Fraction(1, 6), (0, 1, 2): Fraction(-3, 10),
                          (1, 1, 1): 4}), 3))
    @settings(max_examples=80, deadline=None)
    def test_equals_dense_route(self, case):
        P, m = case
        assert _even_moments(P, m) == _dense_even_moments(P * vandermonde_squared(m))
        assert hp_expectation(P, m) == _dense_expectation(P, m)


class TestLimitingMoment:
    def test_first_order_second_moment(self):
        # 1/(4s^2 - 1)
        assert limiting_moment((1,), (2,)) == RationalFunction(
            Poly((1,)), Poly((-1, 0, 4)))

    def test_value_at_one(self):
        assert limiting_moment((1,), (2,)).eval(Fraction(1)) == Fraction(1, 3)

    def test_oracle_equivalence(self):
        for n in (1, 2):
            assert limiting_moment((n,), (2,)) == oracle_second_moment_Y(n)

    def test_rejects_odd_exponent(self):
        with pytest.raises(ValueError):
            limiting_moment((1,), (3,))

    def test_denominator_structure(self):
        # denominators factor into (2s - odd) and (2s + integer) factors
        for n in (1, 2, 3):
            den = oracle_second_moment_Y(n).den
            residual = den
            for j in range(-15, 16):
                f = Poly((Fraction(j, 2), 1))  # monic factor s + j/2
                while residual.degree() > 0 and (residual % f).is_zero():
                    residual = residual.exact_div(f)
            assert residual.degree() == 0


class TestFiniteJointMoment:
    def test_size1_second_derivative(self):
        spec = MomentSpec(orders=(2,), exponents=(2,), variant="Z", size=1)
        assert finite_joint_moment(spec) == RationalFunction.const(Fraction(1, 16))

    def test_oracle_f20_small(self):
        assert oracle_finiteN_F20(1) == RationalFunction.const(Fraction(1, 16))
        assert oracle_finiteN_F20(2).eval(Fraction(2)) == Fraction(2, 5)

    def test_rejects_odd_exponent(self):
        spec = MomentSpec(orders=(1,), exponents=(1,), variant="Z", size=2)
        with pytest.raises(ValueError):
            finite_joint_moment(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MomentSpec(orders=(1, 2), exponents=(2, 2), variant="Z", size=2)
        with pytest.raises(ValueError):
            MomentSpec(orders=(1,), exponents=(2,), variant="W", size=2)
        with pytest.raises(ValueError):
            MomentSpec(orders=(3, -1), exponents=(2, 2), variant="Z", size=2)
        for e in (0, -2):
            with pytest.raises(ValueError):
                MomentSpec(orders=(1,), exponents=(e,), variant="Z", size=2)


# the integrand shapes (orders, exponents) of the benchmark's exact sweep
SHAPES = (((1,), (2,)), ((2,), (2,)), ((3,), (2,)), ((1,), (4,)), ((2,), (4,)),
          ((2, 1), (2, 2)), ((3, 1), (2, 2)), ((3, 2), (2, 2)))


def _half_integer_poles(den):
    """Divide the monic denominator by every factor s + j/2 it has; returns
    what is left and the roots divided out."""
    poles = []
    for j in range(-40, 41):
        r = Fraction(j, 2)
        while den.degree() > 0 and den.eval(r) == 0:
            den = den.exact_div(Poly((-r, 1)))
            poles.append(r)
    return den, poles


class TestDomain:
    def test_bound(self):
        assert domain((2,)) == Fraction(1, 2)
        assert domain((2, 2)) == Fraction(3, 2)
        assert domain((Fraction(3, 2),)) == Fraction(1, 4)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["Z", "V"])
    @pytest.mark.parametrize("orders,exponents", SHAPES)
    def test_finite_poles_outside_domain(self, N, variant, orders, exponents):
        rf = finite_joint_moment(MomentSpec(orders, exponents, variant, N))
        rest, poles = _half_integer_poles(rf.den)
        assert rest.degree() == 0
        assert all(p <= domain(exponents) for p in poles)

    @pytest.mark.parametrize("variant,orders,exponents", [
        ("Z", (1,), (2,)), ("Z", (2,), (2,)), ("Z", (1,), (4,)),
        ("V", (1,), (2,)), ("V", (2,), (2,)),
    ])
    def test_leading_largest_pole_is_bound(self, variant, orders, exponents):
        rf = (limiting_moment(orders, exponents) if variant == "Z"
              else oracle_second_moment_V(orders[0]))
        rest, poles = _half_integer_poles(rf.den)
        assert rest.degree() == 0
        assert max(poles) == domain(exponents)


class TestOracleV:
    def test_closed_form_values(self):
        # 2^{2n} (2s-1)/(2s-1+2n) prod_{l<=n} ((l+s-1)/(l+2s-2))^2
        assert oracle_second_moment_V(1).eval(Fraction(2)) == Fraction(16, 15)
        assert oracle_second_moment_V(2).eval(Fraction(1)) == Fraction(16, 5)

    def test_trivial_order_zero(self):
        assert oracle_second_moment_V(0) == RationalFunction.const(1)


class TestCauchyDet:
    @pytest.mark.parametrize("n,m,s", [(0, 0, 1), (1, 1, 2), (2, 1, 2),
                                       (2, 2, 2), (3, 2, 3), (1, 1, 4)])
    def test_product_formula_matches_bruteforce(self, n, m, s):
        import math
        pref = Fraction(math.factorial(n) * math.factorial(m),
                        math.factorial(s - 1 + n) * math.factorial(s - 1 + m))
        for j in range(2, s + 1):
            pref /= Fraction(math.factorial(s - j)) ** 2
        assert cauchy_det_leading_coeff(n, m, s) == pref * cauchy_det_bruteforce(n, m, s)

    def test_smallest_case(self):
        assert cauchy_det_leading_coeff(0, 0, 1) == 1

    def test_rejects_s_below_one(self):
        for fn in (cauchy_det_leading_coeff, cauchy_det_bruteforce):
            with pytest.raises(ValueError):
                fn(1, 1, 0)


class TestKeatingSnaith:
    def test_exact_integer_values(self):
        assert keating_snaith_constant(1) == 1
        assert keating_snaith_constant(2) == Fraction(1, 12)

    def test_float_route_agrees(self):
        assert float(keating_snaith_constant(1.0)) == pytest.approx(1.0, rel=1e-6)
        assert float(keating_snaith_constant(2.0)) == pytest.approx(1 / 12, rel=1e-6)

    def test_half_integer_positive(self):
        v = keating_snaith_constant(0.5)
        assert v == pytest.approx(1.1432370737066495, rel=1e-8)

    def test_float_route_where_G_overflows(self):
        # G(30) alone is beyond the float range; the ratio is not
        v = keating_snaith_constant(14.5)
        assert v == pytest.approx(1.1516889949708206e-234, rel=1e-9)
