"""Tests for exact expectations over the heavy-tailed eigenvalue measure:
weight moments, collected expectations, limiting and finite-size joint
moments, and the independent closed-form oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuemoments.cauchy import (
    MomentSpec,
    _delta2_factors,
    _even_moments,
    _linear_factors,
    _numerator,
    domain,
    finite_joint_moment,
    hp_expectation,
    keating_snaith_constant,
    limiting_moment,
    oracle_finiteN_F20,
    oracle_second_moment_V,
    oracle_second_moment_Y,
)
from cuemoments.cli import MAX_V_ORDER
from cuemoments.exact import Poly, RationalFunction
from cuemoments.sympoly import SymPoly
from cuemoments.symfunc import elementary, v_variant_integrand, vandermonde_squared, xi_poly
from oracles import (hp_expectation_gcd, numerators_poly, second_moment_V_factors,
                     second_moment_V_product, weight_moment)


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
    num, den = unnorm(P * delta2), unnorm(delta2)
    return RationalFunction(num.num * den.den, num.den * den.num)


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
    # the most parts >= j, j = 1, 2, 3: (2, 2, 1) over the keys of P * Delta^2
    # against (3, 1) over those of Delta^2, so neither bounds the other
    @example((SymPoly(3, {(1, 0, 1): 2, (0, 0, 2): 1}), 3))
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
                while residual.degree() > 0 and residual.divmod(f)[1].is_zero():
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

    @pytest.mark.parametrize("e", [3, Fraction(3, 2)])
    def test_one_exponent_rule_for_both_engines(self, e):
        # the exact engines share one check and one message
        message = "the exact engine needs positive even integer exponents"
        with pytest.raises(ValueError, match=message):
            limiting_moment((1,), (e,))
        for variant in ("Z", "V"):
            with pytest.raises(ValueError, match=message):
                finite_joint_moment(MomentSpec((1,), (e,), variant, 2))

    @pytest.mark.parametrize("spec,bound", [
        (MomentSpec((1,), (66,), "Z", 1), "degree cap 64"),
        (MomentSpec((2,), (20,), "Z", 4), "at most 100000 integrand monomials; got 100331"),
        (MomentSpec((3, 2, 1), (6, 6, 6), "V", 5), "got 617728"),
    ])
    def test_size_bound_before_any_expansion(self, monkeypatch, spec, bound):
        import cuemoments.cauchy as cauchy

        def no_work(*args):
            pytest.fail("an integrand was built for a spec above its size bound")

        monkeypatch.setattr(cauchy, "xi_poly", no_work)
        monkeypatch.setattr(cauchy, "v_variant_integrand", no_work)
        with pytest.raises(ValueError, match=bound):
            finite_joint_moment(spec)

    def test_integral_fraction_exponents(self):
        # the CLI passes the Fractions it parsed
        for variant in ("Z", "V"):
            assert finite_joint_moment(MomentSpec((2, 1), (Fraction(2), Fraction(2)), variant, 2)) \
                == finite_joint_moment(MomentSpec((2, 1), (2, 2), variant, 2))
        assert limiting_moment((2, 1), (Fraction(2), Fraction(2))) == limiting_moment((2, 1), (2, 2))

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


def _integrand(N, variant, orders, exponents):
    """The integrand of finite_joint_moment, before its 2^{-L}."""
    if variant == "V":
        return v_variant_integrand(orders, exponents, N)
    P = SymPoly.const(N, 1)
    for n, e in zip(orders, exponents):
        P = P * xi_poly(n, N) ** e
    return P


def _numerator_polys(agg, m):
    """cauchy._numerator as Polys in s: num(2s) times its constant, and the
    product of its factor counts."""
    num, c, counts = _numerator(agg, m)
    den = Poly.const(1)
    for k, e in counts.items():
        den = den * math.prod([Poly((k, 2))] * e)
    return Poly(num).scale_arg(2) * c, den


class TestNumerators:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", ["Z", "V"])
    @pytest.mark.parametrize("orders,exponents", SHAPES)
    def test_sweep_aggs_equal_poly_route(self, N, variant, orders, exponents):
        # the integrand of finite_joint_moment, and the normalization
        for P in (_integrand(N, variant, orders, exponents), SymPoly.const(N, 1)):
            agg = _even_moments(P, N)
            assert _numerator_polys(agg, N) == numerators_poly(agg, N)

    def test_keys_sharing_no_factor_vector(self):
        # E = (3, 1, 1); the keys' factor exponents r are (1, 0, 1),
        # (0, 1, 1) and (2, 0, 0), so no product of factors is reused
        agg = {(2, 1, 0): Fraction(3, 2), (1, 1, 1): Fraction(-2, 5), (3, 0, 0): Fraction(7)}
        assert _numerator_polys(agg, 3) == numerators_poly(agg, 3)
        for other in ({(1, 0, 0): Fraction(1, 3)}, {}):
            assert _numerator_polys(other, 3) == numerators_poly(other, 3)


class TestDelta2Factors:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_equals_numerator_ratio(self, m):
        c, counts = _delta2_factors(m)
        num, den = numerators_poly(_even_moments(SymPoly.const(m, 1), m), m)
        assert RationalFunction.from_factors([([1], c, counts)]) == RationalFunction(num, den)

    def test_split(self):
        # 3(u + 2)^2 (u - 1) = 3u^3 + 9u^2 - 12
        assert _linear_factors([-12, 0, 9, 3], range(-4, 5)) == (3, {-1: 1, 2: 2})
        assert _linear_factors([5], range(-4, 5)) == (5, {})

    @pytest.mark.parametrize("num", [
        [1, 0, 1],     # u^2 + 1 has no real root
        [-7, 1],       # u - 7: its root lies outside the candidates
        [3, 2, 0, 2],  # 2u^3 + 2u + 3: no factor u + k at all
        [],            # the zero numerator
    ])
    def test_no_split_raises(self, num):
        with pytest.raises(ArithmeticError):
            _linear_factors(num, range(-4, 5))


# the finite specs of the benchmark's exact sweep
FINITE_SPECS = tuple((N, v, o, e) for N in (1, 2, 3, 4) for v in ("Z", "V") for o, e in SHAPES) \
    + ((5, "Z", (1,), (2,)), (5, "Z", (2,), (2,)), (5, "V", (1,), (2,)))


def _limiting_gcd(orders, exponents):
    """limiting_moment's alternating sum on gcd-reduced RationalFunctions."""
    L = sum(n * e for n, e in zip(orders, exponents))
    pref = Fraction(math.prod(math.factorial(n) ** e for n, e in zip(orders, exponents)),
                    math.factorial(L))
    total = RationalFunction(Poly())
    for m in range(orders[0], L + 1):
        P = SymPoly.const(m, 1)
        for n, e in zip(orders, exponents):
            P = P * elementary(n, m) ** e
        total = total + (-1) ** (m + L) * math.comb(L, m) * hp_expectation_gcd(P, m)
    return RationalFunction.const(pref) * total


class TestFactorCountsEqualGcdRoute:
    @pytest.mark.parametrize("N,variant,orders,exponents", FINITE_SPECS)
    def test_finite(self, N, variant, orders, exponents):
        L = sum(n * e for n, e in zip(orders, exponents))
        expected = RationalFunction.const(Fraction(1, 2 ** L)) \
            * hp_expectation_gcd(_integrand(N, variant, orders, exponents), N)
        assert finite_joint_moment(MomentSpec(orders, exponents, variant, N)) == expected

    # the Z leading specs of the exact sweep, and the two L = 6 moments
    @pytest.mark.parametrize("orders,exponents", [
        ((1,), (2,)), ((2,), (2,)), ((1,), (4,)), ((2, 1), (2, 2)), ((1,), (6,))])
    def test_limiting(self, orders, exponents):
        assert limiting_moment(orders, exponents) == _limiting_gcd(orders, exponents)


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

    # 64 was the CLI bound MAX_V_ORDER while the closed form ran a gcd
    @pytest.mark.parametrize("n", list(range(13)) + [64])
    def test_equals_factor_product(self, n):
        assert oracle_second_moment_V(n) == second_moment_V_product(n)

    def test_at_cli_bound(self):
        # the gcd reference would take minutes here: the product is reduced
        # instead at its denominator's roots s = -k/2, while its numerator
        # vanishes there too
        n = MAX_V_ORDER
        num, den = second_moment_V_factors(n)
        for k in {2 * n - 1} | {l - 2 for l in range(1, n + 1)}:
            root = Fraction(-k, 2)
            f = Poly((-root, 1))
            while den.eval(root) == 0 and num.eval(root) == 0:
                num, den = num.exact_div(f), den.exact_div(f)
        rf = oracle_second_moment_V(n)
        assert (rf.num, rf.den) == (num * Fraction(den.den, den.num[-1]), den.monic())


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

    def test_rational_non_integer(self):
        # 0.015397493667347171 is G(10/3)^2 / G(17/3), computed with mpmath
        v = keating_snaith_constant(Fraction(7, 3))
        assert abs(v - 0.015397493667347171) <= 1e-12 * 0.015397493667347171
        assert type(keating_snaith_constant(Fraction(6, 2))) is Fraction

    def test_float_route_where_G_overflows(self):
        # G(30) alone is beyond the float range; the ratio is not
        v = keating_snaith_constant(14.5)
        assert v == pytest.approx(1.1516889949708206e-234, rel=1e-9, abs=0)
