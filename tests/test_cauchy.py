"""Tests for exact expectations over the heavy-tailed eigenvalue measure:
weight moments, collected expectations, limiting and finite-size joint
moments, and the independent closed-form oracles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuemoments.cauchy import (
    MomentSpec,
    _compositions,
    _delta2_factors,
    _even_moments,
    _limit_terms,
    _orbit_terms,
    _schur_limit,
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
from cuemoments.exact import Poly, RationalFunction, _summed
from cuemoments.painleve import phi_series
from cuemoments.sympoly import SymPoly
from cuemoments.symfunc import v_variant_integrand, vandermonde_squared, xi_poly
from oracles import (hp_expectation_gcd, limiting_moment_gcd, numerators_poly,
                     second_moment_V_factors, second_moment_V_product, weight_moment)


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
            assert hp_expectation(SymPoly.const(m, 5)) == RationalFunction.const(5)

    def test_single_variable_square(self):
        assert hp_expectation(SymPoly(1, {(2,): 1})) == weight_moment(2, 1)

    def test_pair_sum_square(self):
        # E[(x1+x2)^2] = 3/(2s-1) - 1/(2s+1)
        e1 = SymPoly(2, {(1, 0): 1, (0, 1): 1})
        expected = RationalFunction(Poly((3,)), Poly((-1, 2))) \
            - RationalFunction(Poly((1,)), Poly((1, 2)))
        assert hp_expectation(e1 * e1) == expected

    def test_parity_invariance(self):
        # odd-degree monomial content integrates to zero
        P = SymPoly(2, {(1, 0): 1, (3, 2): 7, (1, 1): -2})
        flipped = SymPoly(2, {e: c * (-1) ** sum(e) for e, c in P.terms.items()})
        assert hp_expectation(P) == hp_expectation(flipped)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(-3, 3)), max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, terms):
        P = SymPoly(2, {(a, b): c for a, b, c in terms})
        Q = SymPoly(2, {(1, 1): 2})
        lhs = hp_expectation(P + Q)
        rhs = hp_expectation(P) + hp_expectation(Q)
        assert lhs == rhs

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            hp_expectation(SymPoly.const(8, 1))


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
        # int sums over P.den
        assert {key: Fraction(v, P.den) for key, v in _even_moments(P, m).items()} \
            == _dense_even_moments(P * vandermonde_squared(m))
        assert hp_expectation(P) == _dense_expectation(P, m)


class TestLimitingMoment:
    def test_first_order_second_moment(self):
        # 1/(4s^2 - 1)
        assert limiting_moment((1,), (2,)) == RationalFunction(
            Poly((1,)), Poly((-1, 0, 4)))

    def test_value_at_one(self):
        assert limiting_moment((1,), (2,)).eval(Fraction(1)) == Fraction(1, 3)

    def test_oracle_equivalence(self):
        for n in range(1, 10):
            assert limiting_moment((n,), (2,)) == oracle_second_moment_Y(n)

    @pytest.mark.parametrize("s", range(1, 10))
    def test_characteristic_function(self, s):
        # the limit analogue of F1: E[Y_1^{2k}] = (-1)^k (2k)! [t^{2k}] phi_s,
        # for every k <= s, the moments that converge at integer s
        K = min(2 * s, 18)
        phi = phi_series(s, K)
        for k in range(1, K // 2 + 1):
            assert limiting_moment((1,), (2 * k,)).eval(Fraction(s)) \
                == (-1) ** k * math.factorial(2 * k) * phi[2 * k]

    # odd exponents, whose degree is even: Y_2 Y_1^2, Y_1 Y_2 Y_3, Y_2^3, Y_3 Y_1^3, ...
    @pytest.mark.parametrize("orders,exponents", [
        ((2, 1), (1, 2)), ((3, 2, 1), (1, 1, 1)), ((2,), (3,)), ((3, 1), (1, 3)),
        ((4, 2), (1, 1)), ((5, 1), (1, 1)), ((2, 1), (1, 4)), ((3,), (1,)), ((1,), (3,))])
    def test_odd_monomials_equal_alternating_sum(self, orders, exponents):
        parts = [n for n, e in zip(orders, exponents) for _ in range(e)]
        assert repr(RationalFunction.from_factors(_limit_terms(parts))) \
            == repr(limiting_moment_gcd(orders, exponents))

    @pytest.mark.parametrize("n,bounds", [
        (0, ()), (1, ()), (0, (2, 0)), (3, (1, 2, 3)), (4, (2, 1, 4)), (5, (1, 1, 1)), (6, (3, 0, 2, 6))])
    def test_strips_are_the_bounded_compositions(self, n, bounds):
        ref = [t for t in itertools.product(*[range(b + 1) for b in bounds]) if sum(t) == n]
        assert list(_compositions(n, bounds)) == ref

    @pytest.mark.parametrize("parts", [[1] * 8, [2, 2, 1, 1, 1, 1], [3, 3, 2, 2]])
    def test_limit_terms_one_per_factor_counts(self, parts):
        terms = _limit_terms(parts)
        keys = [frozenset(counts.items()) for _, _, counts in terms]
        assert len(set(keys)) == len(keys)
        assert all(c for _, c, _ in terms)

    @pytest.mark.parametrize("size", range(1, 13))
    def test_conjugation_duality(self, size):
        # a_{lambda'}(s) = a_lambda(-s); prod h is the same for both
        for lam in _partitions(size):
            conj = tuple(sum(p > j for p in lam) for j in range(lam[0]))
            a, b = _schur_limit(lam), _schur_limit(conj)
            assert (a is None) == (b is None)
            if a is not None:
                f, g = (RationalFunction.from_factors([([1], c, counts)]) for c, counts in (a, b))
                for s in (Fraction(1, 3), Fraction(-2, 7), Fraction(11, 5)):
                    assert g.eval(s) == f.eval(-s)

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


def _summed_polys(terms):
    """exact._summed of the terms as Polys in s: total(2s) over its scale,
    and the product of the union of factor counts."""
    total, scale, union = _summed(terms)
    den = Poly.const(1)
    for k, e in union.items():
        den = den * math.prod([Poly((k, 2))] * e)
    return Poly(total).scale_arg(2) * Fraction(1, scale), den


class TestNumerators:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", ["Z", "V"])
    @pytest.mark.parametrize("orders,exponents", SHAPES)
    def test_sweep_aggs_equal_poly_route(self, N, variant, orders, exponents):
        # the integrand of finite_joint_moment, and the normalization
        for P in (_integrand(N, variant, orders, exponents), SymPoly.const(N, 1)):
            agg = _even_moments(P, N)
            assert _summed_polys(_orbit_terms(agg, N, 1, {})) == numerators_poly(agg, N)

    def test_keys_sharing_no_factor_vector(self):
        # E = (3, 1, 1); the keys' factor exponents r are (1, 0, 1),
        # (0, 1, 1) and (2, 0, 0), so each key is multiplied by its own
        # product of factors
        agg = {(2, 1, 0): 3, (1, 1, 1): -2, (3, 0, 0): 7}
        assert _summed_polys(_orbit_terms(agg, 3, 1, {})) == numerators_poly(agg, 3)
        for other in ({(1, 0, 0): 1}, {}):
            assert _summed_polys(_orbit_terms(other, 3, 1, {})) == numerators_poly(other, 3)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_orbit_term_is_product_of_weight_moments(self, m):
        # each orbit with halved exponents key and sum v is c v times the
        # weight moments of its parts, with the counts minus taken off
        P = _integrand(m, "V", (2, 1), (2, 2))
        minus = {2 * m - 3: 1, 4: -2}
        agg = _even_moments(P, m)
        terms = _orbit_terms(agg, m, Fraction(-3, 7), minus)
        assert len(terms) == len(agg)
        for (key, v), term in zip(agg.items(), terms):
            expected = RationalFunction.const(Fraction(-3, 7) * v)
            for p in key:
                expected = expected * weight_moment(2 * p, m)
            # minus takes one 2s + 2m - 3 off the denominator and adds (2s + 4)^2
            expected = expected * RationalFunction(Poly((2 * m - 3, 2)), Poly((4, 2)) * Poly((4, 2)))
            assert RationalFunction.from_factors([term]) == expected


class TestDelta2Factors:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_equals_numerator_ratio(self, m):
        c, counts = _delta2_factors(m)
        num, den = numerators_poly(_even_moments(SymPoly.const(m, 1), m), m)
        assert RationalFunction.from_factors([([1], c, counts)]) == RationalFunction(num, den)


# the finite specs of the benchmark's exact sweep
FINITE_SPECS = tuple((N, v, o, e) for N in (1, 2, 3, 4) for v in ("Z", "V") for o, e in SHAPES) \
    + ((5, "Z", (1,), (2,)), (5, "Z", (2,), (2,)), (5, "V", (1,), (2,)))


class TestFactorCountsEqualGcdRoute:
    @pytest.mark.parametrize("N,variant,orders,exponents", FINITE_SPECS)
    def test_finite(self, N, variant, orders, exponents):
        L = sum(n * e for n, e in zip(orders, exponents))
        expected = RationalFunction.const(Fraction(1, 2 ** L)) \
            * hp_expectation_gcd(_integrand(N, variant, orders, exponents))
        assert finite_joint_moment(MomentSpec(orders, exponents, variant, N)) == expected

    # every even spec with L <= 6: the Z leading specs of the exact sweep,
    # the two L = 6 moments and (3),(2)
    @pytest.mark.parametrize("orders,exponents", [
        ((1,), (2,)), ((2,), (2,)), ((1,), (4,)), ((2, 1), (2, 2)), ((1,), (6,)), ((3,), (2,))])
    def test_limiting(self, orders, exponents):
        assert repr(limiting_moment(orders, exponents)) == repr(limiting_moment_gcd(orders, exponents))


def _partitions(n, most=None):
    """Every partition of n into parts <= most, as non-increasing tuples."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, most or n), 0, -1) for rest in _partitions(n - p, p)]


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
