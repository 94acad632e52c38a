"""Tests for multivariate polynomials and the symmetric-function layer:
elementary polynomials, the derivative-expansion coefficients a_{n,l},
Xi polynomials, and Newton conversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuemoments.sympoly import SymPoly
from cuemoments.symfunc import (
    a_coeff,
    elementary,
    newton_convert,
    v_variant_integrand,
    vandermonde_squared,
    xi_poly,
)
from oracles import (a_coeff_bruteforce, a_coeff_double_sum, fraction_dict_add,
                     fraction_dict_mul, variable)


# Mixed denominators and negatives; the +-1 and +-1/2 values make partial
# sums cancel often.
kernel_coeffs = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]),
    st.fractions(max_denominator=30, min_value=Fraction(-50), max_value=Fraction(50)))


@st.composite
def sympoly_pairs(draw):
    """Two SymPolys of one arity (1-4). The top exponent may be large, and
    differs between the factors, so products reach the packing base."""
    arity = draw(st.integers(1, 4))

    def one():
        top = draw(st.sampled_from([0, 1, 3, 40]))
        expos = st.tuples(*[st.integers(0, top)] * arity)
        return SymPoly(arity, draw(st.dictionaries(expos, kernel_coeffs, max_size=6)))

    return one(), one()


def schoolbook_product(p, q):
    """Reference product, one Fraction and one tuple sum per term pair."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


class TestSymPoly:
    def test_const_and_variable(self):
        p = variable(2, 0) + SymPoly.const(2, 3)
        assert p.terms == {(1, 0): Fraction(1), (0, 0): Fraction(3)}

    def test_zero_coefficients_dropped(self):
        p = variable(2, 0) - variable(2, 0)
        assert p.is_zero()

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            variable(2, 0) + variable(3, 0)

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_product_commutes(self, arity, i, j):
        x = variable(arity, i % arity)
        y = variable(arity, j % arity) + SymPoly.const(arity, 2)
        assert x * y == y * x

    @given(sympoly_pairs())
    @settings(max_examples=150, deadline=None)
    def test_product_matches_schoolbook(self, pair):
        p, q = pair
        prod = p * q
        assert prod.arity == p.arity
        assert prod.terms == schoolbook_product(p, q)
        assert all(type(c) is Fraction and c != 0 for c in prod.terms.values())

    def test_product_edge_cases(self):
        x = variable(2, 0)
        y = variable(2, 1)
        assert (SymPoly(2) * x).is_zero() and (x * SymPoly(2)).is_zero()
        assert SymPoly.const(2, Fraction(2, 3)) * SymPoly.const(2, Fraction(-3, 4)) \
            == SymPoly.const(2, Fraction(-1, 2))
        # (x + y)(x - y): the xy terms cancel and are not stored
        assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
        # maximum degrees 7 and 2 give base 10; exponent sums reach 9
        p = SymPoly(3, {(7, 0, 7): Fraction(1, 3), (0, 7, 0): -2})
        q = SymPoly(3, {(2, 2, 2): Fraction(3, 5), (0, 0, 1): 1})
        assert (p * q).terms == schoolbook_product(p, q)
        assert (p * q).terms[(9, 2, 9)] == Fraction(1, 5)
        assert 2 * x == x * 2 == SymPoly(2, {(1, 0): 2})


def assert_canonical(p):
    """The storage rule: nonzero int numerators over den > 0 with
    gcd(den, *num) == 1, zero as ({}, 1), and the storage a fresh
    construction from the Fraction terms gives."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if p.is_zero():
        assert (p.num, p.den) == ({}, 1)
    q = SymPoly(p.arity, p.terms)
    assert (q.num, q.den) == (p.num, p.den)


class TestStorage:
    # 1/2 x1 + 1/3 x2 and 3/4 x1 x2 - 5/6: coprime non-unit denominators
    p = SymPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    q = SymPoly(2, {(1, 1): Fraction(3, 4), (0, 0): Fraction(-5, 6)})

    def test_over_one_denominator(self):
        assert (self.p.num, self.p.den) == ({(1, 0): 3, (0, 1): 2}, 6)
        assert self.p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}

    def test_operations_keep_the_rule(self):
        p, q = self.p, self.q
        for r in (p + q, p - q, q - p, p * q, p ** 3, q ** 2, -p, p * 6, 6 * p,
                  p * Fraction(3, 5), Fraction(-2, 9) * q, p * 0, p - p, p + 1, 1 - q,
                  p * SymPoly(2), (p - p) * q):
            assert_canonical(r)

    def test_zero(self):
        for z in (self.p - self.p, self.p * 0, self.q * SymPoly(2), SymPoly(2),
                  SymPoly(2, {(1, 0): Fraction(0, 7)})):
            assert z.is_zero() and (z.num, z.den) == ({}, 1)

    def test_equal_values_equal_storage(self):
        p = self.p
        # the denominators cancel to an integer polynomial
        six_p = SymPoly(2, {(1, 0): 3, (0, 1): 2})
        assert p * 6 == six_p and (p * 6).den == 1
        assert (p + p + p) * 2 == six_p
        square = SymPoly(2, {(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 3),
                             (0, 2): Fraction(1, 9)})
        assert p * p == p ** 2 == square
        assert ((p * p).num, (p * p).den) == (square.num, square.den)
        # a sum whose denominator falls from 6 to 3
        half = SymPoly(2, {(1, 0): Fraction(-1, 2)})
        assert ((p + half).num, (p + half).den) == ({(0, 1): 1}, 3)

    @given(sympoly_pairs(), st.integers(0, 3), kernel_coeffs)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_dict_reference(self, pair, n, c):
        p, q = pair
        a, b = p.terms, q.terms
        minus_b = {e: -v for e, v in b.items()}
        power = {(0,) * p.arity: Fraction(1)}
        for _ in range(n):
            power = fraction_dict_mul(p.arity, power, a)
        for got, want in ((p + q, fraction_dict_add(a, b)),
                          (p - q, fraction_dict_add(a, minus_b)),
                          (p * q, fraction_dict_mul(p.arity, a, b)),
                          (p ** n, power),
                          (p * c, {e: v * c for e, v in a.items() if c})):
            assert got.terms == want
            assert_canonical(got)


class TestElementary:
    def test_small_cases(self):
        assert elementary(0, 2) == SymPoly.const(2, 1)
        assert elementary(1, 2) == SymPoly(2, {(1, 0): 1, (0, 1): 1})
        assert elementary(2, 2) == SymPoly(2, {(1, 1): 1})
        assert elementary(3, 2).is_zero()

    def test_generating_function(self):
        # prod (1 + x_i) = sum_k e_k at arity 4
        m = 4
        prod = SymPoly.const(m, 1)
        for i in range(m):
            prod = prod * (variable(m, i) + SymPoly.const(m, 1))
        total = SymPoly(m)
        for k in range(m + 1):
            total = total + elementary(k, m)
        assert prod == total


def test_vandermonde_squared_arity2():
    # (x1 - x2)^2
    expected = SymPoly(2, {(2, 0): 1, (0, 2): 1, (1, 1): -2})
    assert vandermonde_squared(2) == expected


@pytest.mark.parametrize("m", range(6))
def test_vandermonde_squared_is_product_of_squared_differences(m):
    expected = SymPoly.const(m, 1)
    for i in range(m):
        for j in range(i + 1, m):
            d = variable(m, i) - variable(m, j)
            expected = expected * d * d
    assert vandermonde_squared(m) == expected


class TestACoeff:
    def test_egf_matches_bruteforce(self):
        for N in range(1, 7):
            for n in range(0, 7):
                for l in range(0, min(n, N) + 1):
                    assert a_coeff(n, l, N) == a_coeff_bruteforce(n, l, N), \
                        (n, l, N)

    def test_krawtchouk_form_matches_double_sum(self):
        for N in range(1, 13):
            for n in range(0, 25):
                for l in range(0, min(n, N) + 1):
                    assert a_coeff(n, l, N) == a_coeff_double_sum(n, l, N), \
                        (n, l, N)

    @pytest.mark.parametrize("n", [1, 2, 33, 64])
    def test_krawtchouk_form_matches_double_sum_at_N100(self, n):
        for l in range(0, n + 1):
            assert a_coeff(n, l, 100) == a_coeff_double_sum(n, l, 100), (n, l)

    def test_diagonal(self):
        for n in range(0, 7):
            assert a_coeff(n, n, 6) == (-1) ** n * math.factorial(n)

    def test_parity_zeros(self):
        for n in range(0, 9):
            for l in range(0, min(n, 6) + 1):
                if (n - l) % 2:
                    assert a_coeff(n, l, 6) == 0

    def test_rejects_l_above_N(self):
        # l > N lies outside sinh^l cosh^{N-l}: rejected, not divided by cosh
        with pytest.raises(ValueError):
            a_coeff(4, 4, 3)

    def test_first_derivative_row(self):
        # n = 1: a_{1,1} = -1 for every N
        for N in range(1, 7):
            assert a_coeff(1, 1, N) == -1

    def test_second_derivative_row(self):
        # n = 2: a_{2,0} = -N, a_{2,2} = 2
        for N in range(2, 7):
            assert a_coeff(2, 0, N) == -N
            assert a_coeff(2, 2, N) == 2


class TestXiPoly:
    def test_arity1_second_derivative(self):
        # At arity 1 only l in {0, 1} contribute: Xi_2 = a_{2,0}(1) = -1
        assert xi_poly(2, 1) == SymPoly.const(1, -1)

    def test_order_zero_is_one(self):
        assert xi_poly(0, 3) == SymPoly.const(3, 1)

    def test_order_one_is_minus_e1(self):
        assert xi_poly(1, 3) == -elementary(1, 3)


class TestNewtonConvert:
    @given(st.lists(st.fractions(max_denominator=4,
                                 min_value=Fraction(-3), max_value=Fraction(3)),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_power_sums_map_to_elementary_values(self, points):
        # e_k(points) is the t^k coefficient of prod (1 + x t)
        e = [Fraction(1)]
        for x in points:
            e = [a + x * b for a, b in zip(e + [0], [0] + e)]
        q = [sum(x ** k for x in points) for k in range(1, len(points) + 1)]
        assert newton_convert(q) == e[1:]

    def test_numeric_consistency(self):
        # power sums / elementaries of concrete points {1, 2, 3}
        pts = [Fraction(1), Fraction(2), Fraction(3)]
        p = [sum(x ** k for x in pts) for k in (1, 2, 3)]
        e = newton_convert(p)
        assert e == [Fraction(6), Fraction(11), Fraction(6)]


def test_v_variant_integrand_is_real_and_symmetric():
    P = v_variant_integrand((1,), (2,), 2)
    # |(-iN) Xi_0 + Xi_1|^2 = N^2 + e_1^2 at arity 2
    expected = SymPoly.const(2, 4) + elementary(1, 2) * elementary(1, 2)
    assert P == expected
