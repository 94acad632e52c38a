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
    a_coeff_bruteforce,
    elementary,
    newton_convert,
    v_variant_integrand,
    vandermonde_squared,
    xi_poly,
)


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
        p = SymPoly.variable(2, 0) + SymPoly.const(2, 3)
        assert p.terms == {(1, 0): Fraction(1), (0, 0): Fraction(3)}

    def test_zero_coefficients_dropped(self):
        p = SymPoly.variable(2, 0) - SymPoly.variable(2, 0)
        assert p.is_zero()

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            SymPoly.variable(2, 0) + SymPoly.variable(3, 0)

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_product_commutes(self, arity, i, j):
        x = SymPoly.variable(arity, i % arity)
        y = SymPoly.variable(arity, j % arity) + SymPoly.const(arity, 2)
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
        x = SymPoly.variable(2, 0)
        y = SymPoly.variable(2, 1)
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
            prod = prod * (SymPoly.variable(m, i) + SymPoly.const(m, 1))
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
            d = SymPoly.variable(m, i) - SymPoly.variable(m, j)
            expected = expected * d * d
    assert vandermonde_squared(m) == expected


class TestACoeff:
    def test_egf_matches_bruteforce(self):
        for N in range(1, 7):
            for n in range(0, 7):
                for l in range(0, min(n, N) + 1):
                    assert a_coeff(n, l, N) == a_coeff_bruteforce(n, l, N), \
                        (n, l, N)

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
    def test_roundtrip(self, values):
        back = newton_convert(newton_convert(values, "p_to_e"), "e_to_p")
        assert back == [Fraction(v) for v in values]

    def test_numeric_consistency(self):
        # power sums / elementaries of concrete points {1, 2, 3}
        pts = [Fraction(1), Fraction(2), Fraction(3)]
        p = [sum(x ** k for x in pts) for k in (1, 2, 3)]
        e = newton_convert(p, "p_to_e")
        assert e == [Fraction(6), Fraction(11), Fraction(6)]


def test_v_variant_integrand_is_real_and_symmetric():
    P = v_variant_integrand((1,), (2,), 2)
    # |(-iN) Xi_0 + Xi_1|^2 = N^2 + e_1^2 at arity 2
    expected = SymPoly.const(2, 4) + elementary(1, 2) * elementary(1, 2)
    assert P == expected
