"""Tests for the exact arithmetic foundation: Poly, RationalFunction,
and PowerSeries."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuemoments.exact import (
    Poly,
    PowerSeries,
    RationalFunction,
    rat_to_str,
    series_logderiv,
)

small_fracs = st.fractions(max_denominator=6,
                           min_value=Fraction(-5), max_value=Fraction(5))
polys = st.lists(small_fracs, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
# Mixed denominators, negatives and zeros; the +-1 and +-1/2 values make
# partial sums cancel often.
kernel_coeffs = st.lists(
    st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                               Fraction(1, 2), Fraction(-1, 2)]),
              st.fractions(max_denominator=30, min_value=Fraction(-50),
                           max_value=Fraction(50))),
    max_size=8)


def schoolbook(a, b):
    """Reference product of two coefficient lists, one Fraction per term."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Zero, constant and general coefficient lists
edge_coeffs = st.one_of(st.just([]), st.lists(small_fracs, min_size=1, max_size=1),
                        kernel_coeffs)
scalars = st.one_of(st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]),
                    st.fractions(max_denominator=7, min_value=Fraction(-4),
                                 max_value=Fraction(4)))


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_divmod(a, b):
    """Long division of Fraction lists, one Fraction per step."""
    rem, b = list(a), trim(b)
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return trim(quot), trim(rem[:len(b) - 1])


def ref_gcd(a, b):
    """Monic gcd by Euclid on Fraction lists."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def ref_series_div(a, b, k):
    """a / b through t^k for b[0] != 0, one Fraction per step."""
    out = []
    for i in range(k + 1):
        acc = a[i] if i < len(a) else Fraction(0)
        for j in range(1, min(i, len(b) - 1) + 1):
            acc -= b[j] * out[i - j]
        out.append(acc / b[0])
    return out


def assert_canonical(v):
    """Int numerators over a positive denominator in lowest terms, no
    trailing zero, zero as ((), 1)."""
    assert type(v.den) is int and v.den > 0
    assert all(type(x) is int for x in v.num)
    if v.num:
        assert v.num[-1] != 0 and math.gcd(v.den, *v.num) == 1
    else:
        assert v.den == 1
    if isinstance(v, PowerSeries):
        assert len(v.num) <= v.order + 1


def test_rat_roundtrip():
    assert rat_to_str(Fraction(-3, 6)) == "-1/2"
    assert rat_to_str(2) == "2/1"


class TestPoly:
    def test_zero_normalization(self):
        assert Poly((0, 0)).is_zero()
        assert Poly((1, 0)).coeffs == (Fraction(1),)

    def test_eval(self):
        p = Poly((1, 2, 3))  # 1 + 2x + 3x^2
        assert p.eval(Fraction(2)) == 17

    def test_divmod_exact(self):
        a = Poly((1, 2, 1))     # (1+x)^2
        b = Poly((1, 1))
        q, r = a.divmod(b)
        assert q == b and r.is_zero()

    def test_scale_arg(self):
        p = Poly((0, 0, 1))
        assert p.scale_arg(Fraction(1, 2)).eval(2) == 1

    def test_json_roundtrip(self):
        p = Poly((Fraction(1, 3), -2))
        assert p.to_json() == ["1/3", "-2/1"]
        assert Poly([Fraction(c) for c in p.to_json()]) == p

    @given(kernel_coeffs, kernel_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_product_matches_schoolbook(self, a, b):
        f, g = Poly(a), Poly(b)
        assert (f * g).coeffs == Poly(schoolbook(f.coeffs, g.coeffs)).coeffs
        assert all(type(c) is Fraction for c in (f * g).coeffs)

    def test_product_edge_cases(self):
        x = Poly((0, 1))
        assert (Poly() * x).is_zero() and (x * Poly()).is_zero()
        assert Poly.const(Fraction(-2, 3)) * Poly.const(Fraction(3, 4)) == Poly.const(Fraction(-1, 2))
        # (1 + x/2)(1 - x/2): the degree-1 terms cancel
        assert Poly((1, Fraction(1, 2))) * Poly((1, Fraction(-1, 2))) == Poly((1, 0, Fraction(-1, 4)))
        assert 3 * x == x * 3 == Poly((0, 3))

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, f, g):
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs

    @given(polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, a, b):
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides(self, a, b):
        g = a.gcd(b)
        assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()

    # zero on either side, negative and fractional leading coefficients, a
    # common factor 1 - 2x/3, one operand dividing the other, and coprime ones
    @pytest.mark.parametrize("a,b", [
        ([], [Fraction(-3, 2), Fraction(-2, 5)]),
        ([1, 0, Fraction(-7, 3)], []),
        ([], []),
        (schoolbook([1, Fraction(-2, 3)], [Fraction(1, 2), 0, -4]),
         schoolbook([1, Fraction(-2, 3)], [3, Fraction(-5, 7)])),
        (schoolbook([Fraction(-1, 2), Fraction(3, 4)], [Fraction(-1, 2), Fraction(3, 4)]),
         [Fraction(-1, 2), Fraction(3, 4)]),
        ([Fraction(5, 2), -1], [Fraction(1, 3), Fraction(-1, 6)]),
    ])
    def test_gcd_edge_operands(self, a, b):
        for f, g in ((a, b), (b, a)):
            got = Poly(f).gcd(Poly(g))
            assert_canonical(got)
            assert got.coeffs == tuple(ref_gcd(f, g))

    @given(edge_coeffs, edge_coeffs, scalars)
    @settings(max_examples=150, deadline=None)
    def test_integer_storage_matches_fraction_lists(self, a, b, x):
        f, g = Poly(a), Poly(b)
        a, b = trim(a), trim(b)
        results = {
            "+": (f + g, [u + v for u, v in zip(a + [0] * len(b), b + [0] * len(a))]),
            "-": (f - g, [u - v for u, v in zip(a + [0] * len(b), b + [0] * len(a))]),
            "*": (f * g, schoolbook(a, b)),
            "scalar *": (f * x, [c * x for c in a]),
            "scale_arg": (f.scale_arg(x), [c * Fraction(x) ** i for i, c in enumerate(a)]),
            "derivative": (f.derivative(), [i * c for i, c in enumerate(a)][1:]),
        }
        if b:
            q, r = f.divmod(g)
            ref_q, ref_r = ref_divmod(a, b)
            results["divmod q"] = (q, ref_q)
            results["divmod r"] = (r, ref_r)
            results["gcd"] = (f.gcd(g), ref_gcd(a, b))
        for name, (got, ref) in results.items():
            assert_canonical(got)
            assert got.coeffs == tuple(trim(ref)), name
            # equal values have equal storage, so equal hashes
            same = Poly(ref)
            assert got == same and hash(got) == hash(same), name
        assert f.eval(x) == sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))
        assert type(f.eval(x)) is Fraction

    def test_zero_and_constants(self):
        for zero in (Poly(), Poly((0, 0)), Poly((1,)) - Poly((1,)), Poly((3, 1)) * 0,
                     Poly((Fraction(1, 2),)).derivative()):
            assert (zero.num, zero.den) == ((), 1) and zero == Poly()
        half = Poly((Fraction(1, 2), Fraction(-3, 2)))
        assert (half.num, half.den) == ((1, -3), 2)
        assert (half * 2).den == 1 and (half * 2).num == (1, -3)
        assert Poly.const(Fraction(-4, 6)).eval(Fraction(5, 7)) == Fraction(-2, 3)


class TestRationalFunction:
    def test_canonical_form(self):
        # (x^2-1)/(x-1) reduces to x+1 with monic denominator
        rf = RationalFunction(Poly((-1, 0, 1)), Poly((-1, 1)))
        assert rf == RationalFunction(Poly((1, 1)))

    def test_eval_and_pole(self):
        rf = RationalFunction(Poly((1,)), Poly((-1, 1)))
        assert rf.eval(Fraction(3)) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            rf.eval(Fraction(1))

    def test_json_roundtrip(self):
        # the CLI writes num and den with Poly.to_json
        rf = RationalFunction(Poly((1, 2)), Poly((3, 0, 1)))
        num, den = ([Fraction(c) for c in p.to_json()] for p in (rf.num, rf.den))
        assert RationalFunction(Poly(num), Poly(den)) == rf

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_field_ops(self, a, b, c, d):
        x = RationalFunction(a, b)
        y = RationalFunction(c, d)
        assert x + y == y + x
        assert x + y - y == x
        assert x * y == y * x


class TestPowerSeries:
    def test_geometric_inverse(self):
        one = PowerSeries.const(1, order=10)
        g = one / (one - PowerSeries([0, 1], 10))
        assert all(g[k] == 1 for k in range(10))

    def test_logderiv(self):
        # f = e^t from its 1/k! coefficients: t f'/f = t
        f = PowerSeries([Fraction(1, math.factorial(k)) for k in range(13)], 12)
        ld = series_logderiv(f)
        assert ld[0] == 0 and ld[1] == 1 and ld[2] == 0

    @given(kernel_coeffs, kernel_coeffs, st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_schoolbook(self, a, b, ka, kb):
        f, g = PowerSeries(a, ka), PowerSeries(b, kb)
        k = min(ka, kb)
        h = f * g
        assert h.order == k
        assert list(h.coeffs) == schoolbook(list(f.coeffs), list(g.coeffs))[:k + 1]
        assert all(type(c) is Fraction for c in h.coeffs)

    def test_product_edge_cases(self):
        zero = PowerSeries([], order=4)
        x = PowerSeries([0, 1], 6)
        assert zero * x == PowerSeries([0] * 5, 4) and (zero * x).order == 4
        one_minus_x = PowerSeries.const(1, order=3) - PowerSeries([0, 1], 3)
        geometric = PowerSeries([1] * 8, order=7)
        assert (one_minus_x * geometric).coeffs == (1, 0, 0, 0)
        assert (x * Fraction(1, 2))[1] == Fraction(1, 2)

    def test_scale_arg(self):
        f = PowerSeries([0, 0, 1], order=6).scale_arg(Fraction(1, 2))
        assert f[2] == Fraction(1, 4)

    @given(edge_coeffs, edge_coeffs, st.integers(0, 8), st.integers(0, 8), scalars)
    @settings(max_examples=150, deadline=None)
    def test_integer_storage_matches_fraction_lists(self, a, b, ka, kb, x):
        f, g = PowerSeries(a, ka), PowerSeries(b, kb)
        k = min(ka, kb)
        a = list(f.coeffs)
        b = list(g.coeffs)
        results = {
            "+": (f + g, [u + v for u, v in zip(a, b)]),
            "-": (f - g, [u - v for u, v in zip(a, b)]),
            "*": (f * g, schoolbook(a, b)[:k + 1]),
            "scalar *": (f * x, [c * x for c in a]),
            "scale_arg": (f.scale_arg(x), [c * Fraction(x) ** i for i, c in enumerate(a)]),
            "derivative": (f.derivative(), [i * c for i, c in enumerate(a)][1:] or [0]),
        }
        if b[0] != 0:
            results["/"] = (f / g, ref_series_div(a, b, k))
        for name, (got, ref) in results.items():
            assert_canonical(got)
            assert got.order == len(ref) - 1, name
            assert got.coeffs == tuple(ref), name
            assert got == PowerSeries(ref) and got[got.order] == ref[-1], name

    def test_zero_storage(self):
        for zero in (PowerSeries([], 3), PowerSeries([0, 0], 3),
                     PowerSeries([1, 2], 3) - PowerSeries([1, 2], 5),
                     PowerSeries([0, 1], 3) * PowerSeries([0, 0, 0, 1], 3)):
            assert (zero.num, zero.den, zero.order) == ((), 1, 3)
            assert zero.coeffs == (0, 0, 0, 0)
        # equality compares through the lower order, after truncation
        assert PowerSeries([1, Fraction(1, 3), 5], 2) == PowerSeries([1, Fraction(1, 3)], 1)
        assert PowerSeries([2, 1], 1) != PowerSeries([2, Fraction(1, 2)], 1)
