"""Tests for the Hankel-determinant engine: the theta family, shifted
determinants, adjugate traces, mixed derivatives, the multivariate series
layer, the recursion matrices, and the expansion coefficients."""

import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cuemoments.hankel as hk
from cuemoments.exact import Poly
from cuemoments.hankel import (
    MultiSeries,
    Psi_ms,
    alternating_sum_residual,
    appendix_matrices,
    cor_relation_residuals,
    det_perm,
    det_poly_bareiss,
    exp_derivative,
    hankel_det,
    initial_condition_residuals,
    matrix_B,
    mixed_derivative,
    partition_kq,
    theta,
    theta_derivative_residual,
    theta_three_term_residual,
    trace_adjugate,
    verify_vector_recursion,
)
from oracles import (Psi_trace_ms, expansion_bruteforce, expansion_coeff,
                     expansion_coeff_multinomial, hankel_derivative_column_rule, hankel_det_bareiss,
                     lemma_dq_residual, lemma_t1_residual, normalized_L,
                     weighted_alternating_residual)


class TestExpDerivative:
    def test_derivative(self):
        # d/dt [e^{-2t}(1+t)] = e^{-2t}(-1-2t)
        assert exp_derivative(Poly((1, 1)), 2) == Poly((-1, -2))


class TestTheta:
    def test_closed_form_smallest(self):
        assert theta(0, 1, 1) == Poly((2, 2))

    @pytest.mark.parametrize("N,s", [(1, 1), (2, 1), (1, 3), (3, 2)])
    def test_derivative_recurrence(self, N, s):
        for m in range(0, 13):
            assert theta_derivative_residual(m, N, s).is_zero()

    @pytest.mark.parametrize("N,s", [(1, 1), (2, 2), (3, 1), (2, 3)])
    def test_three_term_recurrence(self, N, s):
        for gamma in range(0, 13):
            assert theta_three_term_residual(gamma, N, s).is_zero()


class TestDeterminants:
    @given(st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_bareiss_matches_permutation_expansion(self, n, seed):
        rng = [Fraction((seed * 7 + i * 3 + j * 5) % 11 - 5, 1 + (i + j) % 3)
               for i in range(n) for j in range(n)]
        mat = [[Poly((rng[i * n + j], (i * j + seed) % 4))
                for j in range(n)] for i in range(n)]
        assert det_poly_bareiss(mat) == det_perm(mat)

    def test_hankel_det_matches_permutation_expansion(self):
        for N, s, parts in [(1, 1, ()), (2, 2, ()), (2, 1, (2,)),
                            (3, 2, (2, 1)), (3, 1, (3, 1, 1))]:
            mat = hk._matrix(lambda g: theta(g, N, s), N, parts)
            assert hankel_det(N, s, parts) == det_perm(mat)

    def test_too_many_parts_is_zero(self):
        assert hankel_det(2, 1, (1, 1, 1)).is_zero()

    @pytest.mark.parametrize("N,s", [(N, s) for N in range(1, 5) for s in range(1, 4)])
    def test_theta_minor_matches_permutation_expansion(self, N, s):
        # every partition of at most 5 boxes with at most N parts, at the
        # column shifts h = 0, 1, 2
        for n in range(6):
            for parts in [p for p in partitions(n) if len(p) <= N]:
                for h in range(3):
                    ref = det_perm(hk._matrix(lambda g: theta(g, N, s), N, parts, h))
                    minor = hk._theta_minor(N, s, tuple(hk._columns(N, parts, h)))
                    assert (minor, 1) == (ref.num, ref.den)

    @pytest.mark.parametrize("N,s", [(N, s) for N in range(1, 5) for s in range(1, 4)])
    def test_hankel_det_matches_bareiss_reference(self, N, s):
        for n in range(7):
            for parts in partitions(n):
                assert hankel_det(N, s, parts) == hankel_det_bareiss(N, s, parts)

    def test_too_many_parts_adds_no_memo_entry(self):
        before = {key: dict(memo) for key, memo in hk._THETA_MINORS.items()}
        assert hankel_det(3, 2, (2, 1, 1, 1)).is_zero()
        assert hankel_det(97, 5, (1,) * 98).is_zero()
        assert hk._THETA_MINORS == before

    def test_memo_values_are_int_tuples(self):
        hankel_det(3, 2, (2, 1))
        Psi_ms(3, 2, (1,), 3, 2)
        memo = hk._THETA_MINORS[3, 2]
        assert memo
        for cols, minor in memo.items():
            assert list(cols) == sorted(set(cols))
            assert type(minor) is tuple
            assert all(type(x) is int for x in minor)

    def test_column_rule_equals_direct_derivative(self):
        for N, s, parts in [(1, 1, ()), (2, 2, ()), (2, 2, (2,)), (3, 1, (1, 1))]:
            assert exp_derivative(hankel_det(N, s, parts), N) == \
                hankel_derivative_column_rule(N, s, parts)


def cofactor_sum_reference(A, B):
    """Tr[adj(A) B] = sum_{i,j} cof_A(i,j) B[i][j] from the n^2 minors."""
    n = len(A)
    if n == 1:
        return B[0][0]
    total = Poly()
    for i in range(n):
        for j in range(n):
            minor = [[A[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            total = total + (-1) ** (i + j) * det_perm(minor) * B[i][j]
    return total


_polys = st.lists(st.fractions(-5, 5, max_denominator=4), max_size=3).map(Poly)


@st.composite
def _matrix_pairs(draw):
    n = draw(st.integers(1, 3))
    A, B = ([[draw(_polys) for _ in range(n)] for _ in range(n)] for _ in range(2))
    return A, B


class TestTraceAdjugate:
    @given(_matrix_pairs())
    @example(([[Poly((1, 2))]], [[Poly((3, -1))]]))
    @settings(max_examples=40, deadline=None)
    def test_column_sum_matches_cofactor_sum(self, pair):
        A, B = pair
        assert hk._column_sum(A, B) == cofactor_sum_reference(A, B)

    def test_size_one_reduces_to_theta(self):
        for s in (1, 2):
            for h in range(4):
                assert trace_adjugate(1, s, (), h) == theta(h, 1, s)

    def test_partition_kq(self):
        assert partition_kq(4, 1) == (4,)
        assert partition_kq(4, 3) == (2, 1, 1)
        with pytest.raises(ValueError):
            partition_kq(2, 3)

    @pytest.mark.parametrize("N,s", [(1, 1), (2, 2), (3, 2), (3, 3)])
    def test_alternating_sum_identity(self, N, s):
        for l in range(1, 5):
            assert alternating_sum_residual(N, s, l).is_zero()

    @pytest.mark.parametrize("N,s", [(1, 1), (2, 2), (3, 2)])
    def test_weighted_identity_alpha_zero(self, N, s):
        # the weighted identity holds with coefficient exactly (2N - 2j + l)
        for l in range(1, 4):
            assert weighted_alternating_residual(N, s, l).is_zero()

    def test_weighted_identity_fails_off_alpha(self):
        # negative control: the coefficient (2N - 2j + l + alpha) with
        # alpha = 1 breaks the identity that alpha = 0 satisfies
        N, s, l = 2, 2, 2
        B = hk._matrix(lambda g: g * theta(g, N, s), N, (), l)
        weighted = hk._column_sum(hk._matrix(lambda g: theta(g, N, s), N, ()), B)

        def residual(alpha):
            r = weighted
            for j in range(1, l + 1):
                r = r - ((-1) ** (j - 1) * (2 * N - 2 * j + l + alpha)
                         * hankel_det(N, s, partition_kq(l, j)))
            return r

        assert residual(0) == weighted_alternating_residual(N, s, l)
        assert not residual(1).is_zero()


class TestMixedDerivativeAndRatio:
    def test_no_shift_is_plain_determinant(self):
        assert mixed_derivative(2, 2, {}) == hankel_det(2, 2, ())

    @pytest.mark.parametrize("ell", [{2: 1}, {2: 2}, {3: 1}, {2: 1, 3: 2},
                                     {4: 1}, {2: 3}])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_single_t2_shift_size1(self, s, ell):
        # at N = 1 every derivative d/dt_q shifts the one theta index by q
        S = sum(q * c for q, c in ell.items())
        assert mixed_derivative(1, s, ell) == theta(S, 1, s)

    @pytest.mark.parametrize("ell", [{3: 1}, {4: 1}, {2: 1, 3: 2}])
    @pytest.mark.parametrize("N,s", [(2, 1), (2, 3), (3, 2)])
    def test_matches_reference_series(self, N, s, ell):
        # the derivative is N^{|ell|} prod_q ell_q! times the t^ell
        # coefficient of the reference determinant, taken with t_1 -> N t_1
        k, cap = max(ell), sum(ell.values())
        ref = det_perm(hk._matrix(lambda g: ref_psi_multiseries(N, s, g, k, cap), N, ()))
        coeff = ref.terms[tuple(ell.get(q, 0) for q in range(2, k + 1))]
        scale = N ** cap * math.prod(map(math.factorial, ell.values()))
        assert mixed_derivative(N, s, ell) == coeff.scale_arg(N) * scale

    def test_normalized_ratio_closed_form(self):
        # N = s = 1, one second-order insertion: value is -4t/(1+t)
        for t in (1, 3, Fraction(1, 2)):
            out = normalized_L(1, 1, {2: 1}, t)
            assert out["power"] == 2
            expected = -4 * Fraction(t) / (1 + Fraction(t))
            assert out["ratio"] == -expected / 4
            assert out["value"] == complex(float(expected))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mixed_derivative(1, 1, {1: 1})
        with pytest.raises(ValueError):
            normalized_L(1, 1, {2: 1}, 0)


class TestCharFnRelations:
    @pytest.mark.parametrize("N,s", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_both_relations_exact(self, N, s):
        r1, r2 = cor_relation_residuals(N, s)
        assert r1.is_zero()
        assert r2.is_zero()

    def test_second_relation_coefficient_negative_control(self):
        # replacing the -4sN zeroth-order coefficient by -4s (same at N = 1)
        # breaks the relation for N >= 2
        N, s = 2, 2
        Psi = hankel_det(N, s, ())
        M1 = mixed_derivative(N, s, {2: 1})
        M2 = mixed_derivative(N, s, {2: 2})
        u = Poly((0, 1))
        d1 = exp_derivative(Psi, N)
        d2 = exp_derivative(d1, N)
        lhs2 = (M2 * 16 + exp_derivative(M1, N) * 16 + M1 * (-8 * N)
                + d2 * 4 + d1 * (-4 * N) + Psi * (N * N))
        u3 = u * u * u
        rhs2 = (d2 * ((4 * s * s + 2) * u)
                + d1 * (Poly((-12 * s * s, 0, 4 * s * N)))
                + Psi * (N * N * u3 + Poly((0, -2 * N * N - 4 * s))))
        assert not (lhs2 * u3 - rhs2).is_zero()


class RefMultiSeries:
    """Reference: the series with one Poly (Fraction coefficients) per
    exponent tuple, as MultiSeries stored it before its integer numerators,
    with a decay c of its own: the theta(t/N) blocks decay at 1/N, and their
    N x N determinants at 1, the one decay MultiSeries has."""

    def __init__(self, nv, cap, ord=None, terms=None, c=0):
        self.nv = nv
        self.cap = cap
        self.ord = cap if ord is None else ord
        self.c = c
        self.terms = {}
        if terms:
            for e, v in terms.items():
                if not v.is_zero():
                    self.terms[tuple(e)] = v

    def _with(self, terms, ord=None):
        return RefMultiSeries(self.nv, self.cap, self.ord if ord is None else ord,
                              terms, self.c)

    def __add__(self, other):
        if self.terms and other.terms and self.c != other.c:
            raise ValueError("MultiSeries sum requires equal decay rates")
        c = self.c if self.terms else other.c
        out = dict(self.terms)
        for e, v in other.terms.items():
            out[e] = out[e] + v if e in out else v
        return RefMultiSeries(self.nv, self.cap, min(self.ord, other.ord), out, c)

    def __sub__(self, other):
        return self + other.scal(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scal(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= self.cap:
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return RefMultiSeries(self.nv, self.cap, min(self.ord, other.ord), out,
                              self.c + other.c)

    def scal(self, c):
        return self._with({e: v * c for e, v in self.terms.items()})

    def lincomb(self, pairs):
        pairs = [(a, v) for a, v in pairs if a]
        live = [v for v in [self] + [v for _, v in pairs] if v.terms]
        if len({v.c for v in live}) > 1:
            raise ValueError("MultiSeries sum requires equal decay rates")
        out = dict(self.terms)
        for a, v in pairs:
            for e, p in v.terms.items():
                out[e] = out[e] + p * a if e in out else p * a
        return RefMultiSeries(self.nv, self.cap, min([self.ord] + [v.ord for _, v in pairs]),
                              out, live[0].c if live else self.c)

    def mul_t1(self, weight=1):
        return self._with({e: v * Poly((0, weight)) for e, v in self.terms.items()})

    def mul_tq(self, q, weight=1):
        out = {}
        for e, c in self.terms.items():
            ee = list(e)
            ee[q - 2] += 1
            if sum(ee) <= self.cap:
                out[tuple(ee)] = c * weight
        return self._with(out, min(self.cap, self.ord + 1))

    def d_t1(self):
        return self._with({e: exp_derivative(c, self.c) for e, c in self.terms.items()})

    def d_tq(self, q):
        out = {}
        for e, c in self.terms.items():
            if e[q - 2]:
                ee = list(e)
                ee[q - 2] -= 1
                out[tuple(ee)] = c * e[q - 2]
        return self._with(out, self.ord - 1)

    def is_zero_through_ord(self):
        return all(sum(e) > self.ord for e in self.terms)

    def max_abs_at(self, t0):
        return max((abs(c.eval(Fraction(t0))) for e, c in self.terms.items()
                    if sum(e) <= self.ord), default=Fraction(0))


def ref_psi_multiseries(N, s, gamma, k, cap):
    """Reference building block psi(gamma): the coefficient of prod t_l^{m_l}
    is theta_{gamma+sum l*m_l}(t_1/N) / (N^{sum m_l} * prod m_l!), decay 1/N."""
    terms = {}
    for expo in itertools.product(range(cap + 1), repeat=k - 1):
        if sum(expo) <= cap:
            denom = N ** sum(expo)
            for m in expo:
                denom *= math.factorial(m)
            shift = sum((l + 2) * m for l, m in enumerate(expo))
            terms[expo] = theta(gamma + shift, N, s).scale_arg(Fraction(1, N)) * Fraction(1, denom)
    return RefMultiSeries(k - 1, cap, cap, terms, Fraction(1, N))


def same_series(new, ref):
    # a MultiSeries decays at rate 1
    assert ref.c == 1
    return new.terms == ref.terms and new.ord == ref.ord


@st.composite
def _series_pairs(draw, nv, cap):
    """A MultiSeries and its decay-1 reference from the same random
    coefficients."""
    terms = {}
    for e in itertools.product(range(cap + 1), repeat=nv):
        if sum(e) <= cap and draw(st.booleans()):
            terms[e] = Poly(draw(st.lists(st.fractions(-9, 9, max_denominator=12),
                                          max_size=4)))
    ord = draw(st.integers(0, cap))
    return MultiSeries(nv, cap, ord, terms), RefMultiSeries(nv, cap, ord, terms, 1)


_scalars = st.sampled_from([0, -1, 3, Fraction(-5, 6), Fraction(7, 4)])


@st.composite
def _series_cases(draw):
    nv, cap = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a, b = draw(_series_pairs(nv, cap)), draw(_series_pairs(nv, cap))
    scalar = draw(_scalars)
    q = draw(st.integers(2, nv + 1))
    return a, b, scalar, q, draw(st.sampled_from([-2, 1, 3]))


@st.composite
def _lincomb_cases(draw):
    """A base series and up to four (scalar, series) pairs of its shape."""
    nv, cap = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = draw(_series_pairs(nv, cap))
    pairs = draw(st.lists(st.tuples(_scalars, _series_pairs(nv, cap)), max_size=4))
    return base, pairs


def partitions(n, most=None):
    """Every partition of n as a nonincreasing tuple."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class TestIntegerMultiSeries:
    """The integer-numerator MultiSeries against the Poly-per-coefficient
    reference, operation by operation and through the minor-memo kernel."""

    @given(_series_cases())
    @settings(max_examples=100, deadline=None)
    def test_every_operation_matches_reference(self, case):
        (a, ra), (b, rb), scalar, q, weight = case
        assert same_series(a, ra)
        assert same_series(a + b, ra + rb)
        assert same_series(a - b, ra - rb)
        assert same_series(a.lincomb([(scalar, b)]), ra.lincomb([(scalar, rb)]))
        assert same_series(a.mul_t1(weight), ra.mul_t1(weight))
        assert same_series(a.mul_tq(q, weight), ra.mul_tq(q, weight))
        assert same_series(a.d_t1(), ra.d_t1())
        assert same_series(a.d_tq(q), ra.d_tq(q))
        assert a.is_zero_through_ord() == ra.is_zero_through_ord()
        assert a.max_abs_at(Fraction(3, 2)) == ra.max_abs_at(Fraction(3, 2))

    @given(_lincomb_cases())
    @settings(max_examples=100, deadline=None)
    def test_lincomb_matches_reference(self, case):
        # the sum is valid through the lowest ord of the base and of every
        # series with a nonzero scalar
        (a, ra), pairs = case
        new = [(x, v) for x, (v, _) in pairs]
        ref = [(x, rv) for x, (_, rv) in pairs]
        assert same_series(a.lincomb(new), ra.lincomb(ref))
        assert a.lincomb(new).ord == min([a.ord] + [v.ord for x, v in new if x])

    def test_lincomb_ord_skips_zero_scalars(self):
        a = MultiSeries(1, 2, 2, {(0,): Poly((1,))})
        low = MultiSeries(1, 2, 0, {(1,): Poly((3,))})
        assert a.lincomb([(0, low)]).ord == 2
        assert a.lincomb([(0, low), (Fraction(1, 3), low)]).ord == 0
        assert a.lincomb([(-1, low)]).ord == 0

    def test_lincomb_rejects_other_shapes(self):
        a = MultiSeries(2, 2, terms={(0, 0): Poly((1,))})
        for other in (MultiSeries(1, 2), MultiSeries(2, 3)):
            with pytest.raises(ValueError, match="shape"):
                a.lincomb([(1, other)])

    @staticmethod
    def _check_kernel(s, k, cap):
        # every partition of at most 6 boxes, N <= 3, against det_perm
        # and the column sum over the reference series
        for N in (1, 2, 3):
            entry = functools.lru_cache(None)(
                lambda g: ref_psi_multiseries(N, s, g, k, cap))
            for n in range(7):
                for parts in partitions(n):
                    if len(parts) > N:
                        assert not Psi_ms(N, s, parts, k, cap).terms
                        continue
                    A = hk._matrix(entry, N, parts)
                    assert same_series(Psi_ms(N, s, parts, k, cap), det_perm(A))
                    # a shift by k >= 2 moves a column past its neighbour
                    ref = hk._column_sum(A, hk._matrix(entry, N, parts, k))
                    assert same_series(Psi_trace_ms(N, s, parts, k, k, cap), ref)

    @pytest.mark.parametrize("k,cap", [(k, cap) for k in (2, 3, 4) for cap in (1, 2, 3)])
    def test_kernel_matches_permutation_expansion(self, k, cap):
        self._check_kernel(1, k, cap)

    @pytest.mark.parametrize("s,k,cap", [(s, k, cap) for s in (2, 3) for k in (2, 3)
                                         for cap in (1, 2, 3)])
    def test_kernel_matches_permutation_expansion_longer_theta(self, s, k, cap):
        # theta has degree N + s - 1, so larger s gives longer entries
        self._check_kernel(s, k, cap)

    @pytest.mark.parametrize("N,s,k,cap", [(2, 2, 3, 3), (3, 3, 2, 2), (3, 1, 4, 2)])
    def test_column_tuple_form(self, N, s, k, cap):
        # the determinant is alternating in its columns: a repeated column
        # gives the zero series, one transposition negates the series
        cols = tuple(range(0, 2 * N, 2))
        P = hk._psi_cols(N, s, k, cap, cols)
        assert P.terms
        if N > 1:
            repeated = (cols[1],) + cols[1:]
            assert not hk._psi_cols(N, s, k, cap, repeated).terms
            swapped = (cols[1], cols[0]) + cols[2:]
            assert (hk._psi_cols(N, s, k, cap, swapped) + P).is_zero_through_ord()
        ref = det_perm(hk._matrix(lambda g: ref_psi_multiseries(N, s, g, k, cap), N, (), 1))
        assert same_series(hk._psi_cols(N, s, k, cap, tuple(hk._columns(N, (), 1))), ref)

    def test_random_column_tuples(self):
        # seeded column tuples, unsorted and repeated ones among them, against
        # det_perm of the reference series at exactly those columns
        rng = random.Random(20261021)
        entry = functools.lru_cache(None)(ref_psi_multiseries)
        kinds = set()
        for _ in range(200):
            N, s, k, cap = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 3), rng.randint(0, 2)
            cols = tuple(rng.randint(0, 6) for _ in range(N))
            kinds.add((list(cols) == sorted(cols), len(set(cols)) == N))
            ref = det_perm([[entry(N, s, i + c, k, cap) for c in cols] for i in range(N)])
            assert same_series(hk._psi_cols(N, s, k, cap, cols), ref), (N, s, k, cap, cols)
        assert kinds == {(True, True), (False, True), (True, False), (False, False)}


class TestMultiSeries:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_decays(self, N):
        # theta(t/N) carries e^{-t/N}; an N x N determinant of them, e^{-t}
        block = ref_psi_multiseries(N, 2, 0, 2, 2)
        assert block.c == Fraction(1, N)
        A = hk._matrix(lambda g: ref_psi_multiseries(N, 2, g, 2, 2), N, ())
        assert det_perm(A).c == 1
        assert same_series(Psi_ms(N, 2, (), 2, 2), det_perm(A))

    def test_ring_ops(self):
        a = MultiSeries(1, 1, terms={(0,): theta(0, 2, 1).scale_arg(Fraction(1, 2))})
        b = Psi_ms(2, 1, (), 2, 1)
        assert (a + MultiSeries(a.nv, a.cap)).terms == a.terms
        assert (a - a).is_zero_through_ord()
        assert (a + b - b - a).is_zero_through_ord()

    def test_scalar_and_series_arithmetic(self):
        P = Psi_ms(2, 2, (), 2, 2)
        assert (P - P).is_zero_through_ord()
        assert (P.lincomb([(1, P)]) - P - P).is_zero_through_ord()
        half = Fraction(1, 2)
        assert P.lincomb([(-half, P), (-half, P)]).is_zero_through_ord()

    def test_restriction_matches_plain_determinant(self):
        # the t_rest = 0 coefficient of the series is the 1-D determinant in
        # the rescaled variable: base(t) = Psi(t/N), with unit decay rate
        for N, s in [(1, 1), (2, 2)]:
            P = Psi_ms(N, s, (), 2, 2)
            base = P.terms.get((0,) * P.nv)
            assert base == hankel_det(N, s, ()).scale_arg(Fraction(1, N))

    @pytest.mark.parametrize("N,s", [(1, 1), (2, 2), (3, 2)])
    def test_derivative_lemmas(self, N, s):
        for parts in [(), (1,), (2,)]:
            assert lemma_dq_residual(N, s, parts, 2).is_zero_through_ord()
            assert lemma_t1_residual(N, s, parts).is_zero_through_ord()

    @pytest.mark.parametrize("N,s", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_initial_conditions(self, N, s):
        r1, r2 = initial_condition_residuals(N, s)
        assert r1.is_zero_through_ord()
        assert r2.is_zero_through_ord()


class TestRecursion:
    def test_matrix_B_values(self):
        # the written case formulas, triangular sign (-1)^{i+j-1},
        # final-column clause taking precedence
        assert matrix_B(1) == [[Fraction(1)]]
        B2 = matrix_B(2)
        assert B2[0][0] == Fraction(-1, 2)   # triangular (-1)^{i+j-1}/2
        assert B2[0][1] == Fraction(1, 2)    # final column (-1)^{i-1}/l
        assert B2[1][0] == Fraction(-1, 2)   # subdiagonal -1/i at i = 2
        assert B2[1][1] == Fraction(-1, 2)

    @pytest.mark.parametrize("l,k", [(3, 2), (4, 2), (3, 3), (4, 3)])
    def test_vector_recursion_exact(self, l, k):
        for N, s in [(1, 1), (2, 2), (3, 2)]:
            assert verify_vector_recursion(l, k, N, s) == 0

    def test_vector_recursion_perturbed_fails(self):
        assert verify_vector_recursion(3, 2, 2, 2, perturb=True) != 0

    def test_wrong_triangular_sign_fails(self, monkeypatch):
        # negative control: the sign variant (-1)^{i+j} leaves a residual
        def bad_B(l):
            B = [[Fraction(0)] * l for _ in range(l)]
            for i in range(1, l + 1):
                for j in range(1, l + 1):
                    if j == l:
                        B[i - 1][j - 1] = Fraction((-1) ** (i - 1), l)
                    elif j == i - 1:
                        B[i - 1][j - 1] = Fraction(-1, i)
                    elif j >= i:
                        B[i - 1][j - 1] = Fraction((-1) ** (i + j), 2)
            return B
        monkeypatch.setattr(hk, "matrix_B", bad_B)
        assert verify_vector_recursion(3, 2, 2, 2) != 0

    # recorded while each matrix had a zero-filled double loop of its own
    @pytest.mark.parametrize("l,k,N,s,digest", [
        (3, 2, 2, 2, "58db7c4523dd48a767ae603237324fc1bb580fde95ae6432a272b5f76c0855eb"),
        (5, 4, 3, 3, "46b7373572a537fbd34997aece6f401e85ca37944a71a0d58674ea2d71e7e195"),
        (10, 5, 4, 10, "0ea88c4e0d788a81ea669d69588d2ab96bc9d0933a4222c3b94fbff84116b1a9"),
    ])
    def test_appendix_matrices_pinned(self, l, k, N, s, digest):
        m = appendix_matrices(l, k, N, s)
        text = ";".join("%s=%s" % (name, [[str(x) for x in row] for row in m[name]])
                        for name in sorted(m))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_appendix_matrix_shapes(self):
        mats = appendix_matrices(3, 3, 2, 2)
        assert set(mats) == {"B", "Q0", "Q1", "Q2", "Q3", "Q4"}
        for M in mats.values():
            assert len(M) == 3  # l rows each
            assert len({len(row) for row in M}) == 1


def expansion_coeff_predictions(k, r, coeff_fn):
    """Assemble {(t-exponent tuple, x-power): coefficient} predictions from a
    collected coefficient formula, mirroring the brute-force key convention.

    h = (h_2..h_k) splits each middle exponent h_n (3 <= n <= k-1) into h_n'
    minus-branch picks; the x-power is sum (n-1) h_n - sum h' + (k-2) h_k over
    the middle range and the raw variable scale is prod n^{h_n}.
    """
    out = {}
    for h in itertools.product(range(r + 1), repeat=k - 1):
        if sum(h) != r:
            continue
        ranges = [range(h[n - 2] + 1) for n in range(3, k)]
        for hp in itertools.product(*ranges):
            try:
                coeff = coeff_fn(h, hp, r + 1, 0)
            except ValueError:
                continue
            if coeff == 0:
                continue
            L = sum((n - 1) * h[n - 2] for n in range(2, k)) \
                + (k - 2) * h[k - 2] - sum(hp)
            scale = 1
            for n in range(2, k + 1):
                scale *= n ** h[n - 2]
            key = (h, L)
            out[key] = out.get(key, 0) + coeff * scale
    return {key: c for key, c in out.items() if c != 0}


class TestExpansionCoefficients:
    @pytest.mark.parametrize("k,r", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
                                     (5, 2), (6, 2)])
    def test_multinomial_matches_bruteforce(self, k, r):
        brute = expansion_bruteforce(k, r)
        predicted = expansion_coeff_predictions(k, r,
                                                expansion_coeff_multinomial)
        assert predicted == brute

    def test_collapsed_display_matches_at_k3(self):
        # for k = 3 the written display and the collected multinomial agree
        for r in range(1, 4):
            for h2 in range(r + 1):
                h = (h2, r - h2)
                assert expansion_coeff(h, (), r + 1, 0) == \
                    expansion_coeff_multinomial(h, (), r + 1, 0)

    def test_written_display_diverges_at_k4(self):
        # negative control: the literal display disagrees with the collected
        # coefficient for k >= 4 (ordering multinomials are dropped)
        brute = expansion_bruteforce(4, 2)
        predicted = expansion_coeff_predictions(4, 2, expansion_coeff)
        assert predicted != brute
