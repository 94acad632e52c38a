"""Tests for the Painlevé layer: Bessel-determinant series, tau functions,
nonlinear ODE residuals, Barnes G, and the fractional-moment integral."""

import functools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuemoments.painleve as painleve
from cuemoments.exact import Poly, PowerSeries, RationalFunction
from cuemoments.hankel import det_perm
from cuemoments.painleve import (
    MAX_FLOAT_PHI_S,
    _g_series,
    barnes_G_int,
    cos_constant,
    fractional_moment_q1,
    log_barnes_G,
    painleve5_residual,
    phi_eval,
    phi_series,
    sigma_p3_residual,
    tau_finiteN,
    tau_limit,
)
from oracles import shifted_det, sigma_p3_series_residual


class TestPhiSeries:
    def test_leading_coefficients_s1(self):
        p = phi_series(1, 8)
        assert p[0] == 1 and p[1] == 0
        assert p[2] == Fraction(-1, 6)
        assert p[3] == Fraction(1, 18)
        assert p[4] == Fraction(-1, 120)

    def test_leading_coefficients_s2(self):
        p = phi_series(2, 8)
        assert p[0] == 1 and p[1] == 0
        assert p[2] == Fraction(-1, 30)
        assert p[3] == 0
        assert p[4] == Fraction(1, 840)

    def test_second_coefficient_matches_second_moment(self):
        # -2 [t^2] phi_1 = 1/3 = E[Y_1^2] at s = 1
        from cuemoments.cauchy import limiting_moment
        assert -2 * phi_series(1, 4)[2] == \
            limiting_moment((1,), (2,)).eval(Fraction(1))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_series_eval_matches_float_route(self, s):
        p = phi_series(s, 30)
        t = 0.3
        series_val = sum(float(c) * t ** k for k, c in enumerate(p.coeffs))
        assert phi_eval(s, t) == pytest.approx(series_val, rel=1e-9)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_minor_kernel_matches_permutation_expansion(self, s):
        # the elimination of phi_series against the s! permutation terms for
        # s <= 6, and against the memoised minors of shifted_det beyond
        K = 10
        gs = [_g_series(nu, K) for nu in range(1, 2 * s)]
        if s <= 6:
            det = det_perm([gs[j:j + s] for j in range(s)])
        else:
            det = shifted_det(gs.__getitem__, tuple(range(s)), {})
        pref = Fraction((-1) ** (s * (s - 1) // 2) * barnes_G_int(2 * s + 1),
                        barnes_G_int(s + 1) ** 2)
        exp_neg_t = PowerSeries([Fraction((-1) ** m, math.factorial(m))
                                 for m in range(K + 1)], K)
        ref = pref * det * exp_neg_t
        phi = phi_series(s, K)
        assert (phi.order, phi.coeffs) == (ref.order, ref.coeffs)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_elimination_pivots_are_units(self, r):
        # the constant terms of the leading r x r minors of [g_{j+k+1}] are
        # D_r = det[1/(j+k+1)!] = (-1)^{r(r-1)/2} G(r+1)^2/G(2r+1) != 0, so
        # every pivot of _phi's elimination has a nonzero constant term
        D = shifted_det(lambda nu: Fraction(1, math.factorial(nu + 1)),
                        tuple(range(r)), {})
        assert D == Fraction((-1) ** (r * (r - 1) // 2) * barnes_G_int(r + 1) ** 2,
                             barnes_G_int(2 * r + 1))

    def test_float_route_rejects_s_below_one(self):
        with pytest.raises(ValueError):
            phi_eval(0, 1.0)

    @pytest.mark.parametrize("s", range(1, MAX_FLOAT_PHI_S + 1))
    @pytest.mark.parametrize("t", [1, 5, 20, 60])
    def test_float_route_matches_exact_phi(self, s, t):
        # phi_s(t) e^t exactly, from g-sums truncated far below the float
        # rounding (the term of index 200 at t = 60 is below 1e-200)
        gs = [sum(Fraction((2 * t) ** m, math.factorial(m) * math.factorial(m + nu))
                  for m in range(200)) for nu in range(1, 2 * s)]
        pref = Fraction((-1) ** (s * (s - 1) // 2) * barnes_G_int(2 * s + 1),
                        barnes_G_int(s + 1) ** 2)
        exact = float(pref * shifted_det(gs.__getitem__, tuple(range(s)), {}))
        # abs=0: pytest.approx's default abs=1e-12 outweighs rel=1e-11 for
        # every phi below 0.1, and phi_4(60) = 2.4e-8
        assert phi_eval(s, t) == pytest.approx(exact * math.exp(-t), rel=1e-11, abs=0)

    def test_float_route_rejects_s_above_bound(self):
        with pytest.raises(ValueError, match="<= %d" % MAX_FLOAT_PHI_S):
            phi_eval(MAX_FLOAT_PHI_S + 1, 1.0)


class TestTauLimit:
    def test_leading_coefficient(self):
        assert tau_limit(1)[2] == Fraction(-1, 12)
        assert tau_limit(2)[2] == Fraction(-1, 60)

    @pytest.mark.parametrize("s", [1, 2])
    def test_sigma_p3_residual_vanishes(self, s):
        res = sigma_p3_residual(tau_limit(s, K=16), s)
        assert all(res[k] == 0 for k in range(13))

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("K", [2, 7, 20])
    def test_sigma_p3_residual_matches_series_reference(self, s, K):
        # the P-V residual at n2 = sn = 0 with P = 1, against the equation
        # written out on series; t^5 added to tau breaks it in both (at s = 2,
        # t^5 = t^(2s+1) solves the equation linearised at t = 0, so the
        # residual starts beyond t^6 there)
        tau = tau_limit(s, K)
        taus = [tau, tau + PowerSeries([0] * 5 + [1], K)] if K >= 5 else [tau]
        for f in taus:
            got, ref = sigma_p3_residual(f, s), sigma_p3_series_residual(f, s)
            assert got.order == ref.order and got.coeffs == ref.coeffs
        if K == 20:
            assert any(got.coeffs) and any(ref.coeffs)

    def test_series_residual_makes_no_product_by_one(self, monkeypatch):
        # P = 1 of a series tau is left out, not multiplied by, and at
        # n2 = 0 the factor 1 + sn only scales: the shared residual makes 4
        # series products, fewer than the reference
        import cuemoments.exact as exact

        calls = []
        mul = exact.PowerSeries.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(exact.PowerSeries, "__mul__", counted)
        tau = tau_limit(3, K=12)
        calls.clear()
        sigma_p3_residual(tau, 3)
        got = len(calls)
        calls.clear()
        sigma_p3_series_residual(tau, 3)
        assert got == 4 and got <= len(calls)

    def test_residual_detects_wrong_tau(self):
        # negative control: perturbing one series coefficient breaks the ODE
        tau = tau_limit(1, K=12)
        tau = PowerSeries([c + (Fraction(1, 7) if k == 3 else 0)
                           for k, c in enumerate(tau.coeffs)], tau.order)
        res = sigma_p3_residual(tau, 1)
        assert any(res[k] != 0 for k in range(10))


class TestTauFiniteN:
    def test_closed_form_smallest(self):
        # N = s = 1: tau = -t^2/(4+2t)
        tau = tau_finiteN(1, 1)
        assert tau == RationalFunction(Poly((0, 0, -1)), Poly((4, 2)))

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    def test_p5_residual_vanishes(self, N, s):
        assert painleve5_residual(tau_finiteN(N, s), N, s).is_zero()

    def test_p5_residual_vanishes_n6_s3(self):
        assert painleve5_residual(tau_finiteN(6, 3), 6, 3).is_zero()

    def test_residual_detects_wrong_parameters(self):
        # negative control: the (N, s) = (2, 1) tau fails the (3, 1) equation
        assert not painleve5_residual(tau_finiteN(2, 1), 3, 1).is_zero()


def _derivative(f):
    """(num/den)' = (num' den - num den') / den^2."""
    return RationalFunction(f.num.derivative() * f.den - f.num * f.den.derivative(),
                            f.den * f.den)


def _reference_residual(f, s, n2, sn):
    """The residual of the exact tau = f in RationalFunction arithmetic:
    P-V for n2 = 1/N^2 and sn = 2s/N, sigma-P-III' for n2 = sn = 0."""
    d1 = _derivative(f)
    d2 = _derivative(d1)
    t = RationalFunction(Poly((0, 1)))
    res = (t * d2) * (t * d2) + 4 * t * d1 * d1 * d1
    res = res - (RationalFunction.const(4 * s * s) + 4 * f + n2 * t * t) * d1 * d1
    res = res - t * (RationalFunction.const(1 + sn) - 2 * n2 * f) * d1
    return res + (RationalFunction.const(1 + sn) - n2 * f) * f


def _times_den6(ref, den):
    """den^6 * ref as a Poly; fails if the product is not a polynomial."""
    den6 = Poly.const(1)
    for _ in range(6):
        den6 = den6 * den
    out = RationalFunction(den6) * ref
    assert out.den == Poly.const(1)
    return out.num


@functools.lru_cache(maxsize=None)
def _tau_finite(N, s):
    return tau_finiteN(N, s)


def _perturbed(N, s, delta):
    """The (N, s) finite tau with delta added to its numerator."""
    f = _tau_finite(N, s)
    return RationalFunction(f.num + delta, f.den)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=5)
perturbations = st.lists(small_fracs, max_size=4).map(Poly)


class TestPolynomialResidual:
    @given(st.integers(1, 3), st.integers(1, 2), perturbations)
    @settings(max_examples=30, deadline=None)
    def test_p5_is_den6_times_reference(self, N, s, delta):
        tau = _perturbed(N, s, delta)
        ref = _reference_residual(tau, s, Fraction(1, N * N), Fraction(2 * s, N))
        assert painleve5_residual(tau, N, s) == _times_den6(ref, tau.den)

    @given(st.integers(1, 3), st.integers(1, 2), perturbations)
    @settings(max_examples=30, deadline=None)
    def test_sigma_p3_exact_is_den6_times_reference(self, N, s, delta):
        tau = _perturbed(N, s, delta)
        ref = _reference_residual(tau, s, 0, 0)
        assert sigma_p3_residual(tau, s) == _times_den6(ref, tau.den)

    def test_perturbed_numerator_detected(self):
        # negative control: t^2/7 added to the numerator breaks the P-V identity
        tau = _perturbed(2, 1, Poly((0, 0, Fraction(1, 7))))
        assert not painleve5_residual(tau, 2, 1).is_zero()
        assert not sigma_p3_residual(tau, 1).is_zero()


class TestBarnesG:
    def test_integer_values(self):
        assert [barnes_G_int(n) for n in range(1, 7)] == [1, 1, 1, 2, 12, 288]

    def test_recurrence_float(self):
        # G(z+1) = Gamma(z) G(z)
        for z in (1.5, 2.25, 3.5):
            assert math.exp(log_barnes_G(z + 1)) == pytest.approx(
                math.gamma(z) * math.exp(log_barnes_G(z)), rel=1e-10)

    def test_reference_values(self):
        assert math.exp(log_barnes_G(1.5)) == pytest.approx(1.0692226492675179, rel=1e-10)
        assert math.exp(log_barnes_G(4.5)) == pytest.approx(4.186253258973907, rel=1e-10)

    # log G(z) to 20 digits, computed independently with mpmath.barnesg
    @pytest.mark.parametrize("z,log_g", [
        (0.3, -1.0282956303232098428),
        (1.5, 0.066931888435004704274),
        (10 / 3, 0.13062499248578776081),
        (9.7, 32.752472204986907982),
        (30.2, 825.38200255247593763),
        (1000.0, 2698890.6165336429019),
        (3000.0, 29260394.018921804999),
    ])
    def test_high_precision_references(self, z, log_g):
        started = time.perf_counter()
        value = log_barnes_G(z)
        assert time.perf_counter() - started < 0.1
        assert abs(value - log_g) <= 1e-12 * max(1.0, abs(log_g))

    def test_integral_float_matches_exact(self):
        for n in range(1, 200):
            exact = math.log(barnes_G_int(n))
            assert abs(log_barnes_G(float(n)) - exact) <= 1e-12 * max(1.0, exact)


class TestFractionalMoment:
    def test_cos_constant_at_p1(self):
        # |y| = (2/pi) int_0^inf (1 - cos(t y)) / t^2 dt
        assert cos_constant(1.0) == pytest.approx(2 / math.pi, rel=1e-15)

    def test_matches_second_moment_near_p2(self):
        # E|q_1|^p -> E[q_1^2] = 1/3 at s = 1 as p -> 2
        assert fractional_moment_q1(1.99, 1) == pytest.approx(1 / 3, abs=2e-3)

    def test_small_p_reference(self):
        assert fractional_moment_q1(0.5, 1) == pytest.approx(
            0.5502522530960304, rel=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fractional_moment_q1(2.5, 1)

    # values of the adaptive-Simpson integral this Gauss-Legendre rule replaced
    @pytest.mark.parametrize("s,p,value", [
        (1, 0.5, 0.5502522530985685), (1, 1.5, 0.31878861226788713),
        (1, 1.99, 0.33211863913938294), (2, 0.5, 0.4025541970225862),
        (2, 1.5, 0.10822937338511367), (2, 1.99, 0.06725049558079797),
        (3, 0.5, 0.33198915960756725), (3, 1.5, 0.05862747208792309),
        (3, 1.99, 0.028962942055530672), (4, 0.5, 0.2887443526219317),
        (4, 1.5, 0.03803550826223532), (4, 1.99, 0.01614157243783415),
    ])
    def test_recorded_values(self, s, p, value):
        assert fractional_moment_q1(p, s) == pytest.approx(value, rel=1e-9)

    def test_s_above_bound_rejected_before_any_phi(self, monkeypatch):
        def no_phi(*args):
            pytest.fail("phi was evaluated for s above MAX_FLOAT_PHI_S")

        monkeypatch.setattr(painleve, "phi_eval", no_phi)
        monkeypatch.setattr(painleve, "phi_series", no_phi)
        with pytest.raises(ValueError, match="MAX_FLOAT_PHI_S = %d" % MAX_FLOAT_PHI_S):
            fractional_moment_q1(1.5, MAX_FLOAT_PHI_S + 1)
