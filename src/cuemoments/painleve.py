"""Special functions at controlled precision (Barnes G),
the explicit limiting characteristic function phi_s as an exact power series,
tau functions at finite size (exact rational in t) and in the limit (series),
residual evaluators for the finite-size Painleve V and sigma-Painleve III'
equations, and fractional moments via the cosine-integral identity.
"""

import math
from fractions import Fraction

from .exact import (PowerSeries, RationalFunction, DEFAULT_SERIES_ORDER,
                    _mul_t, series_logderiv)
from .hankel import _shifted_det, hankel_det

# zeta'(-1) and the Bernoulli numbers B_4, B_6, ..., B_14 of log_barnes_G
_ZETA_PRIME_MINUS_1 = -0.16542114370045092921
_BERNOULLI_4_TO_14 = (-1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# phi_eval is within 1e-9 relative of the exact phi_s at t = 1, 5, 20 and 60
# for s <= 4 (3.4e-10 at s = 4, t = 60); at t = 60 it is off by 1.3e-7 at s = 5
MAX_FLOAT_PHI_S = 4


def barnes_G_int(n):
    """Exact Barnes G at positive integer argument: G(1)=1, G(k+1)=(k-1)!G(k)."""
    if n < 1:
        raise ValueError("positive integer required")
    g = 1
    for k in range(1, n):
        g *= math.factorial(k - 1)
    return g


def log_barnes_G(z):
    """log G(z) for z > 0, finite also where G(z) overflows a float.

    G(z) = G(z + M) / prod_{j<M} Gamma(z + j) brings the argument to 1 + x
    with x = z + M - 1 >= 19, where the asymptotic series of log G(1 + x)
    (DLMF 5.17.5) is summed through B_14; the first omitted term is below
    1e-19 there."""
    if z <= 0:
        raise ValueError("z > 0 required")
    M = max(0, math.ceil(20.0 - z))
    x = z + M - 1.0
    series = sum(b / (4 * k * (k + 1) * x ** (2 * k))
                 for k, b in enumerate(_BERNOULLI_4_TO_14, 1))
    log_g = ((x * x / 2.0 - 1.0 / 12.0) * math.log(x) - 0.75 * x * x
             + 0.5 * x * math.log(2.0 * math.pi) + _ZETA_PRIME_MINUS_1 + series)
    return log_g - math.fsum(math.lgamma(z + j) for j in range(M))


def _g_series(nu, order):
    """g_nu(t) = sum_m (2t)^m / (m! (m+nu)!), truncated rational series."""
    return PowerSeries([Fraction(2 ** m, math.factorial(m) * math.factorial(m + nu))
                        for m in range(order + 1)], order)


def _phi(s, gs, exp_neg_t):
    """prefactor * det[g_{j+k+1}(t)] * e^{-t} from gs[nu - 1] = g_nu and e^{-t},
    exact PowerSeries or floats, on the memoised minors of _shifted_det."""
    det = _shifted_det(gs.__getitem__, tuple(range(s)), {})
    pref = Fraction((-1) ** (s * (s - 1) // 2) * barnes_G_int(2 * s + 1),
                    barnes_G_int(s + 1) ** 2)
    return pref * det * exp_neg_t


def phi_series(s, K=DEFAULT_SERIES_ORDER):
    """Characteristic function phi_s(t) of the limiting linear statistic, as an
    exact rational power series in t (t >= 0).

    Assembled as prefactor * det[g_{j+k+1}(t)]_{0<=j,k<=s-1} * e^{-t}: each
    Bessel entry I_{j+k+1}(2 sqrt(2t)) equals (2t)^{(j+k+1)/2} g_{j+k+1}(t), and
    every permutation term of the s x s determinant carries the same total power
    (2t)^{s^2/2}, so the half-integer powers cancel structurally against the
    normalization and only integer powers remain.
    """
    if s < 1:
        raise ValueError("s >= 1 required")
    exp_neg_t = PowerSeries([Fraction((-1) ** m, math.factorial(m))
                             for m in range(K + 1)], K)
    phi = _phi(s, [_g_series(nu, K) for nu in range(1, 2 * s)], exp_neg_t)
    assert phi[0] == 1, "normalization failed: phi(0) != 1"
    return phi


def tau_limit(s, K=DEFAULT_SERIES_ORDER):
    """tau^{(s)}(t) = t d/dt log phi_s(t/2), as a PowerSeries."""
    phi = phi_series(s, K)
    tau = series_logderiv(phi.scale_arg(Fraction(1, 2)))
    assert tau[0] == 0 and tau[1] == 0
    return tau


def _residual_poly(A, P, s, n2, sn):
    """P^6 times the residual (t tau'')^2 + 4t(tau')^3
    - (4s^2 + 4tau + n2 t^2)(tau')^2 - t(1 + sn - 2 n2 tau) tau'
    + (1 + sn - n2 tau) tau of tau = A/P, for Polys A and P != 0 or
    PowerSeries A and P = 1: P-V at n2 = 1/N^2 and sn = 2s/N, and
    sigma-P-III' at n2 = sn = 0, its N -> infinity limit.

    With tau' = B/P^2 (B = A'P - AP') and tau'' = C/P^3 (C = B'P - 2BP'),
    every term has denominator dividing P^6, so the identity is checked
    with no division; P != 0, so the result is zero exactly when the
    residual is.
    """
    dP = P.derivative()
    B = A.derivative() * P - A * dP
    C = B.derivative() * P - 2 * B * dP
    B2 = B * B
    k = (1 + sn) * P
    tC = _mul_t(C)
    # the terms in P^4, P^3 and P nested, Horner-like, to save two products
    inner = (k - n2 * A) * A * P - _mul_t((k - 2 * n2 * A) * B)
    outer = inner * (P * P) - (4 * s * s * P + 4 * A + n2 * _mul_t(_mul_t(P))) * B2
    return tC * tC + 4 * _mul_t(B2 * B) + outer * P


def sigma_p3_residual(tau, s):
    """(t tau'')^2 + 4t(tau')^3 - (4s^2+4tau)(tau')^2 - t tau' + tau.

    Vanishes identically for the limiting tau function. A PowerSeries tau
    gives the residual as a PowerSeries; a RationalFunction tau = A/P gives
    P^6 times the residual as a Poly.
    """
    if isinstance(tau, PowerSeries):
        return _residual_poly(tau, PowerSeries.const(1, tau.order), s, 0, 0)
    return _residual_poly(tau.num, tau.den, s, 0, 0)


def tau_finiteN(N, s):
    """Finite-size tau function, a RationalFunction of t.

    With P the polynomial part (after e^{-Nt}) of the size-N Hankel
    determinant of the theta family, tau_N(t) = -t/2 + t P1'(t)/P1(t) where
    P1(t) = P(t/(2N)).
    """
    P1 = hankel_det(N, s, ()).scale_arg(Fraction(1, 2 * N))
    return RationalFunction(_mul_t(P1.derivative() - Fraction(1, 2) * P1), P1)


def painleve5_residual(tau, N, s):
    """(t tau'')^2 + 4t(tau')^3 - (4s^2+4tau+t^2/N^2)(tau')^2
    - t(1+2s/N-2tau/N^2) tau' + (1+2s/N-tau/N^2) tau, exact.

    Returns P^6 times the residual as a Poly, where P is the (monic)
    denominator of tau; identically zero for tau_finiteN(N, s).
    """
    return _residual_poly(tau.num, tau.den, s, Fraction(1, N * N), Fraction(2 * s, N))


def phi_eval(s, t):
    """Float evaluation of phi_s at t >= 0 from float g-sums, accurate to
    1e-9 relative for s <= MAX_FLOAT_PHI_S."""
    if not 1 <= s <= MAX_FLOAT_PHI_S or t < 0:
        raise ValueError("1 <= s <= %d and t >= 0 required" % MAX_FLOAT_PHI_S)

    def g(nu):
        terms = [1.0 / math.factorial(nu)]
        total = terms[0]
        for m in range(1, 501):
            term = terms[-1] * 2.0 * t / (m * (m + nu))
            if m > 8 and abs(term) < 1e-18 * max(1.0, abs(total)):
                break
            terms.append(term)
            total += term
        return math.fsum(terms)

    return _phi(s, [g(nu) for nu in range(1, 2 * s)], math.exp(-t))


def cos_constant(p):
    """C_p = 2 Gamma(1+p) sin(pi p/2) / pi, the constant of the identity
    |y|^p = C_p int_0^inf (1 - cos(t y)) / t^{p+1} dt for 0 < p < 2."""
    return 2.0 * math.gamma(1.0 + p) * math.sin(math.pi * p / 2.0) / math.pi


def fractional_moment_q1(p, s):
    """E[|q_1(s)|^p] for 0 < p < 2 and s <= MAX_FLOAT_PHI_S via C_p * int_0^inf
    (1 - phi_s(t)) / t^{p+1} dt, with C_p = cos_constant(p): [0, 1] from the
    exact series of phi, [1, 60] by Gauss-Legendre checked at 1.5 times the
    nodes, and phi = 0 beyond."""
    import numpy as np

    if not (0.0 < p < 2.0):
        raise ValueError("p in (0,2) required")
    if not 1 <= s <= MAX_FLOAT_PHI_S:
        raise ValueError("1 <= s <= MAX_FLOAT_PHI_S = %d required: beyond it "
                         "the float phi_s loses 1e-9 accuracy" % MAX_FLOAT_PHI_S)
    C_p = cos_constant(p)
    # [0,1] via exact series coefficients of phi
    phi = phi_series(s, 40)
    head = -sum(float(phi[k]) / (k - p) for k in range(2, 41))
    T = 60.0

    def mid(nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        t = 0.5 * (T + 1.0) + 0.5 * (T - 1.0) * x
        f = [(1.0 - phi_eval(s, ti)) / ti ** (p + 1) for ti in t.tolist()]
        return 0.5 * (T - 1.0) * float(np.dot(w, f))

    m1, m2 = mid(64), mid(96)
    if not abs(m1 - m2) <= 1e-10 * max(abs(m2), 1.0):
        raise ArithmeticError("Gauss-Legendre on [1, %g] did not converge to "
                              "the 1e-10 target" % T)
    tail = T ** (-p) / p  # phi beyond T adds under 2e-10 relative for s <= 4
    return C_p * (head + m2 + tail)
