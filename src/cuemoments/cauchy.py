"""Exact expectations over the heavy-tailed (Cauchy-type) eigenvalue
measure with density proportional to prod (1+x_i^2)^{-(s+m)} * Delta^2 on
R^m, as rational functions of the parameter s.

Provides the finite-sum limiting-moment formula, finite-size joint moments,
and several independent closed-form oracles used for cross-validation.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Poly, RationalFunction, _scaled_ints
from .sympoly import SymPoly
from .symfunc import elementary, vandermonde_squared, xi_poly, v_variant_integrand

MAX_EXACT_ARITY = 7
# cap on the degree L = sum n_j e_j of a finite-size moment, so that an
# exponent such as 1e400 is rejected instead of expanded without end
MAX_EXACT_DEGREE = 64


@dataclass(frozen=True)
class MomentSpec:
    """Joint-moment query: derivative orders (strictly decreasing, >= 1),
    exponents 2h_j (> 0), variant "V" or "Z", and matrix size N (integer) or
    "limit"."""
    orders: tuple
    exponents: tuple
    variant: str
    size: object

    def __post_init__(self):
        if len(self.orders) != len(self.exponents):
            raise ValueError("orders and exponents must have equal length")
        if self.variant not in ("V", "Z"):
            raise ValueError("variant must be 'V' or 'Z'")
        if list(self.orders) != sorted(self.orders, reverse=True) or \
                len(set(self.orders)) != len(self.orders):
            raise ValueError("orders must be strictly decreasing")
        # Xi_0 = 1: an order-0 factor would be 1 while its exponent still
        # counted in the convergence domain
        if min(self.orders, default=0) < 1:
            raise ValueError("every order must be >= 1, with one at least: the "
                             "power of the polynomial itself is the weight s")
        if any(e <= 0 for e in self.exponents):
            raise ValueError("exponents must be > 0")


def domain(exponents):
    """The convergence bound (sum exponents - 1)/2 of a joint moment: it is
    finite exactly for s > domain(exponents). Each coordinate carries degree
    d = sum exponents in the integrand, and d + 2(N-1) (with Delta^2) must
    stay below 2(s+N) - 1 against the weight (1+x^2)^{-(s+N)}."""
    return (Fraction(sum(exponents)) - 1) / 2


def _lin_factor(j, m):
    """The linear factor d_j = 2s + (2m - 1 - 2j) appearing in weight moments."""
    return Poly((2 * m - 1 - 2 * j, 2))


def _double_factorial(k):
    # (2p-1)!! for k = 2p
    out = 1
    for j in range(1, k, 2):
        out *= j
    return out


def _pack(e, shifts):
    """The exponent tuple e as one int, e[i] in the bit field at shifts[i]."""
    return sum([x << s for x, s in zip(e, shifts)])


@functools.lru_cache(maxsize=None)
def _delta2_by_parity(m, bits):
    """The terms of Delta^2 in m variables, packed into fields of the given
    width, grouped by parity pattern: {packed & odd: [(packed, int coeff)]},
    where odd has the low bit of every field set. Delta^2 has integer
    coefficients."""
    shifts = range(0, bits * m, bits)
    odd = _pack((1,) * m, shifts)
    groups = {}
    for e, c in vandermonde_squared(m).terms.items():
        k = _pack(e, shifts)
        groups.setdefault(k & odd, []).append((k, c.numerator))
    return groups


def _even_moments(P, m):
    """The sum of the coefficients of P * Delta^2 over its all-even
    monomials, keyed by the non-increasing tuple of halved exponents; zero
    sums are dropped.

    The product is never formed. Delta^2 and the weight are symmetric, so a
    term of P enters only through its sorted exponent, for any P. Each such
    orbit pairs only with the Delta^2 terms of its own parity pattern: every
    other pair leaves an odd coordinate, whose weight moment is 0.
    """
    ints, den = _scaled_ints(P.terms.values())
    orbits = {}
    for e, a in zip(P.terms, ints):
        key = tuple(sorted(e, reverse=True))
        orbits[key] = orbits.get(key, 0) + a
    orbits = {e: a for e, a in orbits.items() if a}
    if not orbits:
        return {}
    # Kronecker substitution as in SymPoly.__mul__, on bit fields: Delta^2
    # has degree 2(m - 1) in each variable, so every exponent of a pair fits
    # a field, and packed keys add without carries. Rounding the width up to
    # whole bits lets most integrands of one arity share a cache entry.
    bits = max(max(e[0] for e in orbits) + 2 * (m - 1), 1).bit_length()
    shifts = range(0, bits * m, bits)
    odd = _pack((1,) * m, shifts)
    groups = _delta2_by_parity(m, bits)
    out = {}
    get = out.get
    for e, a in orbits.items():
        k1 = _pack(e, shifts)
        for k2, b in groups.get(k1 & odd, ()):
            k = k1 + k2
            out[k] = get(k, 0) + a * b
    half = (1 << (bits - 1)) - 1
    moments = {}
    for k, v in out.items():
        if v:
            key = tuple(sorted([(k >> (s + 1)) & half for s in shifts], reverse=True))
            moments[key] = moments.get(key, 0) + v
    return {key: Fraction(v, den) for key, v in moments.items() if v}


def _unnorm_factored(agg, m):
    """<Q> from the even moments agg of Q (as `_even_moments` returns them),
    with each monomial factored into one-dimensional weight moments.

    Returns (numerator Poly in s, tuple of exponents E_j for the linear
    factors d_j = 2s+2m-1-2j, j = 1..len(E)), representing
    <Q> = numerator / prod_j d_j^{E_j} up to the common normalization that
    cancels in all ratios taken by callers.
    """
    if not agg:
        return Poly(), ()
    pmax = max(k[0] for k in agg)
    E = [0] * pmax
    eps_of = {}
    for key in agg:
        eps = tuple(sum(1 for p in key if p >= j) for j in range(1, pmax + 1))
        eps_of[key] = eps
        for j in range(pmax):
            E[j] = max(E[j], eps[j])
    num = Poly()
    for key, coeff in agg.items():
        df = 1
        for p in key:
            df *= _double_factorial(2 * p)
        term = Poly.const(coeff * df)
        eps = eps_of[key]
        for j in range(pmax):
            for _ in range(E[j] - eps[j]):
                term = term * _lin_factor(j + 1, m)
        num = num + term
    return num, tuple(E)


@functools.lru_cache(maxsize=None)
def _delta2_norm(m):
    """The factored normalization <Delta^2> in m variables."""
    return _unnorm_factored(_even_moments(SymPoly.const(m, 1), m), m)


def hp_expectation(P, m):
    """E_m^{(s)}[P] = <P * Delta^2> / <Delta^2> as an exact RationalFunction."""
    if m > MAX_EXACT_ARITY:
        raise ValueError("arity %d exceeds exact-engine cap %d" % (m, MAX_EXACT_ARITY))
    if P.arity != m:
        raise ValueError("polynomial arity does not match m")
    n1, f1 = _unnorm_factored(_even_moments(P, m), m)
    n2, f2 = _delta2_norm(m)
    if n2.is_zero():
        raise ZeroDivisionError("degenerate normalization")
    num, den = n1, n2
    for j, (e1, e2) in enumerate(itertools.zip_longest(f1, f2, fillvalue=0), 1):
        net = e1 - e2
        fac = _lin_factor(j, m)
        for _ in range(abs(net)):
            if net > 0:
                den = den * fac
            else:
                num = num * fac
    return RationalFunction(num, den)


def limiting_moment(orders, exponents):
    """E[prod Y_{n_j}^{2h_j}] for the limiting elementary-symmetric variables,
    via the finite alternating sum over arities n_1..L with L = sum 2h_j n_j.
    """
    orders = tuple(orders)
    exponents = tuple(exponents)
    if any(e <= 0 or e % 2 for e in exponents):
        raise ValueError("exponents must be positive even integers")
    MomentSpec(orders, exponents, "Z", "limit")  # orders >= 1, decreasing
    L = sum(n * e for n, e in zip(orders, exponents))
    if L > MAX_EXACT_ARITY:
        raise ValueError("L = %d exceeds arity bound %d" % (L, MAX_EXACT_ARITY))
    pref = Fraction(1, math.factorial(L))
    for n, e in zip(orders, exponents):
        pref *= Fraction(math.factorial(n)) ** e
    total = RationalFunction(Poly())
    n1 = orders[0]
    for m in range(n1, L + 1):
        sign = (-1) ** (m + L)
        P = SymPoly.const(m, 1)
        for n, two_h in zip(orders, exponents):
            P = P * elementary(n, m) ** two_h
        total = total + (sign * math.comb(L, m)) * hp_expectation(P, m)
    return RationalFunction.const(pref) * total


def finite_joint_moment(spec):
    """Finite-size joint moment ratio of Prop-type expansion:
    2^{-sum 2h_j n_j} * E_N^{(s)}[ product of |.|^{2h_j} integrands ],
    exact in s. Z-variant uses Xi polynomials directly; V-variant uses the
    real-expanded integrand.
    """
    N = spec.size
    if N == "limit":
        raise ValueError("use limiting_moment for the limit case")
    if N > MAX_EXACT_ARITY:
        raise ValueError("N exceeds exact-engine arity cap")
    if any(e % 2 for e in spec.exponents):
        raise ValueError("odd exponent unsupported in exact engine; use Monte Carlo")
    L = sum(n * e for n, e in zip(spec.orders, spec.exponents))
    if L > MAX_EXACT_DEGREE:
        raise ValueError("L = %d exceeds the exact-engine degree cap %d"
                         % (L, MAX_EXACT_DEGREE))
    if spec.variant == "Z":
        P = SymPoly.const(N, 1)
        for n, two_h in zip(spec.orders, spec.exponents):
            P = P * xi_poly(n, N) ** two_h
    else:
        P = v_variant_integrand(spec.orders, spec.exponents, N)
    return RationalFunction.const(Fraction(1, 2 ** L)) * hp_expectation(P, N)


def _poly_prod(factors):
    out = Poly.const(1)
    for f in factors:
        out = out * f
    return out


def oracle_second_moment_Y(n):
    """Closed-form second moment of Y_n: a double binomial sum with Gamma
    ratios expanded as finite products of linear factors in s."""
    if n < 1:
        raise ValueError("n >= 1 required")
    # prefactor 2^{2n} (2s-1) / prod_{l=1}^n (2s-2+l)^2
    pref_num = Poly.const(2 ** (2 * n)) * Poly((-1, 2))
    pref_den = _poly_prod([Poly((l - 2, 2)) for l in range(1, n + 1)] * 2)
    total = RationalFunction(Poly())
    for i in range(n + 1):
        for j in range(n + 1):
            c = Fraction(math.comb(n, i) * math.comb(n, j), (-2) ** (2 * n - i - j))
            num = Poly.const(c)
            # Gamma(s+i)/Gamma(s) * Gamma(s+j)/Gamma(s)
            for l in range(i):
                num = num * Poly((l, 1))
            for l in range(j):
                num = num * Poly((l, 1))
            # Gamma(2s-1+n+1)/Gamma(2s-1+i+1)-style tails as products
            for l in range(i + 1, n + 1):
                num = num * Poly((l - 2, 2))
            for l in range(j + 1, n + 1):
                num = num * Poly((l - 2, 2))
            den = Poly((i + j - 1, 2))  # 2s-1+i+j
            total = total + RationalFunction(num, den)
    return RationalFunction(pref_num, pref_den) * total


def oracle_second_moment_V(n):
    """Closed-form second moment for the V-variant:
    2^{2n} (2s-1)/(2s-1+2n) * prod_{l=1}^n ((l+s-1)/(l+2s-2))^2."""
    if n < 0:
        raise ValueError("n >= 0 required")
    if n == 0:
        return RationalFunction.const(1)
    num = Poly.const(2 ** (2 * n)) * Poly((-1, 2))
    den = Poly((2 * n - 1, 2))
    for l in range(1, n + 1):
        num = num * Poly((l - 1, 1)) * Poly((l - 1, 1))
        den = den * Poly((l - 2, 2)) * Poly((l - 2, 2))
    return RationalFunction(num, den)


def oracle_finiteN_F20(N):
    """Closed-form finite-size value of the second-derivative joint moment
    ratio (quartic in N over linear factors of s), including the 1/16."""
    if N < 1:
        raise ValueError("N >= 1 required")
    a = Poly((3, 2))   # 2s+3
    b = Poly((-1, 2))  # 2s-1
    c = Poly((1, 2))   # 2s+1
    term1 = RationalFunction(Poly.const(N ** 4), a * b)
    term2 = RationalFunction(Poly.const(4 * N ** 3) * Poly((0, 1)), a * b)
    cubic = Poly((-1, 0, 1, 2))  # 2s^3 + s^2 - 1
    term3 = RationalFunction(Poly.const(4 * N ** 2) * cubic, a * b * c)
    term4 = RationalFunction(Poly.const(-8 * N) * Poly((0, 1)), a * b * c)
    return RationalFunction.const(Fraction(1, 16)) * (term1 + term2 + term3 + term4)


def keating_snaith_constant(s):
    """G(s+1)^2 / G(2s+1): exact Fraction for integer s via the recurrence
    G(z+1) = Gamma(z) G(z); float from log_barnes_G otherwise."""
    if isinstance(s, int) or (isinstance(s, Fraction) and s.denominator == 1):
        s = int(s)
        if s <= 0:
            raise ValueError("s > 0 required")
        from .painleve import barnes_G_int
        return Fraction(barnes_G_int(s + 1)) ** 2 / Fraction(barnes_G_int(2 * s + 1))
    from .painleve import log_barnes_G
    sf = float(s)
    if sf <= 0:
        raise ValueError("s > 0 required")
    return math.exp(2.0 * log_barnes_G(sf + 1.0) - log_barnes_G(2.0 * sf + 1.0))
