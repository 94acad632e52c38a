"""Exact expectations over the heavy-tailed (Cauchy-type) eigenvalue
measure with density proportional to prod (1+x_i^2)^{-(s+m)} * Delta^2 on
R^m, as rational functions of the parameter s.

Provides the finite-sum limiting-moment formula, finite-size joint moments,
and several independent closed-form oracles used for cross-validation.
"""

import collections
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import RationalFunction, _divide_out, _scaled_ints, _times_factor
from .sympoly import SymPoly
from .symfunc import elementary, vandermonde_squared, xi_poly, v_variant_integrand

MAX_EXACT_ARITY = 7
# cap on the degree L = sum n_j e_j of a finite-size moment, so that an
# exponent such as 1e400 is rejected instead of expanded without end
MAX_EXACT_DEGREE = 64
# a finite-size integrand has at most _integrand_monomials monomials. Timed
# from the CLI on 2 cores, inputs with at most 100,000 took at most 5.8 s;
# above it, 10 s at 169,911, 53 s at 431,937 and over 90 s at 7,591,179
MAX_FINITE_MONOMIALS = 100_000


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
    for e, c in vandermonde_squared(m).num.items():
        k = _pack(e, shifts)
        groups.setdefault(k & odd, []).append((k, c))
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
    orbits = {}
    for e, a in P.num.items():
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
    return {key: Fraction(v, P.den) for key, v in moments.items() if v}


def _numerator(agg, m):
    """<Q> for the even moments agg of Q (as `_even_moments` returns them) as
    (num, c, counts): <Q> = c num(u) / prod_j d_j^{E_j}, with num the int
    coefficients of a polynomial in u = 2s, d_j = u + 2m - 1 - 2j, E_j the
    most parts >= j of any key, and counts {2m - 1 - 2j: E_j}.

    A monomial with halved exponents key factors into one-dimensional weight
    moments, prod_{p in key} prod_{j <= p} (2j - 1)/d_j, up to the
    normalization of the weight, which cancels in every ratio callers take.
    """
    E = [max(sum(p >= j for p in key) for key in agg)
         for j in range(1, max((key[0] for key in agg), default=0) + 1)]
    ints, den = _scaled_ints(list(agg.values()))
    # the int coefficients of prod_j d_j^{r_j} for each factor-exponent
    # vector r, shared between the keys
    factors = {}
    num = []
    for key, c in zip(agg, ints):
        r = tuple(e - sum(p >= j for p in key) for j, e in enumerate(E, 1))
        f = factors.get(r)
        if f is None:
            f = [1]
            for j, rj in enumerate(r, 1):
                f = _times_factor(f, 2 * m - 1 - 2 * j, rj) if rj else f
            factors[r] = f
        c *= math.prod(math.prod(range(1, 2 * p, 2)) for p in key)
        if len(num) < len(f):
            num += [0] * (len(f) - len(num))
        for i, x in enumerate(f):
            num[i] += c * x
    return num, Fraction(1, den), {2 * m - 1 - 2 * j: e for j, e in enumerate(E, 1)}


def _linear_factors(num, ks):
    """(c, roots) with num(u) = c prod_k (u + k)^roots[k] for an int list num
    whose roots are all among the ints ks, found by root tests at u = -k;
    ArithmeticError when a nonconstant quotient is left."""
    roots = {}
    for k in ks:
        num, roots[k] = _divide_out(num, k, len(num))
    if len(num) != 1 or not num[0]:
        raise ArithmeticError("the numerator does not split into factors u + k, k in %s" % (ks,))
    return num[0], {k: t for k, t in roots.items() if t}


def _over(counts, other):
    """The factor counts of a quotient: counts minus other, zeros dropped."""
    out = {k: counts.get(k, 0) - other.get(k, 0) for k in counts.keys() | other.keys()}
    return {k: e for k, e in out.items() if e}


@functools.lru_cache(maxsize=None)
def _delta2_factors(m):
    """<Delta^2> in m variables as (c, counts), <Delta^2> = c / prod_k (2s +
    k)^counts[k], computed once per arity: its numerator over the d_j splits
    into factors 2s + k with k in [-4m, 4m] (ROADMAP F5)."""
    num, c, counts = _numerator(_even_moments(SymPoly.const(m, 1), m), m)
    const, roots = _linear_factors(num, range(-4 * m, 4 * m + 1))
    return c * const, _over(counts, roots)


def _expectation(P, m):
    """E_m^{(s)}[P] = <P * Delta^2> / <Delta^2> as a term (num, c, counts) of
    RationalFunction.from_factors."""
    if m > MAX_EXACT_ARITY:
        raise ValueError("arity %d exceeds exact-engine cap %d" % (m, MAX_EXACT_ARITY))
    if P.arity != m:
        raise ValueError("polynomial arity does not match m")
    num, c, counts = _numerator(_even_moments(P, m), m)
    c_delta, delta = _delta2_factors(m)
    return num, c / c_delta, _over(counts, delta)


def hp_expectation(P, m):
    """E_m^{(s)}[P] = <P * Delta^2> / <Delta^2> as an exact RationalFunction."""
    return RationalFunction.from_factors([_expectation(P, m)])


def _exact_degree(spec):
    """The degree L = sum n_j e_j of a moment the exact engine expands. Its
    exponents must be even integers (MomentSpec makes them positive): the
    exact formulas hold there, and every other positive real exponent is
    left to Monte Carlo."""
    if any(e % 2 for e in spec.exponents):
        raise ValueError("the exact engine needs positive even integer "
                         "exponents; use mc-estimate for others")
    return int(sum(n * e for n, e in zip(spec.orders, spec.exponents)))


def _integrand_monomials(N, orders, exponents):
    """The number of monomials in N variables with every exponent at most
    d = sum e_j and degree at most D = sum e_j min(n_j, N) (Xi_n has degree
    min(n, N)), by inclusion-exclusion over the exponents above d."""
    d = int(sum(exponents))
    D = int(sum(e * min(n, N) for n, e in zip(orders, exponents)))
    return sum((-1) ** j * math.comb(N, j) * math.comb(D - j * (d + 1) + N, N)
               for j in range(N + 1) if D >= j * (d + 1))


def limiting_moment(orders, exponents):
    """E[prod Y_{n_j}^{2h_j}] for the limiting elementary-symmetric variables,
    via the finite alternating sum over arities n_1..L with L = sum 2h_j n_j.
    """
    spec = MomentSpec(tuple(orders), tuple(exponents), "Z", "limit")
    L = _exact_degree(spec)
    if L > MAX_EXACT_ARITY:
        raise ValueError("L = %d exceeds arity bound %d" % (L, MAX_EXACT_ARITY))
    pref = Fraction(1, math.factorial(L))
    for n, e in zip(spec.orders, spec.exponents):
        pref *= Fraction(math.factorial(n)) ** e
    terms = []
    for m in range(spec.orders[0], L + 1):
        P = SymPoly.const(m, 1)
        for n, two_h in zip(spec.orders, spec.exponents):
            P = P * elementary(n, m) ** int(two_h)
        num, c, counts = _expectation(P, m)
        terms.append((num, (-1) ** (m + L) * math.comb(L, m) * pref * c, counts))
    return RationalFunction.from_factors(terms)


def finite_joint_moment(spec):
    """Finite-size joint moment ratio of Prop-type expansion:
    2^{-sum 2h_j n_j} * E_N^{(s)}[ product of |.|^{2h_j} integrands ],
    exact in s. Z-variant uses Xi polynomials directly; V-variant uses the
    real-expanded integrand.
    """
    N = spec.size
    if N == "limit":
        raise ValueError("use limiting_moment for the limit case")
    L = _exact_degree(spec)
    if N > MAX_EXACT_ARITY:
        raise ValueError("N exceeds exact-engine arity cap")
    if L > MAX_EXACT_DEGREE:
        raise ValueError("L = %d exceeds the exact-engine degree cap %d"
                         % (L, MAX_EXACT_DEGREE))
    size = _integrand_monomials(N, spec.orders, spec.exponents)
    if size > MAX_FINITE_MONOMIALS:
        raise ValueError("the exact engine expands at most %d integrand "
                         "monomials; got %d" % (MAX_FINITE_MONOMIALS, size))
    if spec.variant == "Z":
        P = SymPoly.const(N, 1)
        for n, two_h in zip(spec.orders, spec.exponents):
            P = P * xi_poly(n, N) ** int(two_h)
    else:
        P = v_variant_integrand(spec.orders, spec.exponents, N)
    # the 2^{-L} as a factor of the integrand's denominator
    return hp_expectation(SymPoly._raw(N, P.num, P.den << L), N)


def oracle_second_moment_Y(n):
    """Closed-form second moment of Y_n: the double binomial sum over i, j of
    C(n,i) C(n,j) (-2)^{i+j-2n} Gamma(s+i) Gamma(s+j) / Gamma(s)^2
    prod_{l>i} (2s+l-2) prod_{l>j} (2s+l-2) / (2s-1+i+j), times
    2^{2n} (2s-1) / prod_{l=1}^n (2s+l-2)^2. With s + l = (2s + 2l)/2 every
    term is (-1)^{i+j} C(n,i) C(n,j) over factor counts of 2s + k."""
    if n < 1:
        raise ValueError("n >= 1 required")
    terms = []
    for i in range(n + 1):
        for j in range(n + 1):
            counts = collections.Counter([i + j - 1] + [l - 2 for l in range(1, i + 1)]
                                         + [l - 2 for l in range(1, j + 1)])
            counts.subtract([-1] + [2 * l for l in range(i)] + [2 * l for l in range(j)])
            terms.append(([1], (-1) ** (i + j) * math.comb(n, i) * math.comb(n, j), counts))
    return RationalFunction.from_factors(terms)


def oracle_second_moment_V(n):
    """Closed-form second moment for the V-variant:
    2^{2n} (2s-1)/(2s-1+2n) * prod_{l=1}^n ((l+s-1)/(l+2s-2))^2.

    With (l+s-1)^2 = (2s+2l-2)^2/4 the constant is 1, and every factor is
    some 2s + k, so the quotient is its net factor counts."""
    if n < 0:
        raise ValueError("n >= 0 required")
    counts = collections.Counter([2 * n - 1] + [l - 2 for l in range(1, n + 1)] * 2)
    counts.subtract([-1] + [2 * l - 2 for l in range(1, n + 1)] * 2)
    return RationalFunction.from_factors([([1], 1, counts)])


def oracle_finiteN_F20(N):
    """Closed-form finite-size value of the second-derivative joint moment
    ratio (quartic in N over linear factors of s), including the 1/16:
    (N^4 + 4N^3 s)/(ab) + (4N^2 (2s^3 + s^2 - 1) - 8N s)/(abc) over 16, with
    a = 2s + 3, b = 2s - 1, c = 2s + 1; in u = 2s the numerators are
    N^4 + 2N^3 u and N^2 (u^3 + u^2 - 4) - 4N u."""
    if N < 1:
        raise ValueError("N >= 1 required")
    return RationalFunction.from_factors([
        ([N ** 4, 2 * N ** 3], Fraction(1, 16), {3: 1, -1: 1}),
        ([-4 * N ** 2, -4 * N, N ** 2, N ** 2], Fraction(1, 16), {3: 1, -1: 1, 1: 1})])


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
