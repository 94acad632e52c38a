"""Exact expectations over the heavy-tailed (Cauchy-type) eigenvalue
measure with density proportional to prod (1+x_i^2)^{-(s+m)} * Delta^2 on
R^m, as rational functions of the parameter s.

Provides the limiting moments as one Schur sum, finite-size joint moments,
and several independent closed-form oracles used for cross-validation.

Every exact moment is a flat list of terms (num, c, counts) of
RationalFunction.from_factors, one per even orbit of P * Delta^2 or, in the
limit, one per partition of the degree, so no common denominator is built
before from_factors sums the terms.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import RationalFunction
from .sympoly import SymPoly
from .symfunc import vandermonde_squared, xi_poly, v_variant_integrand

MAX_EXACT_ARITY = 7
# degree cap of a limiting moment (L is even): each L <= 18 takes under 0.5 s
MAX_LIMIT_DEGREE = 18
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
    """The sums of the int numerators of P * Delta^2 (over P.den, which the
    caller carries) over its all-even monomials, keyed by the non-increasing
    tuple of halved exponents; zero sums are dropped.

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
    return {key: v for key, v in moments.items() if v}


def _orbit_terms(moments, m, c, minus):
    """c times the even moments of `_even_moments` in m variables as terms
    (num, c, counts) of RationalFunction.from_factors, one per orbit, with
    the factor counts `minus` taken off each.

    The orbit with halved exponents key and sum v is a product of
    one-dimensional weight moments, v prod_{p in key} prod_{j <= p} (2j - 1)
    / d_j with d_j = 2s + 2m - 1 - 2j: the term [v prod_p (2p - 1)!!] over
    the counts {2m - 1 - 2j: #(parts >= j)}. This holds up to the
    normalization of the weight, which cancels in every ratio callers take.
    """
    base = {k: -e for k, e in minus.items()}
    terms = []
    for key, v in moments.items():
        counts = dict(base)
        for p in key:
            for k in range(2 * m - 3, 2 * m - 3 - 2 * p, -2):
                counts[k] = counts.get(k, 0) + 1
        terms.append(([v * math.prod(math.prod(range(1, 2 * p, 2)) for p in key)], c, counts))
    return terms


def _delta2_factors(m):
    """<Delta^2> in m variables as (c, counts), <Delta^2> = c / prod_k (2s +
    k)^counts[k], by Heine: m! det[mu_{i+j}] = m! prod_{i<m} b_i^{m-i} for the
    recurrence coefficients b_i = i (u + 2m - i) / ((u + 2m - 2i - 1)(u + 2m -
    2i + 1)), u = 2s, of the monic orthogonal polynomials of the weight."""
    counts = collections.Counter()
    for i in range(1, m):
        counts.update({2 * m - 2 * i - 1: m - i, 2 * m - 2 * i + 1: m - i})
        counts[2 * m - i] -= m - i
    return math.factorial(m) * math.prod(i ** (m - i) for i in range(1, m)), counts


def hp_expectation(P):
    """E_m^{(s)}[P] = <P * Delta^2> / <Delta^2>, m the arity of P, as an
    exact RationalFunction, summed from one term per even orbit."""
    m = P.arity
    if m > MAX_EXACT_ARITY:
        raise ValueError("arity %d exceeds exact-engine cap %d" % (m, MAX_EXACT_ARITY))
    c, delta = _delta2_factors(m)
    return RationalFunction.from_factors(
        _orbit_terms(_even_moments(P, m), m, Fraction(1, P.den * c), delta))


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


def _times_e(state, n):
    """The Schur expansion state {lambda: coeff} times e_n, by the dual Pieri
    rule: add a vertical strip of n boxes, at most one per row, with no row
    bound. Rows of equal length take boxes from the top down, so a strip is
    one count per part size, the zero rows included, summing to n."""
    out = collections.Counter()
    for lam, c in state.items():
        sizes = sorted(collections.Counter(lam).items(), reverse=True) + [(0, n)]
        for ts in itertools.product(*[range(k + 1) for _, k in sizes]):
            if sum(ts) == n:
                out[tuple(q for (p, k), t in zip(sizes, ts)
                          for q in [p + 1] * t + [p] * (k - t) if q)] += c
    return out


def _schur_limit(lam):
    """a_lambda(s) / prod h, the N^L coefficient of E_N[s_lambda] (ROADMAP
    F6), as (c, counts): +-1 over the even hooks, counts 1 - 2c on mu0 and
    -1 - 2c on mu1, c the content, for the 2-quotient (mu0, mu1) of the even
    and odd beta numbers; None when the 2-core is not empty. Removing a
    vertical domino slides a bead past one of the other parity, so the sign
    is the parity of the (odd < even) bead pairs, less those of {0..r-1}."""
    r = len(lam) + len(lam) % 2
    beta = [p + r - 1 - i for i, p in enumerate(lam + (0,) * (r - len(lam)))]
    h = r // 2
    runners = [[b // 2 for b in beta if b % 2 == q] for q in (0, 1)]
    if len(runners[0]) != h:
        return None
    flips = sum(a < b for a in beta if a % 2 for b in beta if not b % 2) - h * (h - 1) // 2
    counts = collections.Counter()
    for k, beads in zip((1, -1), runners):
        for i, b in enumerate(beads):
            counts.update(k + 2 * i - 2 * j for j in range(b - h + 1 + i))
    cols = [sum(p > j for p in lam) for j in range(lam[0])]
    hooks = [p - j + cols[j] - i - 1 for i, p in enumerate(lam) for j in range(p)]
    return Fraction((-1) ** (flips % 2), math.prod(x for x in hooks if x % 2 == 0)), counts


def _limit_terms(parts):
    """E[prod_{n in parts} Y_n] as terms of RationalFunction.from_factors:
    prod n! e_n = sum K_lambda s_lambda by `_times_e`, and each lambda with
    an empty 2-core adds K_lambda a_lambda(s) / prod h."""
    state = {(): math.prod(math.factorial(n) for n in parts)}
    for n in parts:
        state = _times_e(state, n)
    terms = []
    for lam, K in state.items():
        a = _schur_limit(lam)
        if a:
            terms.append(([1], K * a[0], a[1]))
    return terms


def limiting_moment(orders, exponents):
    """E[prod Y_{n_j}^{2h_j}] for the limiting elementary-symmetric variables,
    one term per partition of L = sum 2h_j n_j in the Schur expansion of
    prod e_{n_j}^{2h_j}."""
    spec = MomentSpec(tuple(orders), tuple(exponents), "Z", "limit")
    L = _exact_degree(spec)
    if L > MAX_LIMIT_DEGREE:
        raise ValueError("L = %d exceeds the limiting-moment degree cap %d" % (L, MAX_LIMIT_DEGREE))
    return RationalFunction.from_factors(
        _limit_terms([n for n, e in zip(spec.orders, spec.exponents) for _ in range(int(e))]))


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
    return hp_expectation(SymPoly._raw(N, P.num, P.den << L))


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
