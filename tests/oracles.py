"""Reference oracles and paper-display checks, used only by the tests: brute
force and scalar references for the engines of cuemoments, and the identities
of the paper that no command verifies.
"""

import argparse
import functools
import itertools
import math
from fractions import Fraction
from operator import mul

from cuemoments import cli
from cuemoments.cauchy import _even_moments
from cuemoments.exact import Poly, RationalFunction, _mul_t, _scaled_ints
from cuemoments.hankel import (MultiSeries, Psi_ms, _column_sum, _columns, _matrix, _psi_cols,
                               det_poly_bareiss, hankel_det, mixed_derivative, partition_kq,
                               theta)
from cuemoments.mc import _GOLDEN, _MASK, _mix64
from cuemoments.symfunc import elementary
from cuemoments.sympoly import SymPoly


def variable(arity, i):
    """The coordinate x_{i+1} as a SymPoly of the given arity."""
    expo = [0] * arity
    expo[i] = 1
    return SymPoly(arity, {tuple(expo): Fraction(1)})


def sympoly_eval(p, point):
    """The SymPoly p at a point: a Fraction for rational coordinates, a
    float if any coordinate is a float."""
    if len(point) != p.arity:
        raise ValueError("point arity mismatch")
    total = Fraction(0) if not any(isinstance(x, float) for x in point) else 0.0
    for e, c in p.terms.items():
        term = c if not isinstance(total, float) else float(c)
        for x, k in zip(point, e):
            if k:
                term *= x ** k
        total += term
    return total


def fraction_dict_add(a, b):
    """The sum of two polynomials given as {exponent tuple: Fraction} dicts,
    one Fraction per term, with zero sums dropped: the reference for
    SymPoly.__add__."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, Fraction(0)) + c
        if v == 0:
            out.pop(e, None)
        else:
            out[e] = v
    return out


def fraction_dict_mul(arity, a, b):
    """The product of two polynomials of the given arity, given as
    {exponent tuple: Fraction} dicts, by Kronecker substitution on their
    coefficients scaled to ints and one Fraction per output term: the
    reference for SymPoly.__mul__."""
    if not a or not b:
        return {}
    base = max(max(e, default=0) for e in a) + max(max(e, default=0) for e in b) + 1
    powers = [base ** i for i in range(arity)]
    ia, da = _scaled_ints(list(a.values()))
    ib, db = _scaled_ints(list(b.values()))
    pairs = list(zip([sum(map(mul, e, powers)) for e in b], ib))
    out = {}
    for k1, c1 in zip([sum(map(mul, e, powers)) for e in a], ia):
        for k2, c2 in pairs:
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    den = da * db
    return {tuple([k // p % base for p in powers]): Fraction(v, den)
            for k, v in out.items() if v}


def a_coeff_bruteforce(n, l, N):
    """Composition-sum oracle for a_{n,l}(N): sum of multinomials n!/(m_1!..m_N!)
    over compositions of n into N parts with the first l parts odd and the
    rest even (>= 0), with sign (-1)^{(n+l)/2}.
    """
    if (n - l) % 2:
        return 0
    total = 0
    nf = math.factorial(n)

    def rec(pos, remaining, denom):
        nonlocal total
        if pos == N:
            if remaining == 0:
                total += nf // denom
            return
        start = 1 if pos < l else 0
        for m in range(start, remaining + 1, 2):
            rec(pos + 1, remaining - m, denom * math.factorial(m))

    rec(0, n, 1)
    return (-1) ** ((n + l) // 2) * total


def a_coeff_double_sum(n, l, N):
    """a_{n,l}(N) from the double sum over the exponentials e^{(N-2j-2k)z} of
    2^{-N} (e^z - e^{-z})^l (e^z + e^{-z})^{N-l}, one power per (j, k)."""
    if (n - l) % 2:
        return 0
    total = sum((-1) ** j * math.comb(l, j) * math.comb(N - l, k)
                * (N - 2 * j - 2 * k) ** n
                for j in range(l + 1) for k in range(N - l + 1))
    return (-1) ** ((n + l) // 2) * total // 2 ** N


def weight_moment(r, m):
    """int x^r (1+x^2)^{-(s+m)} dx / int (1+x^2)^{-(s+m)} dx as a rational
    function of s: zero for odd r, and prod_{j=1}^{p} (2j-1)/(2s+2m-1-2j) at r = 2p."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r % 2:
        return RationalFunction(Poly())
    p = r // 2
    num = 1
    den = Poly.const(1)
    for j in range(1, p + 1):
        num *= 2 * j - 1
        den = den * Poly((2 * m - 1 - 2 * j, 2))
    return RationalFunction(Poly.const(num), den)


def schur_average_heine(lam, m, s):
    """E_m[s_lambda] at a rational s, for the measure of hp_expectation:
    Delta^2 times the weight (1+x^2)^{-(s+m)} on R^m. By Andreief's identity
    it is det[mu_{lam_j+2m-2-j-k}] / det[mu_{2m-2-j-k}] over j, k in 0..m-1,
    where mu_{2i}/mu_0 = prod_{r<i} (2r+1)/(2s+2m-2r-3) is continued past
    convergence (the values of weight_moment) and the odd moments are 0.
    Zero when l(lambda) > m."""
    if len(lam) > m:
        return Fraction(0)
    lam = tuple(lam) + (0,) * (m - len(lam))
    return _heine_det(lam, m, s) / _heine_det((0,) * m, m, s)


@functools.lru_cache(maxsize=1024)
def _heine_det(parts, m, s):
    """det[mu_{p_j+2m-2-j-k}] of schur_average_heine, for the m parts p;
    cached, since every lambda at one (m, s) shares the empty partition's."""
    mu = [Fraction(1)]
    for r in range((parts[0] + 2 * m - 2) // 2):
        mu.append(mu[-1] * (2 * r + 1) / (2 * s + 2 * m - 2 * r - 3))
    return fraction_det([[0 if (p - j - k) % 2 else mu[(p + 2 * m - 2 - j - k) // 2]
                          for k in range(m)] for j, p in enumerate(parts)])


def fraction_det(rows):
    """The determinant of a square matrix of Fractions (a list of rows, which
    it overwrites) by Gaussian elimination."""
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        top = rows[c]
        det *= top[c]
        cols = [k for k in range(c + 1, len(top)) if top[k]]
        for row in rows[c + 1:]:
            if row[c]:
                f = row[c] / top[c]
                for k in cols:
                    row[k] -= f * top[k]
    return det


def numerators_poly(agg, m):
    """The orbit terms of cauchy._orbit_terms summed on Polys in s, for the
    even moments agg of Q (int sums, as `_even_moments` returns them): (num,
    den) with <Q> = num/den up to the weight's normalization and Q's
    denominator, den = prod_j d_j^{E_j} for the Poly d_j = 2s + 2m - 1 - 2j
    and E_j the most parts >= j of any key, and each key's sum times
    prod_{p in key} (2p - 1)!! times prod_j d_j^{r_j}, r_j = E_j - #(parts >=
    j), multiplied in factor by factor and summed as Polys."""
    E = [max(sum(p >= j for p in key) for key in agg)
         for j in range(1, max((key[0] for key in agg), default=0) + 1)]
    num = Poly()
    for key, coeff in agg.items():
        term = Poly.const(coeff * math.prod(math.prod(range(1, 2 * p, 2)) for p in key))
        for j, e in enumerate(E, 1):
            for _ in range(e - sum(p >= j for p in key)):
                term = term * Poly((2 * m - 1 - 2 * j, 2))
        num = num + term
    den = Poly.const(1)
    for j, e in enumerate(E, 1):
        for _ in range(e):
            den = den * Poly((2 * m - 1 - 2 * j, 2))
    return num, den


def hp_expectation_gcd(P):
    """E_m[P] = <P Delta^2>/<Delta^2>, m the arity of P, by the gcd route:
    both numerators from numerators_poly, and their quotient, with P's
    denominator, reduced by RationalFunction's gcd."""
    m = P.arity
    num, den = numerators_poly(_even_moments(P, m), m)
    num_d, den_d = numerators_poly(_even_moments(SymPoly.const(m, 1), m), m)
    return RationalFunction(num * den_d, den * num_d * P.den)


def limiting_moment_gcd(orders, exponents):
    """E[prod Y_{n_j}^{e_j}] by the alternating sum over the arities m =
    max n_j..L (ROADMAP F3), on gcd-reduced RationalFunctions: the reference
    for cauchy.limiting_moment, any positive int exponents."""
    L = sum(n * e for n, e in zip(orders, exponents))
    pref = Fraction(math.prod(math.factorial(n) ** e for n, e in zip(orders, exponents)),
                    math.factorial(L))
    total = RationalFunction(Poly())
    for m in range(max(orders), L + 1):
        P = SymPoly.const(m, 1)
        for n, e in zip(orders, exponents):
            P = P * elementary(n, m) ** e
        total = total + (-1) ** (m + L) * math.comb(L, m) * hp_expectation_gcd(P)
    return RationalFunction.const(pref) * total


def second_moment_V_factors(n):
    """The V-variant second moment 2^{2n} (2s-1)/(2s-1+2n) *
    prod_{l=1}^n ((l+s-1)/(l+2s-2))^2 as its numerator and denominator
    Polys, multiplied out factor by factor and not reduced."""
    num = Poly((-1, 2))
    den = Poly((2 * n - 1, 2))
    for l in range(1, n + 1):
        num = num * Poly((l - 1, 1)) * Poly((l - 1, 1))
        den = den * Poly((l - 2, 2)) * Poly((l - 2, 2))
    return num * 2 ** (2 * n), den


def second_moment_V_product(n):
    """second_moment_V_factors reduced by RationalFunction's gcd: the
    product reference for cauchy.oracle_second_moment_V."""
    if n == 0:
        return RationalFunction.const(1)
    return RationalFunction(*second_moment_V_factors(n))


class CounterRNG:
    """The scalar reference for mc._uniforms: the i-th output is
    mix64(seed + (i+1)*GOLDEN) with the SplitMix64 mixing function, so streams
    are reproducible across implementations from (seed, counter) alone."""

    def __init__(self, seed):
        self.seed = seed & _MASK
        self.counter = 0

    def next_u64(self):
        self.counter += 1
        return _mix64((self.seed + self.counter * _GOLDEN) & _MASK)

    def uniform(self):
        """Uniform in (0, 1], 53-bit resolution: never 0, and exactly 1.0
        when the top 53 bits are all set."""
        return ((self.next_u64() >> 11) + 0.5) / 9007199254740992.0


def sigma_p3_series_residual(tau, s):
    """(t tau'')^2 + 4t(tau')^3 - (4s^2+4tau)(tau')^2 - t tau' + tau of a
    PowerSeries tau, straight from the equation with no P^6 clearing: the
    series reference for painleve.sigma_p3_residual."""
    d1 = tau.derivative()
    d2 = d1.derivative()
    td2 = _mul_t(d2)
    return (td2 * td2 + _mul_t(d1 * d1 * d1) * 4
            - (4 * s * s + 4 * tau) * d1 * d1 - _mul_t(d1) + tau)


def shifted_det(entry, cols, memo):
    """det[entry(i + c_j)] over rows i = 0..n-1 and the columns c_j of the
    tuple `cols`, over any commutative ring (only products, sums and
    differences): the ring-generic form of hankel._theta_minor. Expanded
    along the last row; every minor is memoised in `memo` on its column
    tuple, so determinants that share columns share their minors."""
    det = memo.get(cols)
    if det is not None:
        return det
    n = len(cols)
    if n == 1:
        det = entry(cols[0])
    else:
        # the cofactor sign (-1)^{n-1+j} is + at the last column j = n-1
        for j in range(n - 1, -1, -1):
            term = entry(n - 1 + cols[j]) * shifted_det(entry, cols[:j] + cols[j + 1:], memo)
            if j == n - 1:
                det = term
            elif (n - 1 - j) % 2:
                det = det - term
            else:
                det = det + term
    memo[cols] = det
    return det


def hankel_det_bareiss(N, s, parts):
    """hankel_det by Bareiss elimination on the Poly matrix of theta: the
    reference for its memoised integer theta minors."""
    parts = tuple(parts)
    if len(parts) > N:
        return Poly()
    return det_poly_bareiss(_matrix(lambda g: theta(g, N, s), N, parts))


def hankel_derivative_column_rule(N, s, parts):
    """d/dt of the determinant via the column rule d theta = theta - 2 theta_+1:
    sum over columns of the determinant with that column's indices shifted.
    The Poly after e^{-Nt}; each replaced column already carries the
    derivative of its e^{-t} factor."""
    A = _matrix(lambda g: theta(g, N, s), N, parts)
    B = _matrix(lambda g: theta(g, N, s) - 2 * theta(g + 1, N, s), N, parts)
    return _column_sum(A, B)


def weighted_alternating_residual(N, s, l):
    """Tr[adj(A_{N,empty}) B] - sum_{j=1}^l (-1)^{j-1} (2N-2j+l) Psi_{N,lambda_{l,j}},
    where B is the l-shifted matrix with entries g theta_g (each entry
    weighted by its index g): the Poly after e^{-Nt}; zero."""
    B = _matrix(lambda g: g * theta(g, N, s), N, (), l)
    rhs = Poly()
    for j in range(1, l + 1):
        rhs = rhs + (-1) ** (j - 1) * (2 * N - 2 * j + l) * hankel_det(N, s, partition_kq(l, j))
    return _column_sum(_matrix(lambda g: theta(g, N, s), N, ()), B) - rhs


def Psi_trace_ms(N, s, parts, h, k, cap):
    """Boldface Psi_{N,lambda,h} as a MultiSeries: the sum over j of the
    determinant with column j shifted by h, each in the column-tuple form of
    Psi_ms, whose theta minors it shares."""
    parts = tuple(parts)
    if len(parts) > N:
        return MultiSeries(k - 1, cap)
    cols = _columns(N, parts)
    return MultiSeries(k - 1, cap).lincomb(
        [(1, _psi_cols(N, s, k, cap, tuple(cols[:j] + [cols[j] + h] + cols[j + 1:])))
         for j in range(N)])


def lemma_dq_residual(N, s, parts, q, k=2, cap=2):
    """d Psi_{N,lambda}/dt_q - (1/N) Psi_{N,lambda,q}; zero."""
    lhs = Psi_ms(N, s, tuple(parts), k, cap).d_tq(q)
    return lhs.lincomb([(Fraction(-1, N), Psi_trace_ms(N, s, tuple(parts), q, k, cap))])


def lemma_t1_residual(N, s, parts, k=2, cap=2):
    """Psi_{N,lambda,1} + (N/2) d Psi/dt_1 - (N/2) Psi, which is one
    lincomb of (d/dt_1 - 1) Psi; zero."""
    P = Psi_ms(N, s, tuple(parts), k, cap)
    lhs = Psi_trace_ms(N, s, tuple(parts), 1, k, cap)
    return lhs.lincomb([(Fraction(N, 2), P.d1m1())])


def normalized_L(N, s, ell, t0):
    """Ratio E_N[e^{-i t0 p_1 / N} prod_q (sum_j (x_j - i)^q)^{ell_q}]
    / E_N[e^{-i t0 p_1 / N}] = (-2i)^{sum q ell_q} * M(t0/N)/Psi(t0/N), as a
    dict of the exact rational ratio, the power of (-2i) and the complex value."""
    t0 = Fraction(t0)
    if t0 <= 0:
        raise ValueError("t0 > 0 required")
    S = sum(q * c for q, c in ell.items())
    u0 = t0 / N
    M = mixed_derivative(N, s, ell)
    ratio = M.eval(u0) / hankel_det(N, s, ()).eval(u0)
    value = complex(-2j) ** S * float(ratio)
    return {"ratio": ratio, "power": S, "value": value}


def expansion_coeff(h, hprime, i, j):
    """The paper's printed display for the collected coefficient
    a^{(i,j)}_{h_2, h_3',...,h_{k-1}', h_k} of the iterated replacement
    expansion, kept as a negative control: it agrees with the brute-force
    expansion for k <= 3 but not beyond (use expansion_coeff_multinomial).
    h = (h_2,...,h_k), hprime = (h_3',...,h_{k-1}') with k inferred from len(h).

    (i-1-j)! (-1)^{sum h' + h_k} / [(h_2+h_3')! (h_{k-1}-h_{k-1}'+h_k)!
      prod_{n=3}^{k-2} (h_n - h_n' + h_{n+1}')!]
    (for k = 3 this collapses to the binomial (i-1-j)!(-1)^{h_3}/(h_2! h_3!)).
    """
    k = len(h) + 1
    r = i - 1 - j
    if r < 0 or sum(h) != r:
        raise ValueError("need sum h = i-1-j >= 0")
    if len(hprime) != max(0, k - 3):
        raise ValueError("hprime must have length k-3")
    sign = (-1) ** (sum(hprime) + h[-1])
    if k == 2:
        return Fraction(math.factorial(r) * sign, math.factorial(h[0]))
    if k == 3:
        return Fraction(math.factorial(r) * sign,
                        math.factorial(h[0]) * math.factorial(h[1]))
    # h = (h_2..h_k) and hprime = (h_3'..h_{k-1}'); with these constraints
    # every factorial below has a nonnegative argument
    for n in range(3, k):
        if not (0 <= hprime[n - 3] <= h[n - 2]):
            raise ValueError("constraint violated: 0 <= h_%d' <= h_%d" % (n, n))
    denom = math.factorial(h[0] + hprime[0]) * math.factorial(h[k - 3] - hprime[k - 4] + h[k - 2])
    for n in range(3, k - 1):
        denom *= math.factorial(h[n - 2] - hprime[n - 3] + hprime[n - 2])
    return Fraction(math.factorial(r) * sign, denom)


def expansion_coeff_multinomial(h, hprime, i, j):
    """The collected coefficient of the iterated replacement expansion derived
    directly from the multilinear product: each variable t_n (n = 3..k-1)
    splits its exponent h_n into h_n' factors taken from the "-(n) t_n" branch
    and h_n - h_n' from the "+(n) t_n" branch, t_2 is pure "+", t_k is pure
    "-", and the coefficient is the multinomial over the resulting classes:

    (i-1-j)! (-1)^{sum h' + h_k} / [h_2! h_k! prod_{n=3}^{k-1} (h_n-h_n')! h_n'!]

    This reproduces the brute-force expansion for every k (the closed-form
    display implemented by expansion_coeff agrees with it for k <= 3 but not
    beyond; see tests).
    """
    k = len(h) + 1
    r = i - 1 - j
    if r < 0 or sum(h) != r:
        raise ValueError("need sum h = i-1-j >= 0")
    if len(hprime) != max(0, k - 3):
        raise ValueError("hprime must have length k-3")
    for n in range(3, k):
        if not (0 <= hprime[n - 3] <= h[n - 2]):
            raise ValueError("constraint violated: 0 <= h_%d' <= h_%d" % (n, n))
    sign = (-1) ** (sum(hprime) + h[-1])
    denom = math.factorial(h[0])
    if k >= 3:
        denom *= math.factorial(h[-1])
    for n in range(3, k):
        denom *= math.factorial(h[n - 2] - hprime[n - 3]) * math.factorial(hprime[n - 3])
    return Fraction(math.factorial(r) * sign, denom)


def expansion_bruteforce(k, r):
    """Oracle: expand sum over (l_1..l_r) in {1..k-2}^r of
    prod_n ((l_n+1) t_{l_n+1} - (l_n+2) t_{l_n+2}) x^{l_n}, collecting
    coefficients of monomials prod t_n^{h_n} x^L (returned as a dict)."""
    out = {}
    for lvec in itertools.product(range(1, k - 1), repeat=r):
        for choice in itertools.product((0, 1), repeat=r):
            expo = [0] * (k - 1)  # exponents of t_2..t_k
            coeff = 1
            for ln, c in zip(lvec, choice):
                var = ln + 1 + c    # c = 1 takes the "-(l+2) t_{l+2}" branch
                coeff *= -var if c else var
                expo[var - 2] += 1
            key = (tuple(expo), sum(lvec))
            out[key] = out.get(key, 0) + coeff
    return {kk: v for kk, v in out.items() if v != 0}


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError, as the CLI's
    own parser does; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def argparse_parser():
    """The CLI's options as an argparse parser, the one the CLI used before
    its option table: the oracle of cli._parse."""
    parser = _ArgumentParser(
        prog="cuemoments",
        description="Joint moments of characteristic-polynomial derivatives: "
                    "exact rational values, Hankel/Painlevé verification, "
                    "Monte Carlo and quadrature cross-checks.")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("leading-coeff",
                       help="limiting joint moment as an exact rational "
                            "function of s")
    p.add_argument("--orders", required=True,
                   help="comma-separated derivative orders n1,n2,...")
    p.add_argument("--exponents", required=True,
                   help="comma-separated even exponents 2h1,2h2,...")
    p.add_argument("--variant", choices=("V", "Z"), required=True,
                   help="Z: rescaled real-on-circle polynomial; V: bare "
                        "polynomial (single order, exponent 2, via the "
                        "closed-form product)")
    p.add_argument("--eval-s", help="evaluate the rational function at s")
    p.add_argument("--with-constant", action="store_true",
                   help="also multiply the evaluation by G(s+1)^2/G(2s+1) "
                        "and the 2^{-sum 2h_j n_j} prefactor")
    p.set_defaults(func=cli.cmd_leading_coeff)

    p = sub.add_parser("finite-moment",
                       help="finite-size joint moment ratio, exact in s")
    p.add_argument("--N", type=int, required=True, help="matrix size")
    p.add_argument("--orders", required=True)
    p.add_argument("--exponents", required=True,
                   help="even integers; '_' marks an exponent absorbed into "
                        "the weight parameter s (0-th derivative slot)")
    p.add_argument("--variant", choices=("V", "Z"), required=True)
    p.add_argument("--eval-s")
    p.set_defaults(func=cli.cmd_finite_moment)

    p = sub.add_parser("mc-estimate",
                       help="Monte Carlo estimate of a joint moment ratio "
                            "(any positive real exponents)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", required=True,
                   help="weight parameter s > 0 (integer, rational or decimal)")
    p.add_argument("--orders", required=True)
    p.add_argument("--exponents", required=True)
    p.add_argument("--variant", choices=("V", "Z"), default="Z")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: CUEMOMENTS_SEED env var or 0)")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--proposal-scale", type=float, default=1.0)
    p.set_defaults(func=cli.cmd_mc_estimate)

    p = sub.add_parser("quadrature",
                       help="tensor Gauss-Legendre expectation of a "
                            "polynomial under the heavy-tailed ensemble")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--poly", required=True,
                   help="polynomial in x1..xN, e.g. \"x1^2\" or "
                        "\"x1^2*x2 + 1/2*x1\"")
    p.add_argument("--nodes", type=int, default=64,
                   help="quadrature nodes per dimension")
    p.set_defaults(func=cli.cmd_quadrature)

    p = sub.add_parser("painleve",
                       help="verify the nonlinear ODE satisfied by the "
                            "log-derivative tau function")
    p.add_argument("--mode", choices=("p5-finite", "p3-limit"), required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--series-order", type=int, default=12)
    p.set_defaults(func=cli.cmd_painleve)

    p = sub.add_parser("hankel-verify",
                       help="run the exact Hankel-determinant identity suite")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--t", default="1", help="evaluation point (rational)")
    p.add_argument("--perturb", action="store_true",
                   help="negative control: perturb a recursion matrix entry")
    p.set_defaults(func=cli.cmd_hankel_verify)

    return parser
