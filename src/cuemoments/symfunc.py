"""Symmetric-polynomial building blocks: elementary symmetric polynomials,
the squared Vandermonde, the derivative-coefficient polynomials Xi_n with
integer coefficients a_{n,l}, Newton conversions between power sums and
elementary symmetric functions, and the real expansion of the V-variant
integrand.
"""

import functools
import itertools
import math
from fractions import Fraction

from .exact import PowerSeries
from .sympoly import SymPoly


@functools.lru_cache(maxsize=None)
def elementary(k, m):
    """The k-th elementary symmetric polynomial in m variables.

    By convention e_k = 0 for k > m and e_0 = 1.
    """
    if k < 0 or k > m:
        return SymPoly(m)
    if k == 0:
        return SymPoly.const(m, 1)
    terms = {}
    for subset in itertools.combinations(range(m), k):
        expo = [0] * m
        for i in subset:
            expo[i] = 1
        terms[tuple(expo)] = Fraction(1)
    return SymPoly(m, terms)


@functools.lru_cache(maxsize=None)
def vandermonde_squared(m):
    """Expansion of prod_{i<j} (x_i - x_j)^2 with collected coefficients,
    as Delta * Delta with Delta = det[x_i^j] = sum over the permutations
    sigma of 0..m-1 of sgn(sigma) * prod_i x_i^{sigma(i)}."""
    delta = {}
    for perm in itertools.permutations(range(m)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        delta[perm] = -1 if inversions % 2 else 1
    delta = SymPoly(m, delta)
    return delta * delta


def _sinh_series(order):
    cs = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1, 2):
        cs[k] = Fraction(1, math.factorial(k))
    return PowerSeries(cs, order)


def _cosh_series(order):
    cs = [Fraction(0)] * (order + 1)
    for k in range(0, order + 1, 2):
        cs[k] = Fraction(1, math.factorial(k))
    return PowerSeries(cs, order)


@functools.lru_cache(maxsize=None)
def a_coeff(n, l, N):
    """a_{n,l}(N) = (-1)^{(n+l)/2} * n! * [z^n] sinh(z)^l cosh(z)^{N-l}.

    Zero when n - l is odd. Exact integer, memoised per (n, l, N).
    """
    if N < 1 or not (0 <= l <= min(n, N)):
        raise ValueError("need N >= 1 and 0 <= l <= min(n, N)")
    if (n - l) % 2:
        return 0
    f = PowerSeries([1], n)
    sh = _sinh_series(n)
    ch = _cosh_series(n)
    for _ in range(l):
        f = f * sh
    for _ in range(N - l):
        f = f * ch
    val = (-1) ** ((n + l) // 2) * math.factorial(n) * f[n]
    assert val.denominator == 1
    return int(val)


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


def xi_poly(n, N):
    """Xi_n at arity N: sum_l a_{n,l} e_l(x_1..x_N) as a SymPoly."""
    if n == 0:
        return SymPoly.const(N, 1)
    total = SymPoly(N)
    for l in range(0, min(n, N) + 1):
        a = a_coeff(n, l, N)
        if a:
            total = total + a * elementary(l, N)
    return total


def newton_convert(values, direction):
    """Convert between power sums q_1..q_n and elementary symmetric values
    Y_1..Y_n via Newton's identity Y_n = (1/n) sum_{j=1}^n (-1)^{j-1} Y_{n-j} q_j.

    Works over any commutative ring supporting +, -, * and division by integers
    (division implemented as multiplication by Fraction(1, n)).
    """
    n = len(values)
    if direction == "p_to_e":
        q = list(values)
        Y = [None] * (n + 1)
        Y[0] = 1
        for k in range(1, n + 1):
            acc = None
            for j in range(1, k + 1):
                term = Y[k - j] * q[j - 1]
                if j % 2 == 0:
                    term = -term
                acc = term if acc is None else acc + term
            Y[k] = acc * Fraction(1, k)
        return Y[1:]
    if direction == "e_to_p":
        Y = [1] + list(values)
        q = [None] * (n + 1)
        for k in range(1, n + 1):
            acc = Y[k] * k
            for j in range(1, k):
                term = Y[k - j] * q[j]
                if j % 2 == 0:
                    term = -term
                acc = acc - term
            # solve (-1)^{k-1} q_k = acc
            q[k] = acc if k % 2 == 1 else -acc
        return q[1:]
    raise ValueError("direction must be 'p_to_e' or 'e_to_p'")


def v_variant_integrand(orders, exponents, N):
    """Real SymPoly integrand for the V-variant joint moment at size N.

    For each derivative order n with even exponent 2h, forms
    |sum_{m=0}^{n} C(n,m) (-iN)^m Xi_{n-m}|^{2h} expanded via
    |z|^2 = (Re z)^2 + (Im z)^2, then multiplies over the spec entries.
    """
    if len(orders) != len(exponents):
        raise ValueError("orders and exponents must have equal length")
    out = SymPoly.const(N, 1)
    for n, two_h in zip(orders, exponents):
        if two_h % 2:
            raise ValueError("odd exponent unsupported in exact engine; use Monte Carlo")
        h = two_h // 2
        re = SymPoly(N)
        im = SymPoly(N)
        for m in range(n + 1):
            coeff = math.comb(n, m) * N ** m
            xi = xi_poly(n - m, N)
            if m % 2 == 0:
                re = re + ((-1) ** (m // 2) * coeff) * xi
            else:
                im = im + ((-1) ** ((m + 1) // 2) * coeff) * xi
        mod2 = re * re + im * im
        out = out * mod2 ** h
    return out
