"""Symmetric-polynomial building blocks: elementary symmetric polynomials,
the squared Vandermonde, the derivative-coefficient polynomials Xi_n with
integer coefficients a_{n,l}, and the real expansion of the V-variant
integrand. newton_convert (power sums -> elementary symmetric functions)
is reached by no command yet; it is kept for the joint moments read from
the multi-time Hankel series.
"""

import functools
import itertools
import math
from fractions import Fraction

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


@functools.lru_cache(maxsize=None)
def _krawtchouk(l, N):
    """K_r = sum_{j+k=r} (-1)^j C(l, j) C(N-l, k) for r = 0..N, the
    coefficients of (1 - y)^l (1 + y)^{N-l}; memoised."""
    return tuple(sum((-1) ** j * math.comb(l, j) * math.comb(N - l, r - j)
                     for j in range(max(0, r - N + l), min(l, r) + 1))
                 for r in range(N + 1))


@functools.lru_cache(maxsize=None)
def a_coeff(n, l, N):
    """a_{n,l}(N) = (-1)^{(n+l)/2} * n! * [z^n] sinh(z)^l cosh(z)^{N-l}, from
    sinh^l cosh^{N-l} = 2^{-N} (e^z - e^{-z})^l (e^z + e^{-z})^{N-l} expanded
    in exponentials e^{(N-2j-2k)z} and grouped by r = j + k: 2^{-N} sum_r
    K_r (N - 2r)^n with the K_r of _krawtchouk, N + 1 powers per entry. Zero
    when n - l is odd; memoised."""
    if N < 1 or not (0 <= l <= min(n, N)):
        raise ValueError("need N >= 1 and 0 <= l <= min(n, N)")
    if (n - l) % 2:
        return 0
    total = sum(K * (N - 2 * r) ** n for r, K in enumerate(_krawtchouk(l, N)))
    return (-1) ** ((n + l) // 2) * total // 2 ** N


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


def newton_convert(q):
    """Elementary symmetric values Y_1..Y_n from the power sums q_1..q_n via
    Newton's identity Y_k = (1/k) sum_{j=1}^k (-1)^{j-1} Y_{k-j} q_j.

    Works over any commutative ring supporting +, -, * and multiplication by
    a Fraction.
    """
    Y = [1]
    for k in range(1, len(q) + 1):
        acc = Y[k - 1] * q[0]
        for j in range(2, k + 1):
            term = Y[k - j] * q[j - 1]
            acc = acc - term if j % 2 == 0 else acc + term
        Y.append(acc * Fraction(1, k))
    return Y[1:]


def v_variant_integrand(orders, exponents, N):
    """Real SymPoly integrand for the V-variant joint moment at size N.

    For each derivative order n with even exponent 2h, forms
    |sum_{m=0}^{n} C(n,m) (-iN)^m Xi_{n-m}|^{2h} expanded via
    |z|^2 = (Re z)^2 + (Im z)^2, then multiplies over the spec entries.
    """
    out = SymPoly.const(N, 1)
    for n, two_h in zip(orders, exponents):
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
