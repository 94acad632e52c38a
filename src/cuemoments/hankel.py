"""Exact Hankel-determinant machinery: the theta functions (Laguerre route,
integer s), Hankel determinants shifted by partitions, exact t-derivatives and
mixed derivatives, trace-adjugate quantities, the explicit recursion matrices,
and exact verification of the Section-4-style identity suite
(derivative/three-term recurrences, alternating sums, initial conditions, the
vector recursion, and the two characteristic-function relations).

Everything here is exact: theta_m is e^{-t} times an integer polynomial, so
every determinant, derivative, trace, and residual is a known exponential
e^{-ct} times a polynomial. Each function returns the Poly after that factor,
and its docstring names c: 1 for theta, N for an N x N determinant of them.
exp_derivative differentiates through the factor; a MultiSeries (the
boldface Psi_ms and its t-derivatives) always has c = 1. The mixed
t_q-derivatives and the boldface series Psi_ms are one integer sum of theta
minors (_minor_sums), by multilinearity in the columns: no series product.
Every operator of the recursions acts on them in one pass, as a product by a
linear form in the times (MultiSeries.times), as d/dt_1 - 1 through the
decay (d1m1) or as d/dt_q (d_tq), and each residual is one lincomb.
"""

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction

from .exact import Poly, _convolve_into, _lowest


# ---------------------------------------------------------------------------
# theta functions
# ---------------------------------------------------------------------------

def exp_derivative(p, c):
    """d/dt (e^{-ct} p) = e^{-ct} (p' - c p): returns the Poly p' - c p."""
    return p.derivative() - c * p


@functools.lru_cache(maxsize=None)
def theta(m, N, s):
    """theta_m(t) = e^{-t} * (-1)^{N+s-1} (N+s-1)! L_{N+s-1}^{(1-2N-2s+m)}(2t):
    the Poly after e^{-t}. Requires integer s >= 1."""
    if not isinstance(s, int) or s < 1:
        raise ValueError("integer s >= 1 required for the exact theta family")
    if m < 0:
        raise ValueError("m >= 0 required")
    n = N + s - 1
    alpha = 1 - 2 * N - 2 * s + m
    # (-1)^n n! L_n^{(alpha)}(2t)
    #   = sum_k (-1)^{n+k} C(n, k) 2^k prod_{i=1}^{n-k} (alpha+k+i) t^k,
    # an integer polynomial
    coeffs = []
    for k in range(n + 1):
        c = (-1) ** (n + k) * math.comb(n, k) * 2 ** k
        for i in range(1, n - k + 1):
            c *= alpha + k + i
        coeffs.append(c)
    return Poly(coeffs)


def theta_derivative_residual(m, N, s):
    """d theta_m/dt - (theta_m - 2 theta_{m+1}): the Poly after e^{-t};
    identically zero."""
    p = theta(m, N, s)
    return exp_derivative(p, 1) - (p - 2 * theta(m + 1, N, s))


def theta_three_term_residual(gamma, N, s):
    """2t*theta_{gamma+2} - (N+s-1-gamma) theta_gamma
    - (2-2N-2s+gamma + 2t) theta_{gamma+1}: the Poly after e^{-t};
    identically zero."""
    p0 = theta(gamma, N, s)
    p1 = theta(gamma + 1, N, s)
    p2 = theta(gamma + 2, N, s)
    two_t = Poly((0, 2))
    return two_t * p2 - (N + s - 1 - gamma) * p0 - (Poly.const(2 - 2 * N - 2 * s + gamma) + two_t) * p1


# ---------------------------------------------------------------------------
# determinants of polynomial matrices
# ---------------------------------------------------------------------------

def det_perm(mat):
    """Determinant by signed permutation expansion, over any commutative ring
    (Poly, PowerSeries, Fraction, float): only products, sums and a sign
    flip, so no division is needed."""
    n = len(mat)
    total = None
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = term * mat[i][perm[i]]
        if inv % 2:
            term = term * (-1)
        total = term if total is None else total + term
    return total


def det_poly_bareiss(mat):
    """Fraction-free Bareiss determinant over the Poly ring (exact division
    keeps it polynomial in the size, for the larger Poly matrices)."""
    n = len(mat)
    if n == 0:
        return Poly.const(1)
    a = [row[:] for row in mat]
    sign = 1
    prev = Poly.const(1)
    for r in range(n - 1):
        if a[r][r].is_zero():
            for rr in range(r + 1, n):
                if not a[rr][r].is_zero():
                    a[r], a[rr] = a[rr], a[r]
                    sign = -sign
                    break
            else:
                return Poly()
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                a[i][j] = (a[r][r] * a[i][j] - a[i][r] * a[r][j]).exact_div(prev)
            a[i][r] = Poly()
        prev = a[r][r]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# partitions and pure-t1 Hankel determinants
# ---------------------------------------------------------------------------

def partition_kq(k, q):
    """The distinguished partition (k-q+1, 1^{q-1})."""
    if not (1 <= q <= k):
        raise ValueError("need 1 <= q <= k")
    return (k - q + 1,) + (1,) * (q - 1)


def _columns(N, parts, h=0):
    """The column shifts c_j = j + lambda_{N-j} + h of a lambda-shifted
    matrix, the partition padded with zeros to length N."""
    pp = list(parts) + [0] * (N - len(parts))
    return [j + pp[N - j - 1] + h for j in range(N)]


def _matrix(entry, N, parts, h=0):
    """The N x N matrix [entry(i + c_j)] of the column shifts _columns."""
    cols = _columns(N, parts, h)
    return [[entry(i + c) for c in cols] for i in range(N)]


def _column_sum(A, B):
    """Tr[adj(A) B] = sum over columns c of det(A with column c taken from B),
    by multilinearity of the determinant in its columns (generic entries)."""
    total = None
    for c in range(len(A)):
        term = det_perm([ra[:c] + [rb[c]] + ra[c + 1:] for ra, rb in zip(A, B)])
        total = term if total is None else total + term
    return total


# The integer theta minors of _theta_minor, one memo per (N, s), keyed by
# increasing column tuples and shared by every partition, shift, k and cap
_THETA_MINORS = {}


def _theta_minor(N, s, cols):
    """det[theta_{i + c_j}] over rows i = 0..n-1 and the columns c_j of the
    tuple `cols`: the int tuple of the Poly after e^{-nt} (theta is an
    integer Poly, so no minor has a denominator). Expanded along the last
    row, with every minor memoised in _THETA_MINORS[(N, s)] on its column
    tuple, so determinants that share columns share their minors: 2^n in
    place of n! terms."""
    memo = _THETA_MINORS.setdefault((N, s), {})
    det = memo.get(cols)
    if det is not None:
        return det
    n = len(cols)
    if n == 1:
        det = theta(cols[0], N, s).num
    else:
        # every theta has degree N + s - 1
        acc = [0] * (n * (N + s - 1) + 1)
        # the cofactor sign (-1)^{n-1+j} is + at the last column j = n-1
        for j in range(n - 1, -1, -1):
            row = theta(n - 1 + cols[j], N, s).num
            if (n - 1 - j) % 2:
                row = [-x for x in row]
            _convolve_into(acc, row, _theta_minor(N, s, cols[:j] + cols[j + 1:]))
        while acc and not acc[-1]:
            acc.pop()
        det = tuple(acc)
    memo[cols] = det
    return det


def hankel_det(N, s, parts):
    """Psi_{N,lambda} at t_2 = ... = t_k = 0: the Poly after e^{-Nt}, the
    theta minor at the columns of the partition."""
    parts = tuple(parts)
    if len(parts) > N:
        return Poly()
    return Poly._raw(_theta_minor(N, s, tuple(_columns(N, parts))), 1)


def trace_adjugate(N, s, parts, h):
    """Psi_{N,lambda,h} = Tr[adj(A_{N,lambda}) A_{N,S_h lambda}] at t_rest = 0:
    the Poly after e^{-Nt}."""
    parts = tuple(parts)
    if len(parts) > N:
        return Poly()
    B = _matrix(lambda g: theta(g, N, s), N, parts, h)
    return _column_sum(_matrix(lambda g: theta(g, N, s), N, parts), B)


def alternating_sum_residual(N, s, l):
    """Psi_{N,empty,l} - sum_{j=1}^l (-1)^{j-1} Psi_{N,lambda_{l,j}}: the Poly
    after e^{-Nt}; zero."""
    rhs = Poly()
    for j in range(1, l + 1):
        rhs = rhs + (-1) ** (j - 1) * hankel_det(N, s, partition_kq(l, j))
    return trace_adjugate(N, s, (), l) - rhs


# ---------------------------------------------------------------------------
# mixed derivatives at t_rest = 0
# ---------------------------------------------------------------------------

def mixed_derivative(N, s, ell):
    """The mixed derivative prod_q (d/dt_q)^{ell_q} of the full Hankel
    determinant, evaluated at t_2 = ... = 0: the Poly in t_1 after e^{-Nt},
    the _minor_sums entry at ell."""
    if any(q < 2 for q in ell):
        raise ValueError("derivative variables start at t_2")
    k = max(ell, default=1)
    sums = _minor_sums(N, s, k, sum(ell.values()), tuple(range(N)))
    return Poly._raw(*_lowest(sums[tuple(ell.get(q, 0) for q in range(2, k + 1))], 1))


def cor_relation_residuals(N, s):
    """Exact residuals (the Polys after e^{-Nt}) of the two characteristic-function
    relations tying moment insertions to derivatives of the Hankel
    determinant, written in the variable u = t1/N and cleared of denominators.

    relation 1: 2u M1 = (s-u) Psi' + N u Psi
    relation 2: u^3 (16 M2 + 16 M1' - 8N M1 + 4 Psi'' - 4N Psi' + N^2 Psi)
                = (4s^2+2) u Psi'' + (4sN u^2 - 12 s^2) Psi'
                  + (N^2 u^3 - 2 N^2 u - 4 s N u) Psi

    The final coefficient is -4sN, i.e. the relation in the original variable
    t1 = N u carries -4s/(N t1^2) on the zeroth-order term; the variant with
    -4s/(N^2 t1^2) agrees only at N = 1 (see tests for the negative control).
    """
    Psi = hankel_det(N, s, ())
    M1 = mixed_derivative(N, s, {2: 1})
    M2 = mixed_derivative(N, s, {2: 2})
    u = Poly((0, 1))
    d1 = exp_derivative(Psi, N)
    d2 = exp_derivative(d1, N)
    r1 = M1 * (2 * u) - d1 * Poly((s, -1)) - Psi * (N * u)
    lhs2 = (M2 * 16 + exp_derivative(M1, N) * 16 + M1 * (-8 * N)
            + d2 * 4 + d1 * (-4 * N) + Psi * (N * N))
    u3 = u * u * u
    rhs2 = (d2 * ((4 * s * s + 2) * u)
            + d1 * (Poly((-12 * s * s, 0, 4 * s * N)))
            + Psi * (N * N * u3 + Poly((0, -2 * N * N - 4 * s * N))))
    r2 = lhs2 * u3 - rhs2
    return r1, r2


# ---------------------------------------------------------------------------
# truncated multivariate series in t_2..t_k with Poly-in-t_1 coefficients
# ---------------------------------------------------------------------------

class MultiSeries:
    """Formal power series in the auxiliary variables t_2..t_k, truncated at
    total degree `cap`. Each coefficient is e^{-t_1} times a polynomial in
    t_1: every series the package builds (the boldface Psi_ms) decays at
    rate 1. `ord` tracks through which total degree the stored coefficients
    are valid.

    The polynomials are integer numerator lists (ascending, no trailing zero)
    over one common denominator `den`: the one sum, `lincomb`, brings its
    terms to their lcm, so no coefficient is normalised until it leaves the
    class as a Poly through `terms`. Each other operator is one pass over the
    numerators: `times` multiplies by a linear form in t_1..t_k, `d1m1` is
    d/dt_1 - 1 and `d_tq` is d/dt_q. There is no series product: Psi_ms is
    built from theta minors (`_psi_cols`).
    """

    __slots__ = ("nv", "cap", "ord", "num", "den")

    def __init__(self, nv, cap, ord=None, terms=None):
        polys = {tuple(e): p for e, p in (terms or {}).items() if not p.is_zero()}
        self.den = math.lcm(*[p.den for p in polys.values()])
        self.num = {e: [x * (self.den // p.den) for x in p.num] for e, p in polys.items()}
        self.nv = nv
        self.cap = cap
        self.ord = cap if ord is None else ord

    @staticmethod
    def _raw(nv, cap, num, den=1, ord=None):
        """A series from numerators already over `den`, with no lcm; ord
        defaults to cap."""
        out = object.__new__(MultiSeries)
        out.nv, out.cap, out.num, out.den = nv, cap, num, den
        out.ord = cap if ord is None else ord
        return out

    def _with(self, num, den=None, ord=None):
        """A series of this shape with the given numerators; the denominator
        and ord default to this series'."""
        return MultiSeries._raw(self.nv, self.cap, num, self.den if den is None else den,
                                self.ord if ord is None else ord)

    @property
    def terms(self):
        """The coefficients as Polys, keyed by exponent tuple of t_2..t_k."""
        return {e: Poly._raw(*_lowest(list(v), self.den)) for e, v in self.num.items()}

    def _check(self, other):
        if self.nv != other.nv or self.cap != other.cap:
            raise ValueError("incompatible MultiSeries shapes")

    def lincomb(self, pairs):
        """self + sum of a * v over the (int or Fraction a, MultiSeries v)
        pairs, over one common denominator. Valid through the lowest ord of
        self and of every v with a != 0."""
        pairs = [(a, v) for a, v in pairs if a]
        series = [v for _, v in pairs]
        for v in series:
            self._check(v)
        den = math.lcm(self.den, *[a.denominator * v.den for a, v in pairs])
        f = den // self.den
        out = {e: [x * f for x in u] for e, u in self.num.items()}
        for a, v in pairs:
            f = a.numerator * (den // (a.denominator * v.den))
            for e, u in v.num.items():
                acc = out.setdefault(e, [])
                acc.extend([0] * (len(u) - len(acc)))
                for i, y in enumerate(u):
                    acc[i] += y * f
        return self._with(_nonzero(out), den, min([self.ord] + [v.ord for v in series]))

    def times(self, form):
        """Multiply by the linear form sum_q w_q t_q, form = {q: int w_q}, in
        one pass: t_1 shifts every coefficient, and a t_q term past cap is
        dropped. Valid through ord if t_1 is in the form, else through
        min(cap, ord + 1)."""
        out = {}
        for e, v in self.num.items():
            for q, w in form.items():
                if q == 1:
                    key, shift = e, 1
                elif sum(e) < self.cap:
                    key, shift = e[:q - 2] + (e[q - 2] + 1,) + e[q - 1:], 0
                else:
                    continue
                acc = out.setdefault(key, [])
                acc.extend([0] * (len(v) + shift - len(acc)))
                for i, x in enumerate(v, shift):
                    acc[i] += w * x
        return self._with(_nonzero(out), ord=self.ord if 1 in form else min(self.cap, self.ord + 1))

    def d1m1(self):
        """(d/dt_1 - 1) through the decay: each coefficient p becomes p' - 2p
        (its leading term -2x is never zero)."""
        out = {}
        for e, v in self.num.items():
            w = out[e] = [-2 * x for x in v]
            for i in range(1, len(v)):
                w[i - 1] += i * v[i]
        return self._with(out)

    def d_tq(self, q):
        idx = q - 2
        out = {}
        for e, v in self.num.items():
            m = e[idx]
            if m:
                ee = list(e)
                ee[idx] -= 1
                out[tuple(ee)] = [x * m for x in v]
        return self._with(out, ord=self.ord - 1)

    def is_zero_through_ord(self):
        return all(sum(e) > self.ord for e in self.num)

    def max_abs_at(self, t0):
        """Largest |coefficient polynomial| evaluated at rational t0, over the
        validated coefficients (the shared exponential factor is dropped)."""
        return max((abs(c.eval(Fraction(t0))) for e, c in self.terms.items()
                    if sum(e) <= self.ord), default=Fraction(0))


def _nonzero(num):
    """The numerator dict without its zero coefficients, each list stripped
    of its trailing zeros in place."""
    for v in num.values():
        while v and not v[-1]:
            v.pop()
    return {e: v for e, v in num.items() if v}


@functools.lru_cache(maxsize=None)
def _monomials(k, cap):
    """The monomials t^m in t_2..t_k of degree <= cap, as pairs (m, w(m))
    with w(m) = sum_q q m_q."""
    return [(m, sum(q * x for q, x in enumerate(m, 2)))
            for m in itertools.product(range(cap + 1), repeat=k - 1) if sum(m) <= cap]


def _minor_sums(N, s, k, cap, cols):
    """{M: int list} for every M of degree <= cap: the t^M coefficient,
    times prod_q M_q!, of det[sum_m t^m theta_{i + c_j + w(m)} / m!] over
    the column tuple `cols`; that is the mixed derivative
    prod_q (d/dt_q)^{M_q} of det[theta_{i + c_j}] at t_2 = ... = 0, the Poly
    after e^{-Nt}. By multilinearity the determinant is expanded one column
    at a time into {(M, D): weight}, D the sorted columns so far: inserting
    column c_j + w(m) at position i of D signs the weight by (-1)^{len(D)-i}
    and multiplies it by prod_q C(M_q + m_q, m_q), and a repeated column
    gives zero. Each D then adds weight * _theta_minor(N, s, D)."""
    table = {((0,) * (k - 1), ()): 1}
    for c in cols:
        grown = {}
        for (M, D), weight in table.items():
            for m, w in _monomials(k, cap - sum(M)):
                i = bisect.bisect_left(D, c + w)
                if D[i:i + 1] != (c + w,):
                    key = (tuple(map(operator.add, M, m)), D[:i] + (c + w,) + D[i:])
                    f = (-1) ** (len(D) - i) * weight * math.prod(map(math.comb, key[0], m))
                    grown[key] = grown.get(key, 0) + f
        table = grown
    # keyed by the cached monomial tuples, which every series then shares
    sums = {m: [] for m, _ in _monomials(k, cap)}
    for (M, D), weight in table.items():
        acc = sums[M]
        num = _theta_minor(N, s, D)
        acc.extend([0] * (len(num) - len(acc)))
        _convolve_into(acc, (weight,), num)
    return sums


@functools.lru_cache(maxsize=None)
def _psi_cols(N, s, k, cap, cols):
    """det[psi(i + c_j)] for the column tuple `cols`, where
    psi(g) = sum_m t^m theta_{g+w(m)}(t_1/N) / (N^{|m|} m!): a MultiSeries
    with decay 1, built with no series product. Its t^M coefficient is the
    _minor_sums entry at M over N^{|M|} prod_q M_q!, in t_1/N."""
    # in t_1/N the t_1^i t^M coefficient is acc_i / (N^{|M|+i} prod_q M_q!):
    # every one over den = N^top lcm_M(prod_q M_q!), reduced by one gcd
    sums = _nonzero(_minor_sums(N, s, k, cap, cols))
    facts = {M: math.prod(map(math.factorial, M)) for M in sums}
    lcm = math.lcm(*facts.values())
    top = max([sum(M) + len(acc) - 1 for M, acc in sums.items()], default=0)
    num = {}
    for M, acc in sums.items():
        f = lcm // facts[M] * N ** (top - sum(M) - len(acc) + 1)
        out = num[M] = [0] * len(acc)
        for i in range(len(acc) - 1, -1, -1):
            out[i] = acc[i] * f
            f *= N
    den = lcm * N ** top
    g = math.gcd(den, *[x for v in num.values() for x in v])
    if g != 1:
        num = {M: [x // g for x in v] for M, v in num.items()}
    return MultiSeries._raw(k - 1, cap, num, den // g)


def Psi_ms(N, s, parts, k, cap):
    """Boldface (rescaled) shifted Hankel determinant as a MultiSeries with
    decay 1: _psi_cols at the columns of the partition; zero for partitions
    with more than N parts."""
    parts = tuple(parts)
    if len(parts) > N:
        return MultiSeries._raw(k - 1, cap, {})
    return _psi_cols(N, s, k, cap, tuple(_columns(N, parts)))


def initial_condition_residuals(N, s):
    """The two second-shift initial conditions at t_rest = 0:
    Psi_{lambda_{2,1}} = (N^2/8)Psi'' - (N^2/4)Psi' + (N^2/8)Psi + (N/2)dPsi/dt2
    Psi_{lambda_{2,2}} = same with -(N/2)dPsi/dt2.
    Returns the pair of residual MultiSeries, in t_2 through order 2."""
    k = cap = 2
    P = Psi_ms(N, s, (), k, cap)
    # the right sides are (N^2/8)(d/dt_1 - 1)^2 Psi +/- (N/2) dPsi/dt2
    base = [(Fraction(-N * N, 8), P.d1m1().d1m1())]
    dt2 = P.d_tq(2)
    r1 = Psi_ms(N, s, (2,), k, cap).lincomb(base + [(Fraction(-N, 2), dt2)])
    r2 = Psi_ms(N, s, (1, 1), k, cap).lincomb(base + [(Fraction(N, 2), dt2)])
    return r1, r2


# ---------------------------------------------------------------------------
# recursion matrices (explicit case formulas)
# ---------------------------------------------------------------------------

def _case_matrix(rows, cols, entry):
    """The rows x cols matrix of Fractions entry(i, j), i and j 1-based."""
    return [[Fraction(entry(i, j)) for j in range(1, cols + 1)]
            for i in range(1, rows + 1)]


def matrix_B(l):
    # Case-table resolution, fixed empirically against the vector recursion:
    # the upper-triangular sign exponent is i+j-1 (the variant with exponent
    # i+j leaves a nonzero recursion residual; see tests for the negative
    # control). The final-column clause is given precedence, but every use of
    # B inside the recursion multiplies a vector whose last entry is a
    # structural zero, so the recursion cannot distinguish the final-column
    # clauses; the separate-clause reading is kept as written.
    def entry(i, j):
        if j == l:
            return Fraction((-1) ** (i - 1), l)
        elif j >= i:
            return Fraction((-1) ** (i + j - 1), j * (j + 1))
        elif j == i - 1:
            return Fraction(-1, i)
        return 0

    return _case_matrix(l, l, entry)


def matrix_Q0(l, s):
    def entry(i, j):
        if i <= j:
            return Fraction((-1) ** (i + j) * (j * (l - j - 2) + 1 - 2 * s),
                            j * (j + 1))
        elif j == i - 1:
            return Fraction(j * (j + 2 * s) - l + 1, j + 1)
        return 0

    return _case_matrix(l, l - 1, entry)


def matrix_Q1(l):
    def entry(i, j):
        if i <= j:
            return Fraction((-1) ** (i + j), j * (j + 1))
        elif j == i - 1:
            return Fraction(-j, j + 1)
        return 0

    return _case_matrix(l, l - 1, entry)


def matrix_Q2(l, N, s):
    def entry(i, j):
        if j >= i - 1:
            num = (s - 2) * N + j * (j + 3) - (j + 2) * (l - 2) + 2 * (s - 1)
            return Fraction((-1) ** (i + j) * num, (j + 1) * (j + 2))
        elif j == i - 2:
            return Fraction((j + s) * (j - N), j + 2)
        return 0

    return _case_matrix(l, l - 2, entry)


def matrix_Qm(l, m):
    if m < 3:
        raise ValueError("m >= 3 for the generic family")

    def entry(i, j):
        if i == 1 and j <= m - 1:
            return (-1) ** (m - j - 1)
        elif j > i + m - 2:
            return Fraction((-1) ** (i + j + m) * (2 - m),
                            (j - m + 1) * (j - m + 2))
        elif i != 1 and j == i + m - 2:
            return Fraction(i + m - 2, i)
        return 0

    return _case_matrix(l, l + m - 2, entry)


def appendix_matrices(l, k, N, s):
    """All recursion matrices for given l, k: B and Q_0..Q_{k+1}."""
    out = {"B": matrix_B(l), "Q0": matrix_Q0(l, s), "Q1": matrix_Q1(l),
           "Q2": matrix_Q2(l, N, s)}
    for m in range(3, k + 2):
        out["Q%d" % m] = matrix_Qm(l, m)
    return out


# ---------------------------------------------------------------------------
# vector recursion
# ---------------------------------------------------------------------------

def verify_vector_recursion(l, k, N, s, t0=Fraction(1), perturb=False):
    """Exact residual of the vector recursion for Psi^{(0)}[l;1], with the
    identity multiplied through by 2(t_1+t_2) to clear denominators.

    Returns the max-absolute residual (a Fraction, expected 0) over all vector
    entries, taken over the validated series coefficients evaluated at
    t_1 = t0; a residual of 0 also certifies that every validated coefficient
    polynomial vanishes identically.
    perturb=True deliberately corrupts one Q_2 entry (negative control).
    The series are truncated at total degree 3 in t_2..t_k.

    Every term of the right side is c * M w for a number c, a rational matrix
    M and a vector w of series. The t-operators act entrywise, so they commute
    with M and are applied to w first; a w one short of B's width has a zero
    last entry. Entry i of the residual is then one linear combination,
    lhs_i - sum over the terms and j of c M[i][j] w_j.
    """
    if l < 3 or k < 2:
        raise ValueError("l >= 3 and k >= 2 required")
    cap = 3
    mats = appendix_matrices(l, k, N, s)
    B = mats["B"]
    if perturb:
        Q2 = [row[:] for row in mats["Q2"]]
        Q2[0][0] = Q2[0][0] + 1
        mats = dict(mats, Q2=Q2)
    half = Fraction(N, 2)

    def vec(b, p):
        """The vector (Psi_{lambda_{b,p}},...,Psi_{lambda_{b,b}})."""
        return [Psi_ms(N, s, partition_kq(b, q), k, cap) for q in range(p, b + 1)]

    terms = []
    # T1: k t_k (-1)^{k+1} B (-N/2 d1 + N/2) Psi^{(0)}[l+k-2;k]
    terms.append((k * (-1) ** k * half, B, [e.d1m1().times({k: 1}) for e in vec(l + k - 2, k)]))

    # T2: B [2(t1+t2)(N/2 d1 - N/2) + N(sum diff_{m-1,m} d_{t_{m-1}} + k t_k d_{t_k})]
    v = vec(l - 1, 1)
    terms.append((half, B, [e.d1m1().times({1: 2, 2: 2}) for e in v]))
    for m in range(3, k + 1):
        terms.append((N, B, [e.d_tq(m - 1).times({m - 1: m - 1, m: -m}) for e in v]))
    terms.append((N * k, B, [e.d_tq(k).times({k: 1}) for e in v]))

    # T3: sum_{m=1}^{k-2} diff_{m+1,m+2} (-1)^m Q_{m+2} Psi^{(0)}[l+m;1]
    for m in range(1, k - 1):
        terms.append(((-1) ** m, mats["Q%d" % (m + 2)],
                      [e.times({m + 1: m + 1, m + 2: -m - 2}) for e in vec(l + m, 1)]))

    # T4: (2 t_1 Q_1 + N Q_0) Psi^{(0)}[l-1;1]
    terms.append((2, mats["Q1"], [e.times({1: 1}) for e in v]))
    terms.append((N, mats["Q0"], v))

    # T5: N Q_2 Psi^{(0)}[l-2;1]
    terms.append((N, mats["Q2"], vec(l - 2, 1)))

    # T6: - sum_{m=0}^{k-3} diff_{m+2,m+3} (-1)^m B (-N/2 d1 + N/2) Psi^{(0)}[l+m;m+2]
    for m in range(0, k - 2):
        terms.append(((-1) ** m * half, B,
                      [e.d1m1().times({m + 2: m + 2, m + 3: -m - 3})
                       for e in vec(l + m, m + 2)]))

    # T7: (-1)^{k-1} k t_k Q_{k+1} Psi^{(0)}[l+k-1;1]
    terms.append(((-1) ** (k - 1) * k, mats["Q%d" % (k + 1)],
                  [e.times({k: 1}) for e in vec(l + k - 1, 1)]))

    # T8: B N k t_k sum_{h=2}^{k-1} (-1)^{k+h} d_{t_h} Psi^{(1)}[l+k-1-h;k+1-h]
    for h in range(2, k):
        terms.append((N * k * (-1) ** (k + h), B,
                      [e.d_tq(h).times({k: 1}) for e in vec(l + k - 1 - h, k + 1 - h)]))

    # T9: B N sum_{m=4}^k (-1)^{m-1} diff_{m-1,m} sum_{h=2}^{m-2} (-1)^h d_{t_h}
    #     Psi^{(1)}[l+m-2-h;m-h]
    for m in range(4, k + 1):
        for h in range(2, m - 1):
            terms.append((N * (-1) ** (m - 1 + h), B,
                          [e.d_tq(h).times({m - 1: m - 1, m: -m})
                           for e in vec(l + m - 2 - h, m - h)]))

    residual = [e.times({1: 2, 2: 2}).lincomb([(-c * M[i][j], w_j) for c, M, w in terms
                                               for j, w_j in enumerate(w)])
                for i, e in enumerate(vec(l, 1))]
    if all(r.is_zero_through_ord() for r in residual):
        return Fraction(0)
    worst = max((r.max_abs_at(t0) for r in residual), default=Fraction(0))
    if worst == 0:
        # nonzero symbolic residual that happens to vanish at t0
        worst = Fraction(1)
    return worst
