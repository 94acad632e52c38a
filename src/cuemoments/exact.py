"""Exact arithmetic foundation: rationals, univariate polynomials, rational
functions in one parameter, and truncated power series.

All values are immutable after construction and all operations are pure; no
floating point here. Poly and PowerSeries store their coefficients as a tuple
of Python-int numerators `num` over one positive denominator `den` in lowest
terms: gcd(den, *num) == 1, no trailing zero numerator, and zero is ((), 1).
Equal values therefore have equal storage. Every operation works on the ints
and reduces its result with one gcd (none when the denominator is 1, as on
the integer theta matrices); `coeffs` is a Fraction view for serialisation
and display. `sympoly.SymPoly` shares the rule, with a dict of nonzero
numerators keyed by exponent tuples in place of the tuple. A
RationalFunction is a coprime pair of Polys with a monic denominator: a pair
of unknown structure is reduced by its gcd, while `from_factors` builds a
quotient over known linear factors 2s + k with no gcd.
"""

import math
import operator
from fractions import Fraction


def _scaled_ints(coeffs):
    """Integers over one common denominator: (ints, den) with
    coeffs[i] == ints[i] / den for int or Fraction coefficients, and den the
    lcm of the denominators."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _lowest(nums, den):
    """The storage (num, den) of the list of int numerators `nums` over the
    nonzero int `den`: trailing zeros dropped (from `nums` in place), den > 0,
    gcd(den, *num) == 1, and zero as ((), 1)."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    if den < 0:
        nums, den = [-x for x in nums], -den
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    return tuple(nums), den


def _from_coeffs(coeffs):
    """The storage of a sequence of ints, Fractions or anything Fraction takes."""
    return _lowest(*_scaled_ints([c if isinstance(c, (int, Fraction)) else Fraction(c)
                                  for c in coeffs]))


def _sum(a, da, b, db, sign):
    """Numerators and denominator of a/da + sign * b/db, not reduced."""
    if da == db:
        fa, fb, den = 1, sign, da
    else:
        g = math.gcd(da, db)
        fa, fb, den = db // g, sign * (da // g), da // g * db
    if fa != 1:
        a = [x * fa for x in a]
    if fb != 1:
        b = [y * fb for y in b]
    if len(a) < len(b):
        a, b = b, a
    out = list(map(operator.add, a, b))
    out += a[len(b):]
    return out, den


def _times(num, den, c):
    """The storage of (num/den) * c for stored (num, den) and a scalar c."""
    if isinstance(c, int):
        if not c:
            return (), 1
        # in lowest terms already: a prime of den // g cannot divide c // g
        g = math.gcd(den, c)
        return tuple(x * (c // g) for x in num), den // g
    c = Fraction(c)
    return _lowest([x * c.numerator for x in num], den * c.denominator)


def _ratio(x, den):
    """(p, q): the int x over the positive int den in lowest terms."""
    g = math.gcd(x, den)
    return x // g, den // g


def _times_factor(a, k, r):
    """The int list a times (u + k)^r, u = 2s: a power of a linear factor of
    the moment denominators."""
    return _convolve_into([0] * (len(a) + r), a, [math.comb(r, i) * k ** (r - i)
                                                 for i in range(r + 1)])


def _divide_out(a, k, most):
    """(quot, times): the int list a divided by u + k, synthetically, while
    it vanishes at u = -k, at most `most` times."""
    times = 0
    while times < most and len(a) > 1:
        quot, acc = [0] * (len(a) - 1), 0
        for i in range(len(a) - 1, 0, -1):
            quot[i - 1] = acc = a[i] - k * acc
        if a[0] != k * acc:
            break
        a, times = quot, times + 1
    return a, times


def _convolve_into(out, a, b):
    """out[i + j] += a[i] * b[j] for all i + j < len(out), on ints: the one
    product kernel of Poly and PowerSeries."""
    n = len(out)
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                out[j] += x * y
    return out


def _scale_arg(num, den, a):
    """Numerators and denominator of p(a t) for p = num/den, not reduced."""
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    out = []
    pw = 1
    for x in num:
        out.append(x * pw)
        pw *= p
    if q != 1 and out:
        # a^i = p^i / q^i over the common q^deg
        qw = 1
        for i in range(len(out) - 1, -1, -1):
            out[i] *= qw
            qw *= q
        den *= qw // q
    return out, den


def _divide(a, b):
    """Integer long division of the int list a by b, whose last entry is
    nonzero: (quot, rem, scale) with scale * a == quot * b + rem and
    len(rem) <= len(b) - 1. The remainder is scaled only where b's
    leading entry does not divide the current leading one (never when the
    quotient has integer entries, as in Bareiss on integer matrices)."""
    d = len(b) - 1
    lead, low = b[-1], b[:-1]
    rem = list(a)
    quot = [0] * max(len(rem) - d, 0)
    scale = 1
    for i in range(len(rem) - 1, d - 1, -1):
        r = rem[i]
        if not r:
            continue
        c, m = divmod(r, lead)
        if m:
            f = lead // math.gcd(r, lead)
            rem = [x * f for x in rem[:i + 1]]
            quot = [x * f for x in quot]
            scale *= f
            c = rem[i] // lead
        quot[i - d] = c
        rem[i - d:i] = map(operator.sub, rem[i - d:i], [c * y for y in low])
    return quot, rem[:d], scale


def rat_to_str(q):
    """Serialize a rational as the canonical "p/q" decimal string."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


class Poly:
    """Dense univariate polynomial over Q, ascending order, stored as int
    numerators `num` over one denominator `den` in lowest terms.

    The zero polynomial is ((), 1); otherwise the last numerator is nonzero.
    `coeffs` gives the coefficients as Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        self.num, self.den = _from_coeffs(coeffs)

    @staticmethod
    def _raw(num, den):
        """The Poly with storage (num, den), which must be in lowest terms."""
        p = object.__new__(Poly)
        p.num, p.den = num, den
        return p

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @staticmethod
    def const(c):
        return Poly((c,))

    def is_zero(self):
        return not self.num

    def degree(self):
        # degree of the zero polynomial reported as -1
        return len(self.num) - 1

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return Poly._raw(tuple(-x for x in self.num), self.den)

    def _plus(self, other, sign):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return Poly._raw(*_lowest(*_sum(self.num, self.den, other.num, other.den, sign)))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly._raw(*_times(self.num, self.den, other))
        a, b = self.num, other.num
        if not a or not b:
            return Poly()
        out = _convolve_into([0] * (len(a) + len(b) - 1), a, b)
        return Poly._raw(*_lowest(out, self.den * other.den))

    __rmul__ = __mul__

    def divmod(self, other):
        """Exact polynomial division with remainder, by _divide on the
        numerators."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, scale = _divide(self.num, other.num)
        den = self.den * scale
        return (Poly._raw(*_lowest([x * other.den for x in quot], den)),
                Poly._raw(*_lowest(rem, den)))

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def gcd(self, other):
        """Monic gcd, computed over the integers by a primitive remainder
        sequence (each remainder of _divide over its content) to keep
        coefficient growth tame."""
        A, B = self.num, other.num
        while B:
            rem = _divide(A, B)[1]
            while rem and not rem[-1]:
                rem.pop()
            g = math.gcd(*rem) or 1
            A, B = B, [x // g for x in rem]
        return Poly._raw(*_lowest(list(A), A[-1])) if A else Poly()

    def monic(self):
        if self.is_zero():
            return self
        return Poly._raw(*_lowest(list(self.num), self.num[-1]))

    def derivative(self):
        return Poly._raw(*_lowest([i * x for i, x in enumerate(self.num) if i], self.den))

    def eval(self, x):
        """The value at an int or Fraction x, as a Fraction."""
        if not self.num:
            return Fraction(0)
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        # Horner on sum num_i p^i q^(deg - i), over den * q^deg
        v, qw = 0, 1
        for c in reversed(self.num):
            v = v * p + c * qw
            qw *= q
        return Fraction(v, self.den * (qw // q))

    def scale_arg(self, a):
        """p(t) -> p(a*t)."""
        return Poly._raw(*_lowest(*_scale_arg(self.num, self.den, a)))

    def to_json(self):
        return ["%d/%d" % _ratio(x, self.den) for x in self.num]

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, x in enumerate(self.num):
            if not x:
                continue
            p, q = _ratio(x, self.den)
            c = "%d/%d" % (p, q) if q != 1 else "%d" % p
            parts.append(c if i == 0 else c + "*x" if i == 1 else "%s*x^%d" % (c, i))
        return " + ".join(parts)


class RationalFunction:
    """Ratio of two Polys kept in canonical form: coprime, monic denominator.
    The constructor reduces a pair by its gcd; `from_factors` needs none."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        g = num.gcd(den)
        if not g.is_zero() and g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = Fraction(den.num[-1], den.den)
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        self.num = num
        self.den = den

    @staticmethod
    def from_factors(terms):
        """The sum of c num(2s) / prod_k (2s + k)^e over the terms (num, c,
        counts) in canonical form: num the int coefficients of a polynomial
        in u = 2s, c a rational, counts {k: e} with int e (a negative e
        multiplies num). The terms are summed over the most of each factor,
        and a factor is cancelled while the sum vanishes at u = -k; what is
        left is coprime, so no gcd runs: the denominator is only expanded and
        made monic."""
        union = {}
        for _, _, counts in terms:
            for k, e in counts.items():
                union[k] = max(union.get(k, 0), e)
        weights, scale = _scaled_ints([c for _, c, _ in terms])
        total = []
        for (num, _, counts), w in zip(terms, weights):
            for k, e in union.items():
                if e != counts.get(k, 0):
                    num = _times_factor(num, k, e - counts.get(k, 0))
            total += [0] * (len(num) - len(total))
            for i, x in enumerate(num):
                total[i] += w * x
        while total and not total[-1]:
            total.pop()
        den = [1]
        for k, e in union.items() if total else ():
            total, t = _divide_out(total, k, e)
            den = _times_factor(den, k, e - t)
        n = len(den) - 1
        rf = object.__new__(RationalFunction)
        rf.num = Poly._raw(*_lowest([x << i for i, x in enumerate(total)], scale << n))
        rf.den = Poly._raw(*_lowest([x << i for i, x in enumerate(den)], 1 << n))
        return rf

    @staticmethod
    def const(c):
        return RationalFunction(Poly.const(c))

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.const(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.const(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def eval(self, x0):
        d = self.den.eval(x0)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point %s" % (x0,))
        return self.num.eval(x0) / d

    def __repr__(self):
        if self.den == Poly.const(1):
            return "(%s)" % (self.num,)
        return "(%s)/(%s)" % (self.num, self.den)


DEFAULT_SERIES_ORDER = 24


class PowerSeries:
    """Truncated formal power series over Q, stored as a Poly is: int
    numerators `num` (no trailing zero) over one denominator `den` in lowest
    terms. `coeffs` gives c_0..c_K as Fractions.

    `order` is the truncation order K: coefficients c_0..c_K are meaningful.
    Operations track the order through derivatives and divisions.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        self.order = order
        self.num, self.den = _from_coeffs(coeffs[:order + 1])

    @staticmethod
    def _raw(num, den, order):
        """The series with storage (num, den), which must be in lowest terms
        and no longer than order + 1."""
        f = object.__new__(PowerSeries)
        f.num, f.den, f.order = num, den, order
        return f

    @property
    def coeffs(self):
        den = self.den
        return (tuple(Fraction(x, den) for x in self.num)
                + (Fraction(0),) * (self.order + 1 - len(self.num)))

    @staticmethod
    def const(c, order=DEFAULT_SERIES_ORDER):
        return PowerSeries([c], order)

    def __getitem__(self, k):
        if k > self.order:
            raise IndexError("coefficient %d beyond truncation order %d" % (k, self.order))
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order) + 1
        if len(self.num) <= n and len(other.num) <= n:
            return self.num == other.num and self.den == other.den
        return (_lowest(list(self.num[:n]), self.den)
                == _lowest(list(other.num[:n]), other.den))

    def __neg__(self):
        return PowerSeries._raw(tuple(-x for x in self.num), self.den, self.order)

    def _plus(self, other, sign):
        if not isinstance(other, PowerSeries):
            other = PowerSeries.const(other, self.order)
        k = min(self.order, other.order)
        return PowerSeries._raw(*_lowest(*_sum(self.num[:k + 1], self.den,
                                               other.num[:k + 1], other.den, sign)), k)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries._raw(*_times(self.num, self.den, other), self.order)
        k = min(self.order, other.order)
        a, b = self.num[:k + 1], other.num[:k + 1]
        if not a or not b:
            return PowerSeries._raw((), 1, k)
        out = _convolve_into([0] * min(k + 1, len(a) + len(b) - 1), a, b)
        return PowerSeries._raw(*_lowest(out, self.den * other.den), k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return self * (1 / Fraction(other))
        if not other.num or other.num[0] == 0:
            raise ZeroDivisionError("series division requires nonzero constant term")
        k = min(self.order, other.order)
        a, b0, tail = self.num, other.num[0], other.num[1:k + 1]
        # q / scale = a / b through t^k: b_0 q_i = scale * a_i - sum_j b_j q_{i-j},
        # with q and scale multiplied up only where b_0 does not divide the right side
        q, scale = [], 1
        for i in range(k + 1):
            r = (scale * a[i] if i < len(a) else 0) - sum(map(operator.mul, tail, reversed(q)))
            c, m = divmod(r, b0)
            if m:
                f = b0 // math.gcd(r, b0)
                q = [x * f for x in q]
                scale *= f
                c = r * f // b0
            q.append(c)
        return PowerSeries._raw(*_lowest([x * other.den for x in q], self.den * scale), k)

    def derivative(self):
        if self.order == 0:
            return PowerSeries([0], 0)
        return PowerSeries._raw(
            *_lowest([i * x for i, x in enumerate(self.num) if i], self.den), self.order - 1)

    def scale_arg(self, a):
        return PowerSeries._raw(*_lowest(*_scale_arg(self.num, self.den, a)), self.order)

    def __repr__(self):
        return "PowerSeries(%s, order=%d)" % (list(self.coeffs), self.order)


def _mul_t(f):
    """t * f for a Poly, or a PowerSeries with order one higher."""
    num = (0,) + f.num if f.num else ()
    if isinstance(f, Poly):
        return Poly._raw(num, f.den)
    return PowerSeries._raw(num, f.den, f.order + 1)


def series_logderiv(f):
    """t * f'(t)/f(t) for a series with nonzero constant term."""
    if not f.num or f.num[0] == 0:
        raise ZeroDivisionError("log-derivative requires nonzero constant term")
    return _mul_t(f.derivative() / f)  # order K
