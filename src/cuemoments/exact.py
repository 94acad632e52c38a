"""Exact arithmetic foundation: rationals, univariate polynomials, rational
functions in one parameter, and truncated power series.

All values are immutable after construction and all operations are pure.
The scalar type is fractions.Fraction throughout; no floating point here.
"""

import math
from fractions import Fraction


def _scaled_ints(coeffs):
    """Integers over one common denominator: (ints, den) with
    coeffs[i] == ints[i] / den and den the lcm of the denominators.

    The product kernels multiply on these ints and build one Fraction per
    output coefficient, instead of normalising a Fraction per term product.
    """
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def rat_to_str(q):
    """Serialize a rational as the canonical "p/q" decimal string."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


class Poly:
    """Dense univariate polynomial with Fraction coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple; otherwise the trailing
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return Poly((Fraction(c),))

    @staticmethod
    def x():
        return Poly((0, 1))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = Fraction(other)
            if c == 0:
                return Poly()
            return Poly(tuple(a * c for a in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly()
        a, da = _scaled_ints(self.coeffs)
        b, db = _scaled_ints(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        den = da * db
        return Poly([Fraction(c, den) for c in out])

    __rmul__ = __mul__

    def divmod(self, other):
        """Exact polynomial division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        if len(rem) <= d:
            return Poly(), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            quot[i - d] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        return Poly(quot), Poly(rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def gcd(self, other):
        """Monic gcd, computed over the integers via a primitive
        pseudo-remainder sequence to keep coefficient growth tame."""

        def primitive(v):
            g = 0
            for c in v:
                g = math.gcd(g, abs(c))
            if g > 1:
                v = [c // g for c in v]
            return v

        def prem(a, b):
            a = list(a)
            db = len(b) - 1
            lb = b[-1]
            while a and len(a) - 1 >= db:
                da = len(a) - 1
                lead = a[-1]
                a = [lb * c for c in a]
                for i, bc in enumerate(b):
                    a[da - db + i] -= lead * bc
                while a and a[-1] == 0:
                    a.pop()
            return a

        A, B = _scaled_ints(self.coeffs)[0], _scaled_ints(other.coeffs)[0]
        if not A:
            return other.monic() if B else Poly()
        if not B:
            return self.monic()
        A, B = primitive(A), primitive(B)
        while B:
            A, B = B, primitive(prem(A, B))
        return Poly(A).monic()

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly(tuple(c / lead for c in self.coeffs))

    def derivative(self):
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def eval(self, x):
        out = Fraction(0) if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def scale_arg(self, a):
        """p(t) -> p(a*t)."""
        a = Fraction(a)
        pw = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * pw)
            pw *= a
        return Poly(out)

    def to_json(self):
        return [rat_to_str(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*x" % c)
            else:
                parts.append("%s*x^%d" % (c, i))
        return " + ".join(parts)


class RationalFunction:
    """Ratio of two Polys kept in canonical form: gcd-reduced, monic denominator."""

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
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        self.num = num
        self.den = den

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
    """Truncated formal power series with Fraction coefficients.

    `order` is the truncation order K: coefficients c_0..c_K are meaningful.
    Operations track the order through derivatives and divisions.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs += [Fraction(0)] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs[:order + 1])

    @staticmethod
    def const(c, order=DEFAULT_SERIES_ORDER):
        return PowerSeries([c], order)

    def __getitem__(self, k):
        if k > self.order:
            raise IndexError("coefficient %d beyond truncation order %d" % (k, self.order))
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        k = min(self.order, other.order)
        return self.coeffs[:k + 1] == other.coeffs[:k + 1]

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.order)

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            other = PowerSeries.const(other, self.order)
        k = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(k + 1)], k)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            other = PowerSeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            c = Fraction(other)
            return PowerSeries([a * c for a in self.coeffs], self.order)
        k = min(self.order, other.order)
        a, da = _scaled_ints(self.coeffs[:k + 1])
        b, db = _scaled_ints(other.coeffs[:k + 1])
        out = [0] * (k + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[:k + 1 - i], i):
                    out[j] += x * y
        den = da * db
        return PowerSeries([Fraction(c, den) for c in out], k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return self * (1 / Fraction(other))
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("series division requires nonzero constant term")
        k = min(self.order, other.order)
        inv0 = 1 / other.coeffs[0]
        out = [Fraction(0)] * (k + 1)
        for i in range(k + 1):
            acc = self.coeffs[i]
            for j in range(1, i + 1):
                acc -= other.coeffs[j] * out[i - j]
            out[i] = acc * inv0
        return PowerSeries(out, k)

    def derivative(self):
        if self.order == 0:
            return PowerSeries([0], 0)
        return PowerSeries(
            [(i + 1) * self.coeffs[i + 1] for i in range(self.order)], self.order - 1)

    def scale_arg(self, a):
        a = Fraction(a)
        pw = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * pw)
            pw *= a
        return PowerSeries(out, self.order)

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires zero constant term")
        k = self.order
        out = [Fraction(0)] * (k + 1)
        out[0] = Fraction(1)
        # (exp f)' = f' exp f  =>  n*out[n] = sum_j j*f_j*out[n-j]
        for n in range(1, k + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                acc += j * self.coeffs[j] * out[n - j]
            out[n] = acc / n
        return PowerSeries(out, k)

    def __repr__(self):
        return "PowerSeries(%s, order=%d)" % (list(self.coeffs), self.order)


def series_logderiv(f):
    """t * f'(t)/f(t) for a series with nonzero constant term."""
    if f.coeffs[0] == 0:
        raise ZeroDivisionError("log-derivative requires nonzero constant term")
    d = f.derivative() / f  # order K-1
    out = [Fraction(0)] + list(d.coeffs)
    return PowerSeries(out, d.order + 1)
