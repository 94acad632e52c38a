"""Sparse multivariate polynomials over exact rationals, keyed by dense
exponent tuples of a fixed arity.

Stored as `exact.Poly` is: int numerators over one positive denominator in
lowest terms, so equal values have equal storage. Used as integrands over
eigenvalue space; arity is capped at 8 by design.
"""

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import mul

from .exact import _scaled_ints, _times

MAX_ARITY = 8


class SymPoly:
    """Multivariate polynomial: `num` maps exponent tuples to nonzero int
    numerators over the one denominator `den` > 0, with
    gcd(den, *num.values()) == 1; zero is ({}, 1).

    All keys share the same length (the arity). Instances are treated as
    immutable. `terms` is a read-only view of the coefficients as Fractions.
    """

    __slots__ = ("arity", "num", "den")

    def __init__(self, arity, terms=None):
        if arity > MAX_ARITY:
            raise ValueError("arity %d exceeds supported maximum %d" % (arity, MAX_ARITY))
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != arity:
                    raise ValueError("exponent tuple %r does not have arity %d" % (expo, arity))
                c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
                if c:
                    clean[tuple(expo)] = c
        ints, den = _scaled_ints(list(clean.values()))
        self.arity = arity
        self.num, self.den = _reduced(dict(zip(clean, ints)), den)

    @staticmethod
    def _raw(arity, num, den):
        """The SymPoly num/den for a dict of nonzero int numerators and an
        int den > 0, reduced by one gcd (none when den is 1)."""
        p = object.__new__(SymPoly)
        p.arity = arity
        p.num, p.den = _reduced(num, den)
        return p

    @property
    def terms(self):
        return _Terms(self.num, self.den)

    @staticmethod
    def const(arity, c):
        return SymPoly(arity, {(0,) * arity: c})

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.arity == other.arity and self.num == other.num and self.den == other.den

    def __neg__(self):
        return SymPoly._raw(self.arity, {e: -c for e, c in self.num.items()}, self.den)

    def _plus(self, other, sign):
        if not isinstance(other, SymPoly):
            other = SymPoly.const(self.arity, other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        # over the lcm of the denominators, as exact._sum does
        da, db = self.den, other.den
        if da == db:
            fa, fb, den = 1, sign, da
        else:
            g = math.gcd(da, db)
            fa, fb, den = db // g, sign * (da // g), da // g * db
        out = {e: c * fa for e, c in self.num.items()}
        get = out.get
        for e, c in other.num.items():
            v = get(e, 0) + c * fb
            if v:
                out[e] = v
            else:
                del out[e]
        return SymPoly._raw(self.arity, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SymPoly):
            ints, den = _times(list(self.num.values()), self.den, other)
            return SymPoly._raw(self.arity, dict(zip(self.num, ints)), den)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        if not self.num or not other.num:
            return SymPoly(self.arity)
        # Kronecker substitution: the exponent tuple e becomes the int
        # sum(e[i] * base**i), and base exceeds every exponent of the
        # product, so keys add without carries.
        base = _max_exponent(self) + _max_exponent(other) + 1
        powers = [base ** i for i in range(self.arity)]
        pairs = [(sum(map(mul, e, powers)), c) for e, c in other.num.items()]
        out = {}
        get = out.get
        for e, c1 in self.num.items():
            k1 = sum(map(mul, e, powers))
            for k2, c2 in pairs:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return SymPoly._raw(self.arity, {tuple([k // p % base for p in powers]): v
                                         for k, v in out.items() if v},
                            self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = SymPoly.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __repr__(self):
        if not self.num:
            return "SymPoly(0)"
        terms = self.terms
        parts = []
        for e in sorted(terms):
            parts.append("%s*x^%s" % (terms[e], list(e)))
        return "SymPoly(" + " + ".join(parts) + ")"


class _Terms(Mapping):
    """The coefficients num/den of a SymPoly as a read-only mapping from
    exponent tuples to Fractions, each made on lookup."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num, self._den = num, den

    def __getitem__(self, expo):
        return Fraction(self._num[expo], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __repr__(self):
        return repr(dict(self.items()))


def _reduced(num, den):
    """The storage (num, den) of a dict of nonzero int numerators over the
    int den > 0: one gcd, none when den is 1; zero as ({}, 1)."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return num, den


def _max_exponent(p):
    """The largest exponent of any variable in p; 0 for the zero polynomial."""
    return max((max(e, default=0) for e in p.num), default=0)
