"""Sparse multivariate polynomials over exact rationals, keyed by dense
exponent tuples of a fixed arity.

Used as integrands over eigenvalue space; arity is capped at 8 by design.
"""

from fractions import Fraction
from operator import mul

from .exact import _scaled_ints

MAX_ARITY = 8


class SymPoly:
    """Multivariate polynomial: dict mapping exponent tuple -> Fraction.

    All keys share the same length (the arity); zero coefficients are never
    stored. Instances are treated as immutable.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        if arity > MAX_ARITY:
            raise ValueError("arity %d exceeds supported maximum %d" % (arity, MAX_ARITY))
        self.arity = arity
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != arity:
                    raise ValueError("exponent tuple %r does not have arity %d" % (expo, arity))
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[tuple(expo)] = c
        self.terms = clean

    @staticmethod
    def const(arity, c):
        return SymPoly(arity, {(0,) * arity: Fraction(c)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __neg__(self):
        return SymPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, SymPoly):
            other = SymPoly.const(self.arity, other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, Fraction(0)) + c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
        return SymPoly(self.arity, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, SymPoly):
            other = SymPoly.const(self.arity, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SymPoly):
            c = Fraction(other)
            if c == 0:
                return SymPoly(self.arity)
            return SymPoly(self.arity, {e: v * c for e, v in self.terms.items()})
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        if not self.terms or not other.terms:
            return SymPoly(self.arity)
        # Kronecker substitution: the exponent tuple e becomes the int
        # sum(e[i] * base**i), and base exceeds every exponent of the
        # product, so keys add without carries.
        base = _max_exponent(self) + _max_exponent(other) + 1
        powers = [base ** i for i in range(self.arity)]
        a, da = _scaled_ints(self.terms.values())
        b, db = _scaled_ints(other.terms.values())
        pairs = list(zip([sum(map(mul, e, powers)) for e in other.terms], b))
        out = {}
        get = out.get
        for k1, c1 in zip([sum(map(mul, e, powers)) for e in self.terms], a):
            for k2, c2 in pairs:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        den = da * db
        return SymPoly(self.arity, {tuple([k // p % base for p in powers]): Fraction(v, den)
                                    for k, v in out.items() if v})

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
        if not self.terms:
            return "SymPoly(0)"
        parts = []
        for e in sorted(self.terms):
            parts.append("%s*x^%s" % (self.terms[e], list(e)))
        return "SymPoly(" + " + ".join(parts) + ")"


def _max_exponent(p):
    """The largest exponent of any variable in p; 0 for the zero polynomial."""
    return max((max(e, default=0) for e in p.terms), default=0)
