"""Exact arithmetic with one real algebraic number.

A number is given by an integer-coefficient polynomial and a rational
interval isolating exactly one of its real roots.  Field elements are
polynomials in that root, reduced mod the defining polynomial and kept
as Fraction tuples, so equality, sign, and floor are all decided
exactly.  Every query first bounds the element by interval Horner in
Fractions over the isolating interval, an arithmetic filter in the sense
of Fortune and Van Wyk (SoCG 1993): an enclosure that excludes 0 settles
the sign at once.  Only when it straddles 0 is zero decided by a gcd
with the defining polynomial, and a nonzero element then bisects the
interval on the stored Sturm chain until its enclosure clears 0.

The defining polynomial does not need to be irreducible; nothing here
factors anything.
"""

import math
from fractions import Fraction

from .errors import UnsupportedSpecError

ZERO_POLY = ()


def poly_norm(coeffs):
    cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_norm([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_neg(p):
    return tuple(-c for c in p)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    if not p or not q:
        return ZERO_POLY
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_norm(out)


def poly_scale(p, c):
    c = Fraction(c)
    if c == 0:
        return ZERO_POLY
    return tuple(a * c for a in p)


def poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for shift in range(len(p) - len(q), -1, -1):
        c = p[shift + len(q) - 1] / lead
        if c != 0:
            quo[shift] = c
            for i, b in enumerate(q):
                p[shift + i] -= c * b
    return poly_norm(quo), poly_norm(p)


def poly_mod(p, q):
    return poly_divmod(p, q)[1]


def poly_gcd(p, q):
    while q:
        p, q = q, poly_mod(p, q)
    if not p:
        return ZERO_POLY
    return poly_scale(p, 1 / p[-1])


def poly_deriv(p):
    return poly_norm([i * c for i, c in enumerate(p)][1:])


def poly_eval(p, x):
    if type(x) is not Fraction:
        x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def degree(p):
    return len(p) - 1 if p else -1


def squarefree_part(p):
    d = poly_gcd(p, poly_deriv(p))
    if degree(d) <= 0:
        return p
    return poly_divmod(p, d)[0]


def sturm_chain(p):
    chain = [p, poly_deriv(p)]
    while chain[-1]:
        chain.append(poly_neg(poly_mod(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _variations(chain, x):
    values = [poly_eval(p, x) for p in chain]
    if values[0] == 0:
        raise UnsupportedSpecError("interval endpoint is a root; nudge the interval")
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _chain_count(chain, lo, hi):
    """Distinct real roots in (lo, hi) of the square-free ``chain[0]``;
    neither endpoint may be one of them."""
    return _variations(chain, lo) - _variations(chain, hi)


def count_roots(p, lo, hi):
    """Distinct real roots of p in the open interval (lo, hi).

    Endpoints must not be roots; callers test that exactly first.
    """
    p = squarefree_part(poly_norm(p))
    if not p:
        raise ZeroDivisionError("root counting needs a nonzero polynomial")
    return _chain_count(sturm_chain(p), lo, hi)


class AlgebraicNumber:
    """A real root of ``poly`` isolated by the interval [lo, hi].

    Elements of Q(root) are Fraction tuples of length < deg(poly),
    little-endian in the root.  The Sturm chain of the square-free part
    of ``poly`` is built once, here; the interval shrinks in place only
    when a query's enclosure straddles 0 (or an integer, for ``floor``),
    by bisection on that chain.  Every answer is exact regardless of the
    width, and ``sign`` is the comparison primitive: "less" is decided by
    refining until the enclosures separate.
    """

    def __init__(self, poly, lo, hi):
        self.poly = poly_norm(poly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if degree(self.poly) < 1:
            raise UnsupportedSpecError("defining polynomial must be nonconstant")
        if not self.lo < self.hi:
            raise UnsupportedSpecError("isolating interval must have positive width")
        if poly_eval(self.poly, self.lo) == 0 or poly_eval(self.poly, self.hi) == 0:
            raise UnsupportedSpecError(
                "interval endpoints must not be roots; widen or shift the interval")
        # the chain of poly ends in gcd(poly, poly'), up to a constant, so
        # a constant last entry means poly is square-free and the chain
        # serves as is; otherwise divide out the gcd and chain again
        self._chain = sturm_chain(self.poly)
        if degree(self._chain[-1]) == 0:
            self._sf = self.poly
        else:
            self._sf = squarefree_part(self.poly)
            self._chain = sturm_chain(self._sf)
        if _chain_count(self._chain, self.lo, self.hi) != 1:
            raise UnsupportedSpecError("interval must isolate exactly one real root")

    # ---- field elements ----------------------------------------------

    def element(self, coeffs):
        return poly_mod(poly_norm(coeffs), self.poly)

    def from_rational(self, c):
        return self.element((Fraction(c),))

    @property
    def generator(self):
        return self.element((0, 1))

    def add(self, a, b):
        return poly_add(a, b)

    def sub(self, a, b):
        return poly_sub(a, b)

    def mul(self, a, b):
        return poly_mod(poly_mul(a, b), self.poly)

    def _enclose(self, a):
        """Rational bounds (l, h) on a(root), by interval Horner over [lo, hi]."""
        lo, hi = self.lo, self.hi
        el = eh = a[-1] if a else Fraction(0)
        for c in a[-2::-1]:
            if lo >= 0:
                # on x >= 0, v*x grows with v: the ends come from el and eh
                el, eh = (el * (lo if el >= 0 else hi) + c,
                          eh * (hi if eh >= 0 else lo) + c)
            else:
                ends = (el * lo, el * hi, eh * lo, eh * hi)
                el, eh = min(ends) + c, max(ends) + c
        return el, eh

    def _vanishes(self, a):
        """Exact test of a(root) == 0 via gcd with the defining polynomial."""
        if not a:
            return True
        d = poly_gcd(self.poly, a)
        if degree(d) <= 0:
            return False
        # roots of d sit among roots of poly, so interval endpoints are safe
        return count_roots(d, self.lo, self.hi) == 1

    def is_zero(self, a):
        """Exact test of a(root) == 0; the gcd runs only when the
        enclosure holds 0."""
        el, eh = self._enclose(a)
        return el <= 0 <= eh and self._vanishes(a)

    def _bisect(self):
        mid = (self.lo + self.hi) / 2
        if poly_eval(self._sf, mid) == 0:
            # the root is rational and equals mid; shrink symmetrically
            width = (self.hi - self.lo) / 4
            self.lo, self.hi = mid - width, mid + width
            return
        if _chain_count(self._chain, self.lo, mid) == 1:
            self.hi = mid
        else:
            self.lo = mid

    def sign(self, a):
        """Sign of a(root) in {-1, 0, 1}, decided exactly."""
        el, eh = self._enclose(a)
        if el <= 0 <= eh and self._vanishes(a):
            return 0
        # a(root) != 0 and the enclosure shrinks onto it as the interval does
        while el <= 0 <= eh:
            self._bisect()
            el, eh = self._enclose(a)
        return 1 if el > 0 else -1

    def compare(self, a, b):
        return self.sign(poly_sub(a, b))

    def floor(self, a):
        """Largest integer <= a(root)."""
        el, eh = self._enclose(a)
        guess = math.floor(el)
        if math.floor(eh) == guess:
            return guess
        while self.compare(a, self.from_rational(guess + 1)) >= 0:
            guess += 1
        return guess

    def refine(self, width):
        width = Fraction(width)
        while self.hi - self.lo > width:
            self._bisect()
