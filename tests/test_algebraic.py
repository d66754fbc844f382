import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab import AlgebraicNumber, UnsupportedSpecError
from shiftlab.algebraic import (_chain_count, count_roots, degree, poly_eval,
                                poly_gcd, poly_mul, poly_norm, squarefree_part,
                                sturm_chain)

PHI_POLY = (Fraction(-1), Fraction(-1), Fraction(1))  # x^2 - x - 1


def phi():
    return AlgebraicNumber(PHI_POLY, Fraction(1), Fraction(2))


def test_count_roots_sturm():
    sqrt2 = (Fraction(-2), Fraction(0), Fraction(1))
    assert count_roots(sqrt2, Fraction(0), Fraction(2)) == 1
    assert count_roots(sqrt2, Fraction(-2), Fraction(2)) == 2
    assert count_roots(sqrt2, Fraction(2), Fraction(3)) == 0


def test_isolation_is_enforced():
    two_roots = (Fraction(2), Fraction(-3), Fraction(1))  # (x-1)(x-2)
    with pytest.raises(UnsupportedSpecError):
        AlgebraicNumber(two_roots, Fraction(1, 2), Fraction(5, 2))
    with pytest.raises(UnsupportedSpecError):
        # endpoint hits a root
        AlgebraicNumber(two_roots, Fraction(1), Fraction(3, 2))


def test_golden_ratio_identity():
    num = phi()
    g = num.generator
    one = num.from_rational(1)
    # phi^2 = phi + 1, exactly
    assert num.is_zero(num.sub(num.mul(g, g), num.add(g, one)))
    assert num.compare(num.mul(g, g), g) > 0


def test_sign_and_compare():
    num = phi()
    g = num.generator
    assert num.compare(g, num.from_rational(Fraction(8, 5))) > 0
    assert num.compare(g, num.from_rational(Fraction(13, 8))) < 0
    assert num.sign(num.sub(g, g)) == 0


def test_floor_corrects_a_far_guess():
    # on [1, 2] the first guesses for 10*sqrt(2) and -10*sqrt(2) are
    # 10 and -10, four units below and five above the answers
    sqrt2 = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(2))
    g = sqrt2.generator
    assert sqrt2.floor(sqrt2.mul(sqrt2.from_rational(10), g)) == 14
    assert sqrt2.floor(sqrt2.mul(sqrt2.from_rational(-10), g)) == -15


def test_rational_root_hit_at_midpoint():
    # (x - 1)(x^2 - 2) on [3/4, 5/4]: the first bisection lands on the root 1
    num = AlgebraicNumber((2, -2, -1, 1), Fraction(3, 4), Fraction(5, 4))
    num.refine(Fraction(1, 4))
    assert (num.lo, num.hi) == (Fraction(7, 8), Fraction(9, 8))
    g = num.generator
    assert num.floor(g) == 1
    assert num.sign(num.sub(g, num.from_rational(1))) == 0
    assert num.lo < 1 < num.hi


def test_bisection_endpoint_root_is_refused():
    num = AlgebraicNumber((2, -2, -1, 1), Fraction(3, 4), Fraction(5, 4))
    num.lo = Fraction(1)  # a root of the defining polynomial
    with pytest.raises(UnsupportedSpecError, match="endpoint is a root"):
        num._bisect()


class CountRootsEachBisection(AlgebraicNumber):
    """Reference: every bisection recounts with count_roots, which builds
    the square-free part and the Sturm chain afresh."""

    def _bisect(self):
        mid = (self.lo + self.hi) / 2
        if poly_eval(self._sf, mid) == 0:
            width = (self.hi - self.lo) / 4
            self.lo, self.hi = mid - width, mid + width
            return
        if count_roots(self._sf, self.lo, mid) == 1:
            self.hi = mid
        else:
            self.lo = mid


def isolating_intervals(poly):
    """Intervals with non-root endpoints, each holding one real root."""
    bound = 1 + max(abs(Fraction(c, poly[-1])) for c in poly[:-1])
    stack, out = [(-bound, bound)], []   # Cauchy: every root is inside
    while stack:
        lo, hi = stack.pop()
        n = count_roots(poly, lo, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            while poly_eval(poly, mid) == 0:
                mid = (mid + hi) / 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


small = st.integers(min_value=-6, max_value=6)
queries = st.lists(st.one_of(
    st.tuples(st.just("refine"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.sampled_from(("floor", "sign")), st.lists(small, max_size=3))),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=2, max_size=3),
       small.filter(bool), st.integers(min_value=0, max_value=2), queries)
def test_stored_chain_bisects_like_count_roots(low, lead, pick, ops):
    poly = tuple(low) + (lead,)
    intervals = isolating_intervals(poly)
    assume(intervals)
    lo, hi = intervals[pick % len(intervals)]
    num = AlgebraicNumber(poly, lo, hi)
    ref = CountRootsEachBisection(poly, lo, hi)
    for op, arg in ops:
        x = Fraction(1, 2 ** arg) if op == "refine" else num.element(arg)
        assert getattr(num, op)(x) == getattr(ref, op)(x)
        assert (num.lo, num.hi) == (ref.lo, ref.hi)
        assert num.lo < num.hi


class SturmSign(AlgebraicNumber):
    """Reference: zero, sign and floor as decided before the enclosure
    filter.  Every sign query builds the element's own Sturm chain
    through count_roots and bisects until the element has no root in the
    interval; every zero test runs the gcd."""

    def is_zero(self, a):
        if not a:
            return True
        d = poly_gcd(self.poly, a)
        if degree(d) <= 0:
            return False
        return count_roots(d, self.lo, self.hi) == 1

    def sign(self, a):
        if self.is_zero(a):
            return 0
        while True:
            if poly_eval(a, self.lo) != 0 and poly_eval(a, self.hi) != 0 \
                    and count_roots(a, self.lo, self.hi) == 0:
                v = poly_eval(a, (self.lo + self.hi) / 2)
                if v == 0:
                    self._bisect()
                    continue
                return 1 if v > 0 else -1
            self._bisect()

    def floor(self, a):
        guess = math.floor(poly_eval(a, self.lo))
        while self.compare(a, self.from_rational(guess)) < 0:
            guess -= 1
        while self.compare(a, self.from_rational(guess + 1)) >= 0:
            guess += 1
        return guess


def assert_same_answers(num, ref, a, b):
    assert num.is_zero(a) == ref.is_zero(a)
    assert num.sign(a) == ref.sign(a)
    assert num.floor(a) == ref.floor(a)
    assert num.compare(a, b) == ref.compare(a, b)
    assert num.lo < num.hi


def product(factors):
    out = (Fraction(1),)
    for f in factors:
        out = poly_mul(out, poly_norm(f))
    return out


def test_enclosure_signs_on_a_reducible_polynomial():
    # (x - 1)(x^2 - 2): the rational root 1 and sqrt(2), with elements
    # that vanish at one root and not at the other
    poly = product([(-1, 1), (-2, 0, 1)])
    for lo, hi in isolating_intervals(poly):
        num, ref = AlgebraicNumber(poly, lo, hi), SturmSign(poly, lo, hi)
        elements = [num.element(c) for c in
                    ((-1, 1), (-2, 0, 1), (0, 1), (-3, 0, 2), (5, -7, 3), (0, 0, 1))]
        for a in elements:
            for b in elements:
                assert_same_answers(num, ref, a, b)
    num = AlgebraicNumber(poly, Fraction(3, 4), Fraction(5, 4))
    assert num.is_zero(num.element((-1, 1)))
    assert num.floor(num.element((-1, 1))) == 0
    assert num.floor(num.generator) == 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(small, min_size=2, max_size=3).filter(lambda f: f[-1] != 0),
                min_size=1, max_size=2),
       st.integers(min_value=0, max_value=3), queries)
def test_enclosure_signs_match_sturm_signs(factors, pick, ops):
    poly = product(factors)
    intervals = isolating_intervals(poly)
    assume(intervals)
    lo, hi = intervals[pick % len(intervals)]
    num, ref = AlgebraicNumber(poly, lo, hi), SturmSign(poly, lo, hi)
    # each factor vanishes at the root when the root is one of its roots
    vanishing = [num.element(f) for f in factors]
    for op, arg in ops:
        if op == "refine":
            num.refine(Fraction(1, 2 ** arg))
            ref.refine(Fraction(1, 2 ** arg))
            continue
        a = num.element(arg)
        for b in vanishing + [num.element(arg[::-1])]:
            assert_same_answers(num, ref, a, b)
            assert_same_answers(num, ref, b, a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(small, min_size=2, max_size=3)
                          .filter(lambda f: f[-1] != 0),
                          st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=2),
       st.integers(min_value=0, max_value=3),
       st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=16),
                min_size=2, max_size=6))
def test_one_chain_matches_squarefree_then_chain(factors, pick, points):
    # repeated factors make poly and poly' share a factor, so the chain of
    # poly alone ends in a nonconstant gcd
    poly = product([f for f, mult in factors for _ in range(mult)])
    intervals = isolating_intervals(poly)
    assume(intervals)
    lo, hi = intervals[pick % len(intervals)]
    num = AlgebraicNumber(poly, lo, hi)
    sf = squarefree_part(poly)
    chain = sturm_chain(sf)
    assert num._sf == sf
    ends = sorted({x for x in points + [lo, hi] if poly_eval(sf, x) != 0})
    for a in ends:
        for b in ends:
            if a < b:
                assert _chain_count(num._chain, a, b) == _chain_count(chain, a, b)
