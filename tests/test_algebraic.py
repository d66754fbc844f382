from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab import AlgebraicNumber, UnsupportedSpecError
from shiftlab.algebraic import count_roots, poly_eval

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


def test_root_float():
    assert abs(phi().root_float() - 1.618033988749895) < 1e-12


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
