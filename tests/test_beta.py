import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab import (AlgebraicNumber, CannotCloseError, DigitStream, EnumerationCapError,
                      InsufficientDigitsError, UnsupportedSpecError,
                      WrongStatusError, beta_decimal,
                      beta_expand, beta_ls_diagnostic, beta_mfw, beta_oracle,
                      beta_presentation, beta_rational, example_betashift,
                      is_sft, language_equal_exact, parse_beta_spec,
                      sofic_entropy, star_expansion, stream_alphabet)
from shiftlab.beta import _expand_algebraic, _expand_rational

GOLDEN = (1 + math.sqrt(5)) / 2


def golden_beta():
    return parse_beta_spec("poly:x^2-x-1@[1.5,1.7]")


def test_digit_stream_basics():
    ep = DigitStream((2, 1), "eventually-periodic", 1, 1)
    assert [ep.digit(i) for i in range(5)] == [2, 1, 1, 1, 1]
    assert ep.known_length is None
    assert ep == DigitStream((2, 1), "eventually-periodic", 1, 1)
    assert ep != DigitStream((2, 1), "truncated")
    tr = DigitStream((1, 0, 1), "truncated")
    assert tr.known_length == 3
    with pytest.raises(InsufficientDigitsError):
        tr.digit(3)
    with pytest.raises(UnsupportedSpecError):
        DigitStream((1, 0), "eventually-periodic", 0, 1)


def test_golden_expansion_is_finite():
    exp = beta_expand(golden_beta(), 8)
    assert exp.status == "finite"
    assert exp.digits[:2] == (1, 1)
    star = exp.working_stream()
    assert star.status == "eventually-periodic"
    assert (star.preperiod, star.period) == (0, 2)
    assert star.prefix(6) == (1, 0, 1, 0, 1, 0)


def test_star_requires_finite():
    ep = beta_expand(parse_beta_spec("poly:x^2-3x+1@[2.5,2.7]"), 6)
    assert ep.status == "eventually-periodic"
    with pytest.raises(WrongStatusError):
        star_expansion(ep)


def test_integer_beta():
    exp = beta_expand(beta_rational(2), 4)
    assert exp.status == "finite"
    assert exp.digits == (2,)
    star = exp.working_stream()
    # starred stream (1)^inf puts the full 2-shift behind the expansion
    assert star.prefix(4) == (1, 1, 1, 1)
    assert stream_alphabet(star).symbols == ("0", "1")
    g = beta_presentation(star)
    assert sofic_entropy(g) == pytest.approx(math.log(2), abs=1e-12)


def test_beta_rational_rejects_small():
    with pytest.raises(UnsupportedSpecError):
        beta_rational(1)
    with pytest.raises(UnsupportedSpecError):
        beta_rational(Fraction(1, 2))


def test_golden_presentation_is_golden_sft(golden_graph):
    star = beta_expand(golden_beta(), 8).working_stream()
    g = beta_presentation(star)
    assert language_equal_exact(g, golden_graph)
    assert is_sft(g).is_sft
    assert sofic_entropy(g) == pytest.approx(math.log(GOLDEN), abs=1e-12)


def test_silver_like_beta_not_sft():
    # (3+sqrt(5))/2: expansion 2 1 1 1 ..., eventually periodic, not SFT
    beta = parse_beta_spec("poly:x^2-3x+1@[2.5,2.7]")
    exp = beta_expand(beta, 12)
    assert exp.status == "eventually-periodic"
    assert (exp.preperiod, exp.period) == (1, 1)
    assert exp.digits[:4] == (2, 1, 1, 1)
    stream = exp.working_stream()
    assert not is_sft(beta_presentation(stream)).is_sft
    rep = beta_ls_diagnostic(stream, 24)
    assert rep.verdict == "unstable-evidence"


def test_beta_oracle_and_language():
    star = beta_expand(golden_beta(), 8).working_stream()
    oracle = beta_oracle(star, 8)
    assert oracle.contains(("1", "0", "1"))
    assert not oracle.contains(("1", "1"))
    words = oracle.words_of_length(3)
    assert ("1", "0", "1") in words
    assert len(words) == 5


def test_beta_mfw_golden():
    star = beta_expand(golden_beta(), 10).working_stream()
    table = beta_mfw(star, 8)
    assert table.by_length == {2: (("1", "1"),)}


def test_beta_mfw_silver_like():
    beta = parse_beta_spec("poly:x^2-3x+1@[2.5,2.7]")
    stream = beta_expand(beta, 16).working_stream()
    table = beta_mfw(stream, 6)
    # 22 tops the stream immediately; longer blocks must drop below 2 1^k
    assert ("2", "2") in table.by_length[2]
    assert all(w[0] == "2" for n in table.by_length for w in table.by_length[n])


def test_decimal_engine_matches_rational():
    digits_dec = beta_expand(beta_decimal("2.5"), 10).digits
    digits_rat = beta_expand(beta_rational(Fraction(5, 2)), 10).digits
    assert digits_dec == digits_rat


def test_decimal_engine_status():
    exp = beta_expand(beta_decimal("1.8"), 12)
    assert exp.status == "truncated"
    assert len(exp.digits) == 12
    assert exp.digits[0] == 1


def interval_expansion(literal, n):
    """Reference: the decimal engine before it worked in integers.  Every
    floor is certified by mpmath interval arithmetic, and the whole pass
    reruns at doubled precision while some floor straddles an integer."""
    iv = mpmath.iv
    prec = 64
    while prec <= 1 << 16:
        saved = iv.prec
        try:
            iv.prec = prec
            beta = iv.mpf(literal)
            x = iv.mpf(1)
            digits = []
            for _ in range(n):
                y = beta * x
                flo = int(mpmath.floor(y.a))
                if flo != int(mpmath.floor(y.b)):
                    break
                digits.append(flo)
                x = y - flo
            else:
                return digits, "truncated", 0, 0
        finally:
            iv.prec = saved
        prec *= 2
    raise AssertionError("no certified floors for %r" % (literal,))


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"\d{1,2}(\.\d{1,6})?", fullmatch=True),
       st.integers(min_value=1, max_value=128))
def test_decimal_engine_matches_interval_engine(literal, n):
    assume(Fraction(literal) > 1)
    expansion = beta_expand(beta_decimal(literal), n)
    reference = interval_expansion(literal, n)[0]
    assert list(expansion.digits) == reference[:len(expansion.digits)]
    # an integer literal's expansion ends after its one digit
    assert (expansion.status == "finite") == (Fraction(literal).denominator == 1)


def test_decimal_integer_and_trailing_zeros():
    exp = beta_expand(beta_decimal("3"), 5)
    assert exp == beta_expand(beta_rational(3), 5)
    assert exp.digits == (3,)
    assert exp.status == "finite"
    # the full 3-shift: its working stream is 2, 2, 2, ...
    assert stream_alphabet(exp.working_stream()).symbols == ("0", "1", "2")
    assert (beta_expand(beta_decimal("2.50"), 40).digits
            == beta_expand(beta_decimal("2.5"), 40).digits)


def test_long_decimal_expansion_is_greedy():
    beta = Fraction("1.8")
    digits = beta_expand(beta_decimal("1.8"), 3000).digits
    assert len(digits) == 3000
    x = Fraction(1)
    for d in digits:
        y = beta * x
        assert d <= y < d + 1
        x = y - d


def test_truncated_stream_cannot_close():
    with pytest.raises(CannotCloseError):
        beta_presentation(DigitStream((1, 1, 0), "truncated"))
    with pytest.raises(InsufficientDigitsError):
        beta_oracle(DigitStream((1, 1, 0), "truncated"), 10)


def test_example_betashift():
    stream = example_betashift("specified", 2)
    assert stream.status == "truncated"
    assert stream.known_length == 22
    rep = beta_ls_diagnostic(stream, 22)
    assert rep.verdict == "stable-evidence"
    with pytest.raises(UnsupportedSpecError):
        example_betashift("other", 2)


def test_example_betashift_length_is_sized_first():
    # |w_{k+1}| = 2|w_k| + |u_k|, |u_{k+1}| = |u_k| + 1 from |w_0| = |u_0| = 3
    length, separator = 3, 3
    for steps in range(8):
        for mode in ("specified", "synchronized"):
            assert len(example_betashift(mode, steps).digits) == length
        length, separator = 2 * length + separator, separator + 1
    # 14,680,039 digits pass 10 * WORD_LIMIT; no digit is built
    with pytest.raises(EnumerationCapError,
                       match=r"^14680039 digits after 21 steps exceed the limit 10000000$"):
        example_betashift("specified", 21)


def test_parse_beta_spec_forms():
    assert parse_beta_spec("rational:5/2") == Fraction(5, 2)
    assert parse_beta_spec("1.8") == Fraction(9, 5)
    assert isinstance(parse_beta_spec("poly:x^2-x-1@[1.5,1.7]"), AlgebraicNumber)
    with pytest.raises(UnsupportedSpecError):
        parse_beta_spec("poly:x^2-x-1")


def fraction_expansion(beta, n):
    """Reference: the rational engine before it worked in integers, with
    every orbit point a Fraction and a table of the points seen."""
    x = Fraction(1)
    seen = {x: 0}
    digits = []
    for step in range(n):
        y = beta * x
        d = y.numerator // y.denominator
        digits.append(d)
        x = y - d
        if x == 0:
            return digits, "finite", 0, 0
        j = seen.get(x)
        if j is not None:
            return digits, "eventually-periodic", j, step + 1 - j
        seen[x] = step + 1
    return digits, "truncated", 0, 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data(),
       st.integers(min_value=1, max_value=80))
def test_integer_rational_engine_matches_fractions(q, data, n):
    p = data.draw(st.integers(min_value=q + 1, max_value=12 * q)
                  .filter(lambda p: math.gcd(p, q) == 1))
    beta = Fraction(p, q)
    assert list(_expand_rational(beta, n)) == list(fraction_expansion(beta, n))


def test_rational_betas_are_finite_only_at_integers():
    # Parry: a non-integer rational is no algebraic integer, so its
    # expansion of 1 neither ends nor repeats
    statuses = {}
    for q in range(1, 51):
        for p in range(q + 1, 12 * q + 1):
            if math.gcd(p, q) == 1:
                statuses[Fraction(p, q)] = beta_expand(beta_rational(Fraction(p, q)), 60).status
    assert len(statuses) == 8514
    finite = sorted(b for b, s in statuses.items() if s == "finite")
    assert finite == list(range(2, 13))
    assert all(s == "truncated" for b, s in statuses.items() if b.denominator > 1)


def trail_scan_expansion(num, n):
    """Reference: the algebraic engine before enclosures, which tests every
    earlier residue exactly whenever the residue tuple is new."""
    beta_el = num.generator
    x = num.from_rational(1)
    seen = {x: 0}
    trail = [x]
    digits = []
    for step in range(n):
        y = num.mul(beta_el, x)
        d = num.floor(y)
        digits.append(d)
        x = num.sub(y, num.from_rational(d))
        if num.is_zero(x):
            return digits, "finite", 0, 0
        j = seen.get(x)
        if j is None:
            for k, prev in enumerate(trail):
                if num.is_zero(num.sub(x, prev)):
                    j = k
                    break
        if j is not None:
            return digits, "eventually-periodic", j, step + 1 - j
        seen[x] = step + 1
        trail.append(x)
    return digits, "truncated", 0, 0


@pytest.mark.parametrize("spec, n", [
    ("poly:x^2-x-3@[2.3,2.31]", 64),          # not Pisot: truncated
    ("poly:x^3-8x^2+16x-5@[2.5,2.7]", 24),   # (x^2-3x+1)(x-5): a revisit
    ("poly:x^3-x-1@[1.3,1.4]", 40),           # smallest Pisot number
    ("poly:x^3-x^2-x-1@[1.8,1.9]", 24),       # tribonacci: finite
])
def test_enclosure_trail_matches_trail_scan(spec, n):
    got = _expand_algebraic(parse_beta_spec(spec), n)
    assert got == trail_scan_expansion(parse_beta_spec(spec), n)


def test_reducible_polynomial_revisit_is_found_by_value():
    # the residue tuples differ mod the cubic, but the values repeat
    exp = beta_expand(parse_beta_spec("poly:x^3-8x^2+16x-5@[2.5,2.7]"), 8)
    assert exp.status == "eventually-periodic"
    assert (exp.preperiod, exp.period) == (1, 1)
    assert exp.digits == (2, 1, 1, 1, 1, 1, 1, 1)
