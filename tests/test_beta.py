import math
from fractions import Fraction

import pytest

from shiftlab import (CannotCloseError, DigitStream, InsufficientDigitsError,
                      UnsupportedSpecError, WrongStatusError, beta_decimal,
                      beta_expand, beta_ls_diagnostic, beta_mfw, beta_oracle,
                      beta_presentation, beta_rational, example_betashift,
                      is_sft, language_equal_exact, parse_beta_spec,
                      sofic_entropy, star_expansion, stream_alphabet)

GOLDEN = (1 + math.sqrt(5)) / 2


def golden_beta():
    return parse_beta_spec("poly:x^2-x-1@[1.5,1.7]")


def test_digit_stream_basics():
    ep = DigitStream("eventually-periodic", (2, 1), 1, 1)
    assert [ep.digit(i) for i in range(5)] == [2, 1, 1, 1, 1]
    assert ep.known_length is None
    tr = DigitStream("truncated", (1, 0, 1))
    assert tr.known_length == 3
    with pytest.raises(InsufficientDigitsError):
        tr.digit(3)
    with pytest.raises(UnsupportedSpecError):
        DigitStream("eventually-periodic", (1, 0), 0, 1)


def test_golden_expansion_is_finite():
    exp = beta_expand(golden_beta(), 8)
    assert exp.status == "finite"
    assert exp.digits[:2] == (1, 1)
    star = exp.working_stream()
    assert star.kind == "eventually-periodic"
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


def test_truncated_stream_cannot_close():
    with pytest.raises(CannotCloseError):
        beta_presentation(DigitStream("truncated", (1, 1, 0)))
    with pytest.raises(InsufficientDigitsError):
        beta_oracle(DigitStream("truncated", (1, 1, 0)), 10)


def test_example_betashift():
    stream = example_betashift("specified", 2)
    assert stream.kind == "truncated"
    assert stream.known_length == 22
    rep = beta_ls_diagnostic(stream, 22)
    assert rep.verdict == "stable-evidence"
    with pytest.raises(UnsupportedSpecError):
        example_betashift("other", 2)


def test_parse_beta_spec_forms():
    assert parse_beta_spec("rational:5/2").rational == Fraction(5, 2)
    assert parse_beta_spec("1.8").kind == "decimal"
    assert parse_beta_spec("poly:x^2-x-1@[1.5,1.7]").kind == "algebraic"
    with pytest.raises(UnsupportedSpecError):
        parse_beta_spec("poly:x^2-x-1")
