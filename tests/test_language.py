import sys
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, AlphabetMismatchError, DigitStream,
                      EnumerationCapError, FiniteTypeSpec, HorizonExceededError,
                      NonGrowingSubstitutionError, Substitution, beta_oracle,
                      build_block_graph, complexity, format_word,
                      make_labeled_graph, minimal_forbidden, sft_oracle,
                      sofic_oracle, special_words, stepping_oracle,
                      subst_oracle)
from shiftlab import language


def test_alphabet_basics(alph2):
    assert len(alph2) == 2
    assert list(alph2) == ["0", "1"]
    assert "1" in alph2 and "2" not in alph2
    assert alph2.index("1") == 1
    assert alph2.word("010") == ("0", "1", "0")
    assert alph2.word(["0", "1"]) == ("0", "1")


def test_alphabet_rejects_junk():
    with pytest.raises(AlphabetMismatchError):
        Alphabet(())
    with pytest.raises(AlphabetMismatchError):
        Alphabet(("0", "0"))
    a = Alphabet(("0", "1"))
    with pytest.raises(AlphabetMismatchError):
        a.check_word(("0", "2"))


@settings(max_examples=100, deadline=None)
@given(st.permutations("abc"), st.integers(1, 3), st.permutations("abc"), st.integers(1, 3))
def test_alphabets_equal_exactly_when_their_symbols_are(first, m, second, n):
    a, b = Alphabet(tuple(first[:m])), Alphabet(tuple(second[:n]))
    same = first[:m] == second[:n]
    assert (a == b) is same and (a != b) is not same
    assert len({a, b}) == (1 if same else 2)
    if same:
        assert hash(a) == hash(b)
    assert a != tuple(first[:m])


def test_count_text_names_the_order_of_unprintable_counts():
    limit = sys.get_int_max_str_digits()
    assert language.count_text(10 ** limit - 1) == "9" * limit
    for e in (limit, limit + 1, 3 * limit):
        assert language.count_text(10 ** e) == "at least 10^%d" % e
        assert language.count_text(10 ** (e + 1) - 1) == "at least 10^%d" % e


def test_format_word():
    assert format_word(()) == "(empty)"
    assert format_word(("0", "1", "1")) == "011"
    assert format_word(("10", "0")) == "10.0"


def test_golden_complexity_is_fibonacci(golden_oracle):
    # p(n) for the golden mean shift follows the Fibonacci recurrence
    p = complexity(golden_oracle, 10)
    assert p == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


def test_complexity_of_the_empty_language_is_zero(alph2):
    empty = FiniteTypeSpec(alph2, frozenset([("0",), ("1",)]))
    assert complexity(sft_oracle(build_block_graph(empty), 5), 5) == [0] * 6
    none = stepping_oracle(alph2, None, lambda state, a: state, 4)
    assert complexity(none, 4) == [0] * 5


def test_words_sorted_and_factorial(golden_oracle):
    words = golden_oracle.words_of_length(5)
    assert words == tuple(sorted(words, key=golden_oracle.alphabet.key))
    allowed4 = set(golden_oracle.words_of_length(4))
    for w in words:
        assert w[:4] in allowed4 and w[1:] in allowed4


def test_oracle_horizon_guard(golden_oracle):
    with pytest.raises(HorizonExceededError):
        golden_oracle.contains(("0",) * 21)
    with pytest.raises(HorizonExceededError):
        golden_oracle.words_of_length(25)
    with pytest.raises(HorizonExceededError):
        complexity(golden_oracle, golden_oracle.max_reliable_length + 1)


def _counted(*args):
    raise AssertionError("counted although the bound is under the limit")


@settings(max_examples=60, deadline=None)
@given(st.sets(st.text(alphabet="012", min_size=1, max_size=3), max_size=4),
       st.integers(2, 4).flatmap(lambda n: st.tuples(
           st.just(n),
           st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("012"),
                             st.integers(0, n - 1))))),
       st.integers(0, 6), st.integers(1, 7), st.integers(1, 60))
@example(set(), (2, set()), 2, 4, 80)   # the full 3-shift: 81 words of length 4
@example(set(), (2, set()), 2, 4, 81)
def test_listing_refused_exactly_past_the_limit_random(forbidden, graph, low, n, limit):
    # the highest cached level bounds the count and decides only whether
    # to count; the exact count decides the refusal and is its message.
    # The limit is positive: the one word of length 0 is never refused
    alph = Alphabet(("0", "1", "2"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    states, edges = graph
    low = min(low, n - 1)  # a cached level n is returned as listed
    for oracle in (sft_oracle(build_block_graph(spec), 8),
                   sofic_oracle(make_labeled_graph(alph, tuple(range(states)), edges), 8)):
        known = len(oracle.words_of_length(low))
        count = complexity(oracle, n)[n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(language, "WORD_LIMIT", limit)
            if known * 3 ** (n - low) <= limit:
                mp.setattr(language, "complexity", _counted)
            if count > limit:
                with pytest.raises(EnumerationCapError) as refused:
                    oracle.words_of_length(n)
                assert str(refused.value) == ("%d words of length %d exceed the limit %d"
                                              % (count, n, limit))
            else:
                assert len(oracle.words_of_length(n)) == count


def test_refused_listing_builds_no_level():
    # 4^15 words: counted on the one state of the full 4-shift and refused
    alph = Alphabet(("0", "1", "2", "3"))
    oracle = sft_oracle(build_block_graph(FiniteTypeSpec(alph, frozenset())), 15)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError,
                           match=r"^1073741824 words of length 15 exceed the limit 1000000$"):
            oracle.words_of_length(15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_special_words_golden(golden_oracle):
    rep = special_words(golden_oracle, 1)
    # 0 extends both ways freely; 1 forces 0 on either side
    assert rep.left_special == (("0",),)
    assert rep.right_special == (("0",),)
    assert rep.bispecial == (("0",),)


def _special_by_sets(oracle, n):
    """(left, right, bispecial) special words of length ``n`` from the set
    of letters extending each word on either side: the definition."""
    left, right = {}, {}
    for u in oracle.words_of_length(n + 1):
        left.setdefault(u[1:], set()).add(u[0])
        right.setdefault(u[:-1], set()).add(u[-1])
    key = oracle.alphabet.key
    ls = tuple(sorted((w for w, ext in left.items() if len(ext) >= 2), key=key))
    rs = tuple(sorted((w for w, ext in right.items() if len(ext) >= 2), key=key))
    return ls, rs, tuple(sorted(set(ls) & set(rs), key=key))


def _drawn_oracles(forbidden, graph, images, horizon):
    """A finite-type, a sofic and (when it grows) a substitution oracle on
    {0, 1, 2} from raw draws."""
    alph = Alphabet(("0", "1", "2"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    states, edges = graph
    oracles = [sft_oracle(build_block_graph(spec), horizon),
               sofic_oracle(make_labeled_graph(alph, tuple(range(states)), edges), horizon)]
    try:
        tau = Substitution({a: tuple(w) for a, w in zip("012", images)}, "0")
    except NonGrowingSubstitutionError:
        return oracles
    return oracles + [subst_oracle(tau, horizon)]


_RAW_ORACLES = (
    st.sets(st.text(alphabet="012", min_size=1, max_size=3), max_size=4),
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("012"),
                          st.integers(0, n - 1))))),
    st.lists(st.text("012", min_size=1, max_size=3), min_size=3, max_size=3))


@settings(max_examples=60, deadline=None)
@given(*_RAW_ORACLES, st.integers(0, 6))
@example({"0", "1", "2"}, (1, set()), ["1", "2", "0"], 2)  # the empty language
def test_special_words_match_definition_random(forbidden, graph, images, n):
    for oracle in _drawn_oracles(forbidden, graph, images, 7):
        rep = special_words(oracle, n)
        assert rep.length == n
        assert ((rep.left_special, rep.right_special, rep.bispecial)
                == _special_by_sets(oracle, n))


@settings(max_examples=60, deadline=None)
@given(*_RAW_ORACLES, st.lists(st.integers(0, 7), max_size=10))
def test_listing_order_does_not_change_listings_random(forbidden, graph, images, lengths):
    # each level is built from the highest one cached below it, and only
    # the levels asked for are kept.  A substitution oracle's node ids
    # depend on how far its automaton has grown, so only the survivor-set
    # oracles' states are compared
    shared = _drawn_oracles(forbidden, graph, images, 7)
    for i, n in enumerate(lengths):
        fresh = _drawn_oracles(forbidden, graph, images, 7)
        for k, (oracle, alone) in enumerate(zip(shared, fresh)):
            assert oracle.words_of_length(n) == alone.words_of_length(n)
            if k < 2:
                assert oracle.frontier(n) == alone.frontier(n)
            assert set(oracle._cache) == {(c, m) for c in "LS" for m in lengths[:i + 1]}


@settings(max_examples=40, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=3), max_size=3),
       st.integers(min_value=1, max_value=6))
def test_factoriality_random_sft(forbidden, n):
    # every factor of an allowed word is allowed
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    oracle = sft_oracle(build_block_graph(spec), 8)
    shorter = set(oracle.words_of_length(n - 1))
    for w in oracle.words_of_length(n):
        assert w[:-1] in shorter and w[1:] in shorter


# ---- stepping oracles against brute forces from the definitions -------------

def _path_language(states, edges):
    """Membership in the shift a raw, possibly nondeterministic and
    unpruned, edge set presents: w labels a path from a state with a walk
    of length |states| into it to a state with a walk of that length out
    of it, so the path extends to a bi-infinite one."""
    def long_walks(ends):
        ok = set(states)
        for _ in range(len(states)):
            ok = {s for s in states if any(t in ok for t in ends.get(s, ()))}
        return ok

    succ, pred = {}, {}
    for s, _, t in edges:
        succ.setdefault(s, set()).add(t)
        pred.setdefault(t, set()).add(s)
    sources, sinks = long_walks(pred), long_walks(succ)

    def allowed(word):
        cur = sources
        for a in word:
            cur = {t for s, b, t in edges if s in cur and b == a}
        return bool(cur & sinks)

    return allowed


def _sft_language(symbols, forbidden):
    """Membership in X_F: paths on the graph of M-blocks (M the longest
    forbidden length) whose edges read a letter without completing a
    forbidden word."""
    m = max((len(f) for f in forbidden), default=1)
    states = list(product(symbols, repeat=m))
    edges = []
    for s in states:
        for a in symbols:
            window = s + (a,)
            if not any(window[i:i + len(f)] == f for f in forbidden
                       for i in range(len(window) - len(f) + 1)):
                edges.append((s, a, window[1:]))
    return _path_language(states, edges)


def _beta_language(digits):
    """Every suffix is at most the stream prefix of equal length."""
    def allowed(word):
        ints = tuple(int(a) for a in word)
        return all(ints[k:] <= tuple(digits[:len(ints) - k])
                   for k in range(len(ints)))
    return allowed


def _check_oracle(oracle, fresh, allowed, probes, n_max=8):
    symbols = oracle.alphabet.symbols
    counted = complexity(fresh, n_max)
    assert fresh._cache == {}
    mfw = {}
    for n in range(n_max + 1):
        words = tuple(w for w in product(symbols, repeat=n) if allowed(w))
        assert oracle.words_of_length(n) == words
        assert counted[n] == len(words)
        found = tuple(w for w in product(symbols, repeat=n)
                      if n >= 1 and not allowed(w)
                      and (n == 1 or (allowed(w[1:]) and allowed(w[:-1]))))
        if found:
            mfw[n] = found
    assert minimal_forbidden(fresh, n_max).by_length == mfw
    for word in probes:
        word = tuple(symbols[i % len(symbols)] for i in word)
        assert fresh.contains(word) == allowed(word)


_PROBES = st.lists(st.lists(st.integers(0, 2), max_size=8), max_size=20)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4),
       st.integers(2, 5).flatmap(lambda n: st.tuples(
           st.just(n),
           st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("01"),
                             st.integers(0, n - 1))))),
       st.integers(1, 2).flatmap(lambda d0: st.tuples(
           st.just(d0), st.lists(st.integers(0, d0), min_size=8, max_size=8))),
       _PROBES)
@example(set(), (2, set()), (1, [1] * 8), [[0, 1]])
@example({"0"}, (2, {(0, "1", 1), (1, "1", 0)}), (1, [0, 1, 1, 0, 0, 0, 0, 0]), [])
def test_stepping_oracles_match_brute_force_random(forbidden, graph, stream,
                                                   probes):
    # words_of_length, complexity, minimal_forbidden and contains, read off
    # each backend's start/step, agree with definitions on raw data
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    block = build_block_graph(spec)
    _check_oracle(sft_oracle(block, 8), sft_oracle(block, 8),
                  _sft_language(("0", "1"), spec.forbidden), probes)

    n, edges = graph
    g = make_labeled_graph(alph, tuple(range(n)), edges)
    _check_oracle(sofic_oracle(g, 8), sofic_oracle(g, 8),
                  _path_language(range(n), edges), probes)

    # truncated streams, admissible or not: the second example fails
    # validate_expansion, and so do most draws
    d0, tail = stream
    digits = (d0,) + tuple(tail)
    d = DigitStream(digits, "truncated")
    _check_oracle(beta_oracle(d, 8), beta_oracle(d, 8),
                  _beta_language(digits), probes)
