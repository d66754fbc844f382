import itertools
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, FiniteTypeSpec, HorizonExceededError,
                      InducedSpec, InfeasibleSetError, LanguageOracle,
                      NonGrowingSubstitutionError, ReturnTimeCapError,
                      Substitution, UnsupportedSpecError, bispecial_lengths,
                      build_block_graph, cassaigne_profile, complexity,
                      document_from_object, format_word, induce_recode,
                      induced_data, ls_report, make_labeled_graph,
                      minimal_forbidden, minimal_forbidden_lengths, realize,
                      sft_oracle, sofic_oracle, special_words,
                      speedup_gap_compare, subst_oracle)
from shiftlab import cli, dynamics
from shiftlab.dynamics import _coded_levels, _factor_levels, rebase


def test_substitution_validation():
    with pytest.raises(NonGrowingSubstitutionError):
        Substitution({"0": ("1",), "1": ("0",)}, "0")
    with pytest.raises(NonGrowingSubstitutionError):
        Substitution({"0": ()}, "0")
    with pytest.raises(UnsupportedSpecError):
        Substitution({"0": ("0", "1")}, "0")
    with pytest.raises(UnsupportedSpecError):
        Substitution({"0": ("0", "0")}, "1")


def _grows_by_definition(rules, seed):
    """Some letter reachable from a cycle of the occurrence graph, the
    cycle reachable from the seed, has an image longer than one letter."""
    def reach(starts):
        seen, todo = set(), list(starts)
        while todo:
            a = todo.pop()
            if a not in seen:
                seen.add(a)
                todo.extend(rules[a])
        return seen
    on_cycle = {a for a in reach([seed]) if a in reach(rules[a])}
    return any(len(rules[a]) > 1 for a in reach(on_cycle))


@settings(max_examples=300, deadline=None)
@example(draw=("abc", ["b", "c", "cc"], "a"))  # growth only from the third step
@example(draw=("ab", ["bb", "b"], "a"))  # a long image the iterates leave behind
@given(draw=st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just("abcdef"[:n]),
    st.lists(st.text("abcdef"[:n], min_size=1, max_size=3), min_size=n, max_size=n),
    st.sampled_from("abcdef"[:n]))))
def test_substitution_growth_matches_definition(draw):
    letters, images, seed = draw
    rules = {a: tuple(w) for a, w in zip(letters, images)}
    try:
        Substitution(rules, seed)
        grows = True
    except NonGrowingSubstitutionError:
        grows = False
    assert grows == _grows_by_definition(rules, seed)


def test_growth_through_transient():
    # seed letter maps away once; growth lives in the recurring part
    tau = Substitution({"s": ("a",), "a": ("a", "b"), "b": ("a",)}, "s")
    assert len(subst_oracle(tau, 4).words_of_length(4)) > 0


def test_fib_language(fib):
    words = subst_oracle(fib, 3).words_of_length(3)
    assert words == (("0", "0", "1"), ("0", "1", "0"),
                     ("1", "0", "0"), ("1", "0", "1"))
    assert subst_oracle(fib, 0).words_of_length(0) == ((),)


def test_fib_complexity_linear(fib):
    oracle = subst_oracle(fib, 12)
    assert complexity(oracle, 12) == [1] + [n + 1 for n in range(1, 13)]


def test_fib_cassaigne_profile(fib):
    profile = cassaigne_profile(subst_oracle(fib, 16), 15)
    assert profile.differences == (1,) * 15
    assert profile.liminf_evidence == 1


def test_fib_bispecial_lengths(fib):
    assert bispecial_lengths(subst_oracle(fib, 7), 6) == (0, 1, 3, 6)


def enumerated_bispecial_lengths(oracle, n_max):
    """The reference for bispecial_lengths: the lengths up to n_max whose
    enumerated special words include a bispecial one."""
    oracle.check_horizon(n_max + 1)
    return tuple(n for n in range(n_max + 1)
                 if special_words(oracle, n).bispecial)


def test_bispecial_lengths_horizon_and_empty_language(fib):
    oracle = subst_oracle(fib, 7)
    with pytest.raises(HorizonExceededError):
        bispecial_lengths(oracle, 7)
    assert bispecial_lengths(sofic_oracle(make_labeled_graph(
        Alphabet(("0",)), ("s",), ()), 4), 3) == ()


@settings(max_examples=40, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4),
       st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.just(n),
           st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("012"),
                             st.integers(0, n - 1))))))
def test_bispecial_lengths_match_enumeration_sft_sofic(forbidden, graph):
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    block = build_block_graph(spec)
    assert (bispecial_lengths(sft_oracle(block, 8), 7)
            == enumerated_bispecial_lengths(sft_oracle(block, 8), 7))
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1", "2")), tuple(range(n)), edges)
    assert (bispecial_lengths(sofic_oracle(g, 8), 7)
            == enumerated_bispecial_lengths(sofic_oracle(g, 8), 7))


def test_fib_mfw_lengths_are_fibonacci(fib):
    table = minimal_forbidden(subst_oracle(fib, 14), 13)
    assert table.lengths == (2, 3, 5, 8, 13)
    assert table.by_length[2] == (("1", "1"),)
    assert table.by_length[3] == (("0", "0", "0"),)


def test_run_doubler_mfw(run_doubler):
    # 0 1^m 0 is allowed iff the run length m is a power of two
    oracle = subst_oracle(run_doubler, 13)
    table = minimal_forbidden(oracle, 12)
    assert table.lengths == (2, 5, 7, 8, 9, 11, 12)
    assert ("0", "0") in table.by_length[2]
    assert ("0", "1", "1", "1", "0") in table.by_length[5]
    assert oracle.contains(("0", "1", "0"))
    assert oracle.contains(("0", "1", "1", "0"))
    assert oracle.contains(("0",) + ("1",) * 4 + ("0",))
    assert not oracle.contains(("0",) + ("1",) * 5 + ("0",))


def golden_base(horizon):
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset([("1", "1")]))
    return sft_oracle(build_block_graph(spec), horizon)


def test_induced_constant_rho_identity():
    # rho == 1 re-reads the same shift through 3-windows
    base = golden_base(40)
    spec = InducedSpec(base, 1, None, 1)
    letters, rho = induced_data(spec)
    assert len(letters) == 5
    assert set(rho.values()) == {1}
    induced = induce_recode(spec, 7)
    p_base = complexity(base, 9)
    p_ind = complexity(induced, 7)
    assert p_ind == [1] + p_base[3:]


def test_induced_constant_rho_two():
    alph = Alphabet(("0", "1"))
    base = sft_oracle(build_block_graph(FiniteTypeSpec(alph, frozenset())), 30)
    spec = InducedSpec(base, 1, None, 2)
    induced = induce_recode(spec, 3)
    assert complexity(induced, 3) == [1, 8, 32, 128]


def test_first_return_golden():
    base = golden_base(40)
    clopen = frozenset(w for w in base.words_of_length(3) if w[1] == "0")
    spec = InducedSpec(base, 1, clopen, "first-return", 8)
    letters, rho = induced_data(spec)
    assert rho == {("0", "0", "0"): 1, ("0", "0", "1"): 2,
                   ("1", "0", "0"): 1, ("1", "0", "1"): 2}
    induced = induce_recode(spec, 6)
    assert complexity(induced, 6) == [1, 4, 8, 16, 32, 64, 128]


def test_first_return_needs_constant_time():
    # forbid 111: returns to {x_1 = 0} from 001 take 2 or 3 steps, all
    # bounded, so the disagreement is what surfaces
    alph = Alphabet(("0", "1"))
    forb = frozenset([("1", "1", "1")])
    base = sft_oracle(build_block_graph(FiniteTypeSpec(alph, forb)), 30)
    clopen = frozenset(w for w in base.words_of_length(3) if w[1] == "0")
    spec = InducedSpec(base, 1, clopen, "first-return", 8)
    with pytest.raises(UnsupportedSpecError):
        induced_data(spec)


def test_first_return_cap():
    # in the full shift the tail 111... never comes back to {x_1 = 0},
    # so the cap must fire rather than an unbounded scan
    alph = Alphabet(("0", "1"))
    base = sft_oracle(build_block_graph(FiniteTypeSpec(alph, frozenset())), 30)
    clopen = frozenset(w for w in base.words_of_length(3) if w[1] == "0")
    spec = InducedSpec(base, 1, clopen, "first-return", 8)
    with pytest.raises(ReturnTimeCapError):
        induced_data(spec)


def test_induced_clopen_must_meet_language():
    base = golden_base(30)
    spec = InducedSpec(base, 1, frozenset([("1", "1", "1")]), 1)
    with pytest.raises(InfeasibleSetError):
        induced_data(spec)


def test_induced_horizon_guard():
    base = golden_base(12)
    spec = InducedSpec(base, 1, None, 2)
    with pytest.raises(HorizonExceededError):
        induce_recode(spec, 10)


def test_induced_data_is_resolved_once_per_spec():
    base = golden_base(40)
    clopen = frozenset(w for w in base.words_of_length(3) if w[1] == "0")
    spec = InducedSpec(base, 1, clopen, "first-return", 8)
    assert induced_data(spec) is induced_data(spec)


# the induced document of the README
README_INDUCED_DOC = {"kind": "induced",
                      "base": {"kind": "finite-type", "alphabet": ["0", "1"],
                               "forbidden": ["11"]},
                      "window": 1, "clopen": ["000", "001", "100", "101"],
                      "return_rule": "first-return"}


@pytest.mark.parametrize("command, doc", [
    ("induce", README_INDUCED_DOC), ("speedup-compare", README_INDUCED_DOC),
    ("complexity", README_INDUCED_DOC),
    # the probe reads 3 + 10 base letters, horizon 6 needs 19: two realizations
    ("induce", dict(README_INDUCED_DOC, cap=10)),
], ids=["induce", "speedup-compare", "complexity", "induce-longer-base"])
def test_induced_report_resolves_return_times_once(tmp_path, monkeypatch, capsys,
                                                   command, doc):
    calls = []
    resolve = dynamics._resolve_first_return

    def counted(spec, letters):
        calls.append(spec)
        return resolve(spec, letters)
    monkeypatch.setattr(dynamics, "_resolve_first_return", counted)
    path = tmp_path / "induced.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path), "--horizon", "6"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_speedup_gap_compare_fib(fib):
    base = subst_oracle(fib, 44)
    clopen = frozenset(w for w in base.words_of_length(3) if w[1] == "0")
    spec = InducedSpec(base, 1, clopen, "first-return", 8)
    rep = speedup_gap_compare(base, spec, 20)
    assert rep.base_ls.ls_set == (2, 3, 5, 8, 13)
    assert rep.induced_ls.ls_set == (2, 4, 7, 12)
    assert rep.min_rho == 1 and rep.max_rho == 2
    assert all(row["satisfied"] for row in rep.rows)
    witnesses = [(row["induced_pair"], row["witness"]) for row in rep.rows]
    assert witnesses == [((2, 4), (2, 3)), ((4, 7), (3, 8)), ((7, 12), (8, 13))]
    assert "not verified" in rep.note


def test_subst_language_stops_on_stability(run_doubler):
    # two stable iterations are demanded, not one: 11110 shows up late
    words = subst_oracle(run_doubler, 5).words_of_length(5)
    assert ("1", "1", "1", "1", "0") in words


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=5))
def test_induced_rho_one_matches_base_window(fib, n):
    # over any base, rho == 1 induction shifts complexity by the window
    base = subst_oracle(fib, 30)
    spec = InducedSpec(base, 1, None, 1)
    induced = induce_recode(spec, n)
    assert complexity(induced, n)[n] == complexity(base, n + 2)[n + 2]


SHORT_WORDS = st.lists(st.text("01", min_size=1, max_size=3), max_size=3)


@settings(max_examples=100, deadline=None)
@example(forbidden=["110"], window=0, clopen=None, rule=2, probes=[])  # two base states
@given(forbidden=SHORT_WORDS, window=st.integers(0, 1),
       clopen=st.one_of(st.none(), st.sets(st.text("01", min_size=3, max_size=3), min_size=1)),
       rule=st.one_of(st.integers(1, 3), st.just("first-return"),
                      st.lists(st.integers(1, 3), min_size=8, max_size=8)),
       probes=st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=6))
def test_induced_oracle_matches_realization_search(realized_superwords, forbidden, window,
                                                    clopen, rule, probes):
    alph = Alphabet(("0", "1"))
    graph = build_block_graph(FiniteTypeSpec(alph, frozenset(tuple(w) for w in forbidden)))
    base = sft_oracle(graph, 30)
    width = 2 * window + 1
    windows = list(itertools.product("01", repeat=width))
    if clopen is not None:  # the middle 2N+1 letters of each 3-letter draw
        clopen = frozenset(tuple(w[1 - window:2 + window]) for w in clopen)
    if isinstance(rule, list):
        rule = dict(zip(windows, rule))
    spec = InducedSpec(base, window, clopen, rule, 6)
    try:
        letters, rho = induced_data(spec)
    except (InfeasibleSetError, ReturnTimeCapError, UnsupportedSpecError):
        return
    realized = realized_superwords(spec, letters, rho, 4)
    induced = induce_recode(spec, 4)
    symbols = induced.alphabet.symbols
    by_symbol = dict(zip(symbols, letters))
    for n in range(5):
        got = {tuple(by_symbol[s] for s in w) for w in induced.words_of_length(n)}
        assert got == {w for w in realized if len(w) == n}
    levels = [{w for w in realized if len(w) == n} for n in range(5)]
    assert complexity(induce_recode(spec, 4), 4) == [len(l) for l in levels]
    assert (bispecial_lengths(induce_recode(spec, 4), 3)
            == enumerated_bispecial_lengths(induce_recode(spec, 4), 3))
    fresh = induce_recode(spec, 4)
    for probe in probes:
        word = tuple(symbols[i % len(symbols)] for i in probe)
        assert fresh.contains(word) == (tuple(by_symbol[s] for s in word) in realized)


# The brute force below reads the iterates as strings.  Over every 2- and
# 3-letter substitution with images of 1 to 3 letters, each subword of
# length <= 6 of some iterate turns up in an iterate of at most 215,125
# letters and within 14 steps (an exhaustive search), so these bounds
# leave room.
ITERATE_STEPS = 16
ITERATE_LETTERS = 2 ** 18


def _iterates(tau):
    """The seed's iterates, up to the 16th or the first longer than 2^18."""
    table = str.maketrans({a: "".join(w) for a, w in tau.rules.items()})
    out = [tau.seed]
    while len(out) <= ITERATE_STEPS and len(out[-1]) <= ITERATE_LETTERS:
        out.append(out[-1].translate(table))
    return out


def _occurs(word, iterates):
    s = "".join(word)
    return any(s in u for u in iterates)


def _brute_levels(tau, h):
    """Length-n subwords of the iterates for n <= h, one letter at a time:
    a subword's prefix is a subword, so extending the level below finds
    every word of the next."""
    iterates = _iterates(tau)
    levels = [{()}]
    for _ in range(h):
        levels.append({w + (a,) for w in levels[-1] for a in tau.rules
                       if _occurs(w + (a,), iterates)})
    return levels


# (letters, images, seed); non-primitive rules come up often, and the
# tests skip draws whose iterates stay bounded
SUBSTITUTION_DRAWS = st.sampled_from(("ab", "abc")).flatmap(
    lambda letters: st.tuples(
        st.just(letters),
        st.lists(st.text(letters, min_size=1, max_size=3),
                 min_size=len(letters), max_size=len(letters)),
        st.sampled_from(letters)))


def _substitution(draw):
    letters, images, seed = draw
    try:
        return Substitution({a: tuple(w) for a, w in zip(letters, images)}, seed)
    except NonGrowingSubstitutionError:
        return None


@settings(max_examples=150, deadline=None)
@example(draw=("ab", ["ba", "b"], "a"), h=3)  # "ba" only ever ends an iterate
@example(draw=("abc", ["bc", "bc", "cb"], "a"), h=2)  # the seed leaves for good
@given(draw=SUBSTITUTION_DRAWS, h=st.integers(0, 5))
def test_factor_levels_match_iterates(draw, h):
    tau = _substitution(draw)
    if tau is None:
        return
    levels = _factor_levels(tau, h)
    assert len(levels) == h + 1
    assert (bispecial_lengths(subst_oracle(tau, h + 1), h)
            == enumerated_bispecial_lengths(subst_oracle(tau, h + 1), h))
    iterates = _iterates(tau)
    early = [tuple(u) for u in iterates if len(u) <= 64]
    for n, level in enumerate(levels):
        for u in early:
            assert {u[i:i + n] for i in range(len(u) - n + 1)} <= level
        assert all(_occurs(w, iterates) for w in level)


def test_factor_levels_keep_a_seed_no_image_contains():
    tau = Substitution({"a": ("b", "c"), "b": ("b", "c"), "c": ("c", "b")}, "a")
    assert all(("a",) in _factor_levels(tau, h)[1] for h in range(1, 5))
    assert subst_oracle(tau, 8).words_of_length(1) == (("a",), ("b",), ("c",))


def test_subst_oracle_slow_stabilizer():
    # the c-runs lengthen by one per step while the iterates triple, so a
    # rule that waits for the length-10 subwords to settle iterates long
    tau = Substitution({"a": ("b", "b"), "b": ("c", "a", "b"), "c": ("c",)}, "a")
    words = ["".join(w) for w in subst_oracle(tau, 16).words_of_length(10)]
    assert words == SLOW_STABILIZER_10


def test_fibonacci_ls_set_at_horizon_150(fib):
    report = ls_report(minimal_forbidden(subst_oracle(fib, 151), 150))
    assert report.ls_set == (2, 3, 5, 8, 13, 21, 34, 55, 89, 144)


def test_doubling_runs_at_horizon_64(run_doubler):
    # criterion 11's pattern, far past the acceptance horizon of 20
    table = minimal_forbidden(subst_oracle(run_doubler, 64), 64).by_length
    powers = {1, 2, 4, 8, 16, 32}
    for m in range(63):
        word = ("0",) + ("1",) * m + ("0",)
        assert (word in table.get(m + 2, ())) == (m not in powers)


def test_subst_oracle_cost_follows_the_length_stepped(fib):
    # a horizon of 10^6 must not build the levels out to 10^6
    words = subst_oracle(fib, 10 ** 6).words_of_length(4)
    assert ["".join(w) for w in words] == ["0010", "0100", "0101", "1001", "1010"]


SLOW_STABILIZER_10 = [
    "abcabcbbca", "abcbbcabcc", "abccabcabc", "abccbbcabc", "abcccabcab",
    "abcccbbcab", "abccccabca", "abccccbbca", "abcccccabc", "abcccccbbc",
    "abccccccab", "abccccccbb", "abccccccca", "abcccccccb", "abcccccccc",
    "bbcabcbbca", "bbcabccabc", "bbcabccbbc", "bbcabcccab", "bbcabcccbb",
    "bbcabcccca", "bbcabccccb", "bbcabccccc", "bcabcbbcab", "bcabccabca",
    "bcabccbbca", "bcabcccabc", "bcabcccbbc", "bcabccccab", "bcabccccbb",
    "bcabccccca", "bcabcccccb", "bcabcccccc", "bcbbcabcca", "bcbbcabccb",
    "bcbbcabccc", "bccabcabcb", "bccbbcabcb", "bcccabcabc", "bcccbbcabc",
    "bccccabcab", "bccccbbcab", "bcccccabca", "bcccccbbca", "bccccccabc",
    "bccccccbbc", "bcccccccab", "bcccccccbb", "bcccccccca", "bccccccccb",
    "bccccccccc", "cabcabcbbc", "cabcbbcabc", "cabccabcab", "cabccbbcab",
    "cabcccabca", "cabcccbbca", "cabccccabc", "cabccccbbc", "cabcccccab",
    "cabcccccbb", "cabcccccca", "cabccccccb", "cabccccccc", "cbbcabcbbc",
    "cbbcabccab", "cbbcabccbb", "cbbcabccca", "cbbcabcccb", "cbbcabcccc",
    "ccabcabcbb", "ccbbcabcbb", "cccabcabcb", "cccbbcabcb", "ccccabcabc",
    "ccccbbcabc", "cccccabcab", "cccccbbcab", "ccccccabca", "ccccccbbca",
    "cccccccabc", "cccccccbbc", "ccccccccab", "ccccccccbb", "ccccccccca",
    "cccccccccb", "cccccccccc",
]


@settings(max_examples=40, deadline=None)
@given(draw=SUBSTITUTION_DRAWS)
def test_subst_oracle_matches_subst_language(draw):
    """The oracle against the brute force over the iterates, at every
    length up to its horizon (each doubling of its levels is a rebuild)."""
    tau = _substitution(draw)
    if tau is None:
        return
    oracle = subst_oracle(tau, 6)
    key = tau.alphabet.key
    levels = _brute_levels(tau, 6)
    assert complexity(subst_oracle(tau, 6), 6) == [len(l) for l in levels]
    for n, level in enumerate(levels):
        assert list(oracle.words_of_length(n)) == sorted(level, key=key)


def _coded(tau, word):
    """``word`` in the coding of ``_coded_levels``."""
    code, _ = dynamics._coding(tau)
    return "".join(code[a] for a in word)


@settings(max_examples=80, deadline=None)
@example(draw=("ab", ["ba", "b"], "a"))
@given(draw=SUBSTITUTION_DRAWS)
def test_grown_levels_match_levels_built_at_once(draw):
    """One oracle at horizon 24, walked through every length, grows at
    heights 2, 6, 14 and 24; after each length, the states it holds for
    every lower level step to exactly the level above, as read down from
    that height."""
    tau = _substitution(draw)
    if tau is None:
        return
    letters = tau.alphabet.symbols
    oracle = subst_oracle(tau, 24)
    for h in range(1, 25):
        oracle.words_of_length(h)
        levels = _coded_levels(tau, h)
        for n in range(h):
            words, states = oracle.frontier(n)
            assert {_coded(tau, w) for w in words} == levels[n]
            stepped = {_coded(tau, w + (a,)) for w, q in zip(words, states)
                       for a in letters if oracle.step(q, a) is not None}
            assert stepped == levels[n + 1]
    assert {_coded(tau, w) for w in oracle.words_of_length(24)} == levels[24]


def _walk(oracle, state, d):
    """Every continuation of length ``d`` that ``state`` reads."""
    level = [((), state)]
    for _ in range(d):
        level = [(u + (a,), after) for u, q in level for a in oracle.alphabet
                 if (after := oracle.step(q, a)) is not None]
    return {u for u, _ in level}


@settings(max_examples=80, deadline=None)
@example(draw=("ab", ["ba", "b"], "a"), n=2)
@given(draw=SUBSTITUTION_DRAWS, n=st.integers(0, 5))
def test_held_states_survive_growth(draw, n):
    """States taken from ``frontier(n)`` before the oracle grows to 14
    read, after it, the same continuations as a fresh oracle's words."""
    tau = _substitution(draw)
    if tau is None:
        return
    oracle = subst_oracle(tau, 14)
    held = oracle.frontier(n)
    oracle.words_of_length(14)
    walked = {w + u for w, q in zip(*held) for u in _walk(oracle, q, 14 - n)}
    assert walked == set(subst_oracle(tau, 14).words_of_length(14))


@settings(max_examples=60, deadline=None)
@given(draw=SUBSTITUTION_DRAWS, data=st.data())
def test_contains_interleaved_with_deep_walks(draw, data):
    tau = _substitution(draw)
    if tau is None:
        return
    levels = _coded_levels(tau, 30)
    oracle = subst_oracle(tau, 30)
    letters = st.sampled_from(tau.alphabet.symbols)
    for _ in range(8):
        n = data.draw(st.integers(0, 30))
        kind = data.draw(st.sampled_from(("contains", "complexity", "words")))
        if kind == "contains":
            word = tuple(data.draw(st.lists(letters, min_size=n, max_size=n)))
            assert oracle.contains(word) == (_coded(tau, word) in levels[n])
        elif kind == "complexity":
            assert complexity(oracle, n) == [len(l) for l in levels[:n + 1]]
        else:
            words = oracle.words_of_length(n)
            assert {_coded(tau, w) for w in words} == levels[n]


def _level_oracle(tau, h):
    """The reference oracle: the state is the coded word, a step one
    concatenation and one lookup in ``_coded_levels``."""
    code, _ = dynamics._coding(tau)
    levels = _coded_levels(tau, h)

    def step(word, letter):
        longer = word + code[letter]
        return longer if longer in levels[len(longer)] else None

    return LanguageOracle(tau.alphabet, "", step, h)


@pytest.mark.parametrize("name", ["fib", "run_doubler"])
def test_length_walks_match_the_level_oracle(name, request):
    tau = request.getfixturevalue(name)
    reference = _level_oracle(tau, 120)
    assert (minimal_forbidden_lengths(subst_oracle(tau, 120), 120)
            == minimal_forbidden_lengths(reference, 120))
    assert (bispecial_lengths(subst_oracle(tau, 120), 119)
            == bispecial_lengths(reference, 119))


def test_subst_oracle_stays_lazy_under_a_far_horizon(fib):
    # a build at the horizon would hold an iterate of 10^5 letters
    tracemalloc.start()
    try:
        words = subst_oracle(fib, 10 ** 5).words_of_length(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 6
    assert peak < 256 * 1024


def _peak(call):
    """(result, tracemalloc peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ls_walk_holds_one_level_at_a_far_horizon(fib):
    # every level kept to find a repeat peaked at 130 MiB
    ls, peak = _peak(lambda: minimal_forbidden_lengths(subst_oracle(fib, 1000), 1000))
    assert peak < 8 * 2 ** 20
    fibonacci = [2, 3]
    while fibonacci[-1] + fibonacci[-2] <= 1000:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert ls.ls_set == tuple(fibonacci) and ls.repeat is None
    reference = minimal_forbidden_lengths(_level_oracle(fib, 400), 400)
    assert reference.ls_set == tuple(n for n in ls.ls_set if n <= 400)


def test_listing_holds_two_levels_at_a_far_length(fib):
    # every level kept as tuples held about L^3 / 2 letters: 174 MiB here
    words, peak = _peak(lambda: subst_oracle(fib, 400).words_of_length(400))
    assert peak < 16 * 2 ** 20
    assert len(words) == 401 and len(set(words)) == 401


def test_special_words_hold_one_level_at_a_far_length(fib):
    # two dicts of letter sets over level 201 peaked at 24 MiB
    report, peak = _peak(lambda: special_words(subst_oracle(fib, 201), 200))
    assert peak < 4 * 2 ** 20
    # one left and one right special word, mirror images, none bispecial
    assert len(report.left_special) == len(report.right_special) == 1
    assert report.left_special[0] == report.right_special[0][::-1]
    assert report.bispecial == ()


def test_induced_over_subst_stays_lazy_under_a_far_horizon():
    # the base is realized at about 3 * 10^5; only the steps of length-5
    # superwords may grow it
    doc = {"kind": "induced",
           "base": {"kind": "substitution", "rules": {"0": "01", "1": "0"}, "seed": "0"},
           "window": 1, "clopen": ["001", "100", "101"], "return_rule": "first-return"}
    tracemalloc.start()
    try:
        words = realize(document_from_object(doc), 10 ** 5).oracle.words_of_length(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 7
    assert peak < 256 * 1024


@settings(max_examples=80, deadline=None)
@given(draw=SUBSTITUTION_DRAWS, h=st.integers(1, 8))
def test_subst_oracle_counts_match_iterates(draw, h):
    """complexity, bispecial_lengths and minimal_forbidden, each on a
    fresh oracle that grows its levels as it goes, against the brute
    force over the iterates."""
    tau = _substitution(draw)
    if tau is None:
        return
    letters = tau.alphabet.symbols
    levels = _brute_levels(tau, h + 1)
    assert complexity(subst_oracle(tau, h), h) == [len(l) for l in levels[:h + 1]]

    def extensions(n, w):
        return (sum((a,) + w in levels[n + 1] for a in letters),
                sum(w + (b,) in levels[n + 1] for b in letters))

    bispecial = tuple(n for n in range(h + 1)
                      if any(min(extensions(n, w)) >= 2 for w in levels[n]))
    assert bispecial_lengths(subst_oracle(tau, h + 1), h) == bispecial
    forbidden = {}
    for n in range(1, h + 1):
        words = {u for u in (w + (b,) for w in levels[n - 1] for b in letters)
                 if u not in levels[n] and u[1:] in levels[n - 1]}
        if words:
            forbidden[n] = words
    got = minimal_forbidden(subst_oracle(tau, h), h).by_length
    assert {n: set(ws) for n, ws in got.items()} == forbidden


# Renamed letters share first characters and reorder the alphabet
# ("xa" < "xy" < "y"), so a coding that reads one character per symbol,
# or sorts by the old names, gives different words.
RENAMED = {"a": "xa", "b": "y", "c": "xy"}


@settings(max_examples=60, deadline=None)
@given(draw=SUBSTITUTION_DRAWS, h=st.integers(0, 6))
def test_subst_oracle_on_multi_character_symbols(draw, h):
    tau = _substitution(draw)
    if tau is None:
        return
    renamed = Substitution(
        {RENAMED[a]: tuple(RENAMED[b] for b in w) for a, w in tau.rules.items()},
        RENAMED[tau.seed])
    back = {v: k for k, v in RENAMED.items()}

    def restore(word):
        return tuple(back[s] for s in word)

    plain, coded = subst_oracle(tau, h + 1), subst_oracle(renamed, h + 1)
    for n in range(h + 1):
        words = coded.words_of_length(n)
        assert list(words) == sorted(words, key=renamed.alphabet.key)
        assert {restore(w) for w in words} == set(plain.words_of_length(n))
    got = minimal_forbidden(coded, h).by_length
    want = minimal_forbidden(plain, h).by_length
    assert {n: {restore(w) for w in ws} for n, ws in got.items()} == {
        n: set(ws) for n, ws in want.items()}
    assert bispecial_lengths(coded, h) == bispecial_lengths(plain, h)


def _first_return_by_words(spec, letters):
    """The reference for first-return resolution: every continuation word
    of each window, depth first, each rescanned for its first return."""
    width = 2 * spec.window + 1
    uset = set(letters)
    spec.base.check_horizon(width + spec.cap)
    state_of = dict(zip(*spec.base.frontier(width)))
    rho = {}
    for w in letters:
        agreed = None
        stack = [(w, state_of[w])]
        while stack:
            word, state = stack.pop()
            hit = next((t for t in range(1, len(word) - width + 1)
                        if word[t:t + width] in uset), None)
            if hit is not None:
                if agreed is not None and agreed != hit:
                    raise UnsupportedSpecError(
                        "first-return time is not constant on the cylinder %r"
                        % (format_word(w),))
                agreed = hit
                continue
            if len(word) - width >= spec.cap:
                raise ReturnTimeCapError(
                    "no return within %d steps after %r" % (spec.cap, format_word(w)))
            for a in spec.base.alphabet:
                after = spec.base.step(state, a)
                if after is not None:
                    stack.append((word + (a,), after))
        if agreed is None:
            raise ReturnTimeCapError(
                "window %r admits no continuation" % (format_word(w),))
        rho[w] = agreed
    return rho


def _resolution(resolve, spec, letters):
    try:
        return resolve(spec, letters)
    except (ReturnTimeCapError, UnsupportedSpecError) as exc:
        return exc


@settings(max_examples=150, deadline=None)
@example(base=["11"], window=1, picks=[0, 1, 3, 4], cap=8)  # the golden example
@example(base=[], window=1, picks=[0, 1, 4, 5], cap=8)  # the cap fires
@given(base=st.one_of(SHORT_WORDS, SUBSTITUTION_DRAWS),
       window=st.integers(0, 1),
       picks=st.lists(st.integers(0, 26), min_size=1, max_size=5),
       cap=st.integers(0, 6))
def test_first_return_matches_word_search(base, window, picks, cap):
    """The pair walk against the word-by-word search: the same return
    times, or both refuse the same window.  Only a window with two faults
    may differ in which one is reported: the walk reports the cap."""
    width = 2 * window + 1
    if isinstance(base, list):
        alph = Alphabet(("0", "1"))
        forbidden = frozenset(tuple(w) for w in base)
        oracle = sft_oracle(build_block_graph(FiniteTypeSpec(alph, forbidden)), width + cap)
    else:
        tau = _substitution(base)
        if tau is None:
            return
        oracle = subst_oracle(tau, width + cap)
    allowed = oracle.words_of_length(width)
    if not allowed:
        return
    clopen = frozenset(allowed[i % len(allowed)] for i in picks)
    spec = InducedSpec(oracle, window, clopen, "first-return", cap)
    letters = dynamics._superletters(spec)
    got = _resolution(dynamics._resolve_first_return, spec, letters)
    want = _resolution(_first_return_by_words, spec, letters)
    if isinstance(got, dict):
        assert got == want
    elif str(got).startswith("no return within"):
        assert isinstance(want, Exception)
        assert str(want) == str(got) or "not constant" in str(want)
    else:
        assert (type(want), str(want)) == (type(got), str(got))


def test_first_return_walks_pairs_not_words():
    # a cycle c w_1 ... w_k with every w_i in {a, b}: 2^k continuations of
    # "c" but two (window, state) pairs per step
    k = 20
    edges = [(0, "c", 1)] + [(i, a, (i + 1) % (k + 1))
                             for i in range(1, k + 1) for a in "ab"]
    graph = make_labeled_graph(Alphabet(("a", "b", "c")), tuple(range(k + 1)), edges)
    base = sofic_oracle(graph, 2 * k + 2)
    calls = []

    def counted(state, letter):
        calls.append(letter)
        return base.step(state, letter)
    spec = InducedSpec(base.replace(step=counted), 0, frozenset([("c",)]),
                       "first-return", k + 2)
    assert induced_data(spec)[1] == {("c",): k + 1}
    assert len(calls) <= 300


def test_rebase_keeps_the_resolution():
    spec = InducedSpec(golden_base(11), 1,
                       frozenset([("0", "0", "0"), ("0", "0", "1"), ("1", "0", "0"),
                                  ("1", "0", "1")]), "first-return", 8)
    longer = golden_base(40)
    moved = rebase(spec, longer)
    assert moved.base is longer
    assert induced_data(moved) is induced_data(spec)
    assert induced_data(moved.replace()) == induced_data(spec)
