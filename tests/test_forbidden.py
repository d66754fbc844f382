from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, FiniteTypeSpec, HorizonExceededError, InducedSpec,
                      InfeasibleSetError, LanguageOracle, NonGrowingSubstitutionError,
                      ReturnTimeCapError, Substitution, UnsupportedSpecError,
                      beta_expand, beta_mfw, beta_oracle, build_block_graph,
                      example_nonempty_shift, finite_type_presentation,
                      format_word, induce_recode, induced_data, ls_report,
                      make_labeled_graph, mfw_length_set, minimal_forbidden,
                      minimal_forbidden_lengths, parse_beta_spec, sft_oracle,
                      sofic_oracle, subst_oracle, tau_eval, well_approx_check,
                      window_density_report)
from shiftlab import forbidden


def test_golden_mfw(golden_oracle):
    table = minimal_forbidden(golden_oracle, 8)
    assert table.by_length == {2: (("1", "1"),)}
    assert table.lengths == (2,)


def test_even_shift_mfw(even_oracle):
    # 0 1^(2k+1) 0 for odd run lengths, nothing else
    table = minimal_forbidden(even_oracle, 9)
    assert table.lengths == (3, 5, 7, 9)
    assert table.by_length[3] == (("0", "1", "0"),)
    assert table.by_length[5] == (("0", "1", "1", "1", "0"),)


def test_mfw_words_are_minimal(even_oracle):
    table = minimal_forbidden(even_oracle, 9)
    for w in table.words():
        assert not even_oracle.contains(w)
        assert even_oracle.contains(w[1:])
        assert even_oracle.contains(w[:-1])


def test_full_shift_has_no_mfw(full2_spec):
    oracle = sft_oracle(build_block_graph(full2_spec), 10)
    assert minimal_forbidden(oracle, 10).by_length == {}


def test_window_density_report():
    ls, max_gap, dens = window_density_report([3, 5, 7, 9], 10)
    assert ls == (3, 5, 7, 9)
    # the run 10..10 and 1..2 lose to nothing longer; gap 1..2 has length 2
    assert max_gap == 2
    # the window {1,2} carries nothing, so small window sizes bottom out at 0
    assert dens[1] == 0.0
    assert dens[2] == 0.0
    assert dens[5] == pytest.approx(2 / 5)


def test_ls_report_even(even_oracle):
    rep = ls_report(minimal_forbidden(even_oracle, 21))
    assert rep.ls_set == tuple(range(3, 22, 2))
    assert rep.max_gap == 2
    assert max(rep.window_densities.values()) == pytest.approx(4 / 9)


def test_well_approx_check(golden_oracle):
    # golden mean: the only minimal forbidden length is 2
    witnesses = well_approx_check(golden_oracle, lambda n: 3, 12)
    assert witnesses == (2, 3, 4, 5, 6, 7, 8, 9)
    assert 1 not in witnesses
    with pytest.raises(InfeasibleSetError):
        well_approx_check(golden_oracle, lambda n: -1, 12)


def test_tau_eval_small_values():
    # cross-checked by direct big-integer evaluation of 2n + (1+n^n) n^(4n+1)
    assert tau_eval(1) == 4
    assert tau_eval(2) == 2564
    assert tau_eval(3) == 44641050
    with pytest.raises(InfeasibleSetError):
        tau_eval(0)


def test_tau_eval_grows_fast():
    assert tau_eval(5) == 2 * 5 + (1 + 5 ** 5) * 5 ** 21
    assert len(str(tau_eval(10))) == 52


def test_example_nonempty_fixed_sets():
    # mfw_length_set walks the pair automaton, no language enumeration
    for target in [set(), {3}, {4, 7}, {3, 4, 5, 12}]:
        spec = example_nonempty_shift(target)
        lengths = mfw_length_set(finite_type_presentation(spec), 14)
        assert set(lengths) == target
    with pytest.raises(InfeasibleSetError):
        example_nonempty_shift({2})


def test_example_nonempty_words_look_right():
    spec = example_nonempty_shift({5})
    assert spec.forbidden == frozenset([("0", "2", "2", "2", "0")])
    spec = example_nonempty_shift({6})
    assert spec.forbidden == frozenset([("0", "1", "1", "1", "1", "0")])


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=3, max_value=10), max_size=4))
def test_example_nonempty_round_trip(target):
    spec = example_nonempty_shift(target)
    lengths = mfw_length_set(finite_type_presentation(spec), 11)
    assert set(lengths) == target


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4))
def test_mfw_defining_property_random(forbidden):
    # a word is minimal forbidden iff it is not allowed but both trims are
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    oracle = sofic_oracle(finite_type_presentation(spec), 7)
    if oracle.start is None:
        return
    table = minimal_forbidden(oracle, 6)
    got = set(table.words())
    expect = set()
    for n in range(1, 7):
        allowed_prev = set(oracle.words_of_length(n - 1))
        allowed = set(oracle.words_of_length(n))
        for w in _all_words(("0", "1"), n):
            if w not in allowed and w[1:] in allowed_prev and w[:-1] in allowed_prev:
                expect.add(w)
    assert got == expect, format_word(next(iter(got ^ expect)))


def _window_density_brute(ls_lengths, horizon):
    # min over windows (start, start + k] inside [1, horizon] of the
    # fraction of their lengths in the set, and the longest free run
    present = set(ls_lengths)
    densities = {}
    for k in range(1, max(1, horizon // 2) + 1):
        fractions = [Fraction(sum(1 for m in range(start + 1, start + k + 1)
                                  if m in present), k)
                     for start in range(horizon - k + 1)]
        if fractions:
            densities[k] = float(min(fractions))
    runs = [0]
    for m in range(1, horizon + 1):
        runs.append(0 if m in present else runs[-1] + 1)
    return tuple(sorted(present)), max(runs), densities


@st.composite
def eventually_periodic_sets(draw):
    """(lengths <= horizon, repeat): n and n + period are both in the set
    or both out of it for every n >= start."""
    start, period = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    flags = draw(st.lists(st.booleans(), min_size=start + period - 1,
                          max_size=start + period - 1))
    horizon = draw(st.integers(0, 40))
    flags = [False] + flags
    while len(flags) <= horizon:
        flags.append(flags[-period])
    lengths = {n for n in range(1, horizon + 1) if flags[n]}
    return lengths, horizon, (start, period)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.sets(st.integers(min_value=1, max_value=40), max_size=12),
              st.integers(min_value=0, max_value=40), st.none()),
    eventually_periodic_sets()))
def test_window_density_report_matches_brute_force(drawn):
    # the scan over one period gives the full scan's report, byte for byte
    ls_lengths, horizon, repeat = drawn
    got = window_density_report(ls_lengths, horizon, repeat)
    assert repr(got) == repr(window_density_report(ls_lengths, horizon))
    assert repr(got) == repr(_window_density_brute(ls_lengths, horizon))


def _all_words(symbols, n):
    from itertools import product
    return product(symbols, repeat=n)


def _mfw_by_definition(letters, allowed, n_max):
    """Words w of length 1..n_max outside the language whose two trims
    are inside it, over every word of each length; ``allowed(n)`` is the
    set of allowed words of length n."""
    table = {}
    for n in range(1, n_max + 1):
        shorter, here = allowed(n - 1), allowed(n)
        found = {w for w in _all_words(letters, n)
                 if w not in here and w[1:] in shorter and w[:-1] in shorter}
        if found:
            table[n] = found
    return table


def _as_sets(table):
    return {n: set(words) for n, words in table.by_length.items()}


@settings(max_examples=40, deadline=None)
@given(images=st.lists(st.text("abc", min_size=1, max_size=3), min_size=3, max_size=3),
       seed=st.sampled_from("abc"))
def test_mfw_walk_matches_definition_on_substitutions(images, seed):
    try:
        tau = Substitution({a: tuple(w) for a, w in zip("abc", images)}, seed)
    except NonGrowingSubstitutionError:
        return
    expect = _mfw_by_definition(
        "abc", lambda n: set(subst_oracle(tau, n).words_of_length(n)), 6)
    assert _as_sets(minimal_forbidden(subst_oracle(tau, 6), 6)) == expect


@settings(max_examples=60, deadline=None)
@given(forbidden=st.lists(st.text("01", min_size=1, max_size=3), max_size=3),
       window=st.integers(0, 1),
       clopen=st.one_of(st.none(), st.sets(st.text("01", min_size=3, max_size=3), min_size=1)),
       rule=st.one_of(st.integers(1, 3), st.just("first-return")))
def test_mfw_walk_matches_definition_on_induced(realized_superwords, forbidden, window,
                                                clopen, rule):
    alph = Alphabet(("0", "1"))
    graph = build_block_graph(FiniteTypeSpec(alph, frozenset(tuple(w) for w in forbidden)))
    if clopen is not None:  # the middle 2N+1 letters of each 3-letter draw
        clopen = frozenset(tuple(w[1 - window:2 + window]) for w in clopen)
    spec = InducedSpec(sft_oracle(graph, 30), window, clopen, rule, 6)
    try:
        letters, rho = induced_data(spec)
    except (InfeasibleSetError, ReturnTimeCapError, UnsupportedSpecError):
        return
    realized = realized_superwords(spec, letters, rho, 4)
    induced = induce_recode(spec, 4)
    to_windows = dict(zip(induced.alphabet.symbols, letters))
    got = {n: {tuple(to_windows[s] for s in w) for w in words}
           for n, words in minimal_forbidden(induced, 4).by_length.items()}
    expect = _mfw_by_definition(
        letters, lambda n: {w for w in realized if len(w) == n}, 4)
    assert got == expect
    _check_length_walk(induced, 4)


def test_mfw_walk_matches_beta_mfw():
    # 101/8 has 13 digits, so string order and digit order differ
    for spec, count in (("rational:5/2", 20), ("rational:101/8", 129)):
        stream = beta_expand(parse_beta_spec(spec), 18).working_stream()
        table = minimal_forbidden(beta_oracle(stream, 18), 18)
        assert table.by_length == beta_mfw(stream, 18).by_length
        assert len(table.words()) == count


def test_mfw_walk_empty_language_and_zero_horizon():
    alph = Alphabet(("0", "1"))
    empty = sofic_oracle(finite_type_presentation(
        FiniteTypeSpec(alph, frozenset([("0",), ("1",)]))), 5)
    assert minimal_forbidden(empty, 5).by_length == {1: (("0",), ("1",))}
    assert minimal_forbidden(empty, 0).by_length == {}


def _table_walk(oracle, n_max):
    """The reference walk: every level kept as a frozenset, so the first
    level equal to an earlier one is met at once.  Returns the witnessed
    lengths and the first repeat (start, period), or None."""
    if n_max < 1:
        return (), None
    step, start = oracle.step, oracle.start
    letters = oracle.alphabet.symbols
    level = set()
    inside = [False, False]
    for a in letters:
        x = None if start is None else step(start, a)
        if x is None:
            inside[1] = True
        else:
            level.add((x, start))
    seen = {}  # level -> the length it witnesses
    repeat = None
    for n in range(2, n_max + 1):
        key = frozenset(level)
        if key in seen:
            repeat = (seen[key], n - seen[key])
            for m in range(n, n_max + 1):
                inside.append(inside[m - repeat[1]])
            break
        seen[key] = n
        nxt = set()
        witnessed = False
        for x, y in level:
            for c in letters:
                yc = step(y, c)
                if yc is None:
                    continue
                xc = step(x, c)
                if xc is None:
                    witnessed = True
                elif n < n_max:
                    nxt.add((xc, yc))
        inside.append(witnessed)
        level = nxt
    return tuple(n for n, flag in enumerate(inside) if flag), repeat


def _check_length_walk(oracle, horizon):
    """The lengths-only walk lists the word walk's lengths, its repeat is
    the reference walk's first repeat, and its block holds on them."""
    ls = minimal_forbidden_lengths(oracle, horizon)
    assert ls.horizon == horizon
    assert ls.ls_set == minimal_forbidden(oracle, horizon).lengths
    assert (ls.ls_set, ls.repeat) == _table_walk(oracle, horizon)
    if ls.repeat is not None:
        start, period = ls.repeat
        inside = set(ls.ls_set)
        assert all((n in inside) == (n + period in inside)
                   for n in range(start, horizon - period + 1))
    return ls


@settings(max_examples=60, deadline=None)
@given(forbidden=st.lists(st.text("012", min_size=1, max_size=4), max_size=4),
       horizon=st.integers(0, 16))
def test_length_walk_matches_word_walk_on_finite_type(forbidden, horizon):
    alph = Alphabet(("0", "1", "2"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    _check_length_walk(sft_oracle(build_block_graph(spec), horizon), horizon)
    _check_length_walk(sofic_oracle(finite_type_presentation(spec), horizon), horizon)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(2, 40), q=st.integers(1, 9), horizon=st.integers(1, 14))
def test_length_walk_matches_word_walk_on_beta(p, q, horizon):
    if not 1 < Fraction(p, q) < 4:
        return
    stream = beta_expand(parse_beta_spec("rational:%d/%d" % (p, q)), horizon).working_stream()
    _check_length_walk(beta_oracle(stream, horizon), horizon)


@settings(max_examples=40, deadline=None)
@given(images=st.lists(st.text("abc", min_size=1, max_size=3), min_size=3, max_size=3),
       seed=st.sampled_from("abc"), horizon=st.integers(0, 8))
def test_length_walk_matches_word_walk_on_substitutions(images, seed, horizon):
    try:
        tau = Substitution({a: tuple(w) for a, w in zip("abc", images)}, seed)
    except NonGrowingSubstitutionError:
        return
    _check_length_walk(subst_oracle(tau, horizon), horizon)


def test_length_walk_finds_the_first_repeat_after_a_late_save():
    # 1-runs of a length divisible by 3 between 0-runs of at least 8.
    # Levels 10 and 13 are the first equal pair; the level saved at 17
    # comes back only at 20, and below that horizon the last level is
    # compared with the earlier ones again
    zeros = ["z%d" % i for i in range(8)]
    edges = {(zeros[i], "0", zeros[i + 1]) for i in range(7)}
    edges |= {("z7", "0", "z7"), ("z7", "1", "o1"), ("o1", "1", "o2"), ("o2", "1", "o0"),
              ("o0", "1", "o1"), ("o0", "0", "z0")}
    graph = make_labeled_graph(Alphabet(("0", "1")), tuple(zeros) + ("o0", "o1", "o2"), edges)
    for horizon in range(2, 41):
        ls = _check_length_walk(sofic_oracle(graph, horizon), horizon)
        assert ls.repeat == ((10, 3) if horizon >= 13 else None)


def _counting(oracle):
    """``oracle`` with its steps counted in the returned list."""
    calls = []

    def step(state, letter):
        calls.append(None)
        return oracle.step(state, letter)

    return LanguageOracle(oracle.alphabet, oracle.start, step, oracle.max_reliable_length,
                          oracle.demand), calls


def test_length_walk_that_never_repeats_steps_as_the_table_walk():
    # an aperiodic substitution and the digit rule of 9/5: no earlier
    # level has the size and flag of the last one, so none is walked again
    tau = Substitution({"0": ("0", "1"), "1": ("0",)}, "0")
    stream = beta_expand(parse_beta_spec("rational:9/5"), 120).working_stream()
    for oracle in (subst_oracle(tau, 120), beta_oracle(stream, 120)):
        walked, calls = _counting(oracle)
        assert minimal_forbidden_lengths(walked, 120).repeat is None
        reference, table_calls = _counting(oracle)
        _table_walk(reference, 120)
        assert len(calls) == len(table_calls)


def test_blocks_of_one_or_two_levels_need_no_second_walk(golden_oracle, even_oracle,
                                                         monkeypatch):
    # each level is compared with the two before it as well as the saved one
    walks = []
    walk = forbidden._walk_levels
    monkeypatch.setattr(forbidden, "_walk_levels", lambda *args: walks.append(1) or walk(*args))
    for oracle, repeat in ((golden_oracle, (3, 1)), (even_oracle, (4, 2))):
        walks.clear()
        assert minimal_forbidden_lengths(oracle, 20).repeat == repeat
        assert len(walks) == 1


def test_length_walk_reads_the_even_shift_off_its_block(even_oracle):
    ls = _check_length_walk(even_oracle, 22)
    assert ls.ls_set == tuple(range(3, 22, 2))
    assert ls.repeat == (4, 2)
    # the table's LS view claims no block, so the fields are compared
    view = ls_report(minimal_forbidden(even_oracle, 22))
    assert view.repeat is None
    assert ((ls.horizon, ls.ls_set, ls.max_gap, repr(ls.window_densities))
            == (view.horizon, view.ls_set, view.max_gap, repr(view.window_densities)))
    assert minimal_forbidden_lengths(even_oracle, 0).ls_set == ()
    with pytest.raises(HorizonExceededError):
        minimal_forbidden_lengths(even_oracle, 23)
