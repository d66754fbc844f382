import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, AlphabetMismatchError, BlockCode,
                      CylinderMeasure, EmptySupportError, EnumerationCapError,
                      FiniteTypeSpec, NotAnAutomorphismError, ReducibleGraphError,
                      ShiftlabError, UnsupportedSpecError, apply_block_code,
                      automorphism_invariance_check, build_block_graph,
                      cylinder_table, eval_cylinder, finite_type_presentation,
                      full_shift, language_equal_exact, make_labeled_graph,
                      max_entropy_decomposition, mu_y_average, nu_cylinder_measure,
                      nu_point_measure, parry_cylinders, parry_measure,
                      per_le_enumerate, scc_subgraphs, sft_oracle, weak_star_distance)
from shiftlab.measures import PROB_TOL, _parry_eval, _words_upto, certify_inverse_pair

GOLDEN = (1 + math.sqrt(5)) / 2


def flip_code(alph):
    return BlockCode(alph, alph, 0, {("0",): "1", ("1",): "0"})


def test_cylinder_measure_validates(alph2):
    with pytest.raises(ShiftlabError):
        CylinderMeasure(alph2, 1, {(): 1.0, ("0",): 0.7, ("1",): 0.4})
    ok = CylinderMeasure(alph2, 1, {(): 1.0, ("0",): 0.7, ("1",): 0.3})
    assert ok.values[("0",)] == 0.7


@pytest.mark.parametrize("nudge", [-1, 0, 1])
@pytest.mark.parametrize("bound", ["root", "floor", "additivity"])
def test_fraction_tables_meet_the_float_bounds_exactly(alph2, bound, nudge):
    # tables just inside, on, and just outside each bound are accepted or
    # refused as a comparison with the float bound itself decides
    eps = Fraction(nudge, 10 ** 30)
    tol, floor = Fraction(PROB_TOL), Fraction(-1e-12)
    half = Fraction(1, 2)
    if bound == "root":
        values = {(): 1 + tol + eps, ("0",): half, ("1",): half}
        refused = abs(values[()] - 1) > PROB_TOL
    elif bound == "floor":
        values = {(): Fraction(1), ("0",): floor + eps, ("1",): 1 - floor - eps}
        refused = values[("0",)] < -1e-12
    else:
        values = {(): Fraction(1), ("0",): half, ("1",): half + tol + eps}
        refused = abs(1 - values[("0",)] - values[("1",)]) > PROB_TOL
    assert refused == (nudge > 0 if bound != "floor" else nudge < 0)
    if refused:
        with pytest.raises(ShiftlabError):
            CylinderMeasure(alph2, 1, values)
    else:
        assert CylinderMeasure(alph2, 1, values).values == values


def test_cylinder_listing_holds_the_word_limit(alph2):
    # 2^19 - 1 cylinders to depth 18 are listed, shortest first; 2^20 - 1
    # to depth 19 pass the limit and are refused before any is built
    table = _words_upto(alph2, 18, 0)
    assert len(table) == 524287
    assert list(table)[:4] == [(), ("0",), ("1",), ("0", "0")]
    with pytest.raises(EnumerationCapError,
                       match=r"^1048575 cylinders of depth <= 19 exceed the limit 1000000$"):
        _words_upto(alph2, 19, 0)
    with pytest.raises(EnumerationCapError, match=r"^1048575 cylinders of depth <= 19 "):
        _words_upto(alph2, 10 ** 9, 0)


def test_cylinder_listing_holds_the_letter_limit(alph2):
    # binary depth 18 (8,912,898 letters) stays under 10 * WORD_LIMIT, as
    # above; one letter passes it at depth 4,472, far below the word limit
    assert sum(k * 2 ** k for k in range(19)) == 8912898
    one = Alphabet(("0",))
    assert len(_words_upto(one, 100, 0)) == 101
    with pytest.raises(EnumerationCapError, match=r"^10001628 letters in the cylinders "
                       r"of depth <= 4472 exceed the limit 10000000$"):
        _words_upto(one, 10 ** 5, 0)


def test_nu_measure_golden_exact(golden_graph, alph2):
    # 1/14 of the mass on each orbit point through cylinder counting
    tab = nu_point_measure(per_le_enumerate(golden_graph, 14), alph2, 14, 3)
    assert tab.values[("1",)] == Fraction(73, 264)
    assert tab.values[("1", "1")] == 0
    assert tab.values[("0",)] + tab.values[("1",)] == 1


def test_nu_cylinder_measure_matches_enumeration(golden_graph, alph2):
    # transfer-matrix path and explicit enumeration must agree exactly
    direct = nu_point_measure(per_le_enumerate(golden_graph, 12), alph2, 12, 3)
    counted = nu_cylinder_measure(golden_graph, 12, 3)
    assert list(direct.values.items()) == list(counted.values.items())


def test_no_points_are_refused_before_the_table_is_sized(alph2):
    # an empty support is named even at a depth past the word limit
    with pytest.raises(EmptySupportError, match="^no periodic points up to period 3$"):
        nu_point_measure([], alph2, 3, 10 ** 9)


@settings(max_examples=40, deadline=None)
@given(letters=st.integers(2, 3), radius=st.integers(0, 1),
       n=st.integers(1, 8), depth=st.integers(0, 3), data=st.data())
def test_counted_image_of_nu_matches_enumeration(letters, radius, n, depth, data):
    # the counted table of phi_* nu_n against the table of the enumerated
    # points, Fraction for Fraction; no code is the identity
    alph = Alphabet(tuple("abc"[:letters]))
    word = st.lists(st.sampled_from(alph.symbols), min_size=1, max_size=3).map(tuple)
    graph = finite_type_presentation(
        FiniteTypeSpec(alph, data.draw(st.frozensets(word, max_size=4))))
    target = Alphabet(tuple(data.draw(st.sampled_from(["ab", "abc", "xy"]))))
    windows = list(itertools.product(alph.symbols, repeat=2 * radius + 1))
    outputs = data.draw(st.lists(st.sampled_from(target.symbols),
                                 min_size=len(windows), max_size=len(windows)))
    code = BlockCode(alph, target, radius, dict(zip(windows, outputs)))
    points = per_le_enumerate(graph, n)
    if not points:
        with pytest.raises(ShiftlabError):
            nu_cylinder_measure(graph, n, depth, code)
        with pytest.raises(EmptySupportError):
            nu_point_measure(points, alph, n, depth, code)
        return
    for phi in (None, code):
        counted = nu_cylinder_measure(graph, n, depth, phi)
        enumerated = nu_point_measure(points, alph, n, depth, phi)
        assert counted.alphabet == enumerated.alphabet
        assert counted.values == enumerated.values


@pytest.mark.parametrize("n", [3, 7])
@pytest.mark.parametrize("letters, forbidden", [("01", {("1", "1")}), ("012", set())],
                         ids=["golden", "full3"])
def test_counted_image_under_range_2_code_matches_enumeration(letters, forbidden, n):
    # source words of length 6: longer than n = 3, where only their
    # periodic prefixes count, and shorter than n = 7
    alph = Alphabet(tuple(letters))
    graph = finite_type_presentation(FiniteTypeSpec(alph, frozenset(forbidden)))
    code = BlockCode(alph, Alphabet(("0", "1")), 2, {
        w: "1" if w.count("1") >= 2 else "0"
        for w in itertools.product(alph.symbols, repeat=5)})
    assert nu_cylinder_measure(graph, n, 2, code).values == \
        nu_point_measure(per_le_enumerate(graph, n), alph, n, 2, code).values


@settings(max_examples=60, deadline=None)
@given(letters=st.integers(2, 3), radius=st.integers(0, 1), data=st.data())
def test_presentation_matches_block_graph_reference(letters, radius, data):
    # code images and Parry chains on the prefix automaton against the
    # same on the block graph, the independent reference
    alph = Alphabet(tuple("abc"[:letters]))
    word = st.lists(st.sampled_from(alph.symbols), min_size=1, max_size=4).map(tuple)
    spec = FiniteTypeSpec(alph, data.draw(st.frozensets(word, max_size=4)))
    presentation, blocks = finite_type_presentation(spec), build_block_graph(spec)
    windows = list(itertools.product(alph.symbols, repeat=2 * radius + 1))
    outputs = data.draw(st.lists(st.sampled_from(("x", "y")),
                                 min_size=len(windows), max_size=len(windows)))
    code = BlockCode(alph, Alphabet(("x", "y")), radius, dict(zip(windows, outputs)))
    assert language_equal_exact(apply_block_code(presentation, code),
                                apply_block_code(blocks, code))
    if blocks.is_empty:
        assert presentation.is_empty
        return
    try:
        reference = cylinder_table(parry_measure(blocks), 4)
    except ReducibleGraphError:
        return
    table = cylinder_table(parry_measure(presentation), 4)
    assert all(abs(table.values[w] - v) <= 1e-10 for w, v in reference.values.items())


def test_parry_measure_golden(golden_graph):
    pm = parry_measure(golden_graph)
    assert pm.perron == pytest.approx(GOLDEN, abs=1e-12)
    tab = cylinder_table(pm, 3)
    # stationary mass of the 1-cylinder is (5 - sqrt(5))/10
    assert tab.values[("1",)] == pytest.approx((5 - math.sqrt(5)) / 10, abs=1e-12)
    assert tab.values[("1", "1")] == pytest.approx(0, abs=1e-15)
    assert eval_cylinder(pm, ("0", "0")) == pytest.approx(
        tab.values[("0", "0")], abs=1e-12)


def test_nu_converges_to_parry(golden_graph, alph2):
    pm = parry_measure(golden_graph)
    dists = []
    for n in (6, 12, 18):
        nu = nu_point_measure(per_le_enumerate(golden_graph, n), alph2, n, 3)
        dists.append(float(weak_star_distance(nu, pm, 3)))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 2e-4


def test_pushforward_flip_on_full_shift(alph2):
    points = per_le_enumerate(full_shift(alph2), 8)
    nu = nu_point_measure(points, alph2, 8, 3)
    pushed = nu_point_measure(points, alph2, 8, 3, flip_code(alph2))
    assert float(weak_star_distance(nu, pushed, 3)) == 0.0
    # the flip swaps the letters of every cylinder
    swap = str.maketrans("01", "10")
    assert all(pushed.values[tuple("".join(w).translate(swap))] == v
               for w, v in nu.values.items())


def _primitive_root(word):
    q = len(word)
    return next(word[:p] for p in range(1, q + 1)
                if q % p == 0 and word == word[:p] * (q // p))


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.text("012", min_size=1, max_size=6), min_size=1, max_size=8),
       rotations=st.booleans(),
       rule=st.lists(st.sampled_from("012"), min_size=27, max_size=27),
       depth=st.integers(0, 4))
def test_periodic_tables_match_per_word_sums(words, rotations, rule, depth):
    # the one-pass tabulation against a count, word by word, of the points
    # whose orbit (or coded orbit) starts with the word, exactly
    alph = Alphabet(("0", "1", "2"))
    points = {_primitive_root(tuple(w)) for w in words}
    if rotations:
        points |= {p[i:] + p[:i] for p in points for i in range(len(p))}
    points = [(p, len(p)) for p in sorted(points)]
    code = BlockCode(alph, alph, 1, dict(zip(itertools.product("012", repeat=3), rule)))
    cylinders = [w for k in range(depth + 1)
                 for w in itertools.product("012", repeat=k)]
    tables = []
    for phi in (None, code):
        orbits = [p if phi is None else phi.apply_to_cycle(p) for p, _ in points]
        values = nu_point_measure(points, alph, 6, depth, phi).values
        assert list(values) == cylinders
        for w in cylinders:
            hits = sum(all(w[i] == o[i % len(o)] for i in range(len(w))) for o in orbits)
            assert type(values[w]) is Fraction and values[w] == Fraction(hits, len(points))
        tables.append(CylinderMeasure(alph, depth, values))
    gaps = [abs(tables[0].values[w] - tables[1].values[w]) for w in cylinders if w]
    assert weak_star_distance(*tables, depth) == float(max(gaps, default=0))


def test_pushforward_collapse(alph2):
    # every point maps to the fixed point 0^inf, which takes all the mass
    const = BlockCode(alph2, alph2, 0, {("0",): "0", ("1",): "0"})
    pushed = nu_point_measure(per_le_enumerate(full_shift(alph2), 6), alph2, 6, 2, const)
    assert pushed.values == {w: Fraction(int(set(w) <= {"0"}))
                             for w in _words_upto(alph2, 2, None)}


def test_automorphism_check_flip(alph2):
    g = full_shift(alph2)
    oracle = sft_oracle(g, 12)
    flip = flip_code(alph2)
    rep = automorphism_invariance_check(oracle, per_le_enumerate(g, 8), 8,
                                        flip, flip, 3, 1e-9)
    assert rep.within_tol
    assert rep.distance == 0


def test_automorphism_check_rejects_non_inverse(alph2):
    g = full_shift(alph2)
    oracle = sft_oracle(g, 12)
    rule = {}
    for a in "01":
        for b in "01":
            for c in "01":
                rule[(a, b, c)] = "1" if b == "1" and c == "1" else "0"
    and_code = BlockCode(alph2, alph2, 1, rule)
    with pytest.raises(NotAnAutomorphismError):
        automorphism_invariance_check(oracle, per_le_enumerate(g, 6), 6,
                                      and_code, and_code, 3, 1e-9)


def test_inverse_pair_certified_word_by_word(golden_graph, alph2):
    # the shift map and its inverse, as range-1 codes: each word goes
    # through both, so the certificate reaches length 4 * 2 + 1
    windows = list(itertools.product("01", repeat=3))
    left = BlockCode(alph2, alph2, 1, {w: w[2] for w in windows})
    right = BlockCode(alph2, alph2, 1, {w: w[0] for w in windows})
    oracle = sft_oracle(golden_graph, 12)
    assert certify_inverse_pair(oracle, left, right) == 9
    with pytest.raises(NotAnAutomorphismError):
        certify_inverse_pair(oracle, left, left)
    wide = BlockCode(alph2, Alphabet(("0", "1", "2")), 1, {w: w[0] for w in windows})
    with pytest.raises(AlphabetMismatchError,
                       match="^inner code output alphabet must feed the outer code$"):
        certify_inverse_pair(oracle, left, wide)


def test_max_entropy_decomposition_golden(golden_graph, alph2):
    comps = max_entropy_decomposition(golden_graph, flip_code(alph2), depth=4)
    assert len(comps) == 1
    assert comps[0].entropy == pytest.approx(math.log(GOLDEN), abs=1e-9)
    # the image forbids 00, mirroring the source
    tab = comps[0].measure
    assert tab.values[("0", "0")] == pytest.approx(0, abs=1e-12)


def test_max_entropy_decomposition_reducible():
    # two recurrent pieces collapse to two distinct fixed points, tied at 0
    a3 = Alphabet(("0", "1", "2"))
    forb = frozenset([("0", "2"), ("2", "0"), ("1", "2"), ("2", "1")])
    red = build_block_graph(FiniteTypeSpec(a3, forb))
    collapse = BlockCode(a3, Alphabet(("a", "b")), 0,
                         {("0",): "a", ("1",): "a", ("2",): "b"})
    comps = max_entropy_decomposition(red, collapse, depth=3)
    assert len(comps) == 2
    assert all(c.entropy == pytest.approx(0.0, abs=1e-12) for c in comps)
    avg = mu_y_average(comps, 3, 2)
    assert avg.weights == (Fraction(1, 2), Fraction(1, 2))
    assert avg.measure.values[("a",)] == pytest.approx(0.5)


def test_parry_measure_refuses_reducible_and_nondeterministic(alph2):
    a3 = Alphabet(("0", "1", "2"))
    forb = frozenset([("0", "2"), ("2", "0"), ("1", "2"), ("2", "1")])
    with pytest.raises(ReducibleGraphError, match="decompose"):
        parry_measure(build_block_graph(FiniteTypeSpec(a3, forb)))
    two_ways = make_labeled_graph(alph2, ("p", "q"),
                                  [("p", "0", "p"), ("p", "0", "q"), ("q", "1", "p")])
    with pytest.raises(UnsupportedSpecError, match="deterministic"):
        parry_measure(two_ways)


def test_mu_y_average_empty_components():
    with pytest.raises(EmptySupportError):
        mu_y_average([], 3, 2)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=10))
def test_nu_cylinder_additivity(golden_graph, n):
    alph = golden_graph.alphabet
    tab = nu_point_measure(per_le_enumerate(golden_graph, n), alph, n, 4)
    for w, v in tab.values.items():
        if len(w) >= 4:
            continue
        assert v == sum(tab.values[w + (a,)] for a in alph)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=10))
def test_nu_shift_invariance(golden_graph, n):
    # nu is shift invariant: extending on the left splits the mass too
    alph = golden_graph.alphabet
    tab = nu_point_measure(per_le_enumerate(golden_graph, n), alph, n, 4)
    for w, v in tab.values.items():
        if len(w) >= 4:
            continue
        assert v == sum(tab.values[(a,) + w] for a in alph)


def parry_memory_formula(pm, word):
    """Cylinder of a block-graph Parry chain read off the block states:
    pi(w[:f-1]) times the edge probabilities of the rest of w, and the
    summed stationary mass of the states extending w when |w| < f - 1."""
    graph = pm.graph
    f = len(graph.states[0]) + 1
    if len(word) < f - 1:
        return sum(p for u, p in pm.stationary.items() if u[:len(word)] == word)
    v = word[:f - 1]
    prob = pm.stationary.get(v, 0.0)
    for a in word[f - 1:]:
        nxt = graph.successors(v, a)
        if not nxt:
            return 0.0
        prob *= pm.right[nxt[0]] / (pm.perron * pm.right[v])
        v = nxt[0]
    return prob


@settings(max_examples=40, deadline=None)
@given(letters=st.integers(2, 3), data=st.data())
def test_parry_start_state_sum_matches_memory_formula(letters, data):
    # the start-state sum works on any deterministic graph; on block
    # graphs it must agree with the formula that reads the block states
    alph = Alphabet(tuple("abc"[:letters]))
    word = st.lists(st.sampled_from(alph.symbols), min_size=1, max_size=3).map(tuple)
    forbidden = data.draw(st.frozensets(word, max_size=4))
    graph = build_block_graph(FiniteTypeSpec(alph, forbidden))
    for piece in ([] if graph.is_empty else scc_subgraphs(graph)):
        pm = parry_measure(piece)
        for k in range(4):
            for w in itertools.product(alph.symbols, repeat=k):
                assert abs(eval_cylinder(pm, w) - parry_memory_formula(pm, w)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(letters=st.integers(1, 3), data=st.data())
def test_parry_cylinders_match_parry_eval(letters, data):
    # the one walk over a word list against the per-word evaluation, to
    # the last bit, on random presentations and word lists with shared
    # prefixes, dead words and every length up to 5
    alph = Alphabet(tuple("abc"[:letters]))
    word = st.lists(st.sampled_from(alph.symbols), max_size=5).map(tuple)
    spec = FiniteTypeSpec(alph, data.draw(st.frozensets(word.filter(bool), max_size=4)))
    presentation = finite_type_presentation(spec)
    for piece in ([] if presentation.is_empty else scc_subgraphs(presentation)):
        pm = parry_measure(piece)
        words = data.draw(st.lists(word, max_size=40))
        got = parry_cylinders(pm, words)
        assert list(got) == list(dict.fromkeys(words))
        for w in words:
            assert got[w] == _parry_eval(pm, w)
