import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, EnumerationCapError, FiniteTypeSpec,
                      LabeledGraph, UndefinedEntropyError, build_block_graph,
                      finite_type_presentation, full_shift,
                      language_equal_exact, per_count, per_le_enumerate,
                      prune_labeled, periodic_count_le, periodic_counts,
                      scc_subgraphs, sft_cover, sft_entropy, sft_oracle)
from shiftlab import sft

GOLDEN = (1 + math.sqrt(5)) / 2


def scan_ok(w, forbidden):
    return not any(w[i:i + len(f)] == f
                   for f in forbidden for i in range(len(w) - len(f) + 1))


def _scan_and_prune(spec):
    """Reference block graph: states and edges from the words that scan
    clean, then pruned to the states on a bi-infinite path."""
    level = [()]
    for _ in range(spec.memory - 1):
        level = [w + (a,) for w in level for a in spec.alphabet
                 if scan_ok(w + (a,), spec.forbidden)]
    states = tuple(sorted(level))
    transitions = {}
    for u in states:
        row = {a: ((u + (a,))[1:],) for a in spec.alphabet
               if scan_ok(u + (a,), spec.forbidden)}
        if row:
            transitions[u] = row
    return prune_labeled(LabeledGraph(spec.alphabet, states, transitions))


@st.composite
def _small_specs(draw):
    # a shuffled alphabet, so its order and the sorted order can differ
    letters = draw(st.permutations(("0", "1", "2")))[:draw(st.integers(2, 3))]
    words = draw(st.sets(st.lists(st.sampled_from(letters), min_size=1,
                                  max_size=5).map(tuple), max_size=4))
    return FiniteTypeSpec(Alphabet(tuple(letters)), frozenset(words))


def _assert_matches_scan_and_prune(spec):
    g = build_block_graph(spec)
    ref = _scan_and_prune(spec)
    assert g.states == ref.states
    assert g.transitions == ref.transitions


@settings(max_examples=200, deadline=None)
@given(_small_specs())
def test_block_graph_matches_scan_and_prune(spec):
    _assert_matches_scan_and_prune(spec)


def test_block_graph_edge_cases(alph2):
    forbid_empty = FiniteTypeSpec(alph2, frozenset([()]))
    forbid_letters = FiniteTypeSpec(alph2, frozenset([("0",), ("1",)]))
    memory_one = FiniteTypeSpec(Alphabet(("1", "0", "2")), frozenset([("0",)]))
    for spec in (forbid_empty, forbid_letters, memory_one):
        _assert_matches_scan_and_prune(spec)
    assert build_block_graph(forbid_empty).is_empty
    assert build_block_graph(forbid_letters).is_empty
    g = build_block_graph(memory_one)
    assert g.states == ((),)
    assert g.transitions == {(): {"1": ((),), "2": ((),)}}


def test_golden_graph_shape(golden_graph):
    assert golden_graph.vertices == (("0",), ("1",))
    assert golden_graph.transitions[("0",)] == {"0": (("0",),), "1": (("1",),)}
    assert golden_graph.transitions[("1",)] == {"0": (("0",),)}


def test_empty_spec_prunes_to_nothing(alph2):
    spec = FiniteTypeSpec(alph2, frozenset([("0",), ("1",)]))
    g = build_block_graph(spec)
    assert g.is_empty
    assert sft_oracle(g, 1).words_of_length(1) == ()
    with pytest.raises(UndefinedEntropyError):
        sft_entropy(g)


def test_pruning_removes_dead_ends():
    # 1 can never recur: after 10 both continuations die, so 1 is transient
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset([("1", "1"), ("1", "0")]))
    g = build_block_graph(spec)
    assert g.vertices == (("0",),)


def test_golden_entropy(golden_graph):
    assert abs(sft_entropy(golden_graph) - math.log(GOLDEN)) < 1e-12


def test_full_shift_helpers(alph2, full2_spec):
    g = full_shift(alph2)
    assert sft_entropy(g) == pytest.approx(math.log(2), abs=1e-12)
    assert per_count(g, 5) == 32
    assert language_equal_exact(g, build_block_graph(full2_spec))


def test_golden_per_counts_are_lucas(golden_graph):
    # trace of A^p on the golden graph gives the Lucas numbers
    assert [per_count(golden_graph, p) for p in range(1, 8)] == \
        [1, 3, 4, 7, 11, 18, 29]


def test_per_enumerate_golden(golden_graph):
    entries = sorted(per_le_enumerate(golden_graph, 3))
    assert entries == [(("0",), 1),
                       (("0", "0", "1"), 3), (("0", "1"), 2),
                       (("0", "1", "0"), 3), (("1", "0"), 2),
                       (("1", "0", "0"), 3)]


def test_periodic_count_le_agrees_with_enumeration(golden_graph):
    for n in range(1, 7):
        assert periodic_count_le(golden_graph, n) == \
            len(per_le_enumerate(golden_graph, n))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just("abc"[:k]),
    st.lists(st.text(alphabet="abc"[:k], min_size=1, max_size=4), max_size=3))),
    st.integers(1, 9))
def test_periodic_counts_match_enumeration_random(spec_data, n):
    # the Moebius-inverted traces are the minimal-period histogram of the
    # enumerated points, and they add up to the independent Mertens count
    letters, forbidden = spec_data
    alph = Alphabet(tuple(letters))
    g = finite_type_presentation(
        FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden)))
    histogram = [0] * n
    for _, q in per_le_enumerate(g, n):
        histogram[q - 1] += 1
    counts = periodic_counts(g, n)
    assert counts == histogram
    assert sum(counts) == periodic_count_le(g, n)


def test_count_table_walks_only_words_of_the_shift(monkeypatch):
    # each golden-mean word of length 0..8 (F_2 + ... + F_10 = 142 of them)
    # is extended by both letters once; words containing 11 are not
    g = finite_type_presentation(
        FiniteTypeSpec(Alphabet(("0", "1")), frozenset({("1", "1")})))
    products = []
    real = sft.int_matmul
    monkeypatch.setattr(sft, "int_matmul",
                        lambda a, b: products.append(a) or real(a, b))
    table = sft.periodic_count_table(g, 30, [("0", "1")] * 9, tuple)
    assert len(products) == 2 * 142
    assert sum(table.values()) == periodic_count_le(g, 30)
    assert set(table) <= {w for w in product("01", repeat=9)
                          if ("1", "1") not in zip(w, w[1:])}
    # past the period bound only prefixes of length <= n can count
    products.clear()
    sft.periodic_count_table(g, 5, [("0", "1")] * 9, tuple)
    assert len(products) == 2 * (1 + 2 + 3 + 5 + 8)
    # a periodic prefix counts only where its word keeps to ``letters``:
    # the prefix 0 stands for 000, which the middle position excludes
    word = ("0", "1", "0")
    assert sft.periodic_count_table(g, 30, [(a,) for a in word], len) == \
        {3: periodic_count_le(g, 30, word)}


def test_enumeration_cap(alph2):
    g = full_shift(alph2)
    with pytest.raises(EnumerationCapError):
        per_le_enumerate(g, 12, cap=100)


def test_sft_cover_reconstructs_golden(golden_graph, golden_oracle):
    cover = sft_cover(golden_oracle, 4)
    assert cover.forbidden == frozenset([("1", "1")])
    assert language_equal_exact(build_block_graph(cover), golden_graph)


def test_scc_subgraphs_reducible():
    alph = Alphabet(("0", "1", "2"))
    forb = frozenset([("0", "2"), ("2", "0"), ("1", "2"), ("2", "1")])
    subs = scc_subgraphs(build_block_graph(FiniteTypeSpec(alph, forb)))
    sizes = sorted(len(s.vertices) for s in subs)
    assert sizes == [1, 2]


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=3), max_size=4),
       st.integers(min_value=1, max_value=6))
def test_per_count_matches_brute_force(forbidden, p):
    # w^inf lies in the shift iff a long enough repetition scans clean
    alph = Alphabet(("0", "1"))
    forb = frozenset(alph.word(t) for t in forbidden)
    g = build_block_graph(FiniteTypeSpec(alph, forb))
    fmax = max([len(f) for f in forb] + [1])
    reps = (p + fmax) // p + 1
    brute = sum(1 for w in product(("0", "1"), repeat=p)
                if scan_ok(w * reps, forb))
    assert per_count(g, p) == brute
