import math
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, AlphabetMismatchError, BlockCode, BlockGraph,
                      FiniteTypeSpec, apply_block_code, build_block_graph,
                      compose_codes, determinize, example_nonempty_shift,
                      finite_type_presentation, is_sft, language_equal_exact,
                      language_equal_up_to, ls_report, make_labeled_graph,
                      mfw_length_set, minimal_forbidden,
                      minimal_forbidden_lengths, per_le_enumerate,
                      periodic_count_le, prune_labeled, sofic_entropy,
                      sofic_oracle, theorem1_diagnostic, window_density_report)
from shiftlab.graph import LabeledGraph, SubsetTable, _subset_step
from shiftlab.sft import block_graph_of

GOLDEN = (1 + math.sqrt(5)) / 2


def test_labeled_graph_construction(alph2):
    g = make_labeled_graph(alph2, ("a",), [("a", "0", "a"), ("a", "1", "a")])
    assert g.states == ("a",)
    assert sorted(g.successors("a", "0")) == ["a"]
    with pytest.raises(AlphabetMismatchError):
        make_labeled_graph(alph2, ("a",), [("a", "2", "a")])


def test_pruning_drops_dead_branch(alph2):
    # b has no outgoing edge, so words reaching only b occur in no point
    edges = [("a", "0", "a"), ("a", "1", "b")]
    g = prune_labeled(make_labeled_graph(alph2, ("a", "b"), edges))
    assert g.states == ("a",)
    o = sofic_oracle(make_labeled_graph(alph2, ("a", "b"), edges), 5)
    assert not o.contains(("1",))
    assert o.contains(("0", "0", "0"))


def test_even_oracle_language(even_oracle):
    assert even_oracle.contains(("0", "1", "1", "0"))
    assert not even_oracle.contains(("0", "1", "0"))
    assert even_oracle.contains(("1", "1", "1"))


def test_determinize_preserves_language(even_graph):
    det = determinize(even_graph)
    assert language_equal_exact(det, even_graph)
    for s in det.states:
        for a in det.alphabet:
            assert len(det.successors(s, a)) <= 1


def test_language_equal_bounds(golden_graph, even_graph):
    assert not language_equal_up_to(golden_graph, even_graph, 3)
    assert language_equal_up_to(even_graph, determinize(even_graph), 13)
    assert not language_equal_exact(golden_graph, even_graph)


def test_is_sft_tags(golden_graph, even_graph):
    tag = is_sft(golden_graph)
    assert tag.is_sft
    tag = is_sft(even_graph)
    assert not tag.is_sft
    assert tag.decision_bound >= 2


def test_sofic_entropy_even(even_graph):
    # even shift entropy equals the golden mean shift entropy
    assert sofic_entropy(even_graph) == pytest.approx(math.log(GOLDEN), abs=1e-12)


def test_sofic_per_enumerate_even(even_graph):
    # runs of 1s between 0s are even, so 01 and 0111 are not periods
    assert per_le_enumerate(even_graph, 4) == [
        (("0",), 1), (("1",), 1),
        (("0", "1", "1"), 3), (("1", "0", "1"), 3), (("1", "1", "0"), 3),
        (("0", "0", "1", "1"), 4), (("0", "1", "1", "0"), 4),
        (("1", "0", "0", "1"), 4), (("1", "1", "0", "0"), 4)]


def test_mfw_length_set_even(even_graph):
    assert mfw_length_set(even_graph, 11) == (3, 5, 7, 9, 11)


def test_theorem1_diagnostic_even(even_graph):
    rep = theorem1_diagnostic(even_graph, 21)
    assert not rep.tag.is_sft
    assert rep.mfw_lengths == tuple(range(3, 22, 2))
    assert rep.density_lower_bound == pytest.approx(4 / 9)


def test_theorem1_diagnostic_golden(golden_graph):
    rep = theorem1_diagnostic(golden_graph, 12)
    assert rep.tag.is_sft
    assert rep.mfw_lengths == (2,)


def test_finite_type_presentation_golden(golden_spec, golden_oracle):
    g = finite_type_presentation(golden_spec)
    o = sofic_oracle(g, 8)
    for n in range(9):
        assert o.words_of_length(n) == golden_oracle.words_of_length(n)


def test_finite_type_presentation_empty(alph2):
    spec = FiniteTypeSpec(alph2, frozenset([()]))
    assert finite_type_presentation(spec).states == ()


def _prefix_automaton_by_definition(spec):
    """The prefix automaton straight from its definition, the reference the
    one-pass construction must reproduce: the states are the empty word and
    the proper prefixes of forbidden words with no forbidden factor; u --a-->
    the longest suffix of ua that is a state, unless a suffix of ua is
    forbidden."""
    words = set(spec.forbidden)
    if () in words:
        return LabeledGraph(spec.alphabet, (), {})

    def clean(u):
        return not any(u[i:j] in words
                       for i in range(len(u)) for j in range(i + 1, len(u) + 1))

    states = {()} | {w[:k] for w in words for k in range(1, len(w)) if clean(w[:k])}
    edges = []
    for u in states:
        for a in spec.alphabet:
            v = u + (a,)
            if any(v[i:] in words for i in range(len(v))):
                continue
            edges.append((u, a, next(v[i:] for i in range(len(v) + 1) if v[i:] in states)))
    return prune_labeled(make_labeled_graph(spec.alphabet, tuple(sorted(states)), edges))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just("abc"[:k]),
    st.sets(st.text(alphabet="abc"[:k], min_size=1, max_size=8), max_size=6))))
@example(("ab", set()))                    # the full shift
@example(("abc", {"b"}))                   # a one-letter word
@example(("ab", {"ab", "abba", "b"}))      # words that are prefixes of others
@example(("ab", {"aab", "ab"}))            # a word that is a suffix of another
def test_finite_type_presentation_matches_definition_random(draw):
    letters, words = draw
    alph = Alphabet(tuple(letters))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(w) for w in words))
    g, ref = finite_type_presentation(spec), _prefix_automaton_by_definition(spec)
    assert g.states == ref.states
    assert g.transitions == ref.transitions


def test_finite_type_presentation_long_words():
    spec = example_nonempty_shift([3, 100, 200])
    g = finite_type_presentation(spec)
    assert len(g.states) == 201
    report = ls_report(minimal_forbidden(sofic_oracle(g, 201), 201))
    assert report.ls_set == (3, 100, 200)


def test_prune_labeled_prunes_once(alph2):
    g = make_labeled_graph(alph2, ("a", "b", "c"),
                           [("a", "0", "a"), ("a", "1", "b"), ("c", "0", "a")])
    p = prune_labeled(g)
    assert p.states == ("a",)
    assert prune_labeled(g) is p
    assert prune_labeled(p) is p
    copy = g.replace()
    assert prune_labeled(copy) is not p
    assert prune_labeled(copy) == p
    # a pruned copy is pruned again: the copy does not inherit the mark
    assert prune_labeled(p.replace()) is not p
    # a copy is built by its type's constructor: a block graph stays one,
    # with the same (memory-1)-word states, and starts unmarked
    block = build_block_graph(FiniteTypeSpec(alph2, frozenset([("1", "1", "1")])))
    copy = block.replace()
    assert type(copy) is BlockGraph and copy == block
    assert copy.vertices == block.vertices == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    assert block.__dict__["_pruned"] is True and "_pruned" not in copy.__dict__
    assert prune_labeled(copy) is not copy and prune_labeled(copy) == block


def test_block_code_validation(alph2):
    with pytest.raises(AlphabetMismatchError):
        # missing rule entries
        BlockCode(alph2, alph2, 1, {("0", "0", "0"): "0"})
    flip = BlockCode(alph2, alph2, 0, {("0",): "1", ("1",): "0"})
    assert flip.apply_to_word(("0", "1", "1")) == ("1", "0", "0")
    assert flip.apply_to_cycle(("0", "1")) == ("1", "0")


def test_block_code_window_semantics(alph2):
    # range 1: output at i reads input i-1..i+1, so words shrink by 2
    majority = {}
    for w in [(a, b, c) for a in "01" for b in "01" for c in "01"]:
        majority[w] = "1" if w.count("1") >= 2 else "0"
    code = BlockCode(alph2, alph2, 1, majority)
    assert code.apply_to_word(("0", "1", "1", "0")) == ("1", "1")


def test_compose_codes(alph2):
    flip = BlockCode(alph2, alph2, 0, {("0",): "1", ("1",): "0"})
    comp = compose_codes(flip, flip)
    w = ("0", "1", "0", "0")
    assert comp.apply_to_word(w) == w


def test_apply_block_code_golden_flip(golden_graph, alph2):
    flip = BlockCode(alph2, alph2, 0, {("0",): "1", ("1",): "0"})
    image = apply_block_code(golden_graph, flip)
    o = sofic_oracle(image, 6)
    table = minimal_forbidden(o, 4)
    assert table.by_length == {2: (("0", "0"),)}


def test_apply_block_code_even_from_golden(golden_graph, even_graph, alph2):
    # XOR of adjacent symbols sends the golden mean shift onto the even shift
    rule = {}
    for a in "01":
        for b in "01":
            for c in "01":
                rule[(a, b, c)] = "1" if b != c else "0"
    code = BlockCode(alph2, alph2, 1, rule)
    image = apply_block_code(golden_graph, code)
    assert language_equal_exact(image, even_graph)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4))
def test_presentations_agree_random(forbidden):
    # the prefix automaton and the block graph present the same shift
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    via_prefix = finite_type_presentation(spec)
    via_blocks = build_block_graph(spec)
    assert via_blocks.deterministic
    if not via_prefix.states:
        assert not via_blocks.states
        return
    assert language_equal_exact(via_prefix, via_blocks)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("01"),
                      st.integers(0, n - 1))))))
def test_mfw_length_set_matches_enumeration_random(graph):
    # the periodic pair walk agrees with word enumeration on random presentations
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1")), tuple(range(n)), edges)
    table = minimal_forbidden(sofic_oracle(g, 13), 12)
    assert mfw_length_set(g, 12) == tuple(sorted(table.by_length))


def _brute_periodic(n, edges, pmax):
    """Words w of length <= pmax with minimal period |w| such that some
    state returns to itself reading w^k for some k <= n."""
    succ = {}
    for s, a, t in edges:
        succ.setdefault((s, a), set()).add(t)
    out = []
    for length in range(1, pmax + 1):
        for w in product("01", repeat=length):
            if any(length % d == 0 and w == w[:d] * (length // d)
                   for d in range(1, length)):
                continue
            for s in range(n):
                cur = {s}
                returned = False
                for _ in range(n):
                    for a in w:
                        cur = {t for u in cur for t in succ.get((u, a), ())}
                    if s in cur:
                        returned = True
                        break
                if returned:
                    out.append((w, length))
                    break
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("01"),
                      st.integers(0, n - 1))))),
    st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4))
def test_per_le_enumerate_matches_brute_force_random(graph, forbidden):
    # the f_w cycle test agrees with closed walks on raw, unpruned edges
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1")), tuple(range(n)), edges)
    assert per_le_enumerate(g, 7) == _brute_periodic(n, edges, 7)
    # periodic points of finite-type documents come from the prefix automaton
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    assert per_le_enumerate(build_block_graph(spec), 7) == \
        per_le_enumerate(finite_type_presentation(spec), 7)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=4), max_size=4),
       st.integers(1, 7), st.text(alphabet="01", max_size=3))
def test_periodic_count_le_exact_on_prefix_automaton_random(forbidden, n, w):
    # a path in the prefix automaton is determined by its labels, so the
    # trace count equals the number of enumerated points, also on the
    # cylinder [w] (the d < |w| branch runs once n or a period is short)
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    w = alph.word(w)
    g = finite_type_presentation(spec)
    points = per_le_enumerate(g, n)
    assert periodic_count_le(g, n) == len(points)
    reading_w = sum(1 for word, p in points
                    if all(word[i % p] == w[i] for i in range(len(w))))
    assert periodic_count_le(g, n, w) == reading_w
    assert periodic_count_le(build_block_graph(spec), n, w) == reading_w


def labeled_graphs(labels="01"):
    """Random presentations on 2..5 states over ``labels``, as (n, edges)."""
    return st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from(labels),
                          st.integers(0, n - 1)))))


@settings(max_examples=60, deadline=None)
@given(labeled_graphs(), st.integers(0, 40))
@example((2, {(0, "0", 0), (0, "1", 1), (1, "1", 0)}), 30)  # the even shift
@example((2, {(0, "0", 0)}), 0)  # a missing letter at horizon 0
def test_length_walk_matches_pair_walk_random(graph, horizon):
    # two walks over different state spaces: ids of the presentation's
    # subset table, and ids of its determinization's subset table
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1")), tuple(range(n)), edges)
    ls = minimal_forbidden_lengths(sofic_oracle(g, horizon), horizon)
    assert ls.ls_set == mfw_length_set(g, horizon)
    short = min(horizon, 14)  # the word walk spells every word
    assert (minimal_forbidden_lengths(sofic_oracle(g, short), short).ls_set
            == minimal_forbidden(sofic_oracle(g, short), short).lengths)
    report = theorem1_diagnostic(g, horizon)
    assert report.mfw_lengths == ls.ls_set
    # the densities read off the block equal a scan of every window
    _, _, scanned = window_density_report(ls.ls_set, horizon)
    assert repr(report.window_densities) == repr(scanned)
    if ls.repeat is not None:  # the block holds on the lengths
        start, period = ls.repeat
        inside = set(ls.ls_set)
        assert all((n in inside) == (n + period in inside)
                   for n in range(start, horizon - period + 1))


@settings(max_examples=150, deadline=None)
@given(labeled_graphs())
def test_is_sft_matches_memory_approximation_random(graph):
    # independent reference: X is finite type exactly when it equals the SFT
    # cut out by its minimal forbidden words of length <= m + 1, where
    # m = decision_bound bounds the memory of any finite-type X
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1")), tuple(range(n)), edges)
    assume(len(determinize(g).states) <= 3)
    tag = is_sft(g)
    m = tag.decision_bound
    words = minimal_forbidden(sofic_oracle(g, m + 2), m + 1).words()
    spec = FiniteTypeSpec(g.alphabet, frozenset(words))
    assert tag.is_sft == language_equal_exact(g, finite_type_presentation(spec))


@settings(max_examples=25, deadline=None)
@given(labeled_graphs("012"))
def test_subset_table_rows_are_subset_steps_random(graph):
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1", "2")), tuple(range(n)), edges)
    table = SubsetTable(g)
    ids = table.close()
    assert table.sets[table.start] == frozenset(g.states)
    assert len(set(table.sets)) == len(table.sets)
    for i in [0, *ids]:
        for a, j in zip(g.alphabet, table.row(i)):
            assert table.sets[j] == _subset_step(g, table.sets[i], a)


@settings(max_examples=40, deadline=None)
@given(labeled_graphs("012"))
@example((2, set()))  # the empty shift: no start state
def test_survivor_oracle_steps_on_its_subset_table_random(steps_on_table, graph):
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1", "2")), tuple(range(n)), edges)
    steps_on_table(sofic_oracle(g, 8), prune_labeled(g))


def _determinize_by_frozenset_bfs(g):
    """The subset construction as a queue of frozensets, the reference the
    table-driven ``determinize`` must reproduce state for state."""
    g = prune_labeled(g)
    if g.is_empty:
        return LabeledGraph(g.alphabet, (), {})
    start = frozenset(g.states)
    discovered = {start: 0}
    order = [start]
    edges = []
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for a in g.alphabet:
            nxt = _subset_step(g, cur, a)
            if not nxt:
                continue
            if nxt not in discovered:
                discovered[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            edges.append((discovered[cur], a, discovered[nxt]))
    det = prune_labeled(make_labeled_graph(g.alphabet, tuple(range(len(order))), edges))
    relabel = {s: i for i, s in enumerate(det.states)}
    edges = [(relabel[s], a, relabel[t]) for s, row in det.transitions.items()
             for a, targets in row.items() for t in targets]
    return make_labeled_graph(g.alphabet, tuple(range(len(det.states))), edges)


@settings(max_examples=40, deadline=None)
@given(labeled_graphs("012"))
def test_determinize_matches_frozenset_bfs_random(graph):
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1", "2")), tuple(range(n)), edges)
    d, ref = determinize(g), _determinize_by_frozenset_bfs(g)
    assert d.states == ref.states
    assert d.transitions == ref.transitions


@settings(max_examples=40, deadline=None)
@given(labeled_graphs(), labeled_graphs(), st.sets(st.tuples(
    st.integers(0, 4), st.just("2"), st.integers(0, 4)), max_size=2))
def test_language_equal_up_to_matches_enumeration_random(graph1, graph2, twos):
    # the second presentation is over {0,1,2}; its 2-edges (possibly none,
    # possibly pruned away) decide whether a letter outside {0,1} occurs
    n1, edges1 = graph1
    n2, edges2 = graph2
    g1 = make_labeled_graph(Alphabet(("0", "1")), tuple(range(n1)), edges1)
    g2 = make_labeled_graph(Alphabet(("0", "1", "2")), tuple(range(n2)),
                            edges2 | {(s, a, t) for s, a, t in twos if max(s, t) < n2})
    o1, o2 = sofic_oracle(g1, 6), sofic_oracle(g2, 6)
    for k in range(1, 7):
        same = all(set(o1.words_of_length(j)) == set(o2.words_of_length(j))
                   for j in range(1, k + 1))
        assert language_equal_up_to(g1, g2, k) == same
        assert language_equal_up_to(g2, g1, k) == same


@settings(max_examples=60, deadline=None)
@given(labeled_graphs("012"))
def test_cached_prune_and_determinize_match_a_fresh_prune_random(graph):
    n, edges = graph
    g = make_labeled_graph(Alphabet(("0", "1", "2")), tuple(range(n)), edges)
    p = prune_labeled(g)
    fresh = prune_labeled(g.replace())
    assert prune_labeled(g) is p
    assert (p.states, p.transitions) == (fresh.states, fresh.transitions)
    d = determinize(g)
    assert prune_labeled(d) is d
    fresh = prune_labeled(d.replace())
    assert (d.states, d.transitions) == (fresh.states, fresh.transitions)
    # copies keep the type and drop what is cached on the original
    block = block_graph_of(p, 3)
    assert block.adjacency is block.adjacency  # cached on the block graph
    for h in (g, d, block):
        copy = h.replace()
        assert type(copy) is type(h) and copy == h and copy is not h
        assert not {"_pruned", "adjacency", "state_index"} & copy.__dict__.keys()
