"""Sofic shifts: labeled graph presentations, block-code images,
determinization, periodic points, and the finite-type decision.

A sofic shift is the set of bi-infinite label sequences of paths in a
finite labeled graph, equivalently the image of an SFT under a sliding
block code.  Everything here works with pruned presentations (every
state on a bi-infinite path), so a word is in the shift's language
exactly when it labels some finite path.  A pruned graph is marked as
such (see ``graph.prune_labeled``), so the functions here prune their
input without paying for it twice.  The presentation of an SFT is the
Aho-Corasick automaton of its forbidden words, built in one pass.

The finite-type decision uses the m-step transitivity criterion: the
shift equals its memory-m approximation iff for every word w of length m
and every left context u, the follower language after uw equals the
follower language after w.  Both sides live in the lattice of survivor
sets of the determinized presentation, so the test is a finite
reachability computation, with no language enumeration anywhere.
"""

import itertools
import math

from .errors import (AlphabetMismatchError, EnumerationCapError,
                     UndefinedEntropyError)
from .graph import (LabeledGraph, SubsetTable, _essential, _mark_pruned,
                    _survivor_oracle, make_labeled_graph, prune_labeled)
from .language import EMPTY_WORD, LETTER_LIMIT
from .sft import DEFAULT_CAP, _minimal_period
from .spectral import spectral_radius_certified
from .forbidden import minimal_forbidden_lengths


class BlockCode:
    """Sliding block code with symmetric range R.

    The rule maps every (2R+1)-word over the source alphabet to one
    target symbol; the code sends x to y with y_t determined by the
    window x_{t-R} .. x_{t+R}.
    """

    def __init__(self, source_alphabet, target_alphabet, range_, rule):
        self.source_alphabet = source_alphabet
        self.target_alphabet = target_alphabet
        self.range_ = range_
        self.rule = rule
        if range_ < 0:
            raise AlphabetMismatchError("code range must be >= 0")
        width = 2 * range_ + 1
        expected = len(source_alphabet) ** width
        if len(rule) != expected:
            raise AlphabetMismatchError(
                "rule must be total: expected %d windows, got %d" % (expected, len(rule)))
        for window, out in rule.items():
            if len(window) != width:
                raise AlphabetMismatchError("rule window %r has wrong width" % (window,))
            source_alphabet.check_word(window)
            if out not in target_alphabet:
                raise AlphabetMismatchError("rule output %r outside target alphabet" % (out,))

    def apply_to_word(self, word):
        """Image of a finite word; the output is 2R shorter."""
        r = self.range_
        if len(word) < 2 * r + 1:
            return EMPTY_WORD
        return tuple(self.rule[word[i:i + 2 * r + 1]] for i in range(len(word) - 2 * r))

    def apply_to_cycle(self, word):
        """Image of the periodic point w^inf, as a word of the same length.

        Output position t reads the cyclic window centered at t.
        """
        p = len(word)
        r = self.range_
        out = []
        for t in range(p):
            window = tuple(word[(t - r + i) % p] for i in range(2 * r + 1))
            out.append(self.rule[window])
        return tuple(out)


def _check_feeds(outer, inner):
    if inner.target_alphabet != outer.source_alphabet:
        raise AlphabetMismatchError("inner code output alphabet must feed the outer code")


def compose_codes(outer, inner):
    """The code computing outer(inner(x)); range adds."""
    _check_feeds(outer, inner)
    r = outer.range_ + inner.range_
    width = 2 * r + 1
    rule = {w: outer.rule[inner.apply_to_word(w)]
            for w in itertools.product(inner.source_alphabet.symbols, repeat=width)}
    return BlockCode(inner.source_alphabet, outer.target_alphabet, r, rule)


def finite_type_presentation(spec):
    """Right-resolving presentation of an SFT from its forbidden words.

    States are the empty word and the proper prefixes of forbidden words
    with no forbidden factor; u --a--> the longest suffix of ua that is a
    state, with no edge when a suffix of ua is forbidden.  Pruned, so the
    presented language is the shift's.

    This is the Aho-Corasick automaton of the words (Crochemore, Mignosi
    and Restivo 1998), built in one breadth-first pass over their trie:
    ``goto[u][a]``, the longest suffix of ua in the trie, is ua or is read
    off u's failure node, and a node is dead when it is forbidden or its
    failure node is dead.  Linear in the total forbidden length times the
    alphabet, besides spelling the states, which it refuses past
    ``LETTER_LIMIT`` letters.
    """
    letters = spec.alphabet.symbols
    # the trie, one entry per node; node 0 is the empty word, node u is w[:k] for (w, k) = names[u]
    children, names, dead = [{}], [((), 0)], [False]
    spelled = 0  # letters in the names of the nodes so far
    for w in spec.forbidden:
        node = 0
        for k, a in enumerate(w):
            child = children[node].get(a)
            if child is None:
                spelled += k + 1
                if spelled > LETTER_LIMIT:
                    raise EnumerationCapError("the state names of the finite-type presentation"
                                              " exceed the limit of %d letters" % LETTER_LIMIT)
                child = children[node][a] = len(names)
                children.append({})
                names.append((w, k + 1))
                dead.append(False)
            node = child
        dead[node] = True
    names = [w[:k] for w, k in names]
    if dead[0]:
        return _mark_pruned(LabeledGraph(spec.alphabet, (), {}))
    # breadth first over the live nodes; what lies below a dead node
    # contains a forbidden word and is never visited
    fail = [0] * len(names)
    goto = {}
    live = [0]
    for u in live:
        back = goto[fail[u]] if u else [0] * len(letters)
        goto[u] = [children[u].get(a, v) for a, v in zip(letters, back)]
        for a, v in zip(letters, back):
            child = children[u].get(a)
            if child is not None:
                fail[child] = v
                dead[child] = dead[child] or dead[v]
                if not dead[child]:
                    live.append(child)
    # pruned on node ids; dead nodes are not live and do not count
    alive = _essential(live, lambda u: (goto[u],))
    kept = sorted(alive, key=names.__getitem__)
    trans = {names[u]: {a: (names[v],) for a, v in zip(letters, goto[u]) if v in alive}
             for u in kept}
    return _mark_pruned(LabeledGraph(spec.alphabet, tuple(names[u] for u in kept), trans))


def apply_block_code(graph, code):
    """Image of the shift a labeled graph presents under a block code, as
    a pruned labeled graph.

    The image's states are the paths of 2R edges, written (s_0, a_1,
    s_1, ..., a_2R, s_2R); an edge extends a path by one edge and drops
    its first, and its label is the code's output on the 2R+1 labels of
    the extended path.  On the pruned graph every path extends both
    ways, so the bi-infinite label sequences are exactly the code images
    of the points of the source shift.
    """
    if graph.alphabet != code.source_alphabet:
        raise AlphabetMismatchError("code source alphabet must match the shift's")
    graph = prune_labeled(graph)

    def extend(path):
        return [path + (a, t) for a, ts in graph.transitions.get(path[-1], {}).items()
                for t in ts]

    paths = [(s,) for s in graph.states]
    for _ in range(2 * code.range_):
        paths = [q for p in paths for q in extend(p)]
    edges = [(q[:-2], code.rule[q[1::2]], q[2:]) for p in paths for q in extend(p)]
    return prune_labeled(make_labeled_graph(code.target_alphabet, paths, edges))


def sofic_oracle(g, horizon):
    """Language oracle of the presented shift (survivor sets, determinized
    lazily).

    Prunes first: a word on a path into a dead end occurs in no point
    of the shift, so unpruned scanning would overcount.
    """
    return _survivor_oracle(prune_labeled(g), horizon)


def determinize(g):
    """Deterministic presentation of the same sofic shift.

    Subset construction seeded with the full state set, then pruned on
    the table's ids: the same in/out fixpoint as ``prune_labeled``, so
    the result is marked pruned and is not pruned again.  States are
    renumbered 0..k-1 in discovery order, so the output is canonical for
    a given input.
    """
    g = prune_labeled(g)
    if g.is_empty:
        return _mark_pruned(LabeledGraph(g.alphabet, (), {}))
    table = SubsetTable(g)
    alive = _essential(table.close(), lambda i: (table.row(i),))
    # a fresh table discovers its sets breadth first, in id order
    kept = sorted(alive)
    state = {i: k for k, i in enumerate(kept)}
    trans = {state[i]: {a: (state[j],) for a, j in zip(table.letters, table.row(i))
                        if j in alive}
             for i in kept}
    return _mark_pruned(LabeledGraph(g.alphabet, tuple(range(len(kept))), trans))


def language_equal_up_to(g1, g2, n):
    """Do the two presented shifts share all words of length <= n?"""
    t1 = SubsetTable(prune_labeled(g1))
    t2 = SubsetTable(prune_labeled(g2))
    return _followers_equal(t1, t1.start, t2, t2.start, n)


def _followers_equal(t1, s1, t2, s2, n):
    """Are the words of length <= n readable from the set s1 of table t1
    the words readable from the set s2 of table t2?

    Product reachability over id pairs; a pair with exactly one empty
    side at depth d <= n witnesses a length-d word on one side only.
    Each letter of the union alphabet reads the row position it has in
    each table, and id 0 where its table lacks it.  When the pair space
    is exhausted without a witness the followers agree at every length,
    so large n costs nothing extra.
    """
    if not s1 or not s2:
        return (not s1) == (not s2)
    pos1 = {a: i for i, a in enumerate(t1.letters)}
    pos2 = {a: i for i, a in enumerate(t2.letters)}
    symbols = t1.letters + tuple(a for a in t2.letters if a not in pos1)
    columns = [(pos1.get(a), pos2.get(a)) for a in symbols]
    row1, row2 = t1.row, t2.row
    start = (s1, s2)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and depth < n:
        depth += 1
        nxt = []
        for x1, x2 in frontier:
            r1 = row1(x1)
            r2 = row2(x2)
            for c1, c2 in columns:
                y1 = r1[c1] if c1 is not None else 0
                y2 = r2[c2] if c2 is not None else 0
                if not y1 and not y2:
                    continue
                if not y1 or not y2:
                    return False
                pair = (y1, y2)
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return True


def language_equal_exact(g1, g2):
    """Exact equality of the two presented shifts (all lengths).

    The pair search of ``language_equal_up_to`` visits each survivor pair
    once, so it ends when its frontier empties; no depth bound is needed.
    """
    return language_equal_up_to(g1, g2, math.inf)


def sofic_entropy(g):
    """Topological entropy via a deterministic presentation.

    A right-resolving presentation's label map is uniformly finite-to-
    one, so the entropy is the log Perron root of its adjacency matrix.
    """
    d = determinize(g)
    if d.is_empty:
        raise UndefinedEntropyError("entropy of the empty shift is undefined")
    radius, _ = spectral_radius_certified(d.adjacency)
    return math.log(radius)


def _has_cycle(f):
    """Does the partial map f on 0..k-1 (-1 where undefined) have a cycle?"""
    mark = [0] * len(f)  # 0 unseen, 1 on the current path, 2 done
    for s in range(len(f)):
        path = []
        while s >= 0 and not mark[s]:
            mark[s] = 1
            path.append(s)
            s = f[s]
        if s >= 0 and mark[s] == 1:
            return True
        for t in path:
            mark[t] = 2
    return False


def per_le_enumerate(g, n, cap=DEFAULT_CAP):
    """Points of minimal period <= n, as (word of minimal length, period).

    Works on any presentation through its determinization, where reading
    w sends each state to at most one state.  w^inf lies in the shift iff
    that partial map f_w has a cycle: a path spelling w^inf meets some
    state twice at multiples of |w|, and a cycle closes a path spelling a
    power of w.  One depth-first walk over the words of length <= n in
    alphabet order carries f_w and drops a branch once f_w is nowhere
    defined.  Each point appears once, keyed by its coordinates over one
    minimal period; the list is sorted by period, then alphabetically.
    Refuses as soon as more than ``cap`` points are found.
    """
    d = determinize(g)
    # each map ends in -1, so reading from "no state" (-1) stays there;
    # children are pushed in reverse so they pop in alphabet order
    steps = [(a, tuple((d.successors(s, a) or (-1,))[0] for s in d.states) + (-1,))
             for a in reversed(d.alphabet.symbols)]
    by_period = [[] for _ in range(n + 1)]
    count = 0
    stack = [(EMPTY_WORD, d.states)] if d.states else []
    while stack:
        word, f = stack.pop()
        k = len(word)
        if k and _minimal_period(word) == k and _has_cycle(f):
            count += 1
            if count > cap:
                raise EnumerationCapError("per_<=%d exceeds the cap %d" % (n, cap))
            by_period[k].append(word)
        if k < n:
            for a, m in steps:
                h = tuple(map(m.__getitem__, f))
                if max(h) >= 0:
                    stack.append((word + (a,), h))
    return [(w, p) for p in range(1, n + 1) for w in by_period[p]]


class SoficClassTag:
    """Outcome of the finite-type decision, with the bound that was used."""

    def __init__(self, is_sft, decision_bound, det_states):
        self.is_sft = is_sft
        self.decision_bound = decision_bound
        self.det_states = det_states


def _pair_levels(table, start, steps):
    """The walk start, F(start), F(F(start)), ... over survivor id pairs.

    F maps a set of pairs (X, Y) to the pairs (delta(X, a), delta(Y, a))
    with delta(X, a) nonempty, read off the rows of ``table``.  F acts on
    a finite space, so the walk is eventually periodic: it stops after
    ``steps`` steps or at the first repeated level.  Returns the distinct
    levels in order and the index the repeat returned to (None when no
    level repeated).
    """
    row = table.row
    levels = [start]
    seen = {start: 0}
    for _ in range(steps):
        nxt = set()
        for x, y in levels[-1]:
            for tx, ty in zip(row(x), row(y)):
                if tx:
                    nxt.add((tx, ty))
        level = frozenset(nxt)
        if level in seen:
            return levels, seen[level]
        seen[level] = len(levels)
        levels.append(level)
    return levels, None


def _level_index(n, count, first):
    """Index into the levels of ``_pair_levels`` holding level n."""
    if n < count:
        return n
    return first + (n - first) % (count - first)


def is_sft(g):
    """Decide whether the presented sofic shift is a shift of finite type.

    The shift is an SFT iff it equals its memory-m approximation for
    m = V^2 + 2, V the determinized state count.  Equality with the
    approximation is the m-step transitivity property: for every
    length-m word w and left context u, the follower language after uw
    equals the follower language after w.  Both followers are unions
    over survivor sets, so the check walks the finite pair graph
    (delta(S, w), delta(Q, w)) for m steps (with cycle detection), as
    pairs of ids in the subset table of the determinization, and
    compares followers at the end.
    """
    table = SubsetTable(determinize(g))
    full = table.start
    if not full:
        return SoficClassTag(True, 0, 0)
    v = len(table.graph.states)
    m = v * v + 2
    levels, first = _pair_levels(table, frozenset((s, full) for s in table.close()), m)
    # every target pair has s1 inside s2, so the followers of s1 lie inside
    # those of s2 and "equal" is the containment the criterion asks for
    target = levels[_level_index(m, len(levels), first)]
    verdict = all(s1 == s2 or _followers_equal(table, s1, table, s2, math.inf)
                  for s1, s2 in target)
    return SoficClassTag(verdict, m, v)


def mfw_length_set(g, horizon):
    """Lengths <= horizon carrying a minimal forbidden word.

    Pair-automaton scan: walk (delta(Q, a w), delta(Q, w)) level by
    level; a letter b with w b readable but a w b not readable witnesses
    a minimal forbidden word a w b.  The levels are eventually periodic,
    so the walk stops at the first repeated level and the witnessed
    lengths repeat with it up to the horizon; no word is enumerated.
    """
    table = SubsetTable(determinize(g))
    full = table.start
    if not full:
        return (1,) if horizon >= 1 else ()
    row = table.row
    lengths = set()
    if 0 in row(full) and horizon >= 1:
        lengths.add(1)
    # level i holds the pairs (delta(Q, a w), delta(Q, w)) with |a w| = i + 1
    start = frozenset((x, full) for x in row(full) if x)
    levels, first = _pair_levels(table, start, max(horizon - 2, 0))
    witnessed = [any(ty and not tx for x, y in level for tx, ty in zip(row(x), row(y)))
                 for level in levels]
    for n in range(2, horizon + 1):
        if witnessed[_level_index(n - 2, len(levels), first)]:
            lengths.add(n)
    return tuple(sorted(lengths))


class Theorem1Report:
    """Finite-horizon evidence for the stability/finite-type dichotomy."""

    def __init__(self, horizon, tag, mfw_lengths, density_lower_bound, window_densities):
        self.horizon = horizon
        self.tag = tag
        self.mfw_lengths = mfw_lengths
        self.density_lower_bound = density_lower_bound
        self.window_densities = window_densities


def theorem1_diagnostic(g, horizon):
    """Report finite-type status against minimal-forbidden-length density.

    A sofic shift with a stable language is finite type, so a strictly
    sofic presentation should show relatively dense minimal-forbidden
    lengths; the report carries the observed window densities as
    evidence at this horizon.  The lengths come from the walk ``ls``
    runs (``minimal_forbidden_lengths`` on the presentation's oracle).
    """
    ls = minimal_forbidden_lengths(sofic_oracle(g, horizon), horizon)
    return Theorem1Report(horizon, is_sft(g), ls.ls_set,
                          max(ls.window_densities.values(), default=0.0), ls.window_densities)
