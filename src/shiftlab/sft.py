"""Shifts of finite type: higher-block presentations, languages, entropy,
and exact periodic-point counts.

A finite list of forbidden words over an alphabet determines the shift of
all bi-infinite sequences avoiding them.  With memory f (the longest
forbidden length), the shift is presented by the block graph whose
vertices are the allowed (f-1)-words and whose edges are the allowed
f-words.  Both are read off the shift's language, where every word
extends both ways, so every vertex lies on a bi-infinite path and the
label words of finite paths are exactly the words occurring in points of
the shift.  An empty graph is the empty shift; it is flagged, not
raised, because downstream diagnostics want to report it.  The commands
read the linear-size ``sofic.finite_type_presentation`` instead; the
block graph stays as an independent reference.
"""

import collections
import itertools
import math
import operator

from .errors import (AlphabetMismatchError, EmptyShiftError,
                     EnumerationCapError, UndefinedEntropyError)
from .graph import (LabeledGraph, _mark_pruned, _survivor_oracle,
                    prune_labeled)
from .language import EMPTY_WORD
from .spectral import (int_matmul, int_trace, spectral_radius_certified,
                       strongly_connected_components)

DEFAULT_CAP = 10 ** 6


class FiniteTypeSpec:
    """Finite description of an SFT: alphabet plus forbidden words.

    ``memory`` is the length of the longest forbidden word, at least 1,
    so the block presentation below is always well defined.
    """

    def __init__(self, alphabet, forbidden):
        self.alphabet = alphabet
        self.forbidden = forbidden
        for w in forbidden:
            if not isinstance(w, tuple):
                raise AlphabetMismatchError("forbidden words must be tuples; got %r" % (w,))
            alphabet.check_word(w)

    @property
    def memory(self):
        lengths = [len(w) for w in self.forbidden]
        return max(lengths, default=1) or 1


class BlockGraph(LabeledGraph):
    """Pruned higher-block presentation of an SFT.

    A deterministic labeled graph whose states are the allowed
    (memory-1)-words in sorted order; the edge labeled a leaves u for
    (u + a)[1:].  For memory 1 the single state is the empty word and
    the edges are the allowed letters.
    """

    @property
    def vertices(self):
        return self.states


def build_block_graph(spec):
    """Block presentation of an SFT, read off ``finite_type_presentation``
    by ``block_graph_of``."""
    from .sofic import finite_type_presentation  # deferred: sofic imports this module
    return block_graph_of(finite_type_presentation(spec), spec.memory)


def block_graph_of(presentation, memory):
    """Memory-``memory`` block graph of the SFT a pruned presentation
    presents, read off its language.

    The states are the allowed (memory-1)-words and each allowed
    memory-word ua is an edge u --a--> (ua)[1:].  The oracle over the
    presentation reads the language exactly and every allowed word
    extends both ways, so the result is already pruned.
    """
    oracle = _survivor_oracle(presentation, memory)
    rows = {}
    for w in oracle.words_of_length(memory):
        rows.setdefault(w[:-1], {})[w[-1]] = (w[1:],)
    states = tuple(sorted(oracle.words_of_length(memory - 1)))
    return _mark_pruned(BlockGraph(presentation.alphabet, states,
                                   {u: rows[u] for u in states}))


def sft_oracle(graph, horizon):
    """Language oracle of the shift presented by a pruned block graph.

    Words are read by survivor sets of the graph, exact at every length;
    the declared horizon only bounds what callers may ask for.
    """
    return _survivor_oracle(graph, horizon)


def sft_entropy(graph):
    """Topological entropy: log of the adjacency Perron root.

    Raises undefined-entropy on the empty shift.  The root is the
    largest Perron root over the irreducible components.
    """
    if graph.is_empty:
        raise UndefinedEntropyError("entropy of the empty shift is undefined")
    radius, _ = spectral_radius_certified(graph.adjacency)
    return math.log(radius)


def per_count(graph, p):
    """Number of points of period p (σ^p x = x), exactly: trace of A^p."""
    if p < 1:
        raise EnumerationCapError("period must be >= 1")
    if graph.is_empty:
        return 0
    return int_trace(graph.adjacency_power(p))


def _moebius_table(n):
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
        for d in range(1, n + 1):
            for mult in range(2 * d, n + 1, d):
                mu[mult] -= mu[d]
    return mu


def periodic_count_le(graph, n, word=EMPTY_WORD):
    """Exact number of points of minimal period <= n whose coordinates
    0..|word|-1 read ``word`` (all of them for the empty word).

    The graph must carry each periodic point on exactly one closed path,
    as a block graph and ``sofic.finite_type_presentation`` do.  Then the
    points of period d that read w number c_w(d) = trace(B_w A^(d-|w|)),
    B_w the product of the letter matrices of w.  For d < |w| such a
    point reads w only when w is d-periodic, and then c_w(d) =
    trace(B_{w[:d]}).  Moebius inversion summed over the minimal periods
    q <= n gives sum_d M(n // d) c_w(d), M the running sum of the Moebius
    function; the powers of A come from the graph's one table.  Other
    presentations can carry one point on several paths, and there this
    overcounts.
    """
    return periodic_count_table(graph, n, [(a,) for a in word], tuple)[word]


def periodic_count_table(graph, n, letters, key):
    """``periodic_count_le(graph, n, u)`` summed over the words u with
    u[i] in ``letters[i]``, grouped by ``key(u)``, as a Counter.

    Words grow a letter at a time from their prefix products B_u, and a
    zero product is dropped.  The terms d >= |u| are trace(B_u T) for one
    T = sum_d M(n // d) A^(d - |u|); a term d < |u| is read off the prefix
    u[:d] of a d-periodic u, so beyond length n nothing more is walked.
    """
    table = collections.Counter()
    if graph.is_empty or n < 1:
        return table
    length = len(letters)
    mertens = list(itertools.accumulate(_moebius_table(n)))
    matrices = {a: graph.label_matrix(a) for a in set().union(*letters)}
    layer = [(EMPTY_WORD, graph.adjacency_power(0))]
    for d in range(1, min(length, n) + 1):
        layer = [(v + (a,), b) for v, prefix in layer for a in letters[d - 1]
                 for b in [int_matmul(prefix, matrices[a])] if any(map(any, b))]
        for v, b in layer if d < length else ():
            u = (v * length)[:length]
            if int_trace(b) and all(map(operator.contains, letters, u)):
                table[key(u)] += mertens[n // d] * int_trace(b)
    if length > n:
        return table
    tail = [[0] * len(graph.states) for _ in graph.states]
    for d in range(max(length, 1), n + 1):
        tail = [[t + mertens[n // d] * p for t, p in zip(*rows)]
                for rows in zip(tail, graph.adjacency_power(d - length))]
    columns = list(zip(*tail))
    for u, b in layer:
        table[key(u)] += sum(map(operator.mul, itertools.chain(*b),
                                 itertools.chain(*columns)))
    return table


def periodic_counts(graph, n):
    """Exact number of points of each minimal period q = 1..n, as a list
    indexed by q - 1.

    The points of period d number trace(A^d) on a graph that carries each
    periodic point on exactly one closed path (see ``periodic_count_le``),
    so Moebius inversion gives sum_{d | q} mu(q/d) trace(A^d) points of
    minimal period q.  The powers come from the graph's one table.
    """
    if graph.is_empty or n < 1:
        return [0] * max(n, 0)
    mu = _moebius_table(n)
    counts = [0] * (n + 1)
    for d in range(1, n + 1):
        trace = int_trace(graph.adjacency_power(d))
        for q in range(d, n + 1, d):
            counts[q] += mu[q // d] * trace
    return counts[1:]


def _minimal_period(word):
    p = len(word)
    for d in range(1, p // 2 + 1):
        if p % d == 0 and word == word[:d] * (p // d):
            return d
    return p


def sft_cover(oracle, n):
    """SFT approximation X_n: forbid the minimal forbidden words up to n.

    The result's language agrees with the oracle's up to length n and can
    only be larger beyond.
    """
    from .forbidden import minimal_forbidden  # deferred: forbidden imports this module
    table = minimal_forbidden(oracle, n)
    words = frozenset(w for ws in table.by_length.values() for w in ws)
    return FiniteTypeSpec(oracle.alphabet, words)


def scc_subgraphs(graph):
    """Recurrent strongly connected pieces of a labeled graph.

    Every transitive subshift of the presented shift lives inside one of
    these.
    Loopless single vertices carry no bi-infinite path and are skipped.
    """
    if graph.is_empty:
        raise EmptyShiftError("the empty shift has no components")
    n = len(graph.states)
    idx = graph.state_index
    succ = [[idx[t] for ts in graph.transitions.get(u, {}).values() for t in ts]
            for u in graph.states]
    out = []
    for comp in strongly_connected_components(n, succ):
        if len(comp) == 1:
            i = comp[0]
            if i not in succ[i]:
                continue
        # a recurrent component has no dead ends, so pruning the restriction
        # only drops the edges that leave it
        states = tuple(graph.states[i] for i in sorted(comp))
        out.append(prune_labeled(graph.replace(states=states)))
    return out


def full_shift(alphabet):
    """The full shift over an alphabet, as a pruned block graph."""
    return build_block_graph(FiniteTypeSpec(alphabet, frozenset()))
