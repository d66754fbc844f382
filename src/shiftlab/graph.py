"""Finite labeled graphs: the one graph type behind SFT block
presentations and sofic presentations.

A state set is a frozenset; reading a letter from a state set gives the
survivor set of its successors.  ``SubsetTable`` interns the survivor
sets of one presentation as ints, with one row of successor ids per
set, and every reader of words steps on such a table: the oracles of
finite-type, sofic and Parry-beta documents (their states are the ids),
determinization and the pair-space walks.  A graph is
pruned once: ``prune_labeled`` keeps its result on the graph and marks
the result as pruned, so later prunes of either cost nothing.
"""

from functools import cached_property

from .errors import AlphabetMismatchError
from .language import LanguageOracle
from .record import Record
from .spectral import int_matmul


class LabeledGraph(Record):
    """Finite labeled graph presenting a sofic shift.

    ``transitions[s][a]`` is the tuple of successors of state s under
    letter a; absent entries mean no edge.  The presentation is
    deterministic when every (state, letter) has at most one successor.
    """

    _fields = ("alphabet", "states", "transitions")

    def __init__(self, alphabet, states, transitions):
        self.alphabet = alphabet
        self.states = states
        self.transitions = transitions

    @property
    def is_empty(self):
        return not self.states

    @cached_property
    def state_index(self):
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def deterministic(self):
        return all(len(ts) <= 1
                   for row in self.transitions.values()
                   for ts in row.values())

    def successors(self, state, letter):
        return self.transitions.get(state, {}).get(letter, ())

    @cached_property
    def adjacency(self):
        """Integer adjacency matrix counting parallel edges."""
        n = len(self.states)
        a = [[0] * n for _ in range(n)]
        idx = self.state_index
        for s, row in self.transitions.items():
            for ts in row.values():
                for t in ts:
                    a[idx[s]][idx[t]] += 1
        return a

    @cached_property
    def _adjacency_powers(self):
        n = len(self.states)
        return [[[int(i == j) for j in range(n)] for i in range(n)]]

    def adjacency_power(self, k):
        """A^k, exact.  The powers are kept on the graph, so every count
        over it (one per cylinder, say) shares one table."""
        powers = self._adjacency_powers
        while len(powers) <= k:
            powers.append(int_matmul(powers[-1], self.adjacency))
        return powers[k]

    def label_matrix(self, letter):
        """0/1 matrix of the edges carrying one letter."""
        n = len(self.states)
        m = [[0] * n for _ in range(n)]
        idx = self.state_index
        for s, row in self.transitions.items():
            for t in row.get(letter, ()):
                m[idx[s]][idx[t]] = 1
        return m


def make_labeled_graph(alphabet, states, edges):
    """Build a LabeledGraph from an edge list of (source, letter, target)."""
    states = tuple(states)
    seen = set(states)
    trans = {}
    for s, a, t in edges:
        if s not in seen or t not in seen:
            raise AlphabetMismatchError("edge endpoints must be declared states")
        if a not in alphabet:
            raise AlphabetMismatchError("edge label %r outside the alphabet" % (a,))
        trans.setdefault(s, {}).setdefault(a, set()).add(t)
    index = {s: i for i, s in enumerate(states)}
    frozen = {
        s: {a: tuple(sorted(ts, key=index.__getitem__)) for a, ts in row.items()}
        for s, row in trans.items()
    }
    return LabeledGraph(alphabet, states, frozen)


def prune_labeled(g):
    """Essential part: keep states with both an in- and an out-edge,
    iterating to a fixpoint.

    State order and the graph's type (with any extra fields) are kept.
    A graph is pruned once: the result is stored on ``g``, as a cached
    property would be, and marked as its own pruned form, so pruning the
    same graph or a pruned one again returns the stored graph at once.
    A copy made with ``replace`` starts without it.
    """
    pruned = g.__dict__.get("_pruned")
    if pruned is not None:
        return g if pruned is True else pruned
    transitions = g.transitions
    alive = _essential(g.states, lambda s: transitions.get(s, {}).values())
    states = tuple(s for s in g.states if s in alive)
    index = {s: i for i, s in enumerate(states)}
    trans = {}
    for s in states:
        row = {}
        for a, ts in transitions.get(s, {}).items():
            kept = tuple(t for t in ts if t in alive)
            if len(kept) > 1:
                kept = tuple(sorted(kept, key=index.__getitem__))
            if kept:
                row[a] = kept
        if row:
            trans[s] = row
    g.__dict__["_pruned"] = out = _mark_pruned(g.replace(states=states, transitions=trans))
    return out


def _essential(nodes, rows):
    """The nodes with both an in- and an out-edge, iterating to a fixpoint:
    the states ``prune_labeled`` keeps.  ``rows(u)`` lists u's successors
    as tuples (one per letter, say); successors outside ``nodes`` do not
    count."""
    alive = set(nodes)
    while True:
        has_out, has_in = set(), set()
        for u in alive:
            targets = [v for vs in rows(u) for v in vs if v in alive]
            if targets:
                has_out.add(u)
                has_in.update(targets)
        keep = has_out & has_in
        if keep == alive:
            return alive
        alive = keep


def _mark_pruned(g):
    """Record that ``g`` is already pruned, so ``prune_labeled`` returns it
    as it is; the mark is ``True`` rather than ``g`` to keep ``g`` out of
    a reference cycle.  Returns ``g``."""
    g.__dict__["_pruned"] = True
    return g


def _subset_step(g, states, letter):
    out = set()
    transitions = g.transitions
    for s in states:
        out.update(transitions.get(s, {}).get(letter, ()))
    return frozenset(out)


class SubsetTable:
    """The subset construction of one presentation, seeded with its full
    state set: survivor sets interned as ints, 0 for the empty set.

    ``row(i)`` is the tuple of successor ids of set i, one per letter of
    the alphabet in order, computed on first use.  A row interns the
    sets it reaches, so the table holds the empty set and the sets
    reachable from ``start`` (id 1, or 0 when the graph has no state).
    Asking for rows in increasing id order visits the sets breadth
    first, in the order of their discovery.  A table belongs to one
    call, or an oracle keeps its table; nothing is kept on the graph.
    """

    def __init__(self, g):
        self.graph = g
        self.letters = g.alphabet.symbols
        self.sets = [frozenset(), frozenset(g.states)] if g.states else [frozenset()]
        self._ids = {t: i for i, t in enumerate(self.sets)}
        self._rows = [(0,) * len(self.letters)] + [None] * (len(self.sets) - 1)
        self.start = len(self.sets) - 1

    def row(self, i):
        r = self._rows[i]
        if r is None:
            g, states, ids, sets = self.graph, self.sets[i], self._ids, self.sets
            r = []
            for a in self.letters:
                t = _subset_step(g, states, a)
                j = ids.setdefault(t, len(sets))
                if j == len(sets):
                    sets.append(t)
                    self._rows.append(None)
                r.append(j)
            r = self._rows[i] = tuple(r)
        return r

    def close(self):
        """Compute every row, so that the table holds every set reachable
        from ``start``; returns their ids, every id but 0."""
        i = 1
        while i < len(self.sets):
            self.row(i)
            i += 1
        return range(1, len(self.sets))


def _survivor_oracle(g, horizon):
    """Language oracle of a pruned presentation, determinized lazily: the
    state after a word is the id in one ``SubsetTable`` of its survivor
    set, and the word is allowed while that set is nonempty."""
    table = SubsetTable(g)
    column = g.alphabet._index.get  # a letter's position in every row

    def step(i, a):
        k = column(a)
        return None if k is None else table.row(i)[k] or None

    return LanguageOracle(g.alphabet, table.start or None, step, horizon)
