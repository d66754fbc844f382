"""Measures on subshifts backed by finite data.

Two representations: stationary Markov chains on irreducible
deterministic graphs (the Parry measure, the unique measure of maximal
entropy of an irreducible SFT or a transitive sofic shift), and plain
cylinder tables up to a depth.  All limits in sight are
ineffective, so every operation takes explicit depth and period cutoffs
and reports what was actually computed.

nu_n and its block-code images are exact cylinder tables (Fractions) of
point counts: enumerated points, or on an SFT the transfer-matrix counts
``sft.periodic_count_table``, where period bounds like 30 on the
golden-mean shift are tractable with millions of points.
"""

from fractions import Fraction
import itertools
import math

from .errors import (AlphabetMismatchError, EmptyShiftError, EmptySupportError,
                     EnumerationCapError, HorizonExceededError,
                     NotAnAutomorphismError, ReducibleGraphError,
                     ShiftlabError, UnsupportedSpecError)
from .graph import prune_labeled
from .language import DEFAULT_CAP, LETTER_LIMIT, WORD_LIMIT
from .sft import periodic_count_table, scc_subgraphs
from .sofic import (BlockCode, _check_feeds, apply_block_code, determinize,
                    language_equal_exact, per_le_enumerate)
from .spectral import perron_vectors, spectral_radius_certified

PROB_TOL = 1e-9
NEGATIVE_FLOOR = -1e-12  # cylinder values below this are refused
# both bounds exactly, so Fraction tables compare without float conversions
_EXACT_BOUNDS = (Fraction(NEGATIVE_FLOOR), Fraction(PROB_TOL))
INVARIANCE_TOL = 1e-9  # largest weak* distance autocheck reports as invariant
ENTROPY_TOL = 1e-9  # image entropies this close to the maximum tie with it


class CylinderMeasure:
    """A measure known through its values on cylinders up to ``depth``.

    The table must be total and consistent: the empty word carries 1 and
    each value splits over one-letter extensions.
    """

    def __init__(self, alphabet, depth, values):
        self.alphabet = alphabet
        self.depth = depth
        self.values = values
        if depth < 0:
            raise UnsupportedSpecError("depth must be >= 0")
        root = values.get(())
        floor, tol = (_EXACT_BOUNDS if isinstance(root, Fraction)
                      else (NEGATIVE_FLOOR, PROB_TOL))
        if root is None or abs(root - 1) > tol:
            raise ShiftlabError("cylinder table must give the empty word mass 1")
        words = [()]
        for _ in range(depth):
            nxt = []
            for w in words:
                total = 0
                for a in alphabet:
                    wa = w + (a,)
                    v = values.get(wa)
                    if v is None:
                        raise ShiftlabError("cylinder table missing %r" % (wa,))
                    if v < floor:
                        raise ShiftlabError("negative cylinder value at %r" % (wa,))
                    total += v
                    nxt.append(wa)
                if abs(values[w] - total) > tol:
                    raise ShiftlabError("cylinder table is not additive at %r" % (w,))
            words = nxt


class ParryMeasure:
    """Stationary Markov chain realizing maximal entropy on an irreducible
    deterministic labeled graph; a block graph is one.

    transition holds P_{uv} = A_{uv} r_v / (lambda r_u) aggregated over
    parallel edges.  The cylinder of a word w is the sum over start
    states s of pi(s) times r_t/(lambda r_u) along each edge u -> t of
    the path from s that spells w, so parallel edges with different
    labels (memory-1 graphs) are resolved by their labels.
    """

    def __init__(self, graph, perron, stationary, transition, right):
        self.graph = graph
        self.perron = perron
        self.stationary = stationary
        self.transition = transition
        self.right = right

    @property
    def alphabet(self):
        return self.graph.alphabet


def eval_cylinder(measure, word):
    """Measure of the cylinder [word] at coordinate 0."""
    if isinstance(measure, ParryMeasure):
        return _parry_eval(measure, word)
    if isinstance(measure, CylinderMeasure):
        measure.alphabet.check_word(word)
        if len(word) > measure.depth:
            raise HorizonExceededError(
                "cylinder depth %d exceeded by %r" % (measure.depth, word))
        return measure.values[tuple(word)]
    raise UnsupportedSpecError("cannot evaluate cylinders of %r" % (type(measure),))


def _words_upto(alphabet, depth, value):
    """``{word: value}`` over the words of length <= ``depth``, shortest
    first: the one listing of cylinders.  Past ``WORD_LIMIT`` words, or
    ``LETTER_LIMIT`` letters in all, it refuses before building any,
    naming the first depth that passes."""
    if depth < 0:
        raise UnsupportedSpecError("depth must be >= 0")
    count = level = 1
    letters = 0
    for k in range(1, depth + 1):
        level *= len(alphabet)
        count += level
        letters += k * level
        if count > WORD_LIMIT:
            raise EnumerationCapError("%d cylinders of depth <= %d exceed the limit %d"
                                      % (count, k, WORD_LIMIT))
        if letters > LETTER_LIMIT:
            raise EnumerationCapError(
                "%d letters in the cylinders of depth <= %d exceed the limit %d"
                % (letters, k, LETTER_LIMIT))
    table = {}
    for k in range(depth + 1):
        table.update(dict.fromkeys(itertools.product(alphabet.symbols, repeat=k), value))
    return table


def _summed_down(table):
    """Add each word's mass into its prefix, longest first (``_words_upto`` order)."""
    for w in reversed(table):
        if w:
            table[w[:-1]] += table[w]


def weak_star_distance(m1, m2, depth):
    """Max cylinder discrepancy over nonempty words of length <= depth."""
    if m1.alphabet != m2.alphabet:
        raise AlphabetMismatchError("measures live over different alphabets")
    t1, t2 = cylinder_table(m1, depth).values, cylinder_table(m2, depth).values
    return float(max((abs(t1[w] - t2[w]) for w in t1 if w), default=0))


def cylinder_table(measure, depth):
    """Tabulate any measure into a CylinderMeasure up to ``depth`` (a table
    of that depth is its own)."""
    if isinstance(measure, CylinderMeasure) and measure.depth == depth:
        return measure
    alphabet = measure.alphabet
    if isinstance(measure, ParryMeasure):
        values = parry_cylinders(measure, _words_upto(alphabet, depth, None))
    else:
        values = {w: eval_cylinder(measure, w)
                  for w in _words_upto(alphabet, depth, None)}
    return CylinderMeasure(alphabet, depth, values)


# ---- exact nu_n cylinder tables ------------------------------------------

def nu_cylinder_measure(graph, n, depth, code=None):
    """Exact cylinder table of nu_n on an SFT (``graph`` a block graph or
    ``finite_type_presentation``) or of its image under a block code.

    nu_n is shift-invariant, so the image of [w] under a code of range R
    counts the points reading a word of length |w| + 2R mapped to w.
    """
    if graph.is_empty:
        raise EmptyShiftError("nu_n of the empty shift is undefined")
    if code is None:
        code = BlockCode(graph.alphabet, graph.alphabet, 0,
                         {(a,): a for a in graph.alphabet.symbols})
    counts = _words_upto(code.target_alphabet, depth, 0)
    counts.update(periodic_count_table(
        graph, n, [graph.alphabet.symbols] * (depth + 2 * code.range_),
        code.apply_to_word))
    return _nu_table(code.target_alphabet, n, depth, counts)


def nu_point_measure(points, alphabet, n, depth, code=None):
    """Exact cylinder table of nu_n, or of its image under a block code,
    on ``points``: the (word, minimal period) list of a period-<= n
    enumeration.  Each point adds 1 to the depth-``depth`` cylinder that
    its orbit, or its coded orbit (``code.apply_to_cycle``), starts with.
    """
    target = alphabet if code is None else code.target_alphabet
    # no points are refused as empty before the table is sized
    counts = _words_upto(target, depth, 0) if points else {(): 0}
    for w, q in points:
        if code is not None:
            w = code.apply_to_cycle(w)
        counts[tuple(w[i % q] for i in range(depth))] += 1
    return _nu_table(target, n, depth, counts)


def _nu_table(alphabet, n, depth, counts):
    """nu_n as a CylinderMeasure, from ``counts``: a ``_words_upto`` table
    holding the point count of each depth-``depth`` cylinder.  The counts
    sum down, an empty support is refused, and each count becomes its
    Fraction of the total."""
    _summed_down(counts)
    if counts[()] <= 0:
        raise EmptySupportError("no periodic points up to period %d" % n)
    values = {w: Fraction(c, counts[()]) for w, c in counts.items()}
    return CylinderMeasure(alphabet, depth, values)


# ---- Parry chains --------------------------------------------------------

def parry_measure(graph):
    """The measure of maximal entropy of the shift presented by an
    irreducible deterministic labeled graph.

    Per-edge probabilities r_v/(lambda r_u) make a stationary chain with
    entropy log lambda, and a right-resolving label map keeps entropy, so
    the labels carry a measure of maximal entropy; it is the only one for
    an irreducible SFT or a transitive sofic shift (Parry 1964).
    Reducible graphs are refused since no single chain carries all of
    their maximal-entropy mass.
    """
    if graph.is_empty:
        raise EmptyShiftError("the empty shift carries no measure")
    if not graph.deterministic:
        raise UnsupportedSpecError("the Parry chain needs a deterministic graph")
    adj = graph.adjacency
    size = len(graph.states)
    try:
        lam, right, left = perron_vectors(adj)
    except ReducibleGraphError:
        raise ReducibleGraphError(
            "graph is reducible; decompose with max_entropy_decomposition first") from None
    norm = sum(left[i] * right[i] for i in range(size))
    stationary = {v: left[i] * right[i] / norm for i, v in enumerate(graph.states)}
    transition = tuple(
        tuple(adj[i][j] * right[j] / (lam * right[i]) for j in range(size))
        for i in range(size))
    measure = ParryMeasure(graph, lam, stationary, transition,
                           {v: right[i] for i, v in enumerate(graph.states)})
    _validate_parry(measure)
    return measure


def _validate_parry(measure):
    graph = measure.graph
    size = len(graph.states)
    lam = measure.perron
    pi = [measure.stationary[v] for v in graph.states]
    p = measure.transition
    for i in range(size):
        if abs(sum(p[i]) - 1) > 1e-10:
            raise ShiftlabError("Parry transition matrix is not row-stochastic")
    for j in range(size):
        flow = sum(pi[i] * p[i][j] for i in range(size))
        if abs(flow - pi[j]) > 1e-10:
            raise ShiftlabError("Parry stationary vector is not stationary")
    # edge-level entropy: parallel edges split P_{uv} evenly by construction
    adj = graph.adjacency
    r = [measure.right[v] for v in graph.states]
    h = 0.0
    for i in range(size):
        for j in range(size):
            if adj[i][j]:
                q = r[j] / (lam * r[i])
                h -= pi[i] * adj[i][j] * q * math.log(q)
    if abs(h - math.log(lam)) > 1e-8:
        raise ShiftlabError("Parry chain entropy does not match log(Perron root)")


def _parry_eval(measure, word):
    graph = measure.graph
    graph.alphabet.check_word(word)
    lam, right = measure.perron, measure.right
    total = 0.0
    for s, prob in measure.stationary.items():
        cur = s
        for a in word:
            nxt = graph.successors(cur, a)
            if not nxt:
                break
            prob *= right[nxt[0]] / (lam * right[cur])
            cur = nxt[0]
        else:
            total += prob
    return total


def parry_cylinders(measure, words):
    """``{word: cylinder value}`` over ``words``, as ``_parry_eval`` gives
    each, in one depth-first walk over the words in sorted order.

    The walk keeps, for each prefix of the last word, the (state,
    product) pairs of the start states whose path is still alive, in
    ``stationary`` order, so a word steps only past the prefix it shares
    with the word before.  Each product is multiplied in the order
    ``_parry_eval`` uses, and each word's terms are added in
    ``stationary`` order from 0.0, so the floats are the same.
    """
    graph = measure.graph
    lam, right = measure.perron, measure.right
    # (successor, factor) per state and letter: the factor is the
    # quotient _parry_eval multiplies by
    edges = {u: {a: (ts[0], right[ts[0]] / (lam * right[u]))
                 for a, ts in graph.transitions.get(u, {}).items() if ts}
             for u in graph.states}
    values = dict.fromkeys(words)
    path = [list(measure.stationary.items())]  # path[i]: the pairs after i letters
    last = ()
    for w in sorted(values):
        graph.alphabet.check_word(w)
        k, most = 0, min(len(last), len(w))
        while k < most and last[k] == w[k]:
            k += 1
        del path[k + 1:]
        for a in w[k:]:
            alive = []
            for cur, prob in path[-1]:
                edge = edges[cur].get(a)
                if edge is not None:
                    alive.append((edge[0], prob * edge[1]))
            path.append(alive)
        total = 0.0
        for _, prob in path[-1]:
            total += prob
        values[w] = total
        last = w
    return values


# ---- maximal-entropy decomposition of sofic images -----------------------

class MaxEntropyComponent:
    def __init__(self, presentation, measure, entropy):
        self.presentation = presentation
        self.measure = measure
        self.entropy = entropy


def max_entropy_decomposition(graph, code, depth=6):
    """Entropy-maximal transitive pieces of the image shift, with their
    maximal-entropy measures.

    Candidates are the code images of every recurrent strongly connected
    piece of the source graph; keeping those whose image entropy ties the
    maximum is what handles codes that collapse a high-entropy piece onto
    a small shift.  Images presenting the same shift are merged.

    Each image's measure is the Parry chain on the top component of its
    deterministic presentation.  Right-resolving label maps preserve
    entropy, so the chain's pushforward is maximal; uniqueness for
    transitive sofic shifts makes the choice of top component immaterial.
    """
    subgraphs = scc_subgraphs(graph)
    if not subgraphs:
        raise EmptyShiftError("no recurrent part; nothing to decompose")
    candidates = []
    for sub in subgraphs:
        image = apply_block_code(sub, code)
        if image.is_empty:
            continue
        det = determinize(image)
        radius, comp = spectral_radius_certified(det.adjacency)
        candidates.append((image, det, comp, math.log(radius)))
    if not candidates:
        raise EmptyShiftError("the image shift is empty")
    top = max(h for _, _, _, h in candidates)
    components = []
    for image, det, comp, h in candidates:
        if h < top - ENTROPY_TOL:
            continue
        if any(language_equal_exact(image, c.presentation) for c in components):
            continue
        chain = prune_labeled(det.replace(states=tuple(det.states[i] for i in comp)))
        table = cylinder_table(parry_measure(chain), depth)
        components.append(MaxEntropyComponent(image, table, h))
    return components


class MuAverageResult:
    def __init__(self, measure, weights, cutoff):
        self.measure = measure
        self.weights = weights
        self.cutoff = cutoff


def mu_y_average(components, cutoff, depth, cap=DEFAULT_CAP):
    """Periodic-point-weighted average of component measures.

    Component i receives c_i = |per_<=cutoff(Y_i)| / |union of all
    per_<=cutoff(Y_j)|, points counted individually and keyed by their
    minimal word; conjugate components thus weigh equally.  Refuses once
    a component has more than ``cap`` points.
    """
    if not components:
        raise EmptySupportError("no components to average")
    point_sets = []
    for comp in components:
        pts = {w for w, _ in per_le_enumerate(comp.presentation, cutoff, cap)}
        if not pts:
            raise EmptySupportError(
                "a component has no periodic points up to %d; raise the cutoff" % cutoff)
        point_sets.append(pts)
    union = set().union(*point_sets)
    weights = tuple(Fraction(len(s), len(union)) for s in point_sets)
    alphabet = components[0].measure.alphabet
    for comp in components:
        if comp.measure.alphabet != alphabet:
            raise AlphabetMismatchError("components over different alphabets")
        if comp.measure.depth < depth:
            raise HorizonExceededError(
                "component tables stop at depth %d" % comp.measure.depth)
    values = {word: float(sum(wt * comp.measure.values[word]
                              for wt, comp in zip(weights, components)))
              for word in _words_upto(alphabet, depth, None)}
    measure = CylinderMeasure(alphabet, depth, values)
    return MuAverageResult(measure, weights, cutoff)


# ---- automorphism invariance ---------------------------------------------

class AutomorphismReport:
    def __init__(self, period_bound, depth, tol, distance, within_tol, identity_checked_to):
        self.period_bound = period_bound
        self.depth = depth
        self.tol = tol
        self.distance = distance
        self.within_tol = within_tol
        self.identity_checked_to = identity_checked_to


def certify_inverse_pair(oracle, code, code_inv):
    """Check that code and code_inv invert each other on all words up to
    length 4R+1 (R the composed range) and return that length; raise
    NotAnAutomorphismError on the first word the composition moves.  Each
    word goes through both codes: no |A|^(2R+1)-window composed table."""
    if code.source_alphabet != oracle.alphabet:
        raise AlphabetMismatchError("code does not act on this shift's alphabet")
    r = code.range_ + code_inv.range_
    span = 4 * r + 1
    oracle.check_horizon(span)
    oracle.words_of_length(span)  # past WORD_LIMIT, refused before any check
    for outer, inner in ((code, code_inv), (code_inv, code)):
        _check_feeds(outer, inner)
        for length in range(2 * r + 1, span + 1):
            for w in oracle.words_of_length(length):
                if outer.apply_to_word(inner.apply_to_word(w)) != w[r:length - r]:
                    raise NotAnAutomorphismError(
                        "composition moves %r; not an inverse pair" % (w,))
    return span


def automorphism_invariance_check(oracle, points, cutoff, code, code_inv,
                                  depth, tol=INVARIANCE_TOL):
    """Does the code preserve nu_n on the given points (a list, as
    ``nu_point_measure`` takes it)?  Certifies the inverse pair, then
    compares the tables of nu_n and of its image at ``depth``."""
    span = certify_inverse_pair(oracle, code, code_inv)
    nu = nu_point_measure(points, oracle.alphabet, cutoff, depth)
    image = nu_point_measure(points, oracle.alphabet, cutoff, depth, code)
    distance = weak_star_distance(nu, image, depth)
    return AutomorphismReport(cutoff, depth, tol, distance,
                              distance <= tol, span)
