"""Measures on subshifts backed by finite data.

Three concrete representations: finite supports on periodic points (the
empirical measures nu_n), stationary Markov chains on irreducible
deterministic graphs (the Parry measure, the unique measure of maximal
entropy of an irreducible SFT or a transitive sofic shift), and plain
cylinder tables up to a depth.  All limits in sight are
ineffective, so every operation takes explicit depth and period cutoffs
and reports what was actually computed.

nu_n cylinder values of an SFT and of its block-code images are also exact
(Fractions) from the transfer-matrix counts ``sft.periodic_count_table``,
with no point enumeration: period bounds like 30 on the golden-mean shift
are tractable, where the point count is in the millions.
"""

from dataclasses import dataclass
from fractions import Fraction
import itertools
import math

from .errors import (AlphabetMismatchError, EmptyShiftError,
                     EmptySupportError, HorizonExceededError,
                     NotAnAutomorphismError, ReducibleGraphError,
                     ShiftlabError, UnsupportedSpecError)
from .sft import (DEFAULT_CAP, _minimal_period, periodic_count_table,
                  scc_subgraphs)
from .sofic import (BlockCode, apply_block_code, compose_codes, determinize,
                    language_equal_exact, per_le_enumerate)
from .spectral import perron_vectors, spectral_radius_certified

PROB_TOL = 1e-9
INVARIANCE_TOL = 1e-9  # largest weak* distance autocheck reports as invariant


@dataclass(frozen=True)
class CylinderMeasure:
    """A measure known through its values on cylinders up to ``depth``.

    The table must be total and consistent: the empty word carries 1 and
    each value splits over one-letter extensions.
    """

    alphabet: object
    depth: int
    values: dict

    def __post_init__(self):
        if self.depth < 0:
            raise UnsupportedSpecError("depth must be >= 0")
        root = self.values.get(())
        if root is None or abs(root - 1) > PROB_TOL:
            raise ShiftlabError("cylinder table must give the empty word mass 1")
        words = [()]
        for _ in range(self.depth):
            nxt = []
            for w in words:
                total = 0
                for a in self.alphabet:
                    wa = w + (a,)
                    v = self.values.get(wa)
                    if v is None:
                        raise ShiftlabError("cylinder table missing %r" % (wa,))
                    if v < -1e-12:
                        raise ShiftlabError("negative cylinder value at %r" % (wa,))
                    total += v
                    nxt.append(wa)
                if abs(self.values[w] - total) > PROB_TOL:
                    raise ShiftlabError("cylinder table is not additive at %r" % (w,))
            words = nxt


@dataclass(frozen=True)
class PeriodicSupportMeasure:
    """Finitely supported measure on periodic points.

    Each entry is (word over one minimal period, minimal period, weight);
    the word is the point's coordinates 0..q-1, so rotations of a
    primitive word are distinct entries.
    """

    alphabet: object
    cutoff: int
    entries: tuple

    def __post_init__(self):
        total = Fraction(0)
        seen = set()
        for word, q, weight in self.entries:
            if len(word) != q or _minimal_period(word) != q:
                raise ShiftlabError("entry %r is not keyed by its minimal period" % (word,))
            if weight <= 0:
                raise ShiftlabError("weights must be positive")
            if word in seen:
                raise ShiftlabError("duplicate support point %r" % (word,))
            seen.add(word)
            total += weight
        if self.entries and abs(total - 1) > 1e-12:
            raise ShiftlabError("support weights must sum to 1")


@dataclass(frozen=True)
class ParryMeasure:
    """Stationary Markov chain realizing maximal entropy on an irreducible
    deterministic labeled graph; a block graph is one.

    transition holds P_{uv} = A_{uv} r_v / (lambda r_u) aggregated over
    parallel edges.  The cylinder of a word w is the sum over start
    states s of pi(s) times r_t/(lambda r_u) along each edge u -> t of
    the path from s that spells w, so parallel edges with different
    labels (memory-1 graphs) are resolved by their labels.
    """

    graph: object
    perron: float
    stationary: dict
    transition: tuple
    right: dict


def nu_measure(points, alphabet, cutoff):
    """Uniform empirical measure on the given periodic points.

    ``points`` is a list of (word, minimal period) pairs as produced by
    the period-<= enumerations: every point of minimal period <= cutoff,
    one entry per point.
    """
    points = list(points)
    if not points:
        raise EmptySupportError("no periodic points up to period %d" % cutoff)
    weight = Fraction(1, len(points))
    entries = tuple((w, q, weight) for w, q in points)
    return PeriodicSupportMeasure(alphabet, cutoff, entries)


def eval_cylinder(measure, word):
    """Measure of the cylinder [word] at coordinate 0."""
    if isinstance(measure, PeriodicSupportMeasure):
        measure.alphabet.check_word(word)
        total = Fraction(0)
        for w, q, weight in measure.entries:
            if all(word[i] == w[i % q] for i in range(len(word))):
                total += weight
        return total
    if isinstance(measure, ParryMeasure):
        return _parry_eval(measure, word)
    if isinstance(measure, CylinderMeasure):
        measure.alphabet.check_word(word)
        if len(word) > measure.depth:
            raise HorizonExceededError(
                "cylinder depth %d exceeded by %r" % (measure.depth, word))
        return measure.values[tuple(word)]
    raise UnsupportedSpecError("cannot evaluate cylinders of %r" % (type(measure),))


def _measure_alphabet(measure):
    if isinstance(measure, ParryMeasure):
        return measure.graph.alphabet
    return measure.alphabet


def _cylinder_reader(measure, depth):
    """``word -> measure of [word]`` for words of length <= ``depth``.

    A periodic-support measure is tabulated in one pass: each point adds
    its weight to the one depth-``depth`` cylinder its orbit starts
    with, and each shorter cylinder is the sum of its one-letter
    extensions.  Only cylinders of positive mass are stored.
    """
    if not isinstance(measure, PeriodicSupportMeasure):
        return lambda word: eval_cylinder(measure, word)
    table = {}
    for w, q, weight in measure.entries:
        key = tuple(w[i % q] for i in range(depth))
        table[key] = table.get(key, 0) + weight
    for k in range(depth, 0, -1):
        for word in [u for u in table if len(u) == k]:
            table[word[:-1]] = table.get(word[:-1], 0) + table[word]
    zero = Fraction(0)
    return lambda word: table.get(word, zero)


def weak_star_distance(m1, m2, depth):
    """Max cylinder discrepancy over words of length <= depth."""
    if depth < 0:
        raise UnsupportedSpecError("depth must be >= 0")
    alphabet = _measure_alphabet(m1)
    if alphabet != _measure_alphabet(m2):
        raise AlphabetMismatchError("measures live over different alphabets")
    read1, read2 = _cylinder_reader(m1, depth), _cylinder_reader(m2, depth)
    best = 0
    for k in range(1, depth + 1):
        for word in itertools.product(alphabet.symbols, repeat=k):
            d = abs(read1(word) - read2(word))
            if d > best:
                best = d
    return float(best)


def cylinder_table(measure, depth):
    """Tabulate any measure into a CylinderMeasure up to ``depth``."""
    alphabet = _measure_alphabet(measure)
    read = _cylinder_reader(measure, depth)
    values = {}
    for k in range(depth + 1):
        for word in itertools.product(alphabet.symbols, repeat=k):
            values[word] = read(word)
    return CylinderMeasure(alphabet, depth, values)


def pushforward(measure, code):
    """Image of a periodic-support measure under a block code.

    A period-q point maps to a period-q sequence whose minimal period
    divides q; colliding images merge by adding weights.
    """
    if code.source_alphabet != measure.alphabet:
        raise AlphabetMismatchError("code is not total on the measure's alphabet")
    merged = {}
    for w, q, weight in measure.entries:
        image = code.apply_to_cycle(w)
        mp = _minimal_period(image)
        key = image[:mp]
        merged[key] = merged.get(key, Fraction(0)) + weight
    entries = tuple((w, len(w), weight)
                    for w, weight in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return PeriodicSupportMeasure(code.target_alphabet, measure.cutoff, entries)


# ---- exact nu_n cylinders through transfer matrices ---------------------

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
    counts = {}
    for k in range(depth + 1):
        counts.update(dict.fromkeys(
            itertools.product(code.target_alphabet.symbols, repeat=k), 0))
    counts.update(periodic_count_table(
        graph, n, [graph.alphabet.symbols] * (depth + 2 * code.range_),
        code.apply_to_word))
    for w in reversed(counts):
        if w:
            counts[w[:-1]] += counts[w]
    if counts[()] <= 0:
        raise EmptySupportError("no periodic points up to period %d" % n)
    values = {w: Fraction(c, counts[()]) for w, c in counts.items()}
    return CylinderMeasure(code.target_alphabet, depth, values)


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


# ---- maximal-entropy decomposition of sofic images -----------------------

@dataclass(frozen=True)
class MaxEntropyComponent:
    presentation: object
    measure: CylinderMeasure
    entropy: float


def max_entropy_decomposition(graph, code, depth=6, tol=1e-9):
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
        if h < top - tol:
            continue
        if any(language_equal_exact(image, c.presentation) for c in components):
            continue
        chain = next(g for g in scc_subgraphs(det) if g.states[0] == det.states[comp[0]])
        table = cylinder_table(parry_measure(chain), depth)
        components.append(MaxEntropyComponent(image, table, h))
    return components


@dataclass(frozen=True)
class MuAverageResult:
    measure: CylinderMeasure
    weights: tuple
    cutoff: int


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
    values = {}
    for k in range(depth + 1):
        for word in itertools.product(alphabet.symbols, repeat=k):
            values[word] = float(sum(
                wt * comp.measure.values[word]
                for wt, comp in zip(weights, components)))
    measure = CylinderMeasure(alphabet, depth, values)
    return MuAverageResult(measure, weights, cutoff)


# ---- automorphism invariance ---------------------------------------------

@dataclass(frozen=True)
class AutomorphismReport:
    period_bound: int
    depth: int
    tol: float
    distance: float
    within_tol: bool
    identity_checked_to: int


def certify_inverse_pair(oracle, code, code_inv):
    """Check that code and code_inv invert each other on all words up to
    length 4R+1 (R the composed range) and return that length; raise
    NotAnAutomorphismError on the first word the composition moves."""
    if code.source_alphabet != oracle.alphabet:
        raise AlphabetMismatchError("code does not act on this shift's alphabet")
    r = code.range_ + code_inv.range_
    span = 4 * r + 1
    oracle.check_horizon(span)
    for outer, inner in ((code, code_inv), (code_inv, code)):
        composed = compose_codes(outer, inner)
        for length in range(2 * r + 1, span + 1):
            for w in oracle.words_of_length(length):
                if composed.apply_to_word(w) != w[r:length - r]:
                    raise NotAnAutomorphismError(
                        "composition moves %r; not an inverse pair" % (w,))
    return span


def automorphism_invariance_check(oracle, points, cutoff, code, code_inv,
                                  depth, tol=INVARIANCE_TOL):
    """Does the code preserve nu_n on the given points?  Certifies the
    inverse pair, then compares nu_n with its pushforward at ``depth``."""
    span = certify_inverse_pair(oracle, code, code_inv)
    nu = nu_measure(points, oracle.alphabet, cutoff)
    pushed = pushforward(nu, code)
    distance = weak_star_distance(nu, pushed, depth)
    return AutomorphismReport(cutoff, depth, tol, distance,
                              distance <= tol, span)
