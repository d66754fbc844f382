"""Shift-description documents and their realizations.

One JSON document per shift.  The surface is flat: a ``kind`` field, an
optional ``label``, and kind-specific payload keys at top level.  Parsing
validates structure only; realizing a document builds the oracle and
whatever finite presentation the kind affords, bounded by a horizon.

Realization is the seam between descriptions and computation: every
command downstream works off a RealizedShift and never re-dispatches on
the kind.  A command that needs data a kind lacks (finite-type data, a
finite presentation, substitution rules, an induced recoding) asks the
realized shift for it with ``RealizedShift.need``, which is the one place
that refuses.
"""

import json

# beta and dynamics are read through _module by the realizers that need
# them, so a process that realizes no beta, substitution or induced
# document never compiles them.  measures stays here: tests patch its
# names in this module, and perfbench/child.py reaches it only through
# this module, before its tracemalloc pass, so no report's peak counts
# its compile.
from . import _module
from .errors import EnumerationCapError, UnsupportedSpecError
from .forbidden import example_nonempty_shift
from .graph import make_labeled_graph
from .language import DEFAULT_CAP, Alphabet
from .measures import nu_cylinder_measure, nu_point_measure
from .record import Record
from .sft import FiniteTypeSpec, block_graph_of, periodic_counts
from .sofic import (BlockCode, finite_type_presentation, per_le_enumerate,
                    sofic_entropy, sofic_oracle)

LISTED = 200  # periodic reports list the points when there are this few


class ShiftDocument(Record):
    _fields = ("kind", "payload", "label")

    def __init__(self, kind, payload, label=""):
        self.kind = kind
        self.payload = payload
        self.label = label


def _fail(msg):
    raise UnsupportedSpecError("shift document: " + msg)


def _check_word_item(item, where):
    if isinstance(item, str):
        return
    if isinstance(item, list) and all(isinstance(s, str) for s in item):
        return
    _fail("%s must be a string or a list of symbols" % (where,))


def _check_keys(payload, required, optional=()):
    for key in required:
        if key not in payload:
            _fail("missing key %r" % (key,))
    for key in payload:
        if key not in required and key not in optional:
            _fail("unknown key %r" % (key,))


def _validate_payload(kind, payload):
    # integer fields test type(x) is int, which JSON's true and false fail
    if kind == "finite-type":
        _check_keys(payload, ("alphabet", "forbidden"))
        if not isinstance(payload["alphabet"], list):
            _fail("alphabet must be a list of symbols")
        if not isinstance(payload["forbidden"], list):
            _fail("forbidden must be a list of words")
        for w in payload["forbidden"]:
            _check_word_item(w, "forbidden word")
    elif kind == "sofic":
        _check_keys(payload, ("alphabet", "states", "edges"))
        if not isinstance(payload["alphabet"], list):
            _fail("alphabet must be a list of symbols")
        if not isinstance(payload["states"], list) or not payload["states"]:
            _fail("states must be a nonempty list")
        # states are named by str(), as _realize_sofic names them
        if len({str(s) for s in payload["states"]}) != len(payload["states"]):
            _fail("state names must be distinct")
        if not isinstance(payload["edges"], list):
            _fail("edges must be a list of [source, label, target] triples")
        for e in payload["edges"]:
            if not (isinstance(e, list) and len(e) == 3 and isinstance(e[1], str)):
                _fail("edges must be [source, label, target] triples")
    elif kind == "beta":
        _check_keys(payload, ("beta",), ("digits",))
        if not isinstance(payload["beta"], str):
            _fail("beta must be a specification string")
        if "digits" in payload and (type(payload["digits"]) is not int
                                    or payload["digits"] < 1):
            _fail("digits must be a positive integer")
    elif kind == "substitution":
        _check_keys(payload, ("rules", "seed"))
        if not isinstance(payload["rules"], dict) or not payload["rules"]:
            _fail("rules must be a nonempty map letter -> word")
        for a, w in payload["rules"].items():
            _check_word_item(w, "rule image of %r" % (a,))
        if not isinstance(payload["seed"], str):
            _fail("seed must be a letter")
    elif kind == "induced":
        _check_keys(payload, ("base", "window", "return_rule"), ("clopen", "cap"))
        if not isinstance(payload["base"], dict):
            _fail("base must be a nested shift document object")
        if type(payload["window"]) is not int or payload["window"] < 0:
            _fail("window must be a nonnegative integer")
        rule = payload["return_rule"]
        if not (rule == "first-return" or type(rule) is int or isinstance(rule, dict)):
            _fail("return_rule must be an integer, a map, or \"first-return\"")
        if isinstance(rule, dict) and not all(type(t) is int for t in rule.values()):
            _fail("return_rule map values must be integers")
        if payload.get("clopen") is not None:
            if not isinstance(payload["clopen"], list):
                _fail("clopen must be a list of windows")
            for w in payload["clopen"]:
                _check_word_item(w, "clopen window")
        if "cap" in payload and (type(payload["cap"]) is not int
                                 or payload["cap"] < 1):
            _fail("cap must be a positive integer")
    elif kind == "example-nonempty":
        _check_keys(payload, ("lengths",))
        if not isinstance(payload["lengths"], list) or not all(
                type(x) is int for x in payload["lengths"]):
            _fail("lengths must be a list of integers")
    elif kind == "example-betashift":
        _check_keys(payload, ("mode", "steps"))
        if payload["mode"] not in ("specified", "synchronized"):
            _fail("mode must be \"specified\" or \"synchronized\"")
        if type(payload["steps"]) is not int or payload["steps"] < 0:
            _fail("steps must be a nonnegative integer")
    else:
        _fail("unknown kind %r" % (kind,))


def document_from_object(obj):
    if not isinstance(obj, dict):
        _fail("top level must be an object")
    if "kind" not in obj:
        _fail("missing key 'kind'")
    kind = obj["kind"]
    label = obj.get("label", "")
    if not isinstance(label, str):
        _fail("label must be a string")
    payload = {k: v for k, v in obj.items() if k not in ("kind", "label")}
    _validate_payload(kind, payload)
    return ShiftDocument(kind, payload, label)


def parse_shift_document(text):
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise UnsupportedSpecError("shift document is not valid JSON: %s" % (exc,))
    except RecursionError:
        raise UnsupportedSpecError("shift document is nested too deeply") from None
    return document_from_object(obj)


def serialize_shift_document(doc):
    obj = dict(doc.payload)
    obj["kind"] = doc.kind
    if doc.label:
        obj["label"] = doc.label
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def read_text(path):
    r"""A file's text as text mode reads it: its bytes decoded as UTF-8,
    with ``\r\n`` and ``\r`` read as ``\n``.  Raises
    ``UnicodeDecodeError`` on bytes that are not UTF-8."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_shift_document(path):
    try:
        text = read_text(path)
    except UnicodeDecodeError as exc:
        raise UnsupportedSpecError("shift document is not UTF-8 text: %s" % (exc,))
    return parse_shift_document(text)


# ---- realization ----------------------------------------------------------

# what each optional field of a RealizedShift holds, as refusals name it
_NEEDS = {"spec": "finite-type data", "labeled": "a finite presentation",
          "substitution": "substitution rules",
          "induced_spec": "an induced recoding"}


class RealizedShift:
    """A document made computable: oracle plus whatever structure exists.

    ``labeled`` is a sofic presentation when one is available (this
    includes eventually periodic beta expansions), and then ``oracle``
    steps on it; ``spec`` is the finite-type data when the kind has it,
    the rest are kind artifacts.
    ``need`` hands out a field or refuses, in one wording, when the kind
    lacks it.
    """

    def __init__(self, document, horizon, oracle, spec=None, labeled=None, expansion=None,
                 stream=None, substitution=None, induced_spec=None, base=None):
        self.document = document
        self.horizon = horizon
        self.oracle = oracle
        self.spec = spec
        self.labeled = labeled
        self.expansion = expansion
        self.stream = stream
        self.substitution = substitution
        self.induced_spec = induced_spec
        self.base = base
        self._graph = None

    def need(self, field, what):
        value = getattr(self, field)
        if value is None:
            raise UnsupportedSpecError("%s needs %s; kind %r has none"
                                       % (what, _NEEDS[field], self.document.kind))
        return value

    def block_graph(self):
        """The block graph of finite-type data, built on first demand.

        No command reads it: every command works on ``labeled``, whose
        size is linear in the forbidden words where the block graph's is
        exponential in the memory.  It is kept for ``perfbench/``, which
        draws and checks its documents by it.
        """
        if self._graph is None:
            spec = self.need("spec", "the block graph")
            self._graph = block_graph_of(self.labeled, spec.memory)
        return self._graph


def _parse_word(alphabet, item):
    return alphabet.word(item if isinstance(item, str) else tuple(item))


def _realize_finite_type(doc, horizon):
    """Both finite-type kinds: the spec, its presentation (already pruned),
    and the oracle over that presentation."""
    if doc.kind == "example-nonempty":
        spec = example_nonempty_shift(doc.payload["lengths"])
    else:
        alphabet = Alphabet(tuple(doc.payload["alphabet"]))
        words = frozenset(_parse_word(alphabet, w) for w in doc.payload["forbidden"])
        spec = FiniteTypeSpec(alphabet, words)
    labeled = finite_type_presentation(spec)
    return RealizedShift(doc, horizon, sofic_oracle(labeled, horizon),
                         spec=spec, labeled=labeled)


def _realize_sofic(doc, horizon):
    alphabet = Alphabet(tuple(doc.payload["alphabet"]))
    states = tuple(str(s) for s in doc.payload["states"])
    edges = [(str(s), a, str(t)) for s, a, t in doc.payload["edges"]]
    g = make_labeled_graph(alphabet, states, edges)
    return RealizedShift(doc, horizon, sofic_oracle(g, horizon), labeled=g)


def _realize_beta(doc, horizon):
    beta = _module("beta")
    expansion = beta.beta_stream(doc.payload["beta"], horizon, doc.payload.get("digits"))
    stream = expansion.working_stream()
    if stream.status == "eventually-periodic":
        labeled = beta.beta_presentation(stream)
        oracle = sofic_oracle(labeled, horizon)
    else:  # the digit rule, to the digits known
        horizon = min(horizon, stream.known_length)
        labeled, oracle = None, beta.beta_oracle(stream, horizon)
    return RealizedShift(doc, horizon, oracle, labeled=labeled,
                         expansion=expansion, stream=stream)


def _realize_substitution(doc, horizon):
    dynamics = _module("dynamics")
    rules = {a: tuple(w) for a, w in doc.payload["rules"].items()}
    tau = dynamics.Substitution(rules, doc.payload["seed"])
    oracle = dynamics.subst_oracle(tau, horizon)
    return RealizedShift(doc, horizon, oracle, substitution=tau)


def _realize_induced(doc, horizon):
    dynamics = _module("dynamics")
    base_doc = document_from_object(doc.payload["base"])
    window = doc.payload["window"]
    cap = doc.payload.get("cap", dynamics.RETURN_CAP)
    width = 2 * window + 1
    rule = doc.payload["return_rule"]

    # probe pass: enough base horizon to resolve return times, once
    probe = realize(base_doc, width + (cap if rule == "first-return" else 0))
    alphabet = probe.oracle.alphabet
    clopen = doc.payload.get("clopen")
    if clopen is not None:
        clopen = frozenset(_parse_word(alphabet, w) for w in clopen)
    if isinstance(rule, dict):
        rule = {_parse_word(alphabet, w): int(t) for w, t in rule.items()}
    spec = dynamics.InducedSpec(probe.oracle, window, clopen, rule, cap)
    return _induced(doc, spec, probe, horizon)


def _induced(doc, spec, base, horizon):
    """The induced shift of ``spec`` at ``horizon``, over ``base`` (the
    realization ``spec`` reads) lengthened to the base horizon needed."""
    dynamics = _module("dynamics")
    needed = dynamics.base_horizon(spec, horizon)
    if needed > base.horizon:
        base = _lengthen(base, needed)
        spec = dynamics.rebase(spec, base.oracle)
    oracle = dynamics.induce_recode(spec, horizon)
    return RealizedShift(doc, horizon, oracle, induced_spec=spec, base=base)


def _lengthen(realized, horizon):
    """``realized`` at a longer horizon.  An induced shift keeps its
    resolved recoding and lengthens only its own base, down to the leaf:
    the one level realized again from its document."""
    if realized.induced_spec is None:
        return realize(realized.document, horizon)
    return _induced(realized.document, realized.induced_spec,
                    realized.base, horizon)


def _realize_example_betashift(doc, horizon):
    beta = _module("beta")
    stream = beta.example_betashift(doc.payload["mode"], doc.payload["steps"])
    horizon = min(horizon, stream.known_length)
    oracle = beta.beta_oracle(stream, horizon)
    return RealizedShift(doc, horizon, oracle, stream=stream)


_REALIZERS = {
    "finite-type": _realize_finite_type,
    "sofic": _realize_sofic,
    "beta": _realize_beta,
    "substitution": _realize_substitution,
    "induced": _realize_induced,
    "example-nonempty": _realize_finite_type,
    "example-betashift": _realize_example_betashift,
}


def realize(doc, horizon):
    if horizon < 1:
        raise UnsupportedSpecError("horizon must be >= 1")
    return _REALIZERS[doc.kind](doc, horizon)


def periodic_points_le(realized, n, cap=DEFAULT_CAP):
    """All points of minimal period <= n, as (word, period) pairs.

    Needs a finite presentation; an oracle alone only bounds periodicity
    by evidence, which is not good enough to weight a measure.  The
    enumerator refuses once it finds more than ``cap`` points, so an
    over-cap call walks cap + 1 points first, on finite-type data too.
    """
    return per_le_enumerate(realized.need("labeled", "periodic enumeration"),
                            n, cap)


def periodic_census(realized, n, cap=DEFAULT_CAP):
    """Number of points of each minimal period q = 1..n, as a list indexed
    by q - 1, and the (word, period) pairs when there are at most
    ``LISTED`` of them (None otherwise).

    Finite-type data are counted exactly by traces, refused over ``cap``
    before any word is walked, and enumerated only to list the points.
    Other presentations are enumerated once, under the cap.
    """
    _check_period(n)
    if realized.spec is None:
        points = periodic_points_le(realized, n, cap)
        counts = [0] * n
        for _, q in points:
            counts[q - 1] += 1
    else:
        counts = periodic_counts(realized.labeled, n)
        if sum(counts) > cap:
            raise EnumerationCapError("per_<=%d exceeds the cap %d" % (n, cap))
        points = None
    if sum(counts) > LISTED:
        return counts, None
    return counts, per_le_enumerate(realized.labeled, n, cap) if points is None else points


def periodic_measure(realized, n, depth, cap=DEFAULT_CAP, code=None):
    """nu_n (uniform on the points of minimal period <= n) or its image
    under a block code, as an exact cylinder table to ``depth``: counted
    by transfer matrices on finite-type data, else from the enumerated
    points (under ``cap``)."""
    _check_period(n)
    if realized.spec is not None:
        return nu_cylinder_measure(realized.labeled, n, depth, code)
    return nu_point_measure(periodic_points_le(realized, n, cap),
                            realized.oracle.alphabet, n, depth, code)


def _check_period(n):
    if n < 1:
        raise UnsupportedSpecError("period bound must be >= 1")


def shift_entropy(realized):
    """Topological entropy from the finite presentation."""
    return sofic_entropy(realized.need("labeled", "entropy"))


def parse_block_code(obj, source_alphabet):
    """Block code from a JSON object {"range": R, "rule": {window: letter}}.

    Window keys are words over the source alphabet; the target alphabet
    is the set of output letters unless given explicitly as "target".
    """
    if not isinstance(obj, dict):
        _fail("block code must be an object")
    if "range" not in obj or "rule" not in obj:
        _fail("block code needs 'range' and 'rule'")
    radius = obj["range"]
    if type(radius) is not int or radius < 0:  # not a bool, as in _validate_payload
        _fail("range must be a nonnegative integer")
    if not isinstance(obj["rule"], dict):
        _fail("rule must be an object mapping windows to letters")
    rule = {}
    for key, out in obj["rule"].items():
        window = _parse_word(source_alphabet, key)
        if not isinstance(out, str):
            _fail("rule values must be letters")
        rule[window] = out
    if "target" in obj:
        if not isinstance(obj["target"], list):
            _fail("target must be a list of symbols")
        target = Alphabet(tuple(obj["target"]))
    else:
        target = Alphabet(tuple(sorted(set(rule.values()))))
    return BlockCode(source_alphabet, target, radius, rule)
