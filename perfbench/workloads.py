"""Seeded documents and report lists for the four benchmark workloads.

Every workload is the paper core (the README's command list on the paper's
fixed documents) followed by the workload's own reports on documents drawn
from one ``random.Random(seed)``.  Generated documents are accepted by
structural properties only (pruned and nonempty, irreducible where a report
needs it, determinized size in a stated band, first return resolving within
``cap``), never by how long a report on them takes.

A report is a ``Report``: an id, the CLI argv (without ``--format json``),
the name of the check in ``checks.py`` that verifies it, and the arguments
that check needs.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from shiftlab.dynamics import InducedSpec, Substitution, induced_data, subst_oracle
from shiftlab.errors import ShiftlabError
from shiftlab.shifts import document_from_object, realize
from shiftlab.sofic import determinize, prune_labeled, sofic_entropy
from shiftlab.spectral import is_irreducible

# Layers each workload is expected to spend its time in (see NOTES.md).
PREDICTED = {
    "enumerate": ("language", "forbidden", "sofic", "sft", "beta"),
    "automata": ("sofic", "spectral", "measures", "forbidden"),
    "recode": ("dynamics", "language", "sofic"),
    "batch": ("cli", "shifts", "beta", "algebraic"),
}

GOLDEN = {"kind": "finite-type", "alphabet": ["0", "1"], "forbidden": ["11"],
          "label": "golden"}
FULL2 = {"kind": "finite-type", "alphabet": ["0", "1"], "forbidden": []}
EVEN = {"kind": "sofic", "alphabet": ["0", "1"], "states": ["e", "o"],
        "edges": [["e", "0", "e"], ["e", "1", "o"], ["o", "1", "e"]]}
FIB = {"kind": "substitution", "rules": {"0": "01", "1": "0"}, "seed": "0"}
DOUBLING = {"kind": "substitution", "rules": {"0": "010", "1": "11"},
            "seed": "0"}
INDUCED = {"kind": "induced",
           "base": {"kind": "finite-type", "alphabet": ["0", "1"],
                    "forbidden": ["11"]},
           "window": 1, "clopen": ["000", "001", "100", "101"],
           "return_rule": "first-return"}
INDUCED_FIB = {"kind": "induced", "base": FIB, "window": 1,
               "clopen": ["001", "100", "101"], "return_rule": "first-return"}
NONEMPTY = {"kind": "example-nonempty", "lengths": [3, 5, 12]}
R52 = "rational:5/2"
PHI = "poly:x^2-x-1@[1.6,1.7]"
PHI2 = "poly:x^2-3x+1@[2.5,2.7]"
DEC18 = "1.8"
FLIP = {"range": 0, "rule": {"0": "1", "1": "0"}}

# Generator bands.  A document outside its band is redrawn.
SFT_ENTROPY_BAND = (0.40, 0.60)      # nats; bounds |L_n| at the report horizons
AUTOMATA_BLOCK_VERTICES = (3, 8)     # block graph size for nu/parry/periodic
DET_STATE_BAND = (6, 12)             # determinized size of random labeled graphs
BATCH_DET_STATE_BAND = (2, 12)
MAX_DRAWS = 5000
INDUCED_BASE_ENTROPY = (0.35, 0.50)
ENUMERATE_WORDS = 60


@dataclass
class Report:
    rid: str
    argv: list
    check: str
    args: dict = field(default_factory=dict)


class Plan:
    """Writes documents into ``docdir`` and collects reports."""

    def __init__(self, docdir, workload):
        self.docdir = docdir
        self.workload = workload
        self.docs = {}
        self.reports = []

    def doc(self, name, obj):
        if name not in self.docs:
            path = os.path.join(self.docdir, name + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
            self.docs[name] = (path, obj)
        return self.docs[name][0]

    def add(self, check, argv, **args):
        rid = "%s/%03d" % (self.workload, len(self.reports))
        self.reports.append(Report(rid, [str(a) for a in argv], check, args))


def beta_doc(spec):
    return {"kind": "beta", "beta": spec}


def entropy_of(obj):
    return sofic_entropy(realize(document_from_object(obj), 4).labeled)


def horizon_for(entropy):
    """Horizon at which a language of this entropy has about
    ENUMERATE_WORDS words, so seeded documents cost alike."""
    return max(6, min(16, round(math.log(ENUMERATE_WORDS) / entropy)))


# ---- generators ---------------------------------------------------------------

def _word(rng, letters, length):
    return "".join(rng.choice(letters) for _ in range(length))


def _labeled(obj, horizon=8):
    return realize(document_from_object(obj), horizon).labeled


def _irreducible(g):
    n = len(g.states)
    adj = g.adjacency
    return is_irreducible(n, [[j for j in range(n) if adj[i][j]] for i in range(n)])


def random_sft(rng, letters, memory, irreducible=False, max_vertices=None,
               band=SFT_ENTROPY_BAND):
    """Finite-type document: forbidden words of length 2-3 set the entropy,
    one or two of length memory + 1 set the memory."""
    alphabet = [str(i) for i in range(letters)]
    for _ in range(MAX_DRAWS):
        short = {_word(rng, alphabet, rng.randint(2, 3))
                 for _ in range(rng.randint(1, 2 * letters))}
        long_words = {w for w in (_word(rng, alphabet, memory + 1)
                                  for _ in range(rng.randint(1, 2)))
                      if not any(s in w for s in short)}
        if not long_words:
            continue
        obj = {"kind": "finite-type", "alphabet": alphabet,
               "forbidden": sorted(short | long_words)}
        try:
            realized = realize(document_from_object(obj), 8)
            g = prune_labeled(realized.labeled)
            if g.is_empty:
                continue
            h = sofic_entropy(g)
        except ShiftlabError:
            continue
        if not band[0] <= h <= band[1]:
            continue
        if irreducible or max_vertices:
            graph = realized.block_graph()
            n = len(graph.vertices)
            adj = graph.adjacency
            succ = [[j for j in range(n) if adj[i][j]] for i in range(n)]
            if max_vertices and not (AUTOMATA_BLOCK_VERTICES[0] <= n <= max_vertices):
                continue
            if irreducible and not is_irreducible(n, succ):
                continue
        return obj
    raise RuntimeError("no SFT in the bands after %d draws" % MAX_DRAWS)


def random_labeled(rng, states, letters, band=DET_STATE_BAND):
    """Sofic document: random labeled graph, irreducible after pruning,
    with the determinized state count inside ``band``."""
    alphabet = [str(i) for i in range(letters)]
    names = ["s%d" % i for i in range(states)]
    while True:
        edges = []
        for s in names:
            for a in alphabet:
                if rng.random() < 0.6:
                    for t in rng.sample(names, rng.randint(1, 2)):
                        edges.append([s, a, t])
        obj = {"kind": "sofic", "alphabet": alphabet, "states": names,
               "edges": edges}
        g = prune_labeled(_labeled(obj))
        if g.is_empty or len(g.states) < states // 2 or not _irreducible(g):
            continue
        if not band[0] <= len(determinize(g).states) <= band[1]:
            continue
        return obj


def random_rational_beta(rng, lo=1.3, hi=2.6):
    while True:
        q = rng.randint(2, 7)
        p = rng.randint(int(lo * q) + 1, int(hi * q))
        if p % q and lo < p / q < hi:
            return "rational:%d/%d" % (p, q)


def random_algebraic_beta(rng):
    """Root > 1 of x^2 - a x - b, isolated by a width-0.1 interval."""
    while True:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        root = (a + (a * a + 4 * b) ** 0.5) / 2
        lo = int(root * 10) / 10
        spec = "poly:x^2-%dx-%d@[%s,%s]" % (a, b, lo, round(lo + 0.1, 1))
        if lo > 1 and abs(root - lo) > 0.01 and abs(lo + 0.1 - root) > 0.01:
            return spec


def random_decimal_beta(rng):
    return "%d.%04d" % (rng.randint(1, 2), rng.randint(1000, 9999))


def random_substitution(rng, letters):
    alphabet = [chr(ord("a") + i) for i in range(letters)]
    while True:
        rules = {a: _word(rng, alphabet, rng.randint(1, 3)) for a in alphabet}
        obj = {"kind": "substitution", "rules": rules, "seed": alphabet[0]}
        try:
            tau = Substitution({a: tuple(w) for a, w in rules.items()}, alphabet[0])
        except ShiftlabError:
            continue
        if _primitive(rules) and len(subst_oracle(tau, 6).words_of_length(6)) >= 6:
            return obj


def _primitive(rules):
    """Some power of the incidence matrix is positive."""
    letters = sorted(rules)
    reach = {a: set(rules[a]) for a in letters}
    for _ in range(len(letters) ** 2):
        if all(reach[a] == set(letters) for a in letters):
            return True
        reach = {a: set().union(*(set(rules[b]) for b in reach[a])) for a in letters}
    return False


def random_induced(rng, cap):
    """First-return recoding of a random binary SFT base (window 1) on
    three windows, whose return times resolve within ``cap`` and are 1
    or 2."""
    while True:
        base = random_sft(rng, 2, rng.randint(2, 3), band=INDUCED_BASE_ENTROPY)
        oracle = realize(document_from_object(base), 3 + cap).oracle
        windows = ["".join(w) for w in oracle.words_of_length(3)]
        if len(windows) < 4:
            continue
        clopen = sorted(rng.sample(windows, 3))
        spec = InducedSpec(oracle, 1, frozenset(tuple(w) for w in clopen),
                           "first-return", cap)
        try:
            _, rho = induced_data(spec)
        except ShiftlabError:
            continue
        if max(rho.values()) == 2:
            return {"kind": "induced", "base": base, "window": 1,
                    "clopen": clopen, "return_rule": "first-return", "cap": cap}


# ---- the paper core -------------------------------------------------------------

def paper_core(b):
    """The README's commands on the paper's fixed documents, at horizons a
    pass can afford, plus one command for each entry point the README list
    misses (beta membership, sofic eq, sofic periodic points, the decimal
    engine).  Identical in every workload."""
    golden, even, fib = b.doc("golden", GOLDEN), b.doc("even", EVEN), b.doc("fib", FIB)
    full2, flip = b.doc("full2", FULL2), b.doc("flip", FLIP)
    induced = b.doc("induced", INDUCED)
    b.add("entropy", ["entropy", golden], doc="golden")
    b.add("mfw", ["mfw", golden, "--horizon", 12], doc="golden")
    b.add("nu_exact", ["nu", golden, "--exact", "--period", 30, "--compare-parry"],
          doc="golden", period=30, depth=3)
    b.add("parry", ["parry", golden, "--depth", 3], doc="golden")
    b.add("decompose", ["decompose", golden, "--code", flip, "--average-cutoff", 6],
          doc="golden")
    b.add("autocheck", ["autocheck", full2, "--code", flip, "--inverse", flip])
    b.add("beta_expand", ["beta", "expand", PHI], beta=PHI, digits=24)
    b.add("beta_lsdiag", ["beta", "lsdiag", R52, "--horizon", 24], beta=R52)
    b.add("subst_profile", ["subst", "profile", fib, "--horizon", 15], doc="fib")
    b.add("induce", ["induce", induced, "--horizon", 6], doc="induced")
    b.add("thm1", ["sofic", "thm1", even, "--horizon", 41], doc="even")
    b.add("tau", ["tau", 3], n=3)
    b.add("beta_expand", ["beta", "expand", DEC18], beta=DEC18, digits=24)
    b.add("mfw", ["mfw", b.doc("r52", beta_doc(R52)), "--horizon", 6], doc="r52")
    b.add("sofic_eq", ["sofic", "eq", even, b.doc("even-copy", _even_copy()),
                       "--horizon", 10], doc="even", other="even-copy")
    b.add("periodic", ["periodic", even, "--period", 6], doc="even", period=6)


def _even_copy():
    # the even shift again, with the 'e' state split in two
    return {"kind": "sofic", "alphabet": ["0", "1"], "states": ["a", "b", "o"],
            "edges": [["a", "0", "b"], ["b", "0", "a"], ["a", "0", "a"],
                      ["a", "1", "o"], ["b", "1", "o"], ["o", "1", "a"]]}


# ---- workloads --------------------------------------------------------------------

def build_enumerate(b, rng):
    # Fixed documents over a ladder of horizons carry the pass, its tail
    # and its peak; the seeded documents are small, so the statistics do
    # not hang on the seed.
    even, golden, phi = b.doc("even", EVEN), b.doc("golden", GOLDEN), b.doc("phi", beta_doc(PHI))
    r52, nonempty = b.doc("r52", beta_doc(R52)), b.doc("nonempty", NONEMPTY)
    dec18 = b.doc("dec18", beta_doc(DEC18))
    for h in range(6, 10):
        b.add("mfw", ["mfw", r52, "--horizon", h], doc="r52")
    for h in range(12, 17):
        b.add("ls", ["ls", phi, "--horizon", h - 1], doc="phi")
        b.add("mfw", ["mfw", golden, "--horizon", h], doc="golden")
        b.add("complexity", ["complexity", even, "--horizon", h - 1], doc="even")
    for h in range(8, 13):
        b.add("mfw", ["mfw", dec18, "--horizon", h], doc="dec18")
    for h in range(5, 9):
        b.add("ls", ["ls", nonempty, "--horizon", h], doc="nonempty")
    b.add("well_approx", ["well-approx", nonempty, "--horizon", 7], doc="nonempty",
          rate="n")
    b.add("well_approx", ["well-approx", golden, "--horizon", 14], doc="golden", rate="n")
    # A block of fixed reports of about the median's cost keeps the median
    # from moving with the seeded documents.
    for h in (11, 12):
        b.add("mfw", ["mfw", even, "--horizon", h], doc="even")
        b.add("complexity", ["complexity", golden, "--horizon", h], doc="golden")
        b.add("ls", ["ls", golden, "--horizon", h], doc="golden")
        b.add("well_approx", ["well-approx", even, "--horizon", h], doc="even", rate="n")
    b.add("special", ["special", golden, "--length", 10, "--horizon", 11], doc="golden")
    b.add("ls", ["ls", even, "--horizon", 14], doc="even")
    b.add("lang", ["lang", even, "--length", 8, "--horizon", 8], doc="even")
    b.add("ls", ["ls", b.doc("doubling", DOUBLING), "--horizon", 20], doc="doubling")
    b.add("mfw", ["mfw", b.doc("fib", FIB), "--horizon", 20], doc="fib")
    b.add("complexity", ["complexity", b.doc("induced", INDUCED), "--horizon", 5],
          doc="induced")
    # Seeded: SFTs stratified by alphabet size and memory, each at the
    # horizon where its language has about ENUMERATE_WORDS words, and two
    # of the six reports each, in rotation.
    for i in range(6):
        name = "sft%d" % i
        obj = random_sft(rng, 2 + i % 2, 4 + i % 4)
        path = b.doc(name, obj)
        h = horizon_for(entropy_of(obj))
        reports = [
            ("mfw", ["mfw", path, "--horizon", h], {}),
            ("ls", ["ls", path, "--horizon", h], {}),
            ("complexity", ["complexity", path, "--horizon", h], {}),
            ("special", ["special", path, "--length", h - 3, "--horizon", h - 2], {}),
            ("lang", ["lang", path, "--length", 6, "--horizon", 6], {}),
            ("well_approx", ["well-approx", path, "--rate", 1, "--horizon", h], {"rate": "1"}),
        ]
        for check, argv, extra in (reports[(2 * i) % 6], reports[(2 * i + 1) % 6]):
            b.add(check, argv, doc=name, **extra)
    for i in range(3):
        name = "rbeta%d" % i
        spec = random_rational_beta(rng, 1.6, 2.6)
        path = b.doc(name, beta_doc(spec))
        h = horizon_for(math.log(float(Fraction(spec.split(":")[1]))))
        b.add(("mfw", "ls")[i % 2], [("mfw", "ls")[i % 2], path, "--horizon", h], doc=name)


def build_automata(b, rng):
    # Fixed documents over a ladder of horizons and periods carry the pass;
    # the seeded documents are small (see build_enumerate).
    even, golden, nonempty = b.doc("even", EVEN), b.doc("golden", GOLDEN), b.doc("nonempty", NONEMPTY)
    phi2, flip = b.doc("phi2", beta_doc(PHI2)), b.doc("flip", FLIP)
    for h in (150, 200, 250, 300):
        b.add("thm1", ["sofic", "thm1", even, "--horizon", h], doc="even")
    for h in (150, 250):
        b.add("thm1", ["sofic", "thm1", nonempty, "--horizon", h], doc="nonempty")
        b.add("thm1", ["sofic", "thm1", phi2, "--horizon", h], doc="phi2")
    for p in (13, 14, 15, 16):
        b.add("periodic", ["periodic", golden, "--period", p], doc="golden", period=p)
    for p in (20, 30, 40, 50):
        b.add("nu_exact", ["nu", golden, "--exact", "--period", p, "--compare-parry"],
              doc="golden", period=p, depth=3)
    for p in (10, 20):
        b.add("nu_exact", ["nu", b.doc("full2", FULL2), "--exact", "--period", p,
                           "--compare-parry"], doc="full2", period=p, depth=3)
    # A block of fixed reports of about the median's cost (see build_enumerate).
    for k in (9, 10, 11):
        b.add("periodic", ["periodic", golden, "--period", k], doc="golden", period=k)
        b.add("nu_exact", ["nu", golden, "--exact", "--period", k + 1, "--compare-parry"],
              doc="golden", period=k + 1, depth=3)
        b.add("decompose", ["decompose", golden, "--code", flip, "--average-cutoff",
                            k - 4, "--depth", 4], doc="golden")
    b.add("sofic_det", ["sofic", "det", phi2], doc="phi2")
    b.add("sofic_issft", ["sofic", "issft", phi2], doc="phi2")
    b.add("sofic_det", ["sofic", "det", even], doc="even")
    b.add("sofic_issft", ["sofic", "issft", even], doc="even")
    b.add("sofic_issft", ["sofic", "issft", nonempty], doc="nonempty")
    b.add("beta_graph", ["beta", "graph", PHI], beta=PHI)
    b.add("beta_graph", ["beta", "graph", PHI2], beta=PHI2)
    b.add("entropy", ["entropy", phi2], doc="phi2")
    b.add("entropy", ["entropy", even], doc="even")
    # Seeded: three of each document's reports, in rotation, at sizes
    # that keep them below the median report.
    for i in range(6):
        name = "lab%d" % i
        obj = random_labeled(rng, 6 + i, 2 + i % 2)
        path = b.doc(name, obj)
        other = _split_state(obj, rng) if i % 2 else _drop_edge(obj, rng)
        reports = [
            ("sofic_det", ["sofic", "det", path], {}),
            ("sofic_issft", ["sofic", "issft", path], {}),
            ("thm1", ["sofic", "thm1", path, "--horizon", 20], {}),
            ("entropy", ["entropy", path], {}),
            ("sofic_eq", ["sofic", "eq", path, b.doc(name + "-other", other),
                          "--horizon", 10], {"other": name + "-other"}),
        ]
        for k in range(3):
            check, argv, extra = reports[(3 * i + k) % 5]
            b.add(check, argv, doc=name, **extra)
    for i in range(4):
        name = "asft%d" % i
        obj = random_sft(rng, 2, 2 + i % 3, irreducible=True,
                         max_vertices=AUTOMATA_BLOCK_VERTICES[1])
        path = b.doc(name, obj)
        reports = [
            ("entropy", ["entropy", path], {}),
            ("parry", ["parry", path, "--depth", 3], {}),
            ("nu_exact", ["nu", path, "--exact", "--period", 6, "--depth", 3,
                          "--compare-parry"], {"period": 6, "depth": 3}),
            ("periodic", ["periodic", path, "--period", 6], {"period": 6}),
            ("thm1", ["sofic", "thm1", path, "--horizon", 20], {}),
            ("decompose", ["decompose", path, "--code", flip, "--average-cutoff", 3], {}),
        ]
        for k in range(3):
            check, argv, extra = reports[(3 * i + k) % 6]
            b.add(check, argv, doc=name, **extra)


def _split_state(obj, rng):
    """Same shift, bigger presentation: one state duplicated."""
    s = rng.choice(obj["states"])
    twin = s + "'"
    edges = [list(e) for e in obj["edges"]]
    for src, a, dst in obj["edges"]:
        if src == s:
            edges.append([twin, a, dst])
        if dst == s:
            edges.append([src, a, twin])
        if src == s and dst == s:
            edges.append([twin, a, twin])
    return dict(obj, states=obj["states"] + [twin], edges=edges)


def _drop_edge(obj, rng):
    edges = list(obj["edges"])
    edges.pop(rng.randrange(len(edges)))
    return dict(obj, edges=edges)


def build_recode(b, rng):
    # The README induced example carries most of the pass: its language as
    # point queries, and speedup-compare with the first-return cap lowered
    # (at the default 32 one report takes 7-9 s; see NOTES.md).  Seeded
    # documents are small (see build_enumerate).
    induced, fib, doubling = b.doc("induced", INDUCED), b.doc("fib", FIB), b.doc("doubling", DOUBLING)
    for cap in (18, 21, 24):
        name = "induced-cap%d" % cap
        b.add("speedup_compare", ["speedup-compare", b.doc(name, dict(INDUCED, cap=cap)),
                                  "--horizon", 6], doc=name, horizon=6)
    for h in (6, 7, 8, 9):
        b.add("induce", ["induce", induced, "--horizon", h], doc="induced")
    for h in (6, 7, 8):
        b.add("complexity", ["complexity", induced, "--horizon", h], doc="induced")
    for h in (5, 6, 7):
        b.add("mfw_induced", ["mfw", induced, "--horizon", h], doc="induced")
    for h in (10, 12, 14):
        b.add("speedup_compare", ["speedup-compare", b.doc("induced-fib", INDUCED_FIB),
                                  "--horizon", h], doc="induced-fib", horizon=h)
    for h in (16, 20, 24):
        b.add("subst_profile", ["subst", "profile", doubling, "--horizon", h], doc="doubling")
    # A block of fixed reports of about the median's cost (see build_enumerate).
    for h in range(20, 32, 2):
        b.add("subst_profile", ["subst", "profile", fib, "--horizon", h], doc="fib")
    for n in (8, 11, 14):
        b.add("subst_lang", ["subst", "lang", fib, "--length", n], doc="fib", length=n)
    for i in range(4):
        name = "ind%d" % i
        path = b.doc(name, random_induced(rng, 10))
        b.add("induce", ["induce", path, "--horizon", 4], doc=name)
        b.add("speedup_compare", ["speedup-compare", path, "--horizon", 6], doc=name,
              horizon=6)
    for i in range(4):
        name = "subst%d" % i
        path = b.doc(name, random_substitution(rng, 2 + i % 2))
        b.add("subst_profile", ["subst", "profile", path, "--horizon", 10], doc=name)
        b.add("subst_lang", ["subst", "lang", path, "--length", 8], doc=name, length=8)


BATCH_SIZE = 200


def build_batch(b, rng):
    # Sizes cycle with the round rather than being drawn, so that only the
    # documents' content depends on the seed.
    kinds = ("sft", "sofic", "rational", "algebraic", "decimal", "tau")
    i = 0
    while len(b.reports) < BATCH_SIZE:
        kind = kinds[i % len(kinds)]
        round_ = i // len(kinds)
        name = "%s%d" % (kind, i)
        i += 1
        if kind == "sft":
            path = b.doc(name, random_sft(rng, 2, 2 + round_ % 2,
                                          irreducible=True, max_vertices=8))
            b.add("entropy", ["entropy", path], doc=name)
            b.add("parry", ["parry", path, "--depth", 2], doc=name)
            b.add("lang", ["lang", path, "--length", 6, "--horizon", 6], doc=name)
        elif kind == "sofic":
            path = b.doc(name, random_labeled(rng, 3 + round_ % 3, 2,
                                              BATCH_DET_STATE_BAND))
            b.add("sofic_det", ["sofic", "det", path], doc=name)
            b.add("sofic_issft", ["sofic", "issft", path], doc=name)
            b.add("entropy", ["entropy", path], doc=name)
            b.add("lang", ["lang", path, "--length", 5, "--horizon", 5], doc=name)
        elif kind == "tau":
            n = 1 + round_ % 12
            b.add("tau", ["tau", n], n=n)
        else:
            spec = {"rational": random_rational_beta,
                    "algebraic": random_algebraic_beta,
                    "decimal": random_decimal_beta}[kind](rng)
            digits = (24, 32, 48)[round_ % 3]
            b.add("beta_expand", ["beta", "expand", spec, "--digits", digits],
                  beta=spec, digits=digits)
    del b.reports[BATCH_SIZE:]


PLANS = {"enumerate": build_enumerate, "automata": build_automata,
         "recode": build_recode, "batch": build_batch}


def build(workload, seed, docdir):
    """Documents and the report list of one workload for one seed."""
    b = Plan(docdir, workload)
    rng = random.Random("%s:%d" % (workload, seed))
    paper_core(b)
    PLANS[workload](b, rng)
    return b
