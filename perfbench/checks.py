"""Correctness checks: every report against an independent path.

Each check takes the parsed JSON report, the report's arguments and a
``Context`` and returns None when the report is right, or a one-line
reason.  Independent paths are, by preference, brute force written here
from the definitions (languages of presentations, factors of substitution
iterates, greedy digits in high precision), then a different algorithm of
the library (the pair automaton against oracle enumeration, stream-only
beta MFWs against the beta oracle, trace counts against enumeration), and
for the paper's documents the values frozen in tests/test_acceptance.py
and tests/test_cli.py.  Floats compare within 1e-9.
"""

import contextlib
import io
import json
import math
import re
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np

from shiftlab import cli
from shiftlab.beta import beta_mfw
from shiftlab.shifts import document_from_object, realize
from shiftlab.sft import periodic_count_le
from shiftlab.sofic import determinize, mfw_length_set

TOL = 1e-9


class Mismatch(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def close(a, b, what, tol=TOL):
    expect(a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b)),
           "%s: %r != %r" % (what, a, b))


class Context:
    """Documents by name, and a way to ask the CLI a second question."""

    def __init__(self, docs):
        self.docs = docs     # name -> (path, obj)

    def path(self, name):
        return self.docs[name][0]

    def obj(self, name):
        return self.docs[name][1]

    def cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([str(a) for a in argv] + ["--format", "json"])
        expect(rc == 0, "cross-check %s exited %d" % (" ".join(map(str, argv[:2])), rc))
        return json.loads(out.getvalue())

    def realized(self, name, horizon):
        return realize(document_from_object(self.obj(name)), horizon)


# ---- brute-force languages ---------------------------------------------------------

def _clean(word, forbidden):
    return not any(word[i:i + len(f)] == f
                   for f in forbidden for i in range(len(word) - len(f) + 1))


def _prune(states, edges):
    """Keep states on a bi-infinite path. edges: set of (s, a, t)."""
    alive = set(states)
    while True:
        outs = {s for s, _, t in edges if s in alive and t in alive}
        ins = {t for s, _, t in edges if s in alive and t in alive}
        keep = alive & outs & ins
        if keep == alive:
            return alive, {(s, a, t) for s, a, t in edges if s in keep and t in keep}
        alive = keep


class Presentation:
    """A labeled graph built here from a document, pruned."""

    def __init__(self, alphabet, states, edges):
        self.alphabet = tuple(alphabet)
        self.states, edges = _prune(states, edges)
        self.succ = {}
        for s, a, t in edges:
            self.succ.setdefault((s, a), set()).add(t)

    @classmethod
    def of(cls, obj):
        kind = obj["kind"]
        if kind == "sofic":
            return cls(obj["alphabet"], obj["states"],
                       {(s, a, t) for s, a, t in obj["edges"]})
        # example-nonempty has memory 11 over three letters: too big to
        # brute-force; its reports are checked against frozen values
        if kind == "finite-type":
            return cls.finite_type(obj["alphabet"], [tuple(w) for w in obj["forbidden"]])
        return None

    @classmethod
    def finite_type(cls, alphabet, forbidden):
        forbidden = [tuple(w) for w in forbidden]
        k = max([len(w) - 1 for w in forbidden] + [1])
        states = [w for w in product(alphabet, repeat=k) if _clean(w, forbidden)]
        edges = {(u, a, (u + (a,))[1:]) for u in states for a in alphabet
                 if _clean(u + (a,), forbidden)}
        return cls(alphabet, states, edges)

    def step(self, states, a):
        out = set()
        for s in states:
            out |= self.succ.get((s, a), set())
        return out

    def accepts(self, word):
        states = set(self.states)
        for a in word:
            states = self.step(states, a)
            if not states:
                return False
        return bool(states)

    def levels(self, n_max):
        """[set of words of length n for n = 0..n_max]."""
        level = {(): set(self.states)} if self.states else {}
        out = [set(level)]
        for _ in range(n_max):
            nxt = {}
            for w, states in level.items():
                for a in self.alphabet:
                    t = self.step(states, a)
                    if t:
                        nxt[w + (a,)] = t
            level = nxt
            out.append(set(level))
        return out


def substitution_levels(obj, n_max):
    """Factors of a long iterate of the seed, by length."""
    rules = obj["rules"]
    word = obj["seed"]
    while len(word) < 400 * (n_max + 1):
        word = "".join(rules[a] for a in word)
    return [{tuple(word[i:i + n]) for i in range(len(word) - n + 1)}
            for n in range(n_max + 1)]


def mfw_from_levels(alphabet, levels, n_max):
    table = {}
    if levels[0]:
        missing = [(a,) for a in alphabet if (a,) not in levels[1]]
        if missing:
            table[1] = missing
    for n in range(2, n_max + 1):
        found = {u + (b,) for u in levels[n - 1] for b in alphabet
                 if (u[1:] + (b,)) in levels[n - 1] and (u + (b,)) not in levels[n]}
        if found:
            table[n] = found
    return table


def _fmt(word):
    return "".join(word) if all(len(s) == 1 for s in word) else ".".join(word)


def table_of(found):
    return {str(n): sorted(_fmt(w) for w in ws) for n, ws in found.items()}


def sorted_table(table):
    return {k: sorted(v) for k, v in table.items()}


def reference_table(ctx, name, horizon):
    """MFW table of a document by a path other than oracle enumeration."""
    obj = ctx.obj(name)
    if obj["kind"] == "beta":
        stream = ctx.realized(name, horizon).stream
        return {str(n): list(map(_fmt, ws)) for n, ws in beta_mfw(stream, horizon).by_length.items()}
    if obj["kind"] == "substitution":
        alphabet = sorted(obj["rules"])
        return table_of(mfw_from_levels(alphabet, substitution_levels(obj, horizon), horizon))
    pres = Presentation.of(obj)
    if pres is not None:
        return table_of(mfw_from_levels(pres.alphabet, pres.levels(horizon), horizon))
    raise Mismatch("no reference MFW path for kind %r" % obj["kind"])


def reference_lengths(ctx, name, horizon):
    """MFW lengths: the pair automaton for presented shifts."""
    labeled = ctx.realized(name, horizon).labeled
    if labeled is not None and ctx.obj(name)["kind"] != "beta":
        return list(mfw_length_set(labeled, horizon))
    return sorted(int(n) for n in reference_table(ctx, name, horizon))


def densities(ls, horizon):
    present = set(ls)
    prefix = [0]
    for n in range(1, horizon + 1):
        prefix.append(prefix[-1] + (n in present))
    out = {}
    for k in range(1, max(1, horizon // 2) + 1):
        out[str(k)] = min(prefix[s + k] - prefix[s] for s in range(horizon - k + 1)) / k
    gap = run = 0
    for n in range(1, horizon + 1):
        run = 0 if n in present else run + 1
        gap = max(gap, run)
    return out, gap


def check_densities(got, ls, horizon):
    want, _ = densities(ls, horizon)
    expect(set(got) == set(want), "density windows differ")
    for k in want:
        close(got[k], want[k], "density k=%s" % k)


def reference_language(ctx, name, n):
    obj = ctx.obj(name)
    if obj["kind"] == "substitution":
        return sorted(substitution_levels(obj, n)[n])
    pres = Presentation.of(obj)
    if pres is not None:
        return sorted(pres.levels(n)[n])
    if obj["kind"] == "beta":
        stream = ctx.realized(name, n).stream
        d = [stream.digit(i) for i in range(n)]
        top = d[0]
        return [tuple(map(str, w)) for w in product(range(top + 1), repeat=n)
                if all(list(w[k:]) <= d[:n - k] for k in range(n))]
    raise Mismatch("no reference language for kind %r" % obj["kind"])


def numpy_radius(matrix):
    return max(abs(np.linalg.eigvals(np.array(matrix, dtype=float))))


def doc_entropy(ctx, name):
    obj = ctx.obj(name)
    if obj["kind"] == "beta":
        return math.log(float(beta_value(obj["beta"])))
    realized = ctx.realized(name, 4)
    if realized.spec is not None:
        return math.log(numpy_radius(realized.block_graph().adjacency))
    return math.log(numpy_radius(determinize(realized.labeled).adjacency))


# ---- frozen values of the paper's documents -------------------------------------------

def frozen(check, args, r):
    doc = args.get("doc")
    if check == "thm1" and doc == "even":
        expect(r["mfw_lengths"] == list(range(3, r["horizon"] + 1, 2)) and not r["is_sft"]
               and r["density_lower_bound"] >= 0.45, "even thm1 frozen values")
    if check == "thm1" and doc == "nonempty":
        expect(r["is_sft"] and r["mfw_lengths"] == [3, 5, 12], "nonempty thm1 frozen")
    if check in ("thm1", "sofic_issft") and doc == "phi2":
        expect(not r["is_sft"], "the phi-squared beta-shift is not of finite type")
    if check == "ls" and doc == "doubling":
        expect(r["ls_set"] == [2, 5, 7, 8, 9] + list(range(11, 21))
               and r["window_densities"]["8"] == 0.5, "doubling ls frozen")
    if check == "mfw" and doc == "fib":
        expect(sorted(map(int, r["table"])) == [f for f in (2, 3, 5, 8, 13, 21, 34)
                                                 if f <= r["horizon"]], "fib mfw frozen")
    if check == "subst_profile" and doc == "fib":
        expect(r["differences"] == [1] * r["horizon"] and r["liminf_evidence"] == 1,
               "fib profile frozen")
    if check == "nu_exact" and doc == "golden" and args["period"] >= 30:
        expect(r["parry_distance"] <= 0.05, "golden nu_30 distance to Parry")
    if check == "induce" and doc == "induced":
        expect(r["return_times"] == {"000": 1, "001": 2, "100": 1, "101": 2}
               and r["complexity"][:6] == [1, 4, 8, 16, 32, 64], "README induce frozen")
    if check == "speedup_compare" and doc == "induced-fib" and args["horizon"] == 14:
        expect(r["base_ls_set"] == [2, 3, 5, 8, 13] and r["induced_ls_set"] == [2, 4, 7, 12]
               and [row["witness"] for row in r["rows"]] == [[2, 3], [3, 8], [8, 13]],
               "induced Fibonacci speedup frozen")
    if check == "beta_expand" and args.get("beta") == "poly:x^2-x-1@[1.6,1.7]":
        expect(r["status"] == "finite" and r["digits"] == [1, 1], "golden beta frozen")


# ---- one check per command ---------------------------------------------------------

def c_mfw(ctx, args, r):
    name, h = args["doc"], r["horizon"]
    expect(sorted_table(r["table"]) == sorted_table(reference_table(ctx, name, h)),
           "mfw table differs from the reference path")
    expect(sorted(map(int, r["table"])) == reference_lengths(ctx, name, h),
           "mfw lengths differ from the pair automaton")


def c_ls(ctx, args, r):
    h = r["horizon"]
    ls = reference_lengths(ctx, args["doc"], h)
    expect(r["ls_set"] == ls, "ls set %r != reference %r" % (r["ls_set"], ls))
    check_densities(r["window_densities"], ls, h)
    expect(r["max_gap"] == densities(ls, h)[1], "max_gap")


def c_complexity(ctx, args, r):
    h = r["horizon"]
    lang = ctx.cli(["lang", ctx.path(args["doc"]), "--length", h, "--horizon", h])
    expect(r["complexity"][h] == lang["count"], "complexity[h] != lang count")
    obj = ctx.obj(args["doc"])
    if obj["kind"] != "induced":
        expect(r["complexity"] == [len(ws) for ws in _levels(ctx, args["doc"], h)],
               "complexity differs from brute force")


def _levels(ctx, name, h):
    obj = ctx.obj(name)
    if obj["kind"] == "substitution":
        return substitution_levels(obj, h)
    return [reference_language(ctx, name, n) for n in range(h + 1)] \
        if obj["kind"] == "beta" else Presentation.of(obj).levels(h)


def c_lang(ctx, args, r):
    n = r["length"]
    want = [_fmt(w) for w in reference_language(ctx, args["doc"], n)]
    expect(sorted(r["words"]) == sorted(want) and r["count"] == len(want),
           "lang words differ from brute force")


def c_special(ctx, args, r):
    n = r["length"]
    words = ctx.cli(["lang", ctx.path(args["doc"]), "--length", n + 1,
                     "--horizon", n + 1])["words"]
    left, right = {}, {}
    for u in words:
        left.setdefault(u[1:], set()).add(u[0])
        right.setdefault(u[:-1], set()).add(u[-1])
    ls = sorted(w for w, e in left.items() if len(e) > 1)
    rs = sorted(w for w, e in right.items() if len(e) > 1)
    expect(sorted(r["left_special"]) == ls and sorted(r["right_special"]) == rs
           and sorted(r["bispecial"]) == sorted(set(ls) & set(rs)), "special words")


def c_well_approx(ctx, args, r):
    h = r["horizon"]
    present = set(reference_lengths(ctx, args["doc"], h))
    rate = (lambda n: n) if args["rate"] == "n" else (lambda n: int(args["rate"]))
    want = [n for n in range(1, h + 1) if n + rate(n) <= h
            and not any(m in present for m in range(n + 1, n + rate(n) + 1))]
    expect(r["witnesses"] == want, "well-approx witnesses")


def c_entropy(ctx, args, r):
    close(r["entropy"], doc_entropy(ctx, args["doc"]), "entropy")


def _cylinder_axioms(r, depth):
    cyl = r["cylinders"]
    expect(abs(cyl.get("(empty)", 1.0) - 1.0) <= TOL, "empty cylinder")
    for k in range(1, depth + 1):
        total = sum(v for w, v in cyl.items() if w != "(empty)" and len(w) == k)
        close(total, 1.0, "cylinder mass at depth %d" % k)


def c_parry(ctx, args, r):
    realized = ctx.realized(args["doc"], 4)
    close(r["perron"], numpy_radius(realized.block_graph().adjacency), "Perron root")
    close(sum(r["stationary"].values()), 1.0, "stationary mass")
    _cylinder_axioms(r, r["depth"])


def c_nu_exact(ctx, args, r):
    _cylinder_axioms(r, args["depth"])
    if args["period"] <= 12:
        enum = ctx.cli(["nu", ctx.path(args["doc"]), "--period", args["period"],
                        "--depth", args["depth"]])
        expect(enum["cylinders_exact"] == r["cylinders_exact"],
               "exact nu differs from enumerated nu")
    parry = ctx.cli(["parry", ctx.path(args["doc"]), "--depth", args["depth"]])
    dist = max(abs(v - parry["cylinders"].get(w, 0.0)) for w, v in r["cylinders"].items())
    close(r["parry_distance"], dist, "distance to Parry")


def c_periodic(ctx, args, r):
    realized = ctx.realized(args["doc"], 4)
    if realized.spec is not None:
        want = periodic_count_le(realized.block_graph(), args["period"])
    else:
        pres = Presentation.of(ctx.obj(args["doc"]))
        want = sum(1 for p in range(1, args["period"] + 1)
                   for w in product(pres.alphabet, repeat=p)
                   if _minimal_period(w) == p and _cycle_accepted(pres, w))
    expect(r["count"] == want, "periodic count %d != %d" % (r["count"], want))


def _minimal_period(w):
    return next(p for p in range(1, len(w) + 1) if len(w) % p == 0 and w == w[:p] * (len(w) // p))


def _cycle_accepted(pres, w):
    # w^inf is a point iff some state returns to itself reading w^k, k <= |S|
    for s in pres.states:
        cur = {s}
        for _ in range(len(pres.states)):
            cur = _run(pres, cur, w)
            if s in cur:
                return True
    return False


def _run(pres, states, w):
    for a in w:
        states = pres.step(states, a)
    return states


def _subset_dfa(pres):
    start = frozenset(pres.states)
    seen, queue, edges = {start}, [start], set()
    while queue:
        cur = queue.pop()
        for a in pres.alphabet:
            nxt = frozenset(pres.step(cur, a))
            if nxt:
                edges.add((cur, a, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return _prune(seen, edges)


def c_sofic_det(ctx, args, r):
    pres = Presentation.of(ctx.obj(args["doc"]))
    if pres is None:
        issft = ctx.cli(["sofic", "issft", ctx.path(args["doc"])])
        expect(r["states"] == issft["det_states"], "det states differ from issft")
        return
    states, edges = _subset_dfa(pres)
    expect(r["states"] == len(states) and r["edges"] == len(edges),
           "determinized size %d/%d != %d/%d" % (r["states"], r["edges"],
                                                 len(states), len(edges)))


def c_sofic_issft(ctx, args, r):
    pres = Presentation.of(ctx.obj(args["doc"]))
    if pres is None:
        return
    v = len(_subset_dfa(pres)[0])
    expect(r["det_states"] == v and r["decision_bound"] == v * v + 2, "issft bound")
    if ctx.obj(args["doc"])["kind"] != "sofic":
        expect(r["is_sft"], "a finite-type document must test as SFT")
    if r["is_sft"]:
        m = r["decision_bound"]
        lengths = mfw_length_set(ctx.realized(args["doc"], 4).labeled, min(2 * m + 2, 60))
        expect(max(lengths, default=0) <= m + 1, "SFT verdict with long MFWs")


def c_thm1(ctx, args, r):
    h = r["horizon"]
    small = min(h, 10)
    pres = Presentation.of(ctx.obj(args["doc"]))
    if pres is not None:
        brute = sorted(mfw_from_levels(pres.alphabet, pres.levels(small), small))
        expect([n for n in r["mfw_lengths"] if n <= small] == brute,
               "pair automaton differs from enumeration up to %d" % small)
    check_densities(r["window_densities"], r["mfw_lengths"], h)
    close(r["density_lower_bound"], max(r["window_densities"].values(), default=0.0),
          "density lower bound")
    issft = ctx.cli(["sofic", "issft", ctx.path(args["doc"])])
    expect(issft["is_sft"] == r["is_sft"], "thm1 and issft disagree")


def c_sofic_eq(ctx, args, r):
    p1 = Presentation.of(ctx.obj(args["doc"]))
    p2 = Presentation.of(ctx.obj(args["other"]))
    h = r["horizon"]
    same = all(a == b for a, b in zip(p1.levels(h), p2.levels(h)))
    expect(r["equal_up_to_horizon"] == same, "language equality verdict")


def c_decompose(ctx, args, r):
    h = doc_entropy(ctx, args["doc"])
    expect(r["count"] >= 1, "no components")
    close(max(c["entropy"] for c in r["components"]), h, "top component entropy")
    for comp in r["components"]:
        _cylinder_axioms(comp, comp["depth"])
    if "average" in r:
        close(sum(r["average"]["weights"]), 1.0, "average weights")


def c_autocheck(ctx, args, r):
    expect(r["within_tol"] and r["distance"] == 0, "flip invariance of the full shift")


def beta_value(spec):
    mpmath.mp.prec = 400
    if spec.startswith("rational:"):
        return Fraction(spec[len("rational:"):])
    if spec.startswith("poly:"):
        body, interval = spec[len("poly:"):].split("@")
        lo, hi = (mpmath.mpf(x) for x in interval.strip("[]").split(","))
        a, c = _quadratic(body)
        root = (a + mpmath.sqrt(a * a - 4 * c)) / 2
        expect(lo <= root <= hi, "root outside the interval")
        return root
    return mpmath.mpf(spec)


def _quadratic(body):
    """(a, c) of x^2 - a x + c, the only polynomial form the workloads use."""
    m = re.fullmatch(r"x\^2-(\d*)x([+-]\d+)", body)
    expect(m is not None, "unexpected polynomial %r" % body)
    return int(m.group(1) or 1), int(m.group(2))


def c_beta_expand(ctx, args, r):
    beta = beta_value(args["beta"])
    exact = isinstance(beta, Fraction)
    x = Fraction(1) if exact else mpmath.mpf(1)
    slack = 0 if exact else mpmath.mpf(2) ** -300
    for i, d in enumerate(r["digits"]):
        y = beta * x
        expect(d <= y + slack and y - d < 1 + slack, "digit %d is not greedy" % i)
        x = y - d
    if r["status"] == "finite":
        expect(abs(x) <= slack, "finite expansion leaves a remainder")
    if r["status"] == "eventually-periodic":
        pre, per, digits = r["preperiod"], r["period"], r["digits"]
        expect(all(digits[i] == digits[i - per] for i in range(pre + per, len(digits))),
               "digits are not eventually periodic")


def c_beta_graph(ctx, args, r):
    close(r["entropy"], math.log(float(beta_value(args["beta"]))), "beta graph entropy")


def greedy_digits(spec, n):
    beta = beta_value(spec)
    x, digits = (Fraction(1) if isinstance(beta, Fraction) else mpmath.mpf(1)), []
    for _ in range(n):
        y = beta * x
        digits.append(int(math.floor(y)) if isinstance(y, Fraction) else int(mpmath.floor(y)))
        x = y - digits[-1]
    return digits


def c_beta_lsdiag(ctx, args, r):
    h = r["horizon"]
    d = greedy_digits(args["beta"], h)
    expect(r["d0_positions"] == [i for i in range(h) if d[i] == d[0]], "leading digit positions")
    occ = {str(k): sum(1 for j in range(1, h - k + 1) if d[j:j + k] == d[:k])
           for k in range(1, h + 1)}
    expect(r["prefix_reoccurrence"] == occ, "prefix reoccurrence")
    if not any(i >= max(1, h // 2) for i in r["d0_positions"]):
        verdict = "unstable-evidence"
    elif all(occ[str(k)] >= 1 for k in range(1, max(1, h // 4) + 1)):
        verdict = "stable-evidence"
    else:
        verdict = "inconclusive"
    expect(r["verdict"] == verdict, "verdict")


def c_subst_profile(ctx, args, r):
    h = r["horizon"]
    levels = substitution_levels(ctx.obj(args["doc"]), h)
    counts = [len(ws) for ws in levels]
    diffs = [counts[n + 1] - counts[n] for n in range(h)]
    expect(r["differences"] == diffs, "complexity differences")
    tail = max(1, h // 3)
    expect(r["liminf_evidence"] == min(diffs[-tail:]), "liminf evidence")
    bis = []
    for n in range(h):
        left, right = {}, {}
        for u in levels[n + 1]:
            left.setdefault(u[1:], set()).add(u[0])
            right.setdefault(u[:-1], set()).add(u[-1])
        if any(len(left[w]) > 1 and len(right.get(w, ())) > 1 for w in left):
            bis.append(n)
    expect(r["bispecial_lengths"] == bis, "bispecial lengths")


def c_subst_lang(ctx, args, r):
    want = sorted(_fmt(w) for w in substitution_levels(ctx.obj(args["doc"]), r["length"])[r["length"]])
    expect(sorted(r["words"]) == want, "substitution words")


def c_induce(ctx, args, r):
    obj = ctx.obj(args["doc"])
    base = Presentation.of(obj["base"])
    width = 2 * obj["window"] + 1
    windows = {_fmt(w) for w in base.levels(width)[width]}
    want = sorted(w for w in obj.get("clopen", windows) if w in windows)
    expect(sorted(r["superalphabet"]) == want, "superalphabet")
    for w, t in r["return_times"].items():
        expect(_first_return(base, tuple(w), want, obj.get("cap", 32)) == t,
               "return time of %s" % w)
    lang = ctx.cli(["lang", ctx.path(args["doc"]), "--length", r["horizon"],
                    "--horizon", r["horizon"]])
    expect(r["complexity"][-1] == lang["count"] and r["complexity"][1] == len(want),
           "induced complexity")


def _first_return(base, w, clopen, cap):
    """Return time of window w: every extension must hit U at one offset."""
    width = len(w)
    uset = {tuple(u) for u in clopen}
    times = set()
    stack = [w]
    while stack:
        word = stack.pop()
        hit = next((t for t in range(1, len(word) - width + 1)
                    if word[t:t + width] in uset), None)
        if hit is not None:
            times.add(hit)
            continue
        expect(len(word) - width < cap, "no return within the cap")
        stack.extend(word + (a,) for a in base.alphabet if base.accepts(word + (a,)))
    expect(len(times) == 1, "return time not constant")
    return times.pop()


def c_speedup_compare(ctx, args, r):
    obj = ctx.obj(args["doc"])
    name = args["doc"] + "#base"
    ctx.docs.setdefault(name, (None, obj["base"]))
    base_ls = reference_lengths(ctx, name, args["horizon"])
    expect(r["base_ls_set"] == base_ls, "base ls set differs from the reference path")
    induced = ctx.cli(["mfw", ctx.path(args["doc"]), "--horizon", r["induced_horizon"]])
    expect(r["induced_ls_set"] == sorted(map(int, induced["table"])), "induced ls set")
    rho = ctx.cli(["induce", ctx.path(args["doc"]), "--horizon", 2])["return_times"].values()
    expect(r["min_rho"] == min(rho) and r["max_rho"] == max(rho), "return time range")
    width = 2 * obj["window"] + 1

    def window(ell):
        return (max(1, (width - 1) + (ell - 2) * r["min_rho"] - r["max_rho"] + 1),
                (width - 1) + (ell - 1) * r["max_rho"] + 1)

    lengths = [n for n in r["induced_ls_set"] if n >= 2]
    expect(len(r["rows"]) == max(0, len(lengths) - 1), "row count")
    for row, l1, l2 in zip(r["rows"], lengths, lengths[1:]):
        bound = (l2 - l1 + 2) * r["max_rho"]
        (lo1, hi1), (lo2, hi2) = window(l1), window(l2)
        pairs = [(b1, b2) for b1 in base_ls if lo1 <= b1 <= hi1
                 for b2 in base_ls if lo2 <= b2 <= hi2 and b1 <= b2 <= b1 + bound]
        expect(row["bound"] == bound and row["satisfied"] == bool(pairs), "row %r" % row)


def c_mfw_induced(ctx, args, r):
    """Against the definition, on word lists from fresh `lang` reports."""
    h, path = r["horizon"], ctx.path(args["doc"])
    levels = [{tuple(w.split(".")) for w in ctx.cli(
        ["lang", path, "--length", n, "--horizon", max(n, 1)])["words"]} for n in range(h + 1)]
    alphabet = sorted(a for (a,) in levels[1])
    want = table_of(mfw_from_levels(alphabet, levels, h))
    expect(sorted_table(r["table"]) == sorted_table(want), "induced mfw table")


def c_tau(ctx, args, r):
    n = args["n"]
    expect(r["value"] == n ** (5 * n + 1) + n ** (4 * n + 1) + 2 * n, "tau value")


CHECKS = {
    "mfw": c_mfw, "ls": c_ls, "complexity": c_complexity, "lang": c_lang,
    "special": c_special, "well_approx": c_well_approx, "entropy": c_entropy,
    "parry": c_parry, "nu_exact": c_nu_exact, "periodic": c_periodic,
    "sofic_det": c_sofic_det, "sofic_issft": c_sofic_issft, "thm1": c_thm1,
    "sofic_eq": c_sofic_eq, "decompose": c_decompose, "autocheck": c_autocheck,
    "beta_expand": c_beta_expand, "beta_graph": c_beta_graph,
    "beta_lsdiag": c_beta_lsdiag, "subst_profile": c_subst_profile,
    "subst_lang": c_subst_lang, "induce": c_induce,
    "speedup_compare": c_speedup_compare, "tau": c_tau, "mfw_induced": c_mfw_induced,
}


def check(ctx, report, text):
    """None when the report's output is right, else the reason."""
    try:
        r = json.loads(text)
        CHECKS[report.check](ctx, report.args, r)
        frozen(report.check, report.args, r)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None
