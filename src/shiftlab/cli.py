"""Command line front end.

Every command reads shift documents (one JSON object per file), computes
over a stated horizon, and emits a deterministic report as text or JSON.
Exit codes: 0 on success, 1 on domain errors (empty shifts, horizons,
infeasible specs), 2 on usage errors.

Reports are plain dictionaries built in a fixed key order; the text
renderer walks them as written and the JSON renderer sorts keys, so both
are byte-stable for identical inputs.
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .beta import (BETA_DIGITS, beta_ls_diagnostic, beta_presentation, beta_stream,
                   example_betashift)
from .dynamics import bispecial_lengths, cassaigne_profile, induced_data, \
    speedup_gap_compare
from .errors import (EnumerationCapError, NotAnAutomorphismError, ShiftlabError,
                     UnsupportedSpecError)
from .forbidden import minimal_forbidden, minimal_forbidden_lengths, tau_eval, \
    well_approx_check
from .language import (WORD_LIMIT, complexity, format_word, printable,  # WORD_LIMIT: re-export
                       special_words)
from .measures import (INVARIANCE_TOL, certify_inverse_pair, cylinder_table,
                       max_entropy_decomposition, mu_y_average, parry_cylinders,
                       parry_measure, weak_star_distance)
from .sft import DEFAULT_CAP
from .shifts import (document_from_object, load_shift_document, parse_block_code,
                     periodic_census, periodic_measure, read_text, realize, shift_entropy)
from .sofic import apply_block_code, determinize, is_sft, language_equal_exact, \
    language_equal_up_to, sofic_entropy, sofic_oracle, theorem1_diagnostic


_DIGITS = "the decimal digits of a report integer exceed the limit %d"


def _decimal(n):
    """``int.__repr__(n)``, refused past the interpreter's limit on the
    digits of an int converted to a string."""
    if not printable(n):
        raise EnumerationCapError(_DIGITS % sys.get_int_max_str_digits())
    return int.__repr__(n)


def _evidence(horizon):
    return "evidence at horizon %d" % horizon


def _words(seq):
    return [format_word(w) for w in seq]


def _mfw_report(realized):
    """The `mfw` and `beta mfw` report: minimal forbidden words by length."""
    table = minimal_forbidden(realized.oracle, realized.horizon)
    return {
        "horizon": realized.horizon,
        "table": {str(n): _words(table.by_length[n])
                  for n in sorted(table.by_length)},
        "note": _evidence(realized.horizon),
    }


def _densities(densities):
    return {str(k): densities[k] for k in sorted(densities)}


def _cylinders(measure, depth):
    values = cylinder_table(measure, depth).values
    out = {}
    exact = {}
    for word in sorted(values, key=lambda w: (len(w), w)):
        value = values[word]
        name = format_word(word)
        out[name] = float(value)
        if isinstance(value, Fraction):
            exact[name] = _decimal(value.numerator) + "/" + _decimal(value.denominator)
    report = {"depth": depth, "cylinders": out}
    if exact:
        report["cylinders_exact"] = exact
    return report


def _realize(doc, horizon):
    """``realize``, refusing a document nested past the recursion limit
    as it refuses any other malformed document."""
    try:
        return realize(doc, horizon)
    except RecursionError:
        raise UnsupportedSpecError("shift document is nested too deeply") from None


def _load(args):
    return _realize(load_shift_document(args.shift), args.horizon)


def _load_code(path, alphabet):
    try:
        obj = json.loads(read_text(path))
    except ValueError as exc:  # UnicodeDecodeError too, as under json.load
        raise UnsupportedSpecError("block code is not valid JSON: %s" % (exc,))
    except RecursionError:
        raise UnsupportedSpecError("block code is nested too deeply") from None
    return parse_block_code(obj, alphabet)


# ---- command handlers ------------------------------------------------------

def cmd_lang(args):
    realized = _load(args)
    words = realized.oracle.words_of_length(args.length)
    return {
        "kind": realized.document.kind,
        "horizon": realized.horizon,
        "length": args.length,
        "count": len(words),
        "words": _words(words),
    }


def cmd_complexity(args):
    realized = _load(args)
    values = complexity(realized.oracle, realized.horizon)
    return {
        "kind": realized.document.kind,
        "horizon": realized.horizon,
        "complexity": values,
    }


def cmd_special(args):
    realized = _load(args)
    report = special_words(realized.oracle, args.length)
    return {
        "horizon": realized.horizon,
        "length": report.length,
        "left_special": _words(report.left_special),
        "right_special": _words(report.right_special),
        "bispecial": _words(report.bispecial),
    }


def cmd_mfw(args):
    return _mfw_report(_load(args))


def cmd_ls(args):
    realized = _load(args)
    report = minimal_forbidden_lengths(realized.oracle, realized.horizon)
    return {
        "horizon": report.horizon,
        "ls_set": list(report.ls_set),
        "max_gap": report.max_gap,
        "window_densities": _densities(report.window_densities),
        "note": _evidence(report.horizon),
    }


def _parse_rate(text):
    """(the rate as printed, the rate as a function of n)."""
    if text == "n":
        return text, lambda n: n
    try:
        value = int(text)
    except ValueError:
        raise UnsupportedSpecError("rate must be an integer or \"n\"")
    if value < 0:
        raise UnsupportedSpecError("rate must be nonnegative")
    return str(value), lambda n: value


def cmd_well_approx(args):
    realized = _load(args)
    rate, rate_fn = _parse_rate(args.rate)
    witnesses = well_approx_check(realized.oracle, rate_fn, realized.horizon)
    return {
        "horizon": realized.horizon,
        "rate": rate,
        "witnesses": list(witnesses),
        "note": _evidence(realized.horizon),
    }


def cmd_entropy(args):
    realized = _load(args)
    return {
        "kind": realized.document.kind,
        "entropy": shift_entropy(realized),
    }


def cmd_periodic(args):
    counts, points = periodic_census(_load(args), args.period, args.cap)
    report = {
        "period_bound": args.period,
        "count": sum(counts),
        "by_minimal_period": {str(q): c for q, c in enumerate(counts, 1) if c},
    }
    if points is not None:
        report["words"] = _words(w for w, _ in points)
    return report


def cmd_nu(args):
    realized = _load(args)
    measure = periodic_measure(realized, args.period, args.depth, args.cap)
    report = {"period_bound": args.period}
    report.update(_cylinders(measure, args.depth))
    if args.compare_parry:
        realized.need("spec", "the Parry comparison")
        parry = parry_measure(realized.labeled)
        report["parry_distance"] = weak_star_distance(measure, parry, args.depth)
        report["note"] = "distance is a max over cylinders of depth <= %d" % args.depth
    return report


def cmd_parry(args):
    realized = _load(args)
    k = realized.need("spec", "the Parry measure").memory - 1
    # the (memory-1)-words, read at their own length: --horizon can be shorter
    stationary = sorted(sofic_oracle(realized.labeled, k).words_of_length(k))
    measure = parry_measure(realized.labeled)
    report = {
        "perron": measure.perron,
        "stationary": {format_word(u): value for u, value
                       in parry_cylinders(measure, stationary).items()},
    }
    report.update(_cylinders(measure, args.depth))
    return report


def cmd_decompose(args):
    realized = _load(args)
    realized.need("spec", "decomposition")
    code = _load_code(args.code, realized.oracle.alphabet)
    components = max_entropy_decomposition(realized.labeled, code, args.depth)
    report = {
        "count": len(components),
        "components": [],
    }
    for comp in components:
        entry = {"entropy": comp.entropy, "det_states": len(comp.presentation.states)}
        entry.update(_cylinders(comp.measure, args.depth))
        report["components"].append(entry)
    if args.average_cutoff:
        result = mu_y_average(components, args.average_cutoff, args.depth,
                              args.cap)
        entry = {"weights": [float(w) for w in result.weights],
                 "cutoff": result.cutoff}
        entry.update(_cylinders(result.measure, args.depth))
        report["average"] = entry
    return report


def cmd_push(args):
    realized = _load(args)
    code = _load_code(args.code, realized.oracle.alphabet)
    image = periodic_measure(realized, args.period, args.depth, args.cap, code)
    report = {
        "period_bound": args.period,
        "target_alphabet": list(code.target_alphabet.symbols),
    }
    report.update(_cylinders(image, args.depth))
    return report


def cmd_autocheck(args):
    realized = _load(args)
    realized.need("spec", "the automorphism check")
    graph = realized.labeled
    code = _load_code(args.code, realized.oracle.alphabet)
    inverse = _load_code(args.inverse, code.target_alphabet)
    if not language_equal_exact(apply_block_code(graph, code), graph):
        raise NotAnAutomorphismError("the code does not map the shift onto itself")
    span = certify_inverse_pair(realized.oracle, code, inverse)
    nu = periodic_measure(realized, args.period, args.depth)
    image = periodic_measure(realized, args.period, args.depth, code=code)
    distance = weak_star_distance(nu, image, args.depth)
    return {
        "period_bound": args.period,
        "depth": args.depth,
        "tol": INVARIANCE_TOL,
        "distance": distance,
        "within_tol": distance <= INVARIANCE_TOL,
        "identity_checked_to": span,
    }


def cmd_beta_expand(args):
    expansion = beta_stream(args.beta, digits=args.digits)
    report = {
        "status": expansion.status,
        "digits": list(expansion.digits),
        "alphabet_max": expansion.digits[0],
    }
    if expansion.status == "eventually-periodic":
        report["preperiod"] = expansion.preperiod
        report["period"] = expansion.period
    if expansion.status == "finite":
        star = expansion.working_stream()
        report["star_digits"] = list(star.digits)
        report["star_period"] = star.period
    return report


def cmd_beta_mfw(args):
    doc = document_from_object({"kind": "beta", "beta": args.beta})
    return _mfw_report(_realize(doc, args.horizon))


def cmd_beta_lsdiag(args):
    stream = beta_stream(args.beta, args.horizon).working_stream()
    report = beta_ls_diagnostic(stream, args.horizon)
    return {
        "horizon": report.horizon,
        "verdict": report.verdict,
        "d0_positions": list(report.d0_positions),
        "prefix_reoccurrence": {str(k): v for k, v
                                in sorted(report.prefix_reoccurrence.items())},
        "note": _evidence(report.horizon),
    }


def cmd_beta_graph(args):
    stream = beta_stream(args.beta, digits=args.digits).working_stream()
    g = beta_presentation(stream)
    edges = []
    for s in g.states:
        for a, targets in sorted(g.transitions.get(s, {}).items()):
            for t in targets:
                edges.append([str(s), a, str(t)])
    return {
        "states": [str(s) for s in g.states],
        "edges": edges,
        "entropy": sofic_entropy(g),
    }


def cmd_beta_example(args):
    stream = example_betashift(args.mode, args.steps)
    return {
        "mode": args.mode,
        "steps": args.steps,
        "length": len(stream.digits),
        "prefix": list(stream.digits[:32]),
    }


def cmd_subst_lang(args):
    realized = _load(args)
    tau = realized.need("substitution", "substitution language")
    words = realized.oracle.words_of_length(args.length)
    return {
        "rules": {a: format_word(w) for a, w in sorted(tau.rules.items())},
        "length": args.length,
        "count": len(words),
        "words": _words(words),
    }


def cmd_subst_profile(args):
    realized = _load(args)
    realized.need("substitution", "the complexity profile")
    profile = cassaigne_profile(realized.oracle, realized.horizon)
    lengths = bispecial_lengths(realized.oracle, realized.horizon - 1)
    return {
        "horizon": realized.horizon,
        "differences": list(profile.differences),
        "liminf_evidence": profile.liminf_evidence,
        "tail_window": profile.tail_window,
        "bispecial_lengths": list(lengths),
        "note": _evidence(realized.horizon),
    }


def cmd_induce(args):
    realized = _load(args)
    spec = realized.need("induced_spec", "induction data")
    letters, rho = induced_data(spec)
    return {
        "horizon": realized.horizon,
        "superalphabet": [format_word(w) for w in letters],
        "return_times": {format_word(w): rho[w] for w in letters},
        "complexity": complexity(realized.oracle, realized.horizon),
    }


def cmd_speedup_compare(args):
    realized = _load(args)
    spec = realized.need("induced_spec", "speedup comparison")
    report = speedup_gap_compare(realized.base.oracle, spec, args.horizon)
    rows = [{
        "induced_pair": list(row["induced_pair"]),
        "base_window_low": list(row["base_window_low"]),
        "base_window_high": list(row["base_window_high"]),
        "bound": row["bound"],
        "witness": list(row["witness"]) if row["witness"] else None,
        "satisfied": row["satisfied"],
    } for row in report.rows]
    return {
        "base_horizon": report.base_ls.horizon,
        "base_ls_set": list(report.base_ls.ls_set),
        "induced_horizon": report.induced_ls.horizon,
        "induced_ls_set": list(report.induced_ls.ls_set),
        "min_rho": report.min_rho,
        "max_rho": report.max_rho,
        "rows": rows,
        "note": report.note,
    }


def cmd_sofic_det(args):
    d = determinize(_load(args).need("labeled", "determinization"))
    return {
        "states": len(d.states),
        "edges": sum(len(ts) for row in d.transitions.values() for ts in row.values()),
        "alphabet": list(d.alphabet.symbols),
    }


def cmd_sofic_eq(args):
    docs = [load_shift_document(path) for path in (args.shift, args.other)]
    realized = [_realize(doc, args.horizon) for doc in docs]
    g1, g2 = [r.need("labeled", "language comparison") for r in realized]
    return {
        "horizon": args.horizon,
        "equal_up_to_horizon": language_equal_up_to(g1, g2, args.horizon),
    }


def cmd_sofic_issft(args):
    tag = is_sft(_load(args).need("labeled", "the finite-type test"))
    return {
        "is_sft": tag.is_sft,
        "decision_bound": tag.decision_bound,
        "det_states": tag.det_states,
    }


def cmd_sofic_thm1(args):
    g = _load(args).need("labeled", "the stability diagnostic")
    report = theorem1_diagnostic(g, args.horizon)
    return {
        "horizon": report.horizon,
        "is_sft": report.tag.is_sft,
        "decision_bound": report.tag.decision_bound,
        "mfw_lengths": list(report.mfw_lengths),
        "density_lower_bound": report.density_lower_bound,
        "window_densities": _densities(report.window_densities),
        "note": _evidence(report.horizon),
    }


def cmd_tau(args):
    # tau(n) > n^(5n+1), refused uncomputed once that alone is too long
    limit = sys.get_int_max_str_digits()
    if limit and args.n > 1 and (5 * min(args.n, limit) + 1) * math.log10(args.n) > limit + 1:
        raise EnumerationCapError(_DIGITS % limit)
    return {"n": args.n, "value": tau_eval(args.n)}


# ---- rendering -------------------------------------------------------------

def _render_scalar(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return _decimal(value) if isinstance(value, int) else str(value)


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render_text(value, indent + 1))
            elif isinstance(value, (dict, list)):
                lines.append("%s%s: (empty)" % (pad, key))
            else:
                lines.append("%s%s: %s" % (pad, key, _render_scalar(value)))
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append("%s- %s" % (pad, _render_scalar(value)))
    else:
        lines.append("%s%s" % (pad, _render_scalar(obj)))
    return lines


_JSON_WORDS = {None: "null", True: "true", False: "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj, pad="\n"):
    """``json.dumps(obj, sort_keys=True, indent=2)``, built with one join per
    dict and per list; ``pad`` is the newline and indent ``obj`` sits at.
    Scalars, key conversion, key order and the TypeErrors are json's."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return _JSON_WORDS[obj]
    if isinstance(obj, int):
        return _decimal(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_WORDS.get(text, text)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[%s%s%s]" % (inner, ("," + inner).join([_json(v, inner) for v in obj]), pad)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            if isinstance(key, (int, float)) or key is None:
                key = _json(key)
            elif not isinstance(key, str):
                raise TypeError("keys must be str, int, float, bool or None, not %s"
                                % type(key).__name__)
            items.append(encode_basestring_ascii(key) + ": " + _json(value, inner))
        return "{%s%s%s}" % (inner, ("," + inner).join(items), pad)
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _emit(report, fmt):
    print(_json(report) if fmt == "json" else "\n".join(_render_text(report)))
    sys.stdout.flush()


# ---- the command table -----------------------------------------------------

# An argument is (name, the keywords of ``add_argument``): a name starting
# with "-" is an option, any other a positional.
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_HORIZON = ("--horizon", {"type": int, "default": 16,
                          "help": "analysis horizon (default 16)"})
_CAP = ("--cap", {"type": int, "default": DEFAULT_CAP,
                  "help": "enumeration cap (default %(default)s)"})
_SHIFT = ("shift", {"help": "shift document file"})
_DOC = (_FORMAT, _HORIZON, _SHIFT)
_DOC_CAPPED = (_FORMAT, _HORIZON, _CAP, _SHIFT)
_BETA = ("beta", {})


def _int(name, default, **more):
    return name, dict(type=int, default=default, **more)


_GROUPS = {"beta": "beta-shift commands", "subst": "substitution commands",
           "sofic": "labeled-graph commands"}

# command words -> (help, handler, arguments), in the order of the help
COMMANDS = {
    ("lang",): ("words of one length", cmd_lang, _DOC + (_int("--length", 4),)),
    ("complexity",): ("word counts up to the horizon", cmd_complexity, _DOC),
    ("special",): ("left/right special and bispecial words", cmd_special,
                   _DOC + (_int("--length", 4),)),
    ("mfw",): ("minimal forbidden words up to the horizon", cmd_mfw, _DOC),
    ("ls",): ("length set and density evidence", cmd_ls, _DOC),
    ("well-approx",): ("approximation witnesses at a rate", cmd_well_approx, _DOC + (
        ("--rate", {"default": "n", "help": "a nonnegative integer or \"n\" (default n)"}),)),
    ("entropy",): ("topological entropy of a presented shift", cmd_entropy, _DOC),
    ("periodic",): ("periodic points up to a period", cmd_periodic,
                    _DOC_CAPPED + (_int("--period", 6),)),
    ("nu",): ("empirical measure on periodic points", cmd_nu, _DOC_CAPPED + (
        _int("--period", 8), _int("--depth", 3),
        ("--exact", {"action": "store_true",
                     "help": "accepted and ignored: values are always exact, counted "
                             "by transfer matrices on finite-type data and "
                             "enumerated otherwise"}),
        ("--compare-parry", {"action": "store_true"}))),
    ("parry",): ("measure of maximal entropy of an SFT", cmd_parry,
                 _DOC + (_int("--depth", 3),)),
    ("decompose",): ("maximal-entropy components of a coded image", cmd_decompose,
                     _DOC_CAPPED + (
        ("--code", {"required": True, "help": "block code file"}), _int("--depth", 3),
        _int("--average-cutoff", 0,
             help="include the periodic-weighted average at this cutoff"))),
    ("push",): ("pushforward of the empirical measure", cmd_push, _DOC_CAPPED + (
        ("--code", {"required": True}), _int("--period", 8), _int("--depth", 3))),
    ("autocheck",): ("automorphism invariance of the empirical measure", cmd_autocheck,
                     _DOC + (("--code", {"required": True}),
                             ("--inverse", {"required": True}),
                             _int("--period", 8), _int("--depth", 3))),
    ("beta", "expand"): ("greedy expansion of 1", cmd_beta_expand, (
        _FORMAT, ("beta", {"help": "rational:P/Q, poly:...@[lo,hi], or a decimal"}),
        _int("--digits", 24))),
    ("beta", "mfw"): ("minimal forbidden words of the beta-shift", cmd_beta_mfw,
                      (_FORMAT, _HORIZON, _BETA)),
    ("beta", "lsdiag"): ("stability evidence for the beta-shift", cmd_beta_lsdiag,
                         (_FORMAT, _HORIZON, _BETA)),
    ("beta", "graph"): ("presentation of a closed-form expansion", cmd_beta_graph,
                        (_FORMAT, _BETA, _int("--digits", BETA_DIGITS))),
    ("beta", "example"): ("recursive non-sofic expansion prefixes", cmd_beta_example, (
        _FORMAT, ("--mode", {"choices": ("specified", "synchronized"),
                             "default": "specified"}),
        _int("--steps", 3))),
    ("subst", "lang"): ("language of a substitution document", cmd_subst_lang,
                        _DOC + (_int("--length", 4),)),
    ("subst", "profile"): ("complexity differences and bispecials", cmd_subst_profile,
                           _DOC),
    ("induce",): ("recoded induced system of a document", cmd_induce, _DOC),
    ("speedup-compare",): ("stability evidence across an induced recoding",
                           cmd_speedup_compare, _DOC),
    ("sofic", "det"): ("determinize the presentation", cmd_sofic_det, _DOC),
    ("sofic", "eq"): ("language equality of two presentations", cmd_sofic_eq,
                      _DOC + (("other", {"help": "second shift document file"}),)),
    ("sofic", "issft"): ("finite-type test for a presentation", cmd_sofic_issft, _DOC),
    ("sofic", "thm1"): ("finite-type status against LS density", cmd_sofic_thm1, _DOC),
    ("tau",): ("the periodicity rate tau(n)", cmd_tau, (_FORMAT, ("n", {"type": int}))),
}


@functools.lru_cache(maxsize=None)
def _layout(words):
    """The arguments of the command ``words`` as ``_read`` looks them up:
    the Namespace values before any is read, option string -> (dest, spec),
    the positionals' (dest, spec) in order, and the dests required."""
    _, func, arguments = COMMANDS[words]
    defaults = {"command": words[0], "func": func}
    if len(words) == 2:
        defaults[words[0] + "_command"] = words[1]
    options, positionals, required = {}, [], set()
    for name, spec in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name.startswith("-"):
            options[name] = dest, spec
        else:
            positionals.append((dest, spec))
        if spec.get("required") or not name.startswith("-"):
            required.add(dest)
        default = spec.get("default", False if "action" in spec else None)
        # argparse converts a str default that no argument replaced
        if isinstance(default, str) and "type" in spec:
            default = spec["type"](default)
        defaults[dest] = default
    return defaults, options, positionals, required


def _read(words, argv):
    """The Namespace ``build_parser().parse_args(words + argv)`` returns,
    read straight off ``COMMANDS``, when ``argv`` is plain; else None.

    Plain means: exact option strings, each with one value that does not
    start with "-"; positionals that do not start with "-"; every
    conversion and choice check succeeding; and every positional and
    required option present.  Help, abbreviations, "--opt=value", "--",
    negative values and every usage error are left to argparse."""
    defaults, options, positionals, required = _layout(words)
    values = dict(defaults)
    missing = set(required)
    taken = 0
    argv = iter(argv)
    for word in argv:
        if not word.startswith("-"):
            if taken == len(positionals):
                return None
            dest, spec = positionals[taken]
            taken += 1
        else:
            if word not in options:
                return None
            dest, spec = options[word]
            if "action" in spec:        # store_true
                values[dest] = True
                continue
            word = next(argv, "-")      # a missing value is not plain
            if word.startswith("-"):
                return None
        missing.discard(dest)
        try:
            value = spec["type"](word) if "type" in spec else word
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    if missing:
        return None
    return argparse.Namespace(**values)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree of ``COMMANDS``, built once per process, for help
    and usage errors: ``_parse`` reads a plain argv without it.
    ``parse_args`` returns a fresh ``Namespace`` per call, so nothing
    carries from one report to the next."""
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Combinatorial and measure-theoretic invariants of shifts")
    sub = parser.add_subparsers(dest="command", metavar="command")
    groups = {}
    for words, (summary, func, arguments) in COMMANDS.items():
        under = sub
        if len(words) == 2:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUPS[words[0]])
                groups[words[0]] = group.add_subparsers(dest=words[0] + "_command",
                                                        metavar="subcommand")
            under = groups[words[0]]
        p = under.add_parser(words[-1], help=summary)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(func=func)
    return parser


def _parse(argv):
    """The Namespace of ``argv``: read off ``COMMANDS`` when the rest of
    ``argv`` after its command words is plain (``_read``), otherwise from
    the argparse tree, so that help and every usage error keep argparse's
    text."""
    for n in (1, 2):
        words = tuple(argv[:n])
        if words in COMMANDS:
            args = _read(words, argv[n:])
            if args is not None:
                return args
            break
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not hasattr(args, "func"):
        build_parser().print_usage(sys.stderr)
        return 2
    try:
        # rendered whole before it is written, so a refusal prints no report text
        _emit(args.func(args), args.format)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); what is still buffered
        # goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ShiftlabError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
