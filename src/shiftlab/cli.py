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

from .beta import (beta_expand, beta_ls_diagnostic, beta_oracle,
                   beta_presentation, example_betashift, parse_beta_spec)
from .dynamics import bispecial_lengths, cassaigne_profile, induced_data, \
    speedup_gap_compare
from .errors import (EnumerationCapError, NotAnAutomorphismError, ShiftlabError,
                     UnsupportedSpecError)
from .forbidden import ls_report, minimal_forbidden, minimal_forbidden_lengths, \
    tau_eval, well_approx_check
from .language import (WORD_LIMIT, complexity, format_word, printable,  # WORD_LIMIT: re-export
                       special_words)
from .measures import (INVARIANCE_TOL, certify_inverse_pair, cylinder_table,
                       max_entropy_decomposition, mu_y_average, parry_cylinders,
                       parry_measure, weak_star_distance)
from .shifts import (load_shift_document, parse_block_code, periodic_census,
                     periodic_measure, read_text, realize, shift_entropy)
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


def _mfw_report(oracle, horizon):
    """The `mfw` and `beta mfw` report: minimal forbidden words by length."""
    table = minimal_forbidden(oracle, horizon)
    return {
        "horizon": horizon,
        "table": {str(n): _words(table.by_length[n])
                  for n in sorted(table.by_length)},
        "note": _evidence(horizon),
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
    realized = _load(args)
    return _mfw_report(realized.oracle, realized.horizon)


def cmd_ls(args):
    realized = _load(args)
    report = ls_report(minimal_forbidden_lengths(realized.oracle, realized.horizon))
    return {
        "horizon": report.horizon,
        "ls_set": list(report.ls_set),
        "max_gap": report.max_gap,
        "window_densities": _densities(report.window_densities),
        "note": _evidence(report.horizon),
    }


def _parse_rate(text):
    if text == "n":
        return lambda n: n
    try:
        value = int(text)
    except ValueError:
        raise UnsupportedSpecError("rate must be an integer or \"n\"")
    if value < 0:
        raise UnsupportedSpecError("rate must be nonnegative")
    return lambda n: value


def cmd_well_approx(args):
    realized = _load(args)
    witnesses = well_approx_check(realized.oracle, _parse_rate(args.rate),
                                  realized.horizon)
    return {
        "horizon": realized.horizon,
        "rate": args.rate,
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


def _expansion(args):
    return beta_expand(parse_beta_spec(args.beta), args.digits)


def cmd_beta_expand(args):
    expansion = _expansion(args)
    report = {
        "status": expansion.status,
        "digits": list(expansion.digits),
        "alphabet_max": expansion.alphabet_max,
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
    stream = _expansion(args).working_stream()
    return _mfw_report(beta_oracle(stream, args.horizon), args.horizon)


def cmd_beta_lsdiag(args):
    stream = _expansion(args).working_stream()
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
    stream = _expansion(args).working_stream()
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


# ---- parser and rendering --------------------------------------------------

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


def _add_shift_arg(p, count=1):
    p.add_argument("shift", help="shift document file")
    if count == 2:
        p.add_argument("other", help="second shift document file")


class _Leaf:
    """One command's own parser, with its actions laid out for ``read``."""

    def __init__(self, parser):
        self.parser = parser
        self.options = {}       # option string -> action
        self.positionals = []
        self.required = []
        self.defaults = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not (isinstance(action, argparse._StoreConstAction) or
                    isinstance(action, argparse._StoreAction) and action.nargs is None):
                raise TypeError("%s: no plain read for %s" % (parser.prog, action.dest))
            self.options.update(dict.fromkeys(action.option_strings, action))
            if not action.option_strings:
                self.positionals.append(action)
            if action.required:
                self.required.append(action)
            default = action.default
            # argparse converts a str default that no argument replaced
            if isinstance(default, str) and action.type is not None:
                default = action.type(default)
            self.defaults.setdefault(action.dest, default)
        for dest, value in parser._defaults.items():
            self.defaults.setdefault(dest, value)

    def read(self, words):
        """``self.parser.parse_args(words)`` when ``words`` is plain, else None.

        Plain means: exact option strings, each with one value that does not
        start with "-"; positionals that do not start with "-"; every
        conversion and choice check succeeding; and every positional and
        required option present.  Help, abbreviations, "--opt=value", "--",
        negative values and every usage error are left to argparse."""
        values = dict(self.defaults)
        missing = set(self.required)
        taken = 0
        words = iter(words)
        for word in words:
            if not word.startswith("-"):
                if taken == len(self.positionals):
                    return None
                action = self.positionals[taken]
                taken += 1
            else:
                action = self.options.get(word)
                if action is None:
                    return None
                if action.nargs != 0:
                    word = next(words, "-")     # a missing value is not plain
                    if word.startswith("-"):
                        return None
            missing.discard(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            try:
                value = word if action.type is None else action.type(word)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        if missing:
            return None
        return argparse.Namespace(**values)


def _leaves(parser, words=()):
    """(command words, parser) for every command under ``parser``, in order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _leaves(sub, words + (word,))
            return
    yield words, parser


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser, built once per process.  ``parse_args`` returns a fresh
    ``Namespace`` per call, so nothing carries from one report to the next.
    Its ``leaves`` attribute maps the words of each command (``("lang",)``,
    ``("beta", "mfw")``, ...) to a ``_Leaf`` of that command's parser."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    common = argparse.ArgumentParser(add_help=False, parents=[fmt])
    common.add_argument("--horizon", type=int, default=16,
                        help="analysis horizon (default 16)")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=int, default=10 ** 6,
                        help="enumeration cap (default 1000000)")

    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Combinatorial and measure-theoretic invariants of shifts")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("lang", parents=[common], help="words of one length")
    _add_shift_arg(p)
    p.add_argument("--length", type=int, default=4)
    p.set_defaults(func=cmd_lang)

    p = sub.add_parser("complexity", parents=[common],
                       help="word counts up to the horizon")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("special", parents=[common],
                       help="left/right special and bispecial words")
    _add_shift_arg(p)
    p.add_argument("--length", type=int, default=4)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("mfw", parents=[common],
                       help="minimal forbidden words up to the horizon")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_mfw)

    p = sub.add_parser("ls", parents=[common],
                       help="length set and density evidence")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("well-approx", parents=[common],
                       help="approximation witnesses at a rate")
    _add_shift_arg(p)
    p.add_argument("--rate", default="n",
                   help="a nonnegative integer or \"n\" (default n)")
    p.set_defaults(func=cmd_well_approx)

    p = sub.add_parser("entropy", parents=[common],
                       help="topological entropy of a presented shift")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("periodic", parents=[capped],
                       help="periodic points up to a period")
    _add_shift_arg(p)
    p.add_argument("--period", type=int, default=6)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("nu", parents=[capped],
                       help="empirical measure on periodic points")
    _add_shift_arg(p)
    p.add_argument("--period", type=int, default=8)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--exact", action="store_true",
                   help="accepted and ignored: values are always exact, counted "
                        "by transfer matrices on finite-type data and "
                        "enumerated otherwise")
    p.add_argument("--compare-parry", action="store_true")
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("parry", parents=[common],
                       help="measure of maximal entropy of an SFT")
    _add_shift_arg(p)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_parry)

    p = sub.add_parser("decompose", parents=[capped],
                       help="maximal-entropy components of a coded image")
    _add_shift_arg(p)
    p.add_argument("--code", required=True, help="block code file")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--average-cutoff", type=int, default=0,
                   help="include the periodic-weighted average at this cutoff")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("push", parents=[capped],
                       help="pushforward of the empirical measure")
    _add_shift_arg(p)
    p.add_argument("--code", required=True)
    p.add_argument("--period", type=int, default=8)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("autocheck", parents=[common],
                       help="automorphism invariance of the empirical measure")
    _add_shift_arg(p)
    p.add_argument("--code", required=True)
    p.add_argument("--inverse", required=True)
    p.add_argument("--period", type=int, default=8)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_autocheck)

    beta = sub.add_parser("beta", help="beta-shift commands")
    beta_sub = beta.add_subparsers(dest="beta_command", metavar="subcommand")

    p = beta_sub.add_parser("expand", parents=[fmt],
                            help="greedy expansion of 1")
    p.add_argument("beta", help="rational:P/Q, poly:...@[lo,hi], or a decimal")
    p.add_argument("--digits", type=int, default=24)
    p.set_defaults(func=cmd_beta_expand)

    p = beta_sub.add_parser("mfw", parents=[common],
                            help="minimal forbidden words of the beta-shift")
    p.add_argument("beta")
    p.add_argument("--digits", type=int, default=64)
    p.set_defaults(func=cmd_beta_mfw)

    p = beta_sub.add_parser("lsdiag", parents=[common],
                            help="stability evidence for the beta-shift")
    p.add_argument("beta")
    p.add_argument("--digits", type=int, default=64)
    p.set_defaults(func=cmd_beta_lsdiag)

    p = beta_sub.add_parser("graph", parents=[fmt],
                            help="presentation of a closed-form expansion")
    p.add_argument("beta")
    p.add_argument("--digits", type=int, default=64)
    p.set_defaults(func=cmd_beta_graph)

    p = beta_sub.add_parser("example", parents=[fmt],
                            help="recursive non-sofic expansion prefixes")
    p.add_argument("--mode", choices=("specified", "synchronized"),
                   default="specified")
    p.add_argument("--steps", type=int, default=3)
    p.set_defaults(func=cmd_beta_example)

    subst = sub.add_parser("subst", help="substitution commands")
    subst_sub = subst.add_subparsers(dest="subst_command", metavar="subcommand")

    p = subst_sub.add_parser("lang", parents=[common],
                             help="language of a substitution document")
    _add_shift_arg(p)
    p.add_argument("--length", type=int, default=4)
    p.set_defaults(func=cmd_subst_lang)

    p = subst_sub.add_parser("profile", parents=[common],
                             help="complexity differences and bispecials")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_subst_profile)

    p = sub.add_parser("induce", parents=[common],
                       help="recoded induced system of a document")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("speedup-compare", parents=[common],
                       help="stability evidence across an induced recoding")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_speedup_compare)

    sofic = sub.add_parser("sofic", help="labeled-graph commands")
    sofic_sub = sofic.add_subparsers(dest="sofic_command", metavar="subcommand")

    p = sofic_sub.add_parser("det", parents=[common],
                             help="determinize the presentation")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_sofic_det)

    p = sofic_sub.add_parser("eq", parents=[common],
                             help="language equality of two presentations")
    _add_shift_arg(p, count=2)
    p.set_defaults(func=cmd_sofic_eq)

    p = sofic_sub.add_parser("issft", parents=[common],
                             help="finite-type test for a presentation")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_sofic_issft)

    p = sofic_sub.add_parser("thm1", parents=[common],
                             help="finite-type status against LS density")
    _add_shift_arg(p)
    p.set_defaults(func=cmd_sofic_thm1)

    p = sub.add_parser("tau", parents=[fmt],
                       help="the periodicity rate tau(n)")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_tau)

    parser.leaves = {words: _Leaf(leaf) for words, leaf in _leaves(parser)}
    return parser


def _parse(argv):
    """The Namespace of ``argv``: read off its command's own parser when the
    rest of ``argv`` is plain (``_Leaf.read``), otherwise from the whole
    parser, so that help and every usage error keep argparse's text (the
    command's own parser would print its usage, not the top one, for
    unrecognized arguments)."""
    parser = build_parser()
    for n in (1, 2):
        leaf = parser.leaves.get(tuple(argv[:n]))
        if leaf is not None:
            args = leaf.read(argv[n:])
            if args is not None:
                return args
            break
    return parser.parse_args(argv)


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
