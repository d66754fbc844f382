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
import os
import sys
from fractions import Fraction

from .beta import (beta_expand, beta_ls_diagnostic, beta_oracle,
                   beta_presentation, example_betashift, parse_beta_spec)
from .dynamics import bispecial_lengths, cassaigne_profile, induced_data, \
    speedup_gap_compare
from .errors import EnumerationCapError, NotAnAutomorphismError, ShiftlabError, \
    UnsupportedSpecError
from .forbidden import ls_report, minimal_forbidden, tau_eval, \
    well_approx_check
from .language import complexity, format_word, special_words
from .measures import (INVARIANCE_TOL, certify_inverse_pair, cylinder_table,
                       eval_cylinder, max_entropy_decomposition, mu_y_average,
                       parry_measure, weak_star_distance)
from .shifts import (load_shift_document, parse_block_code, periodic_census,
                     periodic_measure, realize, shift_entropy)
from .sofic import apply_block_code, determinize, is_sft, language_equal_exact, \
    language_equal_up_to, sofic_entropy, sofic_oracle, theorem1_diagnostic


# `lang` and `special` list words; past this many words they refuse.
WORD_LIMIT = 10 ** 6


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
    table = cylinder_table(measure, depth)
    out = {}
    exact = {}
    for k in range(depth + 1):
        for word in sorted(w for w in table.values if len(w) == k):
            value = table.values[word]
            out[format_word(word)] = float(value)
            if isinstance(value, Fraction):
                exact[format_word(word)] = "%d/%d" % (value.numerator,
                                                      value.denominator)
    report = {"depth": depth, "cylinders": out}
    if exact:
        report["cylinders_exact"] = exact
    return report


def _load(args):
    doc = load_shift_document(args.shift)
    return realize(doc, args.horizon)


def _check_word_count(oracle, n):
    """Refuse before listing the words of length n if there are too many."""
    count = complexity(oracle, n)[n]
    if count > WORD_LIMIT:
        raise EnumerationCapError("%d words of length %d exceed the limit %d"
                                  % (count, n, WORD_LIMIT))


def _load_code(path, alphabet):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:
            raise UnsupportedSpecError("block code is not valid JSON: %s" % (exc,))
    return parse_block_code(obj, alphabet)


# ---- command handlers ------------------------------------------------------

def cmd_lang(args):
    realized = _load(args)
    _check_word_count(realized.oracle, args.length)
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
    _check_word_count(realized.oracle, args.length + 1)
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
    report = ls_report(minimal_forbidden(realized.oracle, realized.horizon))
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
        report["parry_distance"] = weak_star_distance(measure, parry,
                                                      args.depth)
        report["note"] = "distance is a max over cylinders of depth <= %d" \
            % args.depth
    return report


def cmd_parry(args):
    realized = _load(args)
    k = realized.need("spec", "the Parry measure").memory - 1
    measure = parry_measure(realized.labeled)
    # the (memory-1)-words, read at their own length: --horizon can be shorter
    words = sofic_oracle(realized.labeled, k).words_of_length(k)
    report = {
        "perron": measure.perron,
        "stationary": {format_word(u): eval_cylinder(measure, u)
                       for u in sorted(words)},
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
        entry = {
            "entropy": comp.entropy,
            "det_states": len(comp.presentation.states),
        }
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
    rows = []
    for row in report.rows:
        rows.append({
            "induced_pair": list(row["induced_pair"]),
            "base_window_low": list(row["base_window_low"]),
            "base_window_high": list(row["base_window_high"]),
            "bound": row["bound"],
            "witness": list(row["witness"]) if row["witness"] else None,
            "satisfied": row["satisfied"],
        })
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
    realized = _load(args)
    g = realized.need("labeled", "determinization")
    d = determinize(g)
    edge_count = sum(len(ts) for row in d.transitions.values()
                     for ts in row.values())
    return {
        "states": len(d.states),
        "edges": edge_count,
        "alphabet": list(d.alphabet.symbols),
    }


def cmd_sofic_eq(args):
    doc1 = load_shift_document(args.shift)
    doc2 = load_shift_document(args.other)
    r1 = realize(doc1, args.horizon)
    r2 = realize(doc2, args.horizon)
    g1 = r1.need("labeled", "language comparison")
    g2 = r2.need("labeled", "language comparison")
    equal = language_equal_up_to(g1, g2, args.horizon)
    return {
        "horizon": args.horizon,
        "equal_up_to_horizon": equal,
    }


def cmd_sofic_issft(args):
    realized = _load(args)
    g = realized.need("labeled", "the finite-type test")
    tag = is_sft(g)
    return {
        "is_sft": tag.is_sft,
        "decision_bound": tag.decision_bound,
        "det_states": tag.det_states,
    }


def cmd_sofic_thm1(args):
    realized = _load(args)
    g = realized.need("labeled", "the stability diagnostic")
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
    if args.n < 1:
        raise UnsupportedSpecError("tau is defined for n >= 1")
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
    return str(value)


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


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(report)))
    sys.stdout.flush()


def _add_shift_arg(p, count=1):
    p.add_argument("shift", help="shift document file")
    if count == 2:
        p.add_argument("other", help="second shift document file")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser, built once per process.  ``parse_args`` returns a fresh
    ``Namespace`` per call, so nothing carries from one report to the next."""
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

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        report = args.func(args)
    except ShiftlabError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    try:
        _emit(report, args.format)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); what is still buffered
        # goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
