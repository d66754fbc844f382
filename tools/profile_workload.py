"""Profile one benchmark workload in process.

    python3 tools/profile_workload.py WORKLOAD [--seed N] [--passes K]
        [--sort tottime|cumtime] [--time MODULE.FUNC[,...]] [--root DIR]

Builds the documents and reports of WORKLOAD (enumerate, automata, recode
or batch) with ``perfbench/workloads.build`` at seed N into a temporary
directory, and runs every report once through ``cli.main`` with
``--format json`` to warm up.  Then it runs K passes of every report
under one ``cProfile`` profile and prints the top functions by the
chosen sort key, followed by the time per command (the report's first
word, with its subcommand when it has one), summed over the K passes and
measured under the profiler, with the part of it spent reading the argv
(``cli._parse``, or argparse's ``parse_args`` in a checkout without it),
loading documents (``cli._load``) and writing the report (``cli._emit``).
A report that exits nonzero is counted and named.

With ``--time`` (for example ``--time forbidden.window_density_report``,
a function of ``shiftlab.forbidden``), the K passes run without the
profiler, with ``gc.collect()`` before each report, and it prints each
named function's share of the workload's wall time instead.  Each
function is replaced in every ``shiftlab`` module that holds it by name,
and only its outermost calls are timed, so a recursive or nested call is
not counted twice.

DIR (default: the checkout holding this script) supplies both
``src/shiftlab`` and ``perfbench``; nothing is written there.
"""

import argparse
import collections
import contextlib
import cProfile
import gc
import importlib
import io
import os
import pstats
import sys
import tempfile
import time

TOP = 30


def _command(argv):
    sub = len(argv) > 1 and argv[1].isalnum() and not argv[1].isdigit()
    return " ".join(argv[:2]) if sub else argv[0]


def _run(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv + ["--format", "json"])
        except SystemExit as exc:  # argparse rejects an argv
            return exc.code


PARTS = ("parse", "load", "emit")


def _timed(seconds, part, fn, calls=None):
    """``fn``, adding the time of each outermost call to ``seconds[part]``
    and counting it in ``calls[part]``."""
    depth = [0]

    def timed(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[part] += time.perf_counter() - t0
            depth[0] -= 1
            if calls is not None:
                calls[part] += 1
    return timed


def _time_functions(cli, reports, names, passes):
    """Seconds and outermost calls of each ``module.function`` in
    ``names`` over ``passes`` passes, and the passes' wall time."""
    seconds, calls = collections.Counter(), collections.Counter()
    for name in names:
        module, _, attr = name.rpartition(".")
        fn = getattr(importlib.import_module("shiftlab." + module), attr)
        timed = _timed(seconds, name, fn, calls)
        for holder in [m for key, m in sys.modules.items() if key.startswith("shiftlab")]:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, timed)
    total = 0.0
    for _ in range(passes):
        for report in reports:
            gc.collect()
            t0 = time.perf_counter()
            _run(cli, report.argv)
            total += time.perf_counter() - t0
    return seconds, calls, total


def _profile(cli, reports, passes):
    """Per-command seconds, with their parse, load and emit parts, and the
    profile of ``passes`` passes under ``cProfile``."""
    per_command = collections.defaultdict(collections.Counter)
    parts = collections.Counter()
    parse = ((cli, "_parse") if hasattr(cli, "_parse")
             else (argparse.ArgumentParser, "parse_args"))
    for owner, name, part in (parse + ("parse",), (cli, "_load", "load"),
                              (cli, "_emit", "emit")):
        setattr(owner, name, _timed(parts, part, getattr(owner, name)))
    profile = cProfile.Profile()
    for _ in range(passes):
        for report in reports:
            gc.collect()
            parts.clear()
            t0 = time.perf_counter()
            profile.enable()
            _run(cli, report.argv)
            profile.disable()
            parts["all"] = time.perf_counter() - t0
            per_command[_command(report.argv)].update(parts)
    return per_command, profile


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("enumerate", "automata", "recode", "batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    parser.add_argument("--time", metavar="MODULE.FUNC[,...]",
                        help="print these functions' shares of the wall time, unprofiled")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "perfbench")]
    import workloads
    from shiftlab import cli

    with tempfile.TemporaryDirectory() as docdir:
        reports = workloads.build(args.workload, args.seed, docdir).reports
        failed = {r.rid for r in reports if _run(cli, r.argv) != 0}
        if args.time:
            names = args.time.split(",")
            seconds, calls, total = _time_functions(cli, reports, names, args.passes)
        else:
            per_command, profile = _profile(cli, reports, args.passes)

    print("%s seed %d: %d reports, %d passes, %d failed%s"
          % (args.workload, args.seed, len(reports), args.passes, len(failed),
             (" (%s)" % ", ".join(sorted(failed))) if failed else ""))
    if args.time:
        print("wall time over %d passes, without the profiler: %.3f s" % (args.passes, total))
        for name in names:
            print("  %-40s %8.3f s  %5.1f %%  %d outermost calls" % (
                name, seconds[name], 100 * seconds[name] / total, calls[name]))
        return
    pstats.Stats(profile, stream=sys.stdout).sort_stats(args.sort).print_stats(TOP)
    total = sum(seconds["all"] for seconds in per_command.values())
    print("time per command over %d passes, under the profiler (%.3f s in all),"
          " and its share in argv parsing, document loading and report writing:"
          % (args.passes, total))
    print("  %-20s %10s  %7s  %7s %7s %7s" % ("command", "time", "share", *PARTS))
    for command, seconds in sorted(per_command.items(), key=lambda kv: -kv[1]["all"]):
        print("  %-20s %8.3f s  %5.1f %%  %s" % (
            command, seconds["all"], 100 * seconds["all"] / total,
            " ".join("%5.1f %%" % (100 * seconds[p] / seconds["all"]) for p in PARTS)))
    print("  %-20s %8.3f s  %5.1f %%  %s" % (
        "(all)", total, 100.0, " ".join("%5.1f %%" % (
            100 * sum(s[p] for s in per_command.values()) / total) for p in PARTS)))


if __name__ == "__main__":
    main()
