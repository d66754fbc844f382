"""Profile one benchmark workload in process.

    python3 tools/profile_workload.py WORKLOAD [--seed N] [--passes K]
        [--sort tottime|cumtime] [--root DIR]

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

DIR (default: the checkout holding this script) supplies both
``src/shiftlab`` and ``perfbench``; nothing is written there.
"""

import argparse
import collections
import contextlib
import cProfile
import gc
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


def _timed(seconds, part, fn):
    """``fn``, adding the time of each call to ``seconds[part]``."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[part] += time.perf_counter() - t0
    return timed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("enumerate", "automata", "recode", "batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "perfbench")]
    import workloads
    from shiftlab import cli

    with tempfile.TemporaryDirectory() as docdir:
        reports = workloads.build(args.workload, args.seed, docdir).reports
        failed = {r.rid for r in reports if _run(cli, r.argv) != 0}
        per_command = collections.defaultdict(collections.Counter)
        parts = collections.Counter()
        parse = ((cli, "_parse") if hasattr(cli, "_parse")
                 else (argparse.ArgumentParser, "parse_args"))
        for owner, name, part in (parse + ("parse",), (cli, "_load", "load"),
                                  (cli, "_emit", "emit")):
            setattr(owner, name, _timed(parts, part, getattr(owner, name)))
        profile = cProfile.Profile()
        for _ in range(args.passes):
            for report in reports:
                gc.collect()
                parts.clear()
                t0 = time.perf_counter()
                profile.enable()
                _run(cli, report.argv)
                profile.disable()
                parts["all"] = time.perf_counter() - t0
                per_command[_command(report.argv)].update(parts)

    print("%s seed %d: %d reports, %d passes, %d failed%s"
          % (args.workload, args.seed, len(reports), args.passes, len(failed),
             (" (%s)" % ", ".join(sorted(failed))) if failed else ""))
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
