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
measured under the profiler.  A report that exits nonzero is counted and
named.

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
        per_command = collections.defaultdict(float)
        profile = cProfile.Profile()
        for _ in range(args.passes):
            for report in reports:
                gc.collect()
                t0 = time.perf_counter()
                profile.enable()
                _run(cli, report.argv)
                profile.disable()
                per_command[_command(report.argv)] += time.perf_counter() - t0

    print("%s seed %d: %d reports, %d passes, %d failed%s"
          % (args.workload, args.seed, len(reports), args.passes, len(failed),
             (" (%s)" % ", ".join(sorted(failed))) if failed else ""))
    pstats.Stats(profile, stream=sys.stdout).sort_stats(args.sort).print_stats(TOP)
    total = sum(per_command.values())
    print("time per command over %d passes, under the profiler (%.3f s in all):"
          % (args.passes, total))
    for command, seconds in sorted(per_command.items(), key=lambda kv: -kv[1]):
        print("  %-20s %8.3f s  %5.1f %%" % (command, seconds, 100 * seconds / total))


if __name__ == "__main__":
    main()
