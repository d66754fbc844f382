"""Alternating benchmark pairs of a parent checkout and a change.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N [--workload W]
        [--trace] > pairs.json

Each checkout is first copied, without its ``__pycache__`` directories
and dot entries (``.git``, ``.bench_out/``), into a fresh temporary
directory, and every run goes under ``PYTHONDONTWRITEBYTECODE=1``.  Both
sides then import from source, in the same bytecode state, so
``setup_s`` compares the code, not the caches: a stale cache in one
checkout once read +92 % there.

For each seed K in 1..N, runs the benchmark command of ``BENCHMARK.json``
(``python3 perfbench/run.py``) with ``--workload W --seconds S --seed K``
once from each copy, its working directory set to that copy, so each
side runs its own ``perfbench/`` and ``src/``.  S is the
``run_seconds`` of ``BENCHMARK.json``.  W is ``all`` by default, which
gives each of the four workloads about a quarter of S and prefixes each
metric with its workload; a single workload (``--workload automata``)
gets all of S, and only its runs show its own ``peak_mem_mb``.  Runs go one at a time, the parent
first at odd seeds and the change first at even seeds.  With ``--trace``
every run also takes ``--trace 1``, and the metrics are the per-layer
ones.

Prints one JSON object:

- ``pairs``: per seed, which side ran first and each side's result line
  (correct, attempted, failed and metrics);
- ``summary``: per metric, both medians, the parent's interquartile range
  (``statistics.quantiles``, exclusive method), ``change_better_pairs``
  (pairs in which the change is strictly better), the relative change of
  the medians, and the metric's ``bound`` from ``BENCHMARK.json`` (null
  for per-layer metrics).

``BENCHMARK.json`` is read from CHANGE_DIR; nothing in either checkout is
written, and the copies are removed at the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run_side(root, command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seconds", str(seconds), "--seed", str(seed)]
    if trace:
        argv += ["--trace", "1"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("bench_pairs: %s failed in %s (exit %d): %s"
                 % (" ".join(argv), root, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_rules(bench):
    """metric name (without its workload prefix) -> (better, bound)."""
    rules = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return rules


def summarize(pairs, rules):
    summary = {}
    for key in sorted(pairs[0]["parent"]["metrics"]):
        # "automata.wall_s" under --workload all, "wall_s" under one workload
        rule = rules.get(key) or rules.get(key.split(".", 1)[-1], ("lower", None))
        better, bound = rule
        parent = [p["parent"]["metrics"][key]["value"] for p in pairs]
        change = [p["change"]["metrics"][key]["value"] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (0, 0, 0)
        pm, cm = statistics.median(parent), statistics.median(change)
        summary[key] = {
            "bound": bound,
            "change_better_pairs": wins,
            "change_median": round(cm, 6),
            "pairs": len(pairs),
            "parent_iqr": round(q3 - q1, 6),
            "parent_median": round(pm, 6),
            "relative_change": round(cm / pm - 1, 4) if pm else None,
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("change", metavar="CHANGE_DIR")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all",
                        choices=("enumerate", "automata", "recode", "batch", "all"))
    parser.add_argument("--trace", action="store_true",
                        help="run with --trace 1 and summarize the per-layer metrics")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    command, seconds = bench["command"], bench["run_seconds"]

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        roots = {}
        for side in ("parent", "change"):
            roots[side] = os.path.join(scratch, side)
            shutil.copytree(getattr(args, side), roots[side],
                            ignore=shutil.ignore_patterns("__pycache__", ".*"))
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            entry = {"seed": seed, "first": order[0]}
            for side in order:
                print("seed %d: %s" % (seed, side), file=sys.stderr, flush=True)
                entry[side] = run_side(roots[side], command, args.workload, seed, seconds,
                                       args.trace)
            pairs.append(entry)

    shown = " ".join(command + ["--workload", args.workload, "--seconds", str(seconds),
                                "--seed", "SEED"] + (["--trace", "1"] if args.trace else []))
    json.dump({"command": shown, "pairs": pairs,
               "summary": summarize(pairs, metric_rules(bench))},
              sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
