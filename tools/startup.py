"""Start-up of fresh shiftlab processes, timed across checkouts.

    python3 tools/startup.py [--root DIR ...] [--runs N]

Times whole fresh processes of this interpreter, spawned from this one:
``-c pass``, ``-c "import shiftlab.cli"``, and three plain reports run
through ``shiftlab.cli.main`` as the ``shiftlab`` script runs them:
``entropy golden.json``, ``ls even.json --horizon 41`` and ``beta expand
poly:x^2-x-1@[1.6,1.7]``.  It does so in two modes, each from a fresh
temporary copy of every checkout's ``src`` (without ``__pycache__``):

- ``no-bytecode``: under ``PYTHONDONTWRITEBYTECODE=1``, so every process
  compiles the package, as the benchmark's runs under
  ``tools/bench_pairs.py`` do;
- ``bytecode``: with the copy's bytecode written first (``compileall``),
  as an installed package runs.

Within a mode the runs interleave: each of N rounds (default 25) runs
every case on every checkout, the order of the checkouts alternating
from one round to the next.  Prints, per mode, case and checkout, the
median and the quartiles (``statistics.quantiles``, exclusive method) in
ms.  ``--root`` may be given more than once; it defaults to the checkout
holding this script.  Nothing in a checkout is written, and the copies
are removed at the end.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

DOCS = {
    "golden.json": {"kind": "finite-type", "alphabet": ["0", "1"], "forbidden": ["11"]},
    "even.json": {"kind": "sofic", "alphabet": ["0", "1"], "states": ["e", "o"],
                  "edges": [["e", "0", "e"], ["e", "1", "o"], ["o", "1", "e"]]},
}
REPORT = ["-c", "import sys; from shiftlab.cli import main; sys.exit(main(sys.argv[1:]))"]
CASES = [
    ("-c pass", ["-c", "pass"]),
    ("import shiftlab.cli", ["-c", "import shiftlab.cli"]),
    ("entropy golden.json", REPORT + ["entropy", "golden.json"]),
    ("ls even.json --horizon 41", REPORT + ["ls", "even.json", "--horizon", "41"]),
    ("beta expand poly:x^2-x-1@[1.6,1.7]",
     REPORT + ["beta", "expand", "poly:x^2-x-1@[1.6,1.7]"]),
]
MODES = ("no-bytecode", "bytecode")


def copy_side(root, dest, mode):
    """A fresh copy of ``root``'s src in ``dest`` with the documents, and
    the environment its processes run in."""
    shutil.copytree(os.path.join(root, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, obj in DOCS.items():
        with open(os.path.join(dest, name), "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.path.join(dest, "src")
    if mode == "no-bytecode":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    elif not compileall.compile_dir(os.path.join(dest, "src"), quiet=1):
        sys.exit("startup: compiling %s failed" % dest)
    return env


def time_process(args, cwd, env):
    t = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t
    if proc.returncode != 0:
        sys.exit("startup: %s failed in %s (exit %d): %s"
                 % (" ".join(args), cwd, proc.returncode, proc.stderr.strip()[-2000:]))
    return seconds


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append",
                        help="checkout whose src/ is timed (repeatable; default: this one)")
    parser.add_argument("--runs", type=int, default=25, help="rounds per mode (default 25)")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(r) for r in args.root or [here]]
    for i, root in enumerate(roots, 1):
        print("[%d] %s" % (i, root))
    print("%-12s %-36s %4s %8s %8s %8s   (ms, %d runs)"
          % ("mode", "case", "side", "median", "q1", "q3", args.runs))
    for mode in MODES:
        times = {(case, i): [] for case, _ in CASES for i in range(len(roots))}
        with tempfile.TemporaryDirectory(prefix="startup_") as scratch:
            sides = []
            for i, root in enumerate(roots):
                dest = os.path.join(scratch, str(i))
                sides.append((dest, copy_side(root, dest, mode)))
            for r in range(args.runs):
                order = range(len(roots)) if r % 2 == 0 else reversed(range(len(roots)))
                for i in order:
                    for case, case_args in CASES:
                        times[case, i].append(time_process(case_args, *sides[i]))
        for case, _ in CASES:
            for i in range(len(roots)):
                ms = [1000 * t for t in times[case, i]]
                q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
                print("%-12s %-36s %4s %8.1f %8.1f %8.1f"
                      % (mode, case, "[%d]" % (i + 1), statistics.median(ms), q1, q3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
