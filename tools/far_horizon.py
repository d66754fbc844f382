"""Run the far-horizon reports, each in a fresh process, and print what
each one cost.

    python3 tools/far_horizon.py [--root DIR]

Writes the documents the reports read to a temporary directory, runs
each report as ``shiftlab`` would (``cli.main`` on its argv) in a new
Python process, and prints one line per report:
``<exit code> <wall s> <max RSS MB> <sha256 of stdout> <argv>``.  The
exit code reads ``timeout`` when the report was killed after ``TIMEOUT``
seconds.  Max RSS is the child's own peak (``os.wait4``), not this
process's.  The temporary directory is masked in the argv, and no report prints
it, so two checkouts compare line by line.  DIR (default: the checkout
holding this script) supplies ``src/shiftlab``; run the script once
against the parent checkout and once against the change.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

DOCS = {
    "fib.json": {"kind": "substitution", "rules": {"0": "01", "1": "0"}, "seed": "0"},
    "even.json": {"kind": "sofic", "alphabet": ["0", "1"], "states": ["e", "o"],
                  "edges": [["e", "0", "e"], ["e", "1", "o"], ["o", "1", "e"]]},
    "beta18.json": {"kind": "beta", "beta": "1.8"},
    "abc.json": {"kind": "substitution", "rules": {"a": "bb", "b": "cab", "c": "c"},
                 "seed": "a"},
    "ne11.json": {"kind": "example-nonempty", "lengths": [11]},
    "trib.json": {"kind": "beta", "beta": "poly:x^3-x^2-x-1@[1.8,1.9]"},
}


def _stalled_document():
    """A sofic document with 814 letters, one per edge, on three states
    with adjacency [[0, 266, 0], [16, 0, 266], [266, 0, 0]]: its Perron
    root is too large for the power iteration's 1e-12 width, so the float
    vectors repeat instead of converging."""
    adjacency = [[0, 266, 0], [16, 0, 266], [266, 0, 0]]
    states, edges = "pqr", []
    for i, row in enumerate(adjacency):
        for j, count in enumerate(row):
            edges += [[states[i], "x%d" % (len(edges) + k), states[j]] for k in range(count)]
    return {"kind": "sofic", "alphabet": [e[1] for e in edges], "states": list(states),
            "edges": edges}


DOCS["stall814.json"] = _stalled_document()

REPORTS = (
    ["ls", "fib.json", "--horizon", "1000"],
    ["ls", "even.json", "--horizon", "100000"],
    ["ls", "beta18.json", "--horizon", "1000"],
    ["subst", "lang", "abc.json", "--length", "12"],
    ["parry", "ne11.json"],
    ["subst", "lang", "fib.json", "--length", "5", "--horizon", "100000"],
    # |A|^400 passes WORD_LIMIT, so the 401 words are counted before they
    # are listed; the listing holds two levels at a time
    ["subst", "lang", "fib.json", "--length", "400", "--horizon", "400"],
    # a Parry beta: the walk steps on the document's presentation
    ["ls", "trib.json", "--horizon", "100000"],
    # read off the 202 words of length 201
    ["special", "fib.json", "--length", "200", "--horizon", "201"],
    # the power iteration's vectors cycle with period 3 from step 858
    ["entropy", "stall814.json"],
)

CHILD = "import sys; from shiftlab.cli import main; sys.exit(main(sys.argv[1:]))"
MASK = "<docdir>"
TIMEOUT = 120.0


def _run(argv, src):
    """(exit code or "timeout", wall s, max RSS MB, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD] + argv, stdout=out,
                                stderr=subprocess.DEVNULL, env=env)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.perf_counter() - t0 > TIMEOUT:
                proc.kill()
                killed = True
            time.sleep(0.005)
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return ("timeout" if killed else code), wall, usage.ru_maxrss / 1024, out.read()


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=here, help="checkout whose src/ is used")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    with tempfile.TemporaryDirectory(prefix="far-horizon-") as tmp:
        for name, doc in DOCS.items():
            with open(os.path.join(tmp, name), "w") as f:
                json.dump(doc, f)
        for report in REPORTS:
            argv = [os.path.join(tmp, a) if a in DOCS else a for a in report]
            code, wall, rss, out = _run(argv, src)
            print(code, "%.2f" % wall, "%.0f" % rss, hashlib.sha256(out).hexdigest(),
                  " ".join(argv).replace(tmp, MASK), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
