"""One digest line per benchmark report, for checking that a change keeps
every report byte-identical.

    python3 tools/report_digests.py [--root REPO] > digests.txt

Builds the four workloads of ``perfbench/workloads.py`` at seeds 1 and
2, runs each report's argv through ``cli.main`` in this process once with
``--format json`` and once with ``--format text``, and prints ``<seed>
<report id> <format> <exit code> <sha256 of stdout> <sha256 of stderr>
<argv>``, so a diff of two runs names the commands whose output changed.
JSON sorts keys but text follows the report's key order, so both are
checked.  The temporary document directory is masked in both streams
before hashing, and in the argv, so two runs compare line by line.
REPO (default: the checkout holding this script) supplies both
``src/shiftlab`` and ``perfbench``; run the script once against the
parent checkout and once against the change, and ``diff`` the outputs.

After the workloads come the fixed ``EXTRA`` argvs, for paths that the
workloads run rarely or never: ``nu``, ``push`` and ``periodic`` on points enumerated
from a sofic and a beta presentation, ``lang``, ``induce`` and
``speedup-compare`` on a depth-2 induced chain, the enumerating reports on
a Parry-beta document (whose oracle steps on its presentation), and
``induce``, ``ls`` and ``speedup-compare`` on an induced document over it.
Their lines carry the seed ``extra`` and an id of their own, and the same
masking.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

SEEDS = (1, 2)
FORMATS = ("json", "text")
MASK = "<docdir>"

# documents and block codes of the EXTRA argvs, written to their own docdir
EXTRA_FILES = {
    "even.json": {"kind": "sofic", "alphabet": ["0", "1"], "states": ["e", "o"],
                  "edges": [["e", "0", "e"], ["e", "1", "o"], ["o", "1", "e"]]},
    "beta.json": {"kind": "beta", "beta": "poly:x^3-x^2-x-1@[1.8,1.9]"},
    "chain.json": {"kind": "induced", "window": 1, "return_rule": 1,
                   "clopen": ["000", "001", "010", "100"],
                   "base": {"kind": "induced", "window": 0, "return_rule": 2,
                            "base": {"kind": "finite-type", "alphabet": ["0", "1"],
                                     "forbidden": ["11"]}}},
    "ibeta.json": {"kind": "induced", "window": 1, "return_rule": 2,
                   "base": {"kind": "beta", "beta": "poly:x^3-x^2-x-1@[1.8,1.9]"}},
    "flip.json": {"range": 0, "rule": {"0": "1", "1": "0"}},
    "xor.json": {"range": 1, "rule": {"".join(w): str(int(w[0] != w[2]))
                                      for w in itertools.product("01", repeat=3)}},
}
EXTRA = [("%s-%s-%d" % (argv[0], argv[1].split(".")[0], i), argv)
         for i, argv in enumerate([
             ["nu", "even.json", "--period", "9", "--depth", "3"],
             ["nu", "even.json", "--period", "4", "--depth", "0"],
             ["push", "even.json", "--code", "flip.json", "--period", "9", "--depth", "2"],
             ["periodic", "even.json", "--period", "9"],
             ["nu", "beta.json", "--period", "9", "--depth", "3"],
             ["push", "beta.json", "--code", "xor.json", "--period", "7", "--depth", "2"],
             ["periodic", "beta.json", "--period", "9"],
             ["lang", "chain.json", "--length", "4", "--horizon", "6"],
             ["induce", "chain.json", "--horizon", "6"],
             ["speedup-compare", "chain.json", "--horizon", "8"],
             ["mfw", "beta.json", "--horizon", "24"],
             ["ls", "beta.json", "--horizon", "60"],
             ["complexity", "beta.json", "--horizon", "20"],
             ["special", "beta.json", "--length", "8", "--horizon", "12"],
             ["well-approx", "beta.json", "--horizon", "40"],
             ["induce", "ibeta.json", "--horizon", "8"],
             ["ls", "ibeta.json", "--horizon", "12"],
             ["speedup-compare", "ibeta.json", "--horizon", "10"],
         ])]


def _digest(text, docdir):
    return hashlib.sha256(text.replace(docdir, MASK).encode("utf-8")).hexdigest()


def _run(cli, argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv + ["--format", fmt])
        except SystemExit as exc:  # argparse rejects an argv
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=here,
                        help="checkout whose src/ and perfbench/ are used")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads  # noqa: E402  (from the chosen checkout)
    from shiftlab import cli  # noqa: E402

    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        for seed in SEEDS:
            for name in workloads.PLANS:
                docdir = os.path.join(tmp, "%s-%d" % (name, seed))
                os.makedirs(docdir)
                for report in workloads.build(name, seed, docdir).reports:
                    for fmt in FORMATS:
                        rc, out, err = _run(cli, report.argv, fmt)
                        print(seed, report.rid, fmt, rc, _digest(out, docdir),
                              _digest(err, docdir),
                              " ".join(report.argv).replace(docdir, MASK), flush=True)
        docdir = os.path.join(tmp, "extra")
        os.makedirs(docdir)
        for name, obj in EXTRA_FILES.items():
            with open(os.path.join(docdir, name), "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
        for rid, argv in EXTRA:
            argv = [os.path.join(docdir, a) if a in EXTRA_FILES else a for a in argv]
            for fmt in FORMATS:
                rc, out, err = _run(cli, argv, fmt)
                print("extra", rid, fmt, rc, _digest(out, docdir), _digest(err, docdir),
                      " ".join(argv).replace(docdir, MASK), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
