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
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

SEEDS = (1, 2)
FORMATS = ("json", "text")
MASK = "<docdir>"


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
