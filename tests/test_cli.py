"""End-to-end command line checks.

Commands run in process through cli.main with stdout captured by pytest;
documents and block-code files are written to tmp_path.  Exit codes: 0 on
success, 1 on domain and file errors, 2 on usage errors.
"""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import (Alphabet, FiniteTypeSpec, cli, finite_type_presentation,
                      per_le_enumerate, shifts)

GOLDEN = (1 + math.sqrt(5)) / 2

GOLDEN_DOC = {"kind": "finite-type", "alphabet": ["0", "1"],
              "forbidden": ["11"], "label": "golden"}
FULL2_DOC = {"kind": "finite-type", "alphabet": ["0", "1"], "forbidden": []}
EVEN_DOC = {"kind": "sofic", "alphabet": ["0", "1"], "states": ["e", "o"],
            "edges": [["e", "0", "e"], ["e", "1", "o"], ["o", "1", "e"]]}
FIB_DOC = {"kind": "substitution", "rules": {"0": "01", "1": "0"}, "seed": "0"}
INDUCED_GOLDEN_DOC = {"kind": "induced",
                      "base": {k: v for k, v in GOLDEN_DOC.items()
                               if k != "label"},
                      "window": 1,
                      "clopen": ["000", "001", "100", "101"],
                      "return_rule": "first-return"}
INDUCED_FIB_DOC = {"kind": "induced", "base": FIB_DOC, "window": 1,
                   "clopen": ["001", "100", "101"],
                   "return_rule": "first-return"}
FLIP_CODE = {"range": 0, "rule": {"0": "1", "1": "0"}}

GOLDEN_BETA = "poly:x^2-x-1@[1.6,1.7]"
SILVER_LIKE_BETA = "poly:x^2-3x+1@[2.5,2.7]"


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return _write


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--format", "json"])
    assert rc == 0, err
    return json.loads(out)


# ---- exit codes ------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    rc, out, err = run(capsys, [])
    assert rc == 2
    assert "usage" in err


def test_group_without_subcommand_is_usage_error(capsys):
    rc, _, err = run(capsys, ["beta"])
    assert rc == 2
    assert "usage" in err


def test_missing_file_is_error(capsys, tmp_path):
    rc, out, err = run(capsys, ["lang", str(tmp_path / "nope.json")])
    assert rc == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("doc, code", [
    ("{not json", None),
    (json.dumps(dict(EVEN_DOC, edges=5)), None),
    (json.dumps(GOLDEN_DOC), json.dumps({"range": 0, "rule": [1]})),
    (json.dumps({"kind": "beta", "beta": "rational:abc"}), None),
    (json.dumps({"kind": "beta", "beta": "rational:1/0"}), None),
    (json.dumps({"kind": "beta", "beta": "poly:x^2-x-1@[a,b]"}), None),
    (json.dumps({"kind": "beta", "beta": "poly:x^2-x-1/0@[1,2]"}), None),
    (json.dumps(dict(INDUCED_GOLDEN_DOC, clopen=5)), None),
    (json.dumps(dict(INDUCED_GOLDEN_DOC, return_rule={"000": "x"})), None),
    (json.dumps(dict(EVEN_DOC, alphabet=None)), None),
    (json.dumps(dict(GOLDEN_DOC, alphabet=[{}, True])), None),
    (json.dumps(GOLDEN_DOC), json.dumps(dict(FLIP_CODE, target=None))),
    (json.dumps(GOLDEN_DOC), json.dumps(dict(FLIP_CODE, target=[["0"]]))),
    (json.dumps(GOLDEN_DOC), "{not json"),
    (b"\xff\xfe{", None),
], ids=["not-json", "sofic-edges-not-list", "code-rule-not-object",
        "beta-rational-not-a-number", "beta-rational-zero-denominator",
        "beta-interval-not-a-number", "beta-poly-zero-denominator",
        "induced-clopen-not-list", "induced-return-time-not-int",
        "sofic-alphabet-null", "alphabet-symbols-not-strings",
        "code-target-null", "code-target-symbols-not-strings", "code-not-json",
        "not-utf8"])
def test_bad_document_is_error(capsys, tmp_path, doc, code):
    p = tmp_path / "bad.json"
    p.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    argv = ["mfw", str(p)]
    if code is not None:
        c = tmp_path / "code.json"
        c.write_text(code)
        argv = ["decompose", str(p), "--code", str(c)]
    rc, _, err = run(capsys, argv)
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("states", [["e", "o", "e"], ["e", "o", "1", 1]])
def test_repeated_state_name_is_error(capsys, write, states):
    # a repeated name would leave an all-zero adjacency row; names are
    # compared as the str() realization gives them
    doc = write("dup.json", dict(EVEN_DOC, states=states))
    rc, out, err = run(capsys, ["sofic", "det", doc])
    assert (rc, out) == (1, "")
    assert err == "error: shift document: state names must be distinct\n"


def test_tau_domain_error(capsys):
    rc, _, err = run(capsys, ["tau", "0"])
    assert rc == 1
    assert "tau is defined" in err


@pytest.mark.parametrize("argv", [
    ["special", "GOLDEN", "--length", "-1"],
    ["beta", "lsdiag", GOLDEN_BETA, "--horizon", "0"],
    ["beta", "lsdiag", GOLDEN_BETA, "--horizon", "-3"],
    ["autocheck", "FULL2", "--code", "FLIP", "--inverse", "FLIP", "--depth", "-1"],
], ids=["special-negative-length", "lsdiag-zero-horizon",
        "lsdiag-negative-horizon", "autocheck-negative-depth"])
def test_bad_number_is_error(capsys, write, argv):
    files = {"GOLDEN": write("g.json", GOLDEN_DOC),
             "FULL2": write("f2.json", FULL2_DOC),
             "FLIP": write("flip.json", FLIP_CODE)}
    rc, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


# ---- one parser per process --------------------------------------------------

def run_any(capsys, argv):
    """Like run, but an argparse rejection becomes its exit code."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_back_to_back_reports_share_no_state(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    calls = [
        ["lang", doc, "--length", "6", "--format", "json"],
        ["lang", doc, "--format", "json"],
        ["nu", doc, "--compare-parry", "--format", "json"],
        ["nu", doc, "--format", "json"],
        ["lang", doc, "--format", "yaml"],
        ["entropy", doc],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_any(capsys, argv))
    reused = [run_any(capsys, argv) for argv in calls]
    assert reused == fresh
    assert json.loads(reused[0][1])["length"] == 6
    assert json.loads(reused[1][1])["length"] == 4
    assert "parry_distance" in json.loads(reused[2][1])
    assert "parry_distance" not in json.loads(reused[3][1])
    assert reused[4][0] == 2 and "invalid choice: 'yaml'" in reused[4][2]
    assert reused[5][0] == 0 and reused[5][1]


def test_parser_is_built_once(capsys, write, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    doc = write("g.json", GOLDEN_DOC)
    run(capsys, ["entropy", doc])
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["lang", doc], ["beta", "expand", "rational:5/2"], ["tau", "1"]):
        assert run(capsys, argv)[0] == 0
    assert run_any(capsys, ["lang", doc, "--format", "yaml"])[0] == 2
    assert cli.build_parser() is cli.build_parser()
    assert built == []
    cli.build_parser.__wrapped__()  # the counter does see a rebuild
    assert built


# ---- options -----------------------------------------------------------------

def _leaf_options(parser, path=()):
    """(command, set of option strings) for every command under ``parser``."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(path), {s for a in parser._actions for s in a.option_strings
                               if s not in ("-h", "--help")}
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaf_options(child, path + (name,))


def test_each_command_takes_only_the_options_it_reads():
    options = dict(_leaf_options(cli.build_parser()))
    assert len(options) == 27
    assert sum(len(o) for o in options.values()) == 80
    assert all("--format" in o for o in options.values())
    assert {c for c, o in options.items() if "--horizon" not in o} == {
        "tau", "beta expand", "beta graph", "beta example"}
    assert {c for c, o in options.items() if "--cap" in o} == {
        "periodic", "nu", "decompose", "push"}
    assert not any("--tol" in o for o in options.values())
    assert "--exact" in options["nu"]


@pytest.mark.parametrize("argv", [
    ["lang", "GOLDEN", "--cap", "5"],
    ["tau", "3", "--horizon", "4"],
    ["beta", "expand", GOLDEN_BETA, "--horizon", "3"],
    ["decompose", "GOLDEN", "--code", "FLIP", "--tol", "1e-3"],
    ["autocheck", "GOLDEN", "--code", "FLIP", "--inverse", "FLIP", "--cap", "5"],
], ids=["lang-cap", "tau-horizon", "beta-expand-horizon", "decompose-tol",
        "autocheck-cap"])
def test_option_the_command_does_not_read_is_usage_error(capsys, write, argv):
    files = {"GOLDEN": write("g.json", GOLDEN_DOC), "FLIP": write("flip.json", FLIP_CODE)}
    rc, out, err = run_any(capsys, [files.get(a, a) for a in argv])
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


# ---- language commands -----------------------------------------------------

def test_lang_json(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["lang", doc, "--length", "3"])
    assert report["kind"] == "finite-type"
    assert report["count"] == 5
    assert report["words"] == ["000", "001", "010", "100", "101"]


def test_lang_text_is_byte_stable(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    rc1, out1, _ = run(capsys, ["lang", doc, "--length", "3"])
    rc2, out2, _ = run(capsys, ["lang", doc, "--length", "3"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "count: 5" in out1
    assert "- 101" in out1


def test_complexity(capsys, write):
    doc = write("fib.json", FIB_DOC)
    report = run_json(capsys, ["complexity", doc, "--horizon", "8"])
    assert report["complexity"] == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_special(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["special", doc, "--length", "1"])
    assert report["left_special"] == ["0"]
    assert report["right_special"] == ["0"]
    assert report["bispecial"] == ["0"]


@pytest.mark.parametrize("argv, n, count", [
    (["lang", "--length", "2"], 2, 9000000),
    (["special", "--length", "1"], 2, 9000000),
])
def test_word_listing_refused_past_the_limit(capsys, write, argv, n, count):
    # beta 3000 is the full 3000-shift, so 9,000,000 words of length 2:
    # they are counted on oracle states and refused before any is listed
    doc = write("b.json", {"kind": "beta", "beta": "3000"})
    start = time.perf_counter()
    rc, out, err = run(capsys, argv[:1] + [doc] + argv[1:])
    assert time.perf_counter() - start < 2.0
    assert rc == 1 and out == ""
    assert err.strip() == ("error: %d words of length %d exceed the limit %d"
                           % (count, n, cli.WORD_LIMIT))


def test_mfw(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["mfw", doc, "--horizon", "8"])
    assert report["table"] == {"2": ["11"]}
    assert report["note"] == "evidence at horizon 8"


def test_ls(capsys, write):
    doc = write("e.json", EVEN_DOC)
    report = run_json(capsys, ["ls", doc, "--horizon", "13"])
    assert report["ls_set"] == [3, 5, 7, 9, 11, 13]
    assert report["max_gap"] == 2
    assert report["window_densities"]["5"] == pytest.approx(0.4)


def test_ls_even_far_horizon(capsys, write):
    # lengths come from the pair walk, so horizon 1000 is quick and the
    # backward spelling of 0 1^997 0 does not recurse
    doc = write("e.json", EVEN_DOC)
    report = run_json(capsys, ["ls", doc, "--horizon", "1000"])
    assert report["ls_set"] == list(range(3, 1000, 2))


R52_MFW_16 = {
    "2": ["22"], "3": ["211", "212"], "4": ["2102"], "5": ["21012"],
    "6": ["210112"], "7": ["2101111", "2101112"],
    "8": ["21011101", "21011102"], "9": ["210111001", "210111002"],
    "10": ["2101110001", "2101110002"], "11": ["21011100002"],
    "12": ["210111000012"], "13": ["2101110000111", "2101110000112"],
    "14": ["21011100001102"]}


def test_mfw_beta_rational_table(capsys, write):
    # pinned from the enumerating implementation at horizon 16
    doc = write("b.json", {"kind": "beta", "beta": "rational:5/2"})
    assert run_json(capsys, ["mfw", doc, "--horizon", "16"])["table"] == R52_MFW_16
    table = run_json(capsys, ["mfw", doc, "--horizon", "18"])["table"]
    assert {n: w for n, w in table.items() if int(n) <= 16} == R52_MFW_16
    assert set(table) - set(R52_MFW_16) == {"18"}


def test_well_approx(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["well-approx", doc, "--rate", "3",
                               "--horizon", "9"])
    # only n with n + 3 <= 9 are decidable
    assert report["witnesses"] == [2, 3, 4, 5, 6]


def test_entropy(capsys, write):
    doc = write("e.json", EVEN_DOC)
    report = run_json(capsys, ["entropy", doc])
    assert report["entropy"] == pytest.approx(math.log(GOLDEN), abs=1e-9)


# ---- periodic points and measures ------------------------------------------

def test_periodic(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["periodic", doc, "--period", "4"])
    assert report["count"] == 10
    assert report["by_minimal_period"] == {"1": 1, "2": 2, "3": 3, "4": 4}
    assert "0001" in report["words"]


def test_periodic_on_long_memory_sft(capsys, write):
    # memory 11 over three letters: periodic points come from the prefix
    # automaton, never from the 3^11-vertex block graph
    doc = write("ne.json", {"kind": "example-nonempty", "lengths": [3, 5, 12]})
    report = run_json(capsys, ["periodic", doc, "--period", "8"])
    assert report["count"] == 7154
    assert "words" not in report


def test_periodic_over_cap_refused_before_enumerating(capsys, write, monkeypatch):
    # 4,866,930 points of minimal period <= 30: the exact trace count on
    # the prefix automaton refuses without walking a single word
    def enumerate_forbidden(*args):
        raise AssertionError("per_le_enumerate ran")
    monkeypatch.setattr("shiftlab.shifts.per_le_enumerate", enumerate_forbidden)
    doc = write("g.json", GOLDEN_DOC)
    rc, out, err = run(capsys, ["periodic", doc, "--period", "30"])
    assert rc == 1
    assert err.strip() == "error: per_<=30 exceeds the cap 1000000"


@settings(max_examples=15, deadline=None)
@given(st.lists(st.text(alphabet="01", min_size=1, max_size=4), max_size=3))
@example([])
def test_periodic_report_matches_enumeration_random(forbidden):
    # counted reports (and the listed words up to 200 points) match a report
    # built from the enumerated points, in both formats; the full 2-shift
    # has 106 points up to period 6 and 232 up to period 7, and from period
    # 10 on the text lists "10" after "9" only in numeric key order
    alph = Alphabet(("0", "1"))
    spec = FiniteTypeSpec(alph, frozenset(alph.word(t) for t in forbidden))
    points = per_le_enumerate(finite_type_presentation(spec), 11)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        with open(path, "w") as fh:
            json.dump({"kind": "finite-type", "alphabet": ["0", "1"],
                       "forbidden": sorted(set(forbidden))}, fh)
        for period in range(1, 12):
            upto = [(w, q) for w, q in points if q <= period]
            want = {"period_bound": period, "count": len(upto),
                    "by_minimal_period": {}}
            for q in range(1, period + 1):
                c = sum(1 for _, p in upto if p == q)
                if c:
                    want["by_minimal_period"][str(q)] = c
            if len(upto) <= 200:
                want["words"] = ["".join(w) for w, _ in upto]
            for fmt, text in (
                    ("json", json.dumps(want, sort_keys=True, indent=2)),
                    ("text", "\n".join(cli._render_text(want)))):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(["periodic", path, "--period", str(period),
                                   "--format", fmt])
                assert (rc, out.getvalue()) == (0, text + "\n")


@pytest.mark.parametrize("doc, period, count, last", [
    (GOLDEN_DOC, 16, 5622, 2160),
    ({"kind": "example-nonempty", "lengths": [3, 5, 12]}, 12, 499940, 326424),
], ids=["golden", "example-nonempty"])
def test_periodic_counts_without_enumerating(capsys, write, monkeypatch, doc,
                                             period, count, last):
    # over 200 points nothing is listed, so finite-type data never enumerate
    def enumerate_forbidden(*args):
        raise AssertionError("per_le_enumerate ran")
    monkeypatch.setattr("shiftlab.shifts.per_le_enumerate", enumerate_forbidden)
    path = write("d.json", doc)
    report = run_json(capsys, ["periodic", path, "--period", str(period)])
    assert report["count"] == count
    assert report["by_minimal_period"][str(period)] == last
    assert "words" not in report


@pytest.mark.parametrize("doc, period, traces, walks", [
    (GOLDEN_DOC, 6, 1, 1),  # 30 points: counted, then walked to list them
    (GOLDEN_DOC, 16, 1, 0),  # 5622 points: counted, too many to list
    (EVEN_DOC, 6, 0, 1),  # sofic: one walk gives counts and words
], ids=["finite-type-listed", "finite-type-counted", "sofic"])
def test_periodic_report_counts_and_walks_at_most_once(capsys, write, monkeypatch,
                                                       doc, period, traces, walks):
    calls = []

    def spy(name):
        real = getattr(shifts, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(shifts, name, wrapper)

    for name in ("periodic_counts", "per_le_enumerate"):
        spy(name)
    path = write("d.json", doc)
    report = run_json(capsys, ["periodic", path, "--period", str(period)])
    assert sum(report["by_minimal_period"].values()) == report["count"]
    assert len(calls) - calls.count("per_le_enumerate") == traces
    assert calls.count("per_le_enumerate") == walks


def test_nu_exact_with_parry_distance(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["nu", doc, "--exact", "--period", "12",
                               "--depth", "2", "--compare-parry"])
    assert report["cylinders_exact"]["1"] == "18/65"
    assert report["cylinders"]["11"] == 0.0
    assert 0.0 <= report["parry_distance"] < 0.01
    assert "note" in report


@pytest.mark.parametrize("doc, argv", [
    (GOLDEN_DOC, ["--period", "10", "--compare-parry"]),
    # 4,866,930 points: counted, so no enumeration cap applies
    (GOLDEN_DOC, ["--period", "30"]),
    (EVEN_DOC, ["--period", "6"]),
    ({"kind": "beta", "beta": GOLDEN_BETA}, ["--period", "6"]),
    (FIB_DOC, []),
], ids=["finite-type", "finite-type-over-cap", "sofic", "beta", "no-presentation"])
def test_nu_ignores_exact(capsys, write, doc, argv):
    path = write("d.json", doc)
    plain = run(capsys, ["nu", path] + argv)
    assert run(capsys, ["nu", path, "--exact"] + argv) == plain
    assert plain[0] == (1 if doc is FIB_DOC else 0)


def _nu_counts_long_memory(report):
    exact = report["cylinders_exact"]
    assert sum(Fraction(exact[a]) for a in ("0", "1", "2")) == 1
    # 7154 points of minimal period <= 8 (see test_periodic_on_long_memory_sft)
    assert all(7154 % Fraction(v).denominator == 0 for v in exact.values())


def _parry_stationary_sums_to_one(report):
    # one value per allowed 9-word of the memory-10 shift
    assert len(report["stationary"]) == 15116
    assert sum(report["stationary"].values()) == pytest.approx(1, abs=1e-9)


@pytest.mark.parametrize("doc, argv, check", [
    # memory 11 over three letters: the count runs on the prefix automaton
    ({"kind": "example-nonempty", "lengths": [3, 5, 12]},
     ["nu", "--exact", "--period", "8"], _nu_counts_long_memory),
    (GOLDEN_DOC, ["parry"], None),
    (GOLDEN_DOC, ["nu", "--compare-parry"], None),
    (GOLDEN_DOC, ["decompose", "--code", "FLIP", "--average-cutoff", "6"], None),
    (FULL2_DOC, ["autocheck", "--code", "FLIP", "--inverse", "FLIP"], None),
    # memory 10: its block graph has 15,116 states
    ({"kind": "example-nonempty", "lengths": [3, 6, 10]}, ["parry"],
     _parry_stationary_sums_to_one),
], ids=["nu-exact", "parry", "nu-compare-parry", "decompose", "autocheck",
        "parry-memory-10"])
def test_nu_counts_long_memory_sft_without_block_graph(capsys, write, monkeypatch,
                                                       doc, argv, check):
    # every command reads the presentation; none builds the block graph
    def block_graph_forbidden(self):
        raise AssertionError("block graph built")
    monkeypatch.setattr("shiftlab.shifts.RealizedShift.block_graph",
                        block_graph_forbidden)
    path = write("d.json", doc)
    flip = write("flip.json", FLIP_CODE)
    argv = [flip if a == "FLIP" else a for a in argv]
    report = run_json(capsys, argv[:1] + [path] + argv[1:])
    if check is not None:
        check(report)


def test_parry(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["parry", doc, "--depth", "2"])
    assert report["perron"] == pytest.approx(GOLDEN, abs=1e-9)
    assert report["cylinders"]["1"] == pytest.approx((5 - 5 ** 0.5) / 10)
    assert report["cylinders"]["11"] == pytest.approx(0.0, abs=1e-12)


def test_decompose_with_average(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    code = write("flip.json", FLIP_CODE)
    report = run_json(capsys, ["decompose", doc, "--code", code,
                               "--depth", "2", "--average-cutoff", "6"])
    assert report["count"] == 1
    comp = report["components"][0]
    assert comp["entropy"] == pytest.approx(math.log(GOLDEN), abs=1e-9)
    assert comp["cylinders"]["00"] == pytest.approx(0.0, abs=1e-12)
    assert report["average"]["weights"] == [1.0]


def test_decompose_average_honours_cap(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    code = write("flip.json", FLIP_CODE)
    rc, out, err = run(capsys, ["decompose", doc, "--code", code,
                                "--average-cutoff", "12", "--cap", "10"])
    assert rc == 1
    assert out == ""
    assert err.strip() == "error: per_<=12 exceeds the cap 10"


def test_commands_run_without_numpy_and_mpmath(tmp_path):
    # the runtime needs only the standard library, decimal beta literals
    # included: a poisoned import of numpy or mpmath must not be reached
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(GOLDEN_DOC))
    flip = tmp_path / "flip.json"
    flip.write_text(json.dumps(FLIP_CODE))
    decimal = tmp_path / "decimal.json"
    decimal.write_text(json.dumps({"kind": "beta", "beta": "1.8"}))
    argvs = [["entropy", str(golden)],
             ["parry", str(golden), "--depth", "2"],
             ["nu", str(golden), "--exact", "--period", "12", "--compare-parry"],
             ["decompose", str(golden), "--code", str(flip),
              "--average-cutoff", "6"],
             ["beta", "expand", GOLDEN_BETA],
             ["beta", "expand", "2.8437", "--digits", "48"],
             ["beta", "lsdiag", "1.8", "--horizon", "24"],
             ["mfw", str(decimal)]]
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.modules['mpmath'] = None\n"
        "from shiftlab import cli\n"
        "sys.exit(max(cli.main(a) for a in json.loads(sys.argv[1])))\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_push(capsys, write):
    doc = write("f2.json", FULL2_DOC)
    code = write("flip.json", FLIP_CODE)
    report = run_json(capsys, ["push", doc, "--code", code,
                               "--period", "6", "--depth", "1"])
    assert report["cylinders"] == {"(empty)": 1.0, "0": 0.5, "1": 0.5}
    assert report["cylinders_exact"]["0"] == "1/2"
    assert report["target_alphabet"] == ["0", "1"]


def test_autocheck_flip_on_full_shift(capsys, write):
    doc = write("f2.json", FULL2_DOC)
    code = write("flip.json", FLIP_CODE)
    report = run_json(capsys, ["autocheck", doc, "--code", code,
                               "--inverse", code, "--period", "8"])
    assert report["within_tol"] is True
    assert report["distance"] == 0.0


def test_autocheck_flip_not_invariant_on_golden(capsys, write):
    # flip is its own inverse but maps the no-11 shift onto the no-00
    # shift, so it is no automorphism and there is nothing to measure
    doc = write("g.json", GOLDEN_DOC)
    code = write("flip.json", FLIP_CODE)
    rc, out, err = run(capsys, ["autocheck", doc, "--code", code,
                                "--inverse", code, "--period", "8"])
    assert rc == 1
    assert out == ""
    assert err.strip() == "error: the code does not map the shift onto itself"


@pytest.mark.parametrize("argv", [
    ["autocheck", "FULL2", "--code", "FLIP", "--inverse", "FLIP", "--period", "30"],
    ["push", "GOLDEN", "--code", "FLIP", "--period", "30"],
], ids=["autocheck", "push"])
def test_finite_type_images_count_without_enumerating(capsys, write, monkeypatch,
                                                      argv):
    # about 2.1e9 points on the full 2-shift and 4.9e6 on the golden mean
    # shift up to period 30: counted, so no point is listed or pushed
    def forbidden(*args):
        raise AssertionError("a point list was built")
    for name in ("shifts.per_le_enumerate", "shifts.pushforward",
                 "measures.pushforward"):
        monkeypatch.setattr("shiftlab." + name, forbidden)
    files = {"FULL2": write("f2.json", FULL2_DOC),
             "GOLDEN": write("g.json", GOLDEN_DOC),
             "FLIP": write("flip.json", FLIP_CODE)}
    report = run_json(capsys, [files.get(a, a) for a in argv])
    if argv[0] == "autocheck":
        assert report["distance"] == 0.0 and report["within_tol"] is True
    else:
        nu = run_json(capsys, ["nu", files["GOLDEN"], "--period", "30"])
        assert report["cylinders_exact"]["0"] == nu["cylinders_exact"]["1"]
        assert report["cylinders_exact"]["01"] == nu["cylinders_exact"]["10"]
        assert report["cylinders_exact"]["00"] == nu["cylinders_exact"]["11"] == "0/1"


@pytest.mark.parametrize("argv", [
    ["periodic", "EVEN", "--period", "-1"],
    ["periodic", "GOLDEN", "--period", "0"],
    ["periodic", "FIB", "--period", "0"],
    ["nu", "EVEN", "--period", "0"],
    ["nu", "GOLDEN", "--period", "-1"],
    ["push", "EVEN", "--code", "FLIP", "--period", "0"],
    ["push", "GOLDEN", "--code", "FLIP", "--period", "0"],
    ["autocheck", "FULL2", "--code", "FLIP", "--inverse", "FLIP", "--period", "0"],
], ids=["periodic-sofic", "periodic-finite-type", "periodic-substitution",
        "nu-sofic", "nu-finite-type", "push-sofic", "push-finite-type",
        "autocheck"])
def test_period_below_one_is_refused(capsys, write, argv):
    files = {"EVEN": write("even.json", EVEN_DOC), "GOLDEN": write("g.json", GOLDEN_DOC),
             "FIB": write("fib.json", FIB_DOC), "FULL2": write("f2.json", FULL2_DOC),
             "FLIP": write("flip.json", FLIP_CODE)}
    rc, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert (rc, out) == (1, "")
    assert err.strip() == "error: period bound must be >= 1"


@pytest.mark.parametrize("argv, doc, message", [
    (["parry", "DOC"], EVEN_DOC,
     "the Parry measure needs finite-type data; kind 'sofic' has none"),
    (["decompose", "DOC", "--code", "FLIP"], EVEN_DOC,
     "decomposition needs finite-type data; kind 'sofic' has none"),
    (["sofic", "det", "DOC"], FIB_DOC,
     "determinization needs a finite presentation; kind 'substitution' has none"),
    (["entropy", "DOC"], FIB_DOC,
     "entropy needs a finite presentation; kind 'substitution' has none"),
    (["periodic", "DOC"], INDUCED_GOLDEN_DOC,
     "periodic enumeration needs a finite presentation; kind 'induced' has none"),
    (["subst", "lang", "DOC"], GOLDEN_DOC,
     "substitution language needs substitution rules; kind 'finite-type' has none"),
    (["induce", "DOC"], EVEN_DOC,
     "induction data needs an induced recoding; kind 'sofic' has none"),
    (["speedup-compare", "DOC"], EVEN_DOC,
     "speedup comparison needs an induced recoding; kind 'sofic' has none"),
], ids=["parry-sofic", "decompose-sofic", "sofic-det-substitution",
        "entropy-substitution", "periodic-induced", "subst-lang-finite-type",
        "induce-sofic", "speedup-compare-sofic"])
def test_missing_data_is_refused_in_one_form(capsys, write, argv, doc, message):
    files = {"DOC": write("d.json", doc), "FLIP": write("flip.json", FLIP_CODE)}
    rc, out, err = run(capsys, [files.get(a, a) for a in argv] + ["--horizon", "6"])
    assert (rc, out) == (1, "")
    assert err == "error: %s\n" % message


def test_autocheck_needs_finite_type_data(capsys, write):
    doc = write("even.json", EVEN_DOC)
    code = write("flip.json", FLIP_CODE)
    rc, out, err = run(capsys, ["autocheck", doc, "--code", code, "--inverse", code])
    assert rc == 1
    assert err.startswith("error: the automorphism check needs finite-type data")


# ---- beta commands ---------------------------------------------------------

def test_beta_expand_finite(capsys):
    report = run_json(capsys, ["beta", "expand", GOLDEN_BETA])
    assert report["status"] == "finite"
    assert report["digits"] == [1, 1]
    assert report["star_digits"] == [1, 0]
    assert report["star_period"] == 2
    assert report["alphabet_max"] == 1


def test_beta_expand_decimal_is_truncated(capsys):
    # a literal is the rational it spells: truncated unless it is an integer
    report = run_json(capsys, ["beta", "expand", "2.5", "--digits", "12"])
    assert report["status"] == "truncated"
    assert report["digits"][0] == 2
    report = run_json(capsys, ["beta", "expand", "3", "--digits", "12"])
    assert report["status"] == "finite"
    assert report == run_json(capsys, ["beta", "expand", "rational:3",
                                       "--digits", "12"])


def test_integer_literal_presents_the_full_shift(capsys, write):
    three = write("b3.json", {"kind": "beta", "beta": "3"})
    assert run_json(capsys, ["lang", three, "--length", "1"])["words"] == ["0", "1", "2"]
    two = write("b2.json", {"kind": "beta", "beta": "2"})
    assert run_json(capsys, ["mfw", two, "--horizon", "8"])["table"] == {}


def test_beta_mfw(capsys):
    report = run_json(capsys, ["beta", "mfw", GOLDEN_BETA, "--horizon", "6"])
    assert report["table"] == {"2": ["11"]}


def test_beta_mfw_matches_mfw_on_the_document(capsys, write):
    path = write("b.json", {"kind": "beta", "beta": "rational:101/8"})
    rc, direct, _ = run(capsys, ["beta", "mfw", "rational:101/8", "--horizon", "4"])
    assert rc == 0
    rc, via_document, _ = run(capsys, ["mfw", path, "--horizon", "4"])
    assert rc == 0
    assert direct == via_document
    assert direct.index("12.8\n") < direct.index("12.10\n")


def test_beta_lsdiag(capsys):
    report = run_json(capsys, ["beta", "lsdiag", SILVER_LIKE_BETA,
                               "--horizon", "24"])
    assert report["verdict"] == "unstable-evidence"
    assert report["d0_positions"] == [0]


def test_beta_graph(capsys):
    report = run_json(capsys, ["beta", "graph", GOLDEN_BETA])
    assert len(report["states"]) == 2
    assert len(report["edges"]) == 3
    assert report["entropy"] == pytest.approx(math.log(GOLDEN), abs=1e-9)


def test_beta_example(capsys):
    report = run_json(capsys, ["beta", "example", "--mode", "specified",
                               "--steps", "2"])
    assert report["length"] == 22
    assert report["prefix"][:4] == [2, 2, 2, 1]


# ---- substitution and induction commands -----------------------------------

def test_subst_lang(capsys, write):
    doc = write("fib.json", FIB_DOC)
    report = run_json(capsys, ["subst", "lang", doc, "--length", "3"])
    assert report["rules"] == {"0": "01", "1": "0"}
    assert report["count"] == 4
    assert "010" in report["words"]


def test_subst_profile(capsys, write):
    doc = write("fib.json", FIB_DOC)
    report = run_json(capsys, ["subst", "profile", doc, "--horizon", "10"])
    assert set(report["differences"]) == {1}
    assert report["liminf_evidence"] == 1
    assert report["bispecial_lengths"] == [0, 1, 3, 6]


def test_subst_profile_rejects_other_kinds(capsys, write):
    doc = write("g.json", GOLDEN_DOC)
    rc, _, err = run(capsys, ["subst", "profile", doc])
    assert rc == 1
    assert err.startswith("error:")


def test_induce(capsys, write):
    doc = write("ind.json", INDUCED_GOLDEN_DOC)
    report = run_json(capsys, ["induce", doc, "--horizon", "5"])
    assert sorted(report["superalphabet"]) == ["000", "001", "100", "101"]
    assert report["return_times"] == {"000": 1, "001": 2, "100": 1, "101": 2}
    assert report["complexity"] == [1, 4, 8, 16, 32, 64]


def test_speedup_compare(capsys, write):
    doc = write("ind.json", INDUCED_FIB_DOC)
    report = run_json(capsys, ["speedup-compare", doc, "--horizon", "14"])
    assert report["base_ls_set"] == [2, 3, 5, 8, 13]
    assert report["induced_ls_set"] == [2, 4, 7, 12]
    assert report["min_rho"] == 1
    assert report["max_rho"] == 2
    assert [row["satisfied"] for row in report["rows"]] == [True, True, True]
    assert [row["witness"] for row in report["rows"]] == \
        [[2, 3], [3, 8], [8, 13]]
    assert "not verified" in report["note"]


# ---- labeled-graph commands ------------------------------------------------

def test_sofic_det(capsys, write):
    doc = write("e.json", EVEN_DOC)
    report = run_json(capsys, ["sofic", "det", doc])
    assert report["states"] == 3
    assert report["edges"] == 5
    assert report["alphabet"] == ["0", "1"]


def test_sofic_eq(capsys, write):
    even = write("e.json", EVEN_DOC)
    golden = write("g.json", GOLDEN_DOC)
    report = run_json(capsys, ["sofic", "eq", even, even, "--horizon", "12"])
    assert report["equal_up_to_horizon"] is True
    report = run_json(capsys, ["sofic", "eq", golden, even, "--horizon", "12"])
    assert report["equal_up_to_horizon"] is False


def test_sofic_issft(capsys, write):
    golden = write("g.json", GOLDEN_DOC)
    even = write("e.json", EVEN_DOC)
    report = run_json(capsys, ["sofic", "issft", golden])
    assert report["is_sft"] is True
    assert report["det_states"] == 2
    report = run_json(capsys, ["sofic", "issft", even])
    assert report["is_sft"] is False


def test_sofic_thm1(capsys, write):
    doc = write("e.json", EVEN_DOC)
    report = run_json(capsys, ["sofic", "thm1", doc, "--horizon", "21"])
    assert report["is_sft"] is False
    assert report["mfw_lengths"] == list(range(3, 22, 2))
    assert report["density_lower_bound"] == pytest.approx(4 / 9)


# ---- tau ---------------------------------------------------------------------

def test_tau_values(capsys):
    assert run_json(capsys, ["tau", "1"])["value"] == 4
    report = run_json(capsys, ["tau", "3"])
    assert report["n"] == 3
    assert report["value"] == 44641050


def test_json_output_is_byte_stable(capsys):
    rc1, out1, _ = run(capsys, ["tau", "3", "--format", "json"])
    rc2, out2, _ = run(capsys, ["tau", "3", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1) == {"n": 3, "value": 44641050}


def test_closed_stdout_exits_quietly(write):
    # `shiftlab ls fib.json --format json | head`: the reader is gone
    # before the report is written
    doc = write("fib.json", FIB_DOC)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", "ls", doc,
                               "--format", "json"], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
